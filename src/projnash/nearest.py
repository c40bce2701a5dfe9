"""Exact nearest-neighbour distances with numpy alone.

:class:`NearestIndex` answers the complement clouds' graph-distance
queries.  It returns the least computed squared distances, whose square
roots are the very bits ``scipy.spatial.cKDTree.query`` returns (the tests
compare the two), so no route needs scipy to rank best responses.  It is imported on a cloud's first query.
"""

from __future__ import annotations

import math

import numpy as np

#: most pair entries in one slab of a query (as ``game.CHECK_SLAB``)
PAIR_SLAB = 65_536


def _sum_squares(parts: np.ndarray) -> np.ndarray:
    """``sum_j parts[j] ** 2`` over the first axis, added as cKDTree adds a
    squared distance: four interleaved accumulators over the largest
    multiple of 4 coordinates, added as ``((a0 + a1) + a2) + a3``, then the
    rest in turn (below 8 coordinates, all in turn)."""
    sq = parts * parts
    full = len(sq) - len(sq) % 4
    for j in range(4, full):
        sq[j % 4] += sq[j]
    out = sq[0] + sq[1] + sq[2] + sq[3] if full else sq[0]
    for j in range(max(full, 1), len(sq)):
        out += sq[j]
    return out


def _runs(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``keys`` starts."""
    return np.flatnonzero(np.concatenate(([keys.size > 0], keys[1:] != keys[:-1])))


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[r], ..., starts[r] + counts[r] - 1`` for every ``r`` in turn."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _slabs(counts: np.ndarray):
    """Ranges of consecutive items whose counts add up to at most
    ``PAIR_SLAB``; no count is above that."""
    ends, start = np.cumsum(counts), 0
    while start < counts.shape[0]:
        stop = int(np.searchsorted(ends, (ends[start - 1] if start else 0) + PAIR_SLAB, "right"))
        yield start, stop
        start = stop


class NearestIndex:
    """Exact squared Euclidean distance from query rows to the nearest of a
    fixed set of points: its square root is bitwise what
    ``scipy.spatial.cKDTree.query`` returns.

    Points are bucketed on a grid of edge ``step`` (doubled until the keys
    fit in 64 bits and there are at most ``PAIR_SLAB`` buckets; a bucket
    of more points is cut into runs of at most that), and each bucket keeps
    the exact bounding box of its points.  A batch of queries is grouped on
    the grid of twice the edge, each group with the exact bounding box of
    its queries.  Then, in slabs of at most ``PAIR_SLAB`` pairs:

    1. group x bucket: the squared box-to-box distance bounds each pair
       below and the farthest-corner one bounds each query's nearest
       distance above; the group's candidates are the buckets whose lower
       bound is within the least upper bound;
    2. query x candidate: the squared distance to the box; the least of
       them picks the closest candidates, whose points bound the query's
       nearest distance above;
    3. query x point, over the closest candidates and every other one
       whose bound from 2 is within that.

    A bound adds the squares of differences of coordinates that bound the
    pair's, in the order of :func:`_sum_squares`.  Rounding is monotone, so
    no bound crosses the computed distance it bounds: no pruned bucket
    holds a point nearer than the nearest kept, and each result is the
    least computed squared distance over all points.
    """

    def __init__(self, points: np.ndarray, step: float):
        cols = np.ascontiguousarray(points.T)
        n = cols.shape[1]
        self.origin = cols.min(axis=1, initial=np.inf)
        while True:
            cells = (cols - self.origin[:, None]) / step                      # >= 0
            # one free cell on each side, for query groups past the points
            self.shape = tuple(int(c) + 3 for c in cells.max(axis=1, initial=0.0))
            if math.prod(self.shape) < 2 ** 62:
                key = np.ravel_multi_index(tuple(cells.astype(np.int64) + 1), self.shape)
                order = np.argsort(key)
                starts = _runs(key[order])
                if starts.shape[0] <= PAIR_SLAB:
                    break
            step *= 2.0
        self.step, self.cols = step, np.take(cols, order, axis=1)
        sizes = np.diff(starts, append=n)
        if n and sizes.max() > PAIR_SLAB:
            starts = np.flatnonzero((np.arange(n) - np.repeat(starts, sizes)) % PAIR_SLAB == 0)
            sizes = np.diff(starts, append=n)
        self.starts, self.sizes = starts, sizes
        self.lo = np.minimum.reduceat(self.cols, starts, axis=1)
        self.hi = np.maximum.reduceat(self.cols, starts, axis=1)

    def query(self, queries: np.ndarray) -> np.ndarray:
        m = queries.shape[0]
        if m == 0 or self.starts.shape[0] == 0:
            return np.full(m, np.inf)
        cells = np.floor((queries - self.origin) / (2.0 * self.step))
        cells = np.clip(cells, -1, np.array(self.shape) - 2).astype(np.int64) + 1
        key = np.ravel_multi_index(tuple(cells.T), self.shape)
        order = np.argsort(key)
        q = np.ascontiguousarray(queries[order].T)
        groups = _runs(key[order])
        qlo = np.minimum.reduceat(q, groups, axis=1)[:, :, None]
        qhi = np.maximum.reduceat(q, groups, axis=1)[:, :, None]
        cand, count = [], []
        rows = PAIR_SLAB // self.starts.shape[0]
        for s in range(0, groups.shape[0], rows):                           # pass 1
            below = self.lo[:, None, :] - qhi[:, s:s + rows]
            above = qlo[:, s:s + rows] - self.hi[:, None, :]
            # the farthest corner's offset is -min(below, above), exactly
            bound = _sum_squares(np.minimum(below, above)).min(axis=1)
            gap = np.maximum(np.maximum(below, above, out=below), 0.0, out=below)
            within = _sum_squares(gap) <= bound[:, None]
            cand.append(np.nonzero(within)[1])
            count.append(np.count_nonzero(within, axis=1))
        cand, count = np.concatenate(cand), np.concatenate(count)
        group = np.repeat(np.arange(groups.shape[0]), np.diff(groups, append=m))
        counts, firsts = count[group], (np.cumsum(count) - count)[group]
        best = np.empty(m)
        for s, e in _slabs(counts):                                         # pass 2
            pq = np.repeat(np.arange(s, e), counts[s:e])
            pb = cand[_expand(firsts[s:e], counts[s:e])]
            at = np.take(q, pq, axis=1)
            gap = np.maximum(np.take(self.lo, pb, axis=1) - at, at - np.take(self.hi, pb, axis=1))
            lb = _sum_squares(np.maximum(gap, 0.0, out=gap))
            least = np.minimum.reduceat(lb, np.cumsum(counts[s:e]) - counts[s:e])
            closest = lb == np.repeat(least, counts[s:e])
            bound = self._least(q, pq[closest], pb[closest], s, e)       # pass 3
            rest = ~closest & (lb <= bound[pq - s])
            best[s:e] = np.minimum(bound, self._least(q, pq[rest], pb[rest], s, e))
        out = np.empty(m)
        out[order] = best
        return out

    def _least(self, q: np.ndarray, pq: np.ndarray, pb: np.ndarray,
               s: int, e: int) -> np.ndarray:
        """Least squared distance from each query ``s .. e - 1`` (columns of
        ``q``) to the points of its buckets (query ``pq[t]``, bucket
        ``pb[t]``, in query order); ``inf`` for a query with none."""
        out = np.full(e - s, np.inf)
        sizes = self.sizes[pb]
        for a, b in _slabs(sizes):
            eq = np.repeat(pq[a:b], sizes[a:b])
            diff = np.take(q, eq, axis=1)
            diff -= np.take(self.cols, _expand(self.starts[pb[a:b]], sizes[a:b]), axis=1)
            runs = _runs(eq)
            rows = eq[runs] - s
            out[rows] = np.minimum(out[rows], np.minimum.reduceat(_sum_squares(diff), runs))
        return out

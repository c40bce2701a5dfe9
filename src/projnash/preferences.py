"""Set-valued strict-preference maps and their graph-distance function.

A preference map assigns to each joint strategy ``x`` the set of own-block
strategies a player strictly prefers to the current one.  Every kind is a
:class:`PreferenceMap` and answers the solvers' questions itself (its strict
gain, the points a certificate scans, its hull and self-exclusion probes,
its normal field).  Three kinds:

* ``UtilityInduced`` -- preferred points are strict upper level sets of a
  polynomial utility, ``{z : u(x_-i, z) > u(x) + margin}``.
* ``DirectionField`` -- preferred points form the open half-space
  ``{z : <c(x), z - x_i> > offset}`` for an affine field ``c``; when
  ``c(x) = 0`` the set is empty (the strict inequality has no solutions).
* ``Sampled`` -- membership is a finite table over a declared grid; queries
  off the grid are input errors.

The graph distance of a preference map is the Euclidean distance from a pair
``(y, z)`` to the closed complement of the preference graph
``{(x, z) : z preferred at x}``.  It is 0 exactly on non-preferred pairs,
positive on preferred ones, and 1-Lipschitz.  Half-space-structured variants
get exact closed forms; everything else falls back to a distance cloud, one
per context, scanned from the complement boundary on a grid only where its
queries reach.  Every site, that cloud included, evaluates the strict gain
through one kernel, :meth:`PreferenceMap._gain_factors`, and reads one
rule, :func:`strictly_preferred`; no ``(x, z)`` gain polynomial is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .expressions import AffineMap, Polynomial
from .geometry import (Box, ConvexSet, cell_count_text, grid_axis, grid_axis_size,
                       mesh_points, probe_points)

_SQRT2 = math.sqrt(2.0)

#: a computed strict gain means "preferred" only above this guard, so exact
#: ties and points a few ulps outside a constraint never are
GAIN_GUARD = 1e-12
#: grid-point matching tolerance for the sampled variant
GRID_MATCH_TOL = 1e-9
#: grid cells per block of whole slabs in a complement-cloud scan
_CLOUD_BLOCK = 65_536
#: most grid cells of a complement cloud built whole on its first query;
#: a larger grid is built only where its queries reach
_CLOUD_WHOLE = 1 << 20
#: edge of a complement cloud's nearest-neighbour buckets, in grid steps h_g
CLOUD_BUCKET_STEPS = 8


# ---------------------------------------------------------------------------
# Variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreferenceMap:
    """A player's strict-preference map ``x -> P_i(x)`` over the own block
    ``own_start : own_start + own_dim`` of ``n_vars`` joint coordinates.

    The defaults serve the factorized kinds, whose strict gain is
    ``sum_t L_t(x) z^e_t - sum_t L_t(x) x_i^e_t - margin`` with the rival
    factors ``L_t`` from ``_gain_terms``.
    """

    player_index: int
    n_vars: int
    own_start: int
    own_dim: int

    #: every preferred set is an open half-space ``{z : <L(x), z - x_i> >
    #: margin}`` (or empty), whose normal is ``normal_field``
    halfspace_valued = False
    #: the normal field as an affine map, where it is one
    field_map = None
    #: a certificate scans the declared points inside the constraint value
    #: (``declared_scan``), exhaustively, instead of the solvers' grid over
    #: it plus seeded samples
    scans_declared = False
    #: a utility exactly concave in the own block (decided in rational
    #: arithmetic), whose tangent inequality bounds every preferred point,
    #: up to the rounding ``tangent_errors`` bounds
    concave = False

    @property
    def hull_exact(self) -> bool:
        """Every preferred set is its own convex hull, which then never holds
        ``x_i`` (its gain cancels to exactly ``-margin <= 0``): the
        half-space kinds and the exactly concave utilities, whose strict
        upper level sets are convex."""
        return self.halfspace_valued or self.concave

    def _gain_factors(self, xs: np.ndarray, zs: np.ndarray):
        """The strict gain on ``xs`` × ``zs`` rows as ``(lead, base, margin,
        lift)``: ``gain[rows] = (lift(rows) - base[rows, None]) - margin``,
        where ``lift`` evaluates ``A_L(z) = sum_t L_t z^e_t`` from the rival
        factors ``L = lead[rows]``.  Candidates ``zs`` of shape ``(m, s,
        own_dim)`` pair row ``r`` with its own ``zs[r]``; every entry is the
        same products added in the same order."""
        lead, exps, margin = self._gain_terms(xs)
        own, monos = _own_of(self, xs), [_monomial(zs, e) for e in exps]
        base = np.zeros(xs.shape[0])
        for t, e in enumerate(exps):
            base += lead[:, t] * _monomial(own, e)

        def lift(rows) -> np.ndarray:              # L_0 z^e_0 + L_1 z^e_1 + ...
            a = np.zeros((base[rows].shape[0], zs.shape[-2]))
            for t, mono in enumerate(monos):
                a += lead[rows, t][:, None] * (mono if zs.ndim == 2 else mono[rows])
            return a
        return lead, base, margin, lift

    def exclusion_probes(self, probes: Callable[[], np.ndarray]) -> np.ndarray:
        """The joint points at which self-exclusion is checked, given the
        builder of the probe grid over the hull product: that grid."""
        return probes()

    def _sample(self, x: np.ndarray, region: ConvexSet, budget: int,
                rng: Optional[np.random.Generator]) -> np.ndarray:
        """The preferred points among ``budget`` seeded probes of ``region``."""
        candidates = probe_points(region, budget, np.random.default_rng(0) if rng is None else rng)
        return candidates[strictly_preferred(strict_gain_outer(self, x[None, :], candidates)[0])]

    def _hull_contains(self, x: np.ndarray, z: np.ndarray, window: ConvexSet,
                       budget: int, rng: Optional[np.random.Generator]) -> bool:
        """``z`` preferred, or inside the hull of the preferred samples in
        ``window``."""
        return preferred(self, x, z) or _in_convex_hull(
            self._sample(x, window, budget, rng), z)

    @cached_property
    def _distance_forms(self) -> tuple:
        """:func:`_halfspace_form` and :func:`_rival_scalar_form`, once per
        preference."""
        return _halfspace_form(self), _rival_scalar_form(self)


@dataclass(frozen=True)
class UtilityInduced(PreferenceMap):
    """Preference induced by a polynomial utility over the joint vector."""

    utility: Polynomial
    margin: float = 0.0

    def __post_init__(self):
        if self.utility.n_vars != self.n_vars:
            raise InputError("utility arity does not match the joint dimension")
        if not 0 <= self.margin < math.inf:           # NaN too: it prefers nothing
            raise InputError("strictness margin must be finite and nonnegative")

    @cached_property
    def own_gradient(self) -> list[Polynomial]:
        return [self.utility.partial(self.own_start + j) for j in range(self.own_dim)]

    @cached_property
    def _own_quadratic(self) -> Optional[list[tuple[int, int, float]]]:
        """The own-quadratic terms ``c z_a z_b`` as ``(a, b, c)``, or None
        when a quadratic own term has a rival factor or an own term has
        degree above 2."""
        k, s = self.own_dim, self.own_start
        out = []
        for e, c in self.utility.terms:
            deg = sum(e[s:s + k])
            if deg > 2 or (deg == 2 and sum(e) != 2):
                return None                 # rival-modulated or cubic own term
            if deg == 2:
                a, b = (j for j in range(k) for _ in range(e[s + j]))
                out.append((a, b, c))
        return out

    @cached_property
    def concave(self) -> bool:
        """The own quadratic form is negative semidefinite in rational
        arithmetic: symmetric elimination of its negation meets no negative
        pivot and no zero pivot with a nonzero row.  No eigenvalue is
        tolerated: a form with an eigenvalue in ``(0, 1e-12]`` is not
        concave.  Own degree at most 1 counts as concave; a cubic or
        rival-modulated quadratic own term does not."""
        terms = self._own_quadratic
        if terms is None:
            return False
        from fractions import Fraction      # imported on first use
        k = self.own_dim
        m = [[Fraction(0)] * k for _ in range(k)]
        for a, b, c in terms:
            m[a][b] -= Fraction(c) / 2
            m[b][a] -= Fraction(c) / 2
        for p in range(k):
            if m[p][p] < 0 or (m[p][p] == 0 and any(m[p][p:])):
                return False
            for r in range(p + 1, k) if m[p][p] else ():
                f = m[r][p] / m[p][p]
                for c in range(p, k):
                    m[r][c] -= f * m[p][c]
        return True

    def tangent_errors(self, xs: np.ndarray, reach: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Rowwise bounds on rounding at ``xs`` rows: on ``|A~(z) - A(z)| +
        |B~ - B|`` of the computed strict gain (``A`` the lift, ``B`` the
        base; every ``|z_j| <= reach_j``), and on the 1-norm error of the
        computed ``normal_field``.

        Each is ``2 gamma_K`` times its magnitude: ``sum_t A_t (reach^e_t +
        |x_i|^e_t)`` and ``sum_j sum_t A_t e_tj |x_i|^(e_t - 1_j)``, with
        ``A_t`` the rival factor ``L_t`` over absolute coefficients and
        coordinates.  Every entry is a sum of products that rounds at most
        ``K = 2 (n + P) + 8`` times (``P`` own-reading terms; :func:`_gamma`);
        the factor 2 covers the rounding of the magnitudes."""
        read, rival, coeffs, starts, exps = self._own_groups
        err = 2.0 * _gamma(2 * (self.n_vars + coeffs.shape[0]) + 8)
        absx = np.abs(xs)
        lead = np.add.reduceat(np.prod(absx[:, None, read] ** rival, axis=2) * np.abs(coeffs),
                               starts, axis=1)                          # (m, T)
        e = np.array(exps, dtype=np.int64)                              # (T, k)
        own = _own_of(self, absx)
        mono = lambda v, powers: np.prod(v[:, None, :] ** powers, axis=2)
        gain = np.sum(lead * (np.prod(reach ** e, axis=1) + mono(own, e)), axis=1)
        unit = np.eye(self.own_dim, dtype=np.int64)
        field = sum(np.sum(lead * e[:, j] * mono(own, np.maximum(e - unit[j], 0)), axis=1)
                    for j in range(self.own_dim))
        return err * gain, err * field

    @cached_property
    def halfspace_valued(self) -> bool:
        """Every own exponent has degree 1 (or there is none): the gain is
        affine in ``z``, with the own gradient as its normal."""
        return all(sum(e) == 1 for e in self._own_groups[4])

    @cached_property
    def field_map(self) -> Optional[AffineMap]:
        """The own gradient, when every component has degree <= 1."""
        if all(g.degree() <= 1 for g in self.own_gradient):
            return AffineMap.from_polynomials(self.own_gradient)
        return None

    def normal_field(self, xs: np.ndarray) -> np.ndarray:
        """The own gradient at ``xs`` rows; its negated unit vector is the
        candidate normal direction."""
        return np.stack([g.eval_many(xs) for g in self.own_gradient], axis=1)

    @cached_property
    def _own_groups(self) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray, tuple]:
        """The utility's terms that read the own block, sorted by own
        exponent: the span of joint columns from the first to the last one
        their rival factors read, their exponents on that span (own columns
        zeroed), their coefficients, where each own exponent's group
        starts, and the distinct own exponents.  Terms free of the own
        block cancel in every gain and are dropped."""
        own = slice(self.own_start, self.own_start + self.own_dim)
        terms = sorted((e[own], e, c) for e, c in self.utility.terms if any(e[own]))
        rival = np.array([e for _, e, _ in terms], dtype=np.int64).reshape(-1, self.n_vars)
        rival[:, own] = 0
        read = np.flatnonzero(rival.any(axis=0))
        read = slice(int(read[0]), int(read[-1]) + 1) if read.size else slice(0, 0)
        starts = [r for r in range(len(terms)) if r == 0 or terms[r][0] != terms[r - 1][0]]
        return (read, rival[:, read], np.array([c for _, _, c in terms]),
                np.array(starts, dtype=np.intp), tuple(terms[r][0] for r in starts))

    @cached_property
    def _gain_axes(self) -> tuple[list[int], list[int]]:
        """The joint axes the rival factors read, and the own axes the base
        reads: those of the own exponents."""
        read, rival, _, _, exps = self._own_groups
        own = np.array(exps, dtype=np.int64).reshape(-1, self.own_dim).any(axis=0)
        return ((read.start + np.flatnonzero(rival.any(axis=0))).tolist(),
                (self.own_start + np.flatnonzero(own)).tolist())

    def _gain_terms(self, xs: np.ndarray) -> tuple[np.ndarray, tuple, float]:
        """Rival factors ``L_t(x)`` (one column per own exponent ``e_t``),
        the exponents, and the margin: ``u(x_-i, z) = sum_t L_t(x) z^e_t``
        plus terms free of ``z``.  Only the span of columns the factors
        read is raised: the other powers are exactly 1.0, and ``np.prod``
        over the last axis multiplies in order, so the bits are those of
        the product over every column."""
        read, rival, coeffs, starts, exps = self._own_groups
        terms = np.prod(xs[:, None, read] ** rival, axis=2) * coeffs    # (m, P)
        return np.add.reduceat(terms, starts, axis=1), exps, self.margin


@dataclass(frozen=True)
class DirectionField(PreferenceMap):
    """Open half-space preference ``{z : <c(x), z - x_i> > offset}``."""

    c: AffineMap
    offset: float = 0.0

    halfspace_valued = True

    def __post_init__(self):
        if self.c.in_dim != self.n_vars or self.c.out_dim != self.own_dim:
            raise InputError("direction field shape does not match player dimensions")
        if not 0 <= self.offset < math.inf:
            raise InputError("direction offset must be finite and nonnegative")

    @property
    def margin(self) -> float:
        return self.offset

    @property
    def field_map(self) -> AffineMap:
        return self.c

    def normal_field(self, xs: np.ndarray) -> np.ndarray:
        """``c`` at ``xs`` rows (see :meth:`UtilityInduced.normal_field`)."""
        return self.c.eval_many(xs)

    @cached_property
    def _gain_axes(self) -> tuple[list[int], list[int]]:
        """The nonzero columns of ``c``, and the own axes of its nonzero rows
        (see :meth:`UtilityInduced._gain_axes`)."""
        a, b = self.c._np
        return (np.flatnonzero(a.any(axis=0)).tolist(),
                (self.own_start + np.flatnonzero(a.any(axis=1) | (b != 0))).tolist())

    def _gain_terms(self, xs: np.ndarray) -> tuple[np.ndarray, tuple, float]:
        """``c(x)``, unit own exponents and the offset (see
        :meth:`UtilityInduced._gain_terms`)."""
        units = tuple(map(tuple, np.eye(self.own_dim, dtype=int).tolist()))
        return self.normal_field(xs), units, self.offset


@dataclass(frozen=True)
class Sampled(PreferenceMap):
    """Tabulated preference over a declared finite grid.

    ``at_points`` are joint strategies, ``zpoints`` the own-block universe,
    ``prefers[r][c]`` says whether ``zpoints[c]`` is preferred at
    ``at_points[r]``.
    """

    at_points: tuple[tuple[float, ...], ...]
    zpoints: tuple[tuple[float, ...], ...]
    prefers: tuple[tuple[bool, ...], ...]

    scans_declared = True

    def __post_init__(self):
        if not self.at_points or not self.zpoints:
            raise InputError("sampled preference needs at least one grid point")
        for p in self.at_points:
            if len(p) != self.n_vars:
                raise InputError("sampled at-point dimension mismatch")
        for z in self.zpoints:
            if len(z) != self.own_dim:
                raise InputError("sampled z-point dimension mismatch")
        if len(self.prefers) != len(self.at_points) or any(
                len(row) != len(self.zpoints) for row in self.prefers):
            raise InputError("sampled table shape mismatch")
        # a repeat would leave the table contradicting itself: _locate reads
        # only the first of two matching rows or columns
        for what, arr in (("at-point", self._at), ("z-point", self._z)):
            for r in range(1, len(arr)):
                if np.min(np.max(np.abs(arr[:r] - arr[r]), axis=1)) <= GRID_MATCH_TOL:
                    raise InputError(f"sampled preference for player {self.player_index + 1} "
                                     f"repeats the {what} {arr[r].tolist()}")

    @cached_property
    def _at(self) -> np.ndarray:
        return np.array(self.at_points, dtype=np.float64)

    @cached_property
    def _z(self) -> np.ndarray:
        return np.array(self.zpoints, dtype=np.float64)

    @cached_property
    def _table(self) -> np.ndarray:
        return np.array(self.prefers, dtype=bool)

    def _locate(self, arr: np.ndarray, v: np.ndarray, what: str) -> int:
        dists = np.max(np.abs(arr - v), axis=1)
        idx = int(np.argmin(dists))
        if dists[idx] > GRID_MATCH_TOL:
            raise InputError(
                f"sampled preference queried off its declared grid ({what} {v.tolist()})")
        return idx

    def _preferred_at(self, x: np.ndarray) -> np.ndarray:
        return self._z[self._table[self._locate(self._at, x, "at-point")]]

    def _gain_factors(self, xs: np.ndarray, zs: np.ndarray):
        """The rival factor is the at-point index, the lift +/-1 from the
        table (see :meth:`PreferenceMap._gain_factors`).  Paired candidates
        are located row by row after the row's at-point, so the first row
        off the declared grid is the one named."""
        at, cols = [], []
        for r, x in enumerate(xs):
            at.append(self._locate(self._at, x, "at-point"))
            if zs.ndim == 3:
                cols.append([self._locate(self._z, z, "z-point") for z in zs[r]])
        if zs.ndim == 2:
            cols = [self._locate(self._z, z, "z-point") for z in zs]
        at, cols = np.array(at, dtype=np.intp), np.array(cols, dtype=np.intp)
        pick = (lambda rows: np.ix_(at[rows], cols)) if zs.ndim == 2 else (
            lambda rows: (at[rows, None], cols[rows]))
        lift = lambda rows: np.where(self._table[pick(rows)], 1.0, -1.0)
        return at[:, None].astype(np.float64), np.zeros(at.shape[0]), 0.0, lift

    def declared_scan(self, k_set: ConvexSet) -> np.ndarray:
        """The declared points inside ``k_set``: the table is the whole scan,
        exhaustive, so its stamped resolution is 0 and it adds no samples."""
        return self._z[k_set.contains_many(self._z, tol=1e-9)]

    def exclusion_probes(self, probes: Callable[[], np.ndarray]) -> np.ndarray:
        """The declared at-points; the grid is never built."""
        return self._at

    def _sample(self, x, region, budget, rng) -> np.ndarray:
        """The first ``budget`` declared preferred points inside ``region``."""
        keep = [z for z in self._preferred_at(x) if region.contains(z, tol=GRID_MATCH_TOL)]
        return np.array(keep[:budget]).reshape(-1, self.own_dim)

    def _hull_contains(self, x, z, window, budget, rng) -> bool:
        """Exact: the hull of the declared preferred points, which ``z`` may
        lie between."""
        return _in_convex_hull(self._preferred_at(x), z)


def _gamma(ops: int) -> float:
    """``K eps / (1 - K eps)`` for ``K = ops`` roundings of relative error at
    most ``eps = 2^-52`` each (a power rounds within 1 ulp)."""
    eps = float(np.finfo(np.float64).eps)
    return ops * eps / (1.0 - ops * eps)


def _own_of(p: PreferenceMap, x: np.ndarray) -> np.ndarray:
    return x[..., p.own_start:p.own_start + p.own_dim]


# ---------------------------------------------------------------------------
# Strict gain evaluation (shared core of preferred / witness scanning)
# ---------------------------------------------------------------------------

def _monomial(v: np.ndarray, e: tuple) -> np.ndarray:
    """Rowwise ``prod_j v_j^e_j`` (``e`` nonzero) over the last axis of
    ``v`` by repeated multiplication, so equal rows give bitwise equal
    values."""
    out = None
    for j, power in enumerate(e):
        for _ in range(power):
            out = v[..., j] if out is None else out * v[..., j]
    return out


def _gain_factors(p: PreferenceMap, xs, zs):
    """:meth:`PreferenceMap._gain_factors` on ``xs`` and ``zs`` as float rows."""
    return p._gain_factors(np.asarray(xs, dtype=np.float64).reshape(-1, p.n_vars),
                           np.asarray(zs, dtype=np.float64).reshape(-1, p.own_dim))


def strictly_preferred(gain: np.ndarray) -> np.ndarray:
    """The one preference rule, read by every site: ``z`` is preferred at
    ``x`` where its computed strict gain is above ``GAIN_GUARD``."""
    return gain > GAIN_GUARD


def strict_gain_outer(p: PreferenceMap, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Strict gain on the cross product of ``xs`` rows and ``zs`` rows;
    above ``GAIN_GUARD`` exactly on preferred pairs (:func:`strictly_preferred`).

    Utilities and direction fields share one factorized form,
    ``sum_t L_t(x) z^e_t - sum_t L_t(x) x_i^e_t - margin``, with the rival
    factors ``L_t`` computed once per row.  Both sums accumulate term by
    term in the same order, so ``z == x_i`` cancels bitwise and the strict
    comparison there is exactly false.  The base is the lift at ``z =
    x_i``, bit for bit, so the complement cloud evaluates the rival factors
    once per rival row and still computes these entries at its grid pairs.
    For the sampled variant the magnitude is conventional (+/-1); only the
    sign matters.
    """
    return _strict_gain(*_gain_factors(p, xs, zs)[1:])


def strict_gain_paired(p: PreferenceMap, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Strict gain of each ``xs`` row against its own candidate rows
    ``zs[r]`` (``zs`` of shape ``(m, s, own_dim)``): ``(m, s)`` entries,
    each bitwise the matching entry of :func:`strict_gain_outer`."""
    return _strict_gain(*p._gain_factors(xs, zs)[1:])


def _strict_gain(base: np.ndarray, margin: float, lift) -> np.ndarray:
    gain = lift(slice(None))
    gain -= base[:, None]
    gain -= margin
    return gain


def _mix_rows(bits: np.ndarray) -> np.ndarray:
    """One ``uint64`` key per row of ``uint64`` columns (multiply-xorshift);
    equal rows get equal keys, distinct rows usually distinct ones."""
    key = np.zeros(bits.shape[0], dtype=np.uint64)
    for col in bits.T:
        key ^= col
        key *= np.uint64(0x9E3779B97F4A7C15)
        key ^= key >> np.uint64(29)
    return key


def gain_groups(p: PreferenceMap, xs, zs, key: Optional[np.ndarray] = None):
    """Rows grouped by the exact bits of their rival factors and optional
    ``key`` rows: ``(reps, group, base, margin, lift)``, one row index per
    group (its first row), each row's group and the :func:`_gain_factors`
    terms, so ``(lift(reps)[group] - base[:, None]) - margin`` is the outer
    gain.  Rows are grouped by a hash of their bits, kept only when every
    row equals its representative; on a collision, by sorting the rows."""
    lead, base, margin, lift = _gain_factors(p, xs, zs)
    bits = np.hstack([lead] if key is None else [lead, key]).view(np.uint64)
    _, reps, group = np.unique(_mix_rows(bits), return_index=True, return_inverse=True)
    if not np.array_equal(bits[reps][group.reshape(-1)], bits):
        _, reps, group = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    return reps, group.reshape(-1), base, margin, lift


def strict_gain_max(p: PreferenceMap, xs, zs, key: Optional[np.ndarray] = None,
                    allowed=None) -> np.ndarray:
    """Rowwise maximum of :func:`strict_gain_outer` over the candidates
    ``allowed(reps)`` admits per :func:`gain_groups` group (a mask that
    reads the row only through ``key``); ``-inf`` where none is.  ``A_L``
    is maximized once per group, in slabs of at most 4 M entries; IEEE
    subtraction is monotone, so ``(max A_L - B) - margin`` is exact."""
    reps, group, base, margin, lift = gain_groups(p, xs, zs, key)
    step = max(1, 4_000_000 // max(1, np.size(zs) // p.own_dim))
    best = np.empty(reps.shape[0])
    for s in range(0, reps.shape[0], step):
        a = lift(reps[s:s + step])
        if allowed is not None:
            a[~allowed(reps[s:s + step])] = -np.inf
        best[s:s + step] = np.max(a, axis=1, initial=-np.inf)
    best = best[group] - base
    best -= margin
    return best


def preferred(p: PreferenceMap, x, z) -> bool:
    """True iff ``z`` lies in the preference set at joint strategy ``x``."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if x.shape[0] != p.n_vars:
        raise InputError(f"joint strategy has dimension {x.shape[0]}, expected {p.n_vars}")
    if z.shape[0] != p.own_dim:
        raise InputError(f"own strategy has dimension {z.shape[0]}, expected {p.own_dim}")
    return bool(strictly_preferred(strict_gain_outer(p, x[None, :], z[None, :])[0, 0]))


# ---------------------------------------------------------------------------
# Convex-hull view
# ---------------------------------------------------------------------------

def _in_convex_hull(points: np.ndarray, target: np.ndarray, tol: float = 1e-9) -> bool:
    """``target`` within ``tol`` of a convex combination of the ``points``
    rows.  Every convex combination lies in the points' bounding box, so a
    target more than ``tol`` outside it is not; one inside is, for 1-D sets
    (the hull is the box); otherwise a HiGHS feasibility LP decides."""
    if points.shape[0] == 0:
        return False
    if not (np.all(target >= points.min(axis=0) - tol)
            and np.all(target <= points.max(axis=0) + tol)):
        return False
    if points.shape[1] == 1:
        return True
    from scipy.optimize import linprog  # imported on first use: a slow import
    res = linprog(
        c=np.zeros(points.shape[0]),
        A_eq=np.vstack([points.T, np.ones(points.shape[0])]),
        b_eq=np.concatenate([target, [1.0]]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        return False
    # HiGHS meets its constraints only to its own tolerance (about 1e-7):
    # accept only weights that are a convex combination within ``tol``
    weights = np.clip(res.x, 0.0, None)
    weights /= weights.sum()
    return float(np.max(np.abs(points.T @ weights - target))) <= tol


def hull_preferred(p: PreferenceMap, x, z, sample_budget: int = 256,
                   window: Optional[ConvexSet] = None,
                   rng: Optional[np.random.Generator] = None) -> bool:
    """True iff ``z`` lies in the convex hull of the preference set at ``x``.

    Exact for maps whose preferred sets are their own hulls (``hull_exact``:
    half-space kinds and exactly concave utilities) and for tables;
    otherwise a hull-of-samples test in ``window``, which under-approximates
    the true hull at the stated budget.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if p.hull_exact:
        return preferred(p, x, z)
    if window is None:
        own = _own_of(p, x)
        window = Box(tuple(own - 2.0), tuple(own + 2.0))
    return p._hull_contains(x, z, window, sample_budget, rng)


def sample_preferred(p: PreferenceMap, x, region: ConvexSet, budget: int,
                     rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Up to ``budget`` preferred points inside ``region``.

    An empty result means no preferred point was found at this budget, not
    a proof that the preference set misses the region.
    """
    if budget < 1:
        raise InputError("sample budget must be at least 1")
    return p._sample(np.asarray(x, dtype=np.float64).reshape(-1), region, budget, rng)


# ---------------------------------------------------------------------------
# Graph distance
# ---------------------------------------------------------------------------

@dataclass
class GraphDistanceContext:
    """Bounded window and resolution for graph-distance queries.

    ``region`` is a box over the joint-times-own product space (the search
    domain inflated by 1); ``h_g`` is the complement grid step used when no
    closed form applies.  The context carries the per-preference complement
    clouds, each with its nearest-neighbour index once queried, so repeated
    queries stay cheap.
    """

    region: Box
    h_g: float
    _clouds: dict = field(default_factory=dict, repr=False)
    _bounds: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 0 < self.h_g < math.inf:                # NaN too
            raise InputError(f"distance grid step must be positive and finite, got {self.h_g}")

    def _inside(self, v: np.ndarray, start: int, stop: int) -> bool:
        """Every row of ``v`` within ``GRID_MATCH_TOL`` of the region on
        its coordinates ``start:stop``.  One min and one max settle the
        usual case, every value inside the bounds all those coordinates
        share; otherwise (NaN too) the coordinates are compared one by
        one.  The bounds are kept per coordinate range."""
        bounds = self._bounds.get((start, stop))
        if bounds is None:
            lo, hi = self.region._np
            lo, hi = lo[start:stop] - GRID_MATCH_TOL, hi[start:stop] + GRID_MATCH_TOL
            bounds = self._bounds[start, stop] = lo, hi, lo.max(), hi.min()
        lo, hi, low, high = bounds
        return not v.size or (v.min() >= low and v.max() <= high) or not (
            np.any(v < lo) or np.any(v > hi))


def context_for(joint_box: Box, own_box: Box, h_g: float) -> GraphDistanceContext:
    joint, own = joint_box.inflate(1.0), own_box.inflate(1.0)
    region = Box(joint.lower + own.lower, joint.upper + own.upper)
    return GraphDistanceContext(region=region, h_g=h_g)


def _halfspace_form(p: PreferenceMap) -> Optional[tuple[np.ndarray, float]]:
    """Constant direction vector and margin when the complement is a global
    half-space ``{(x, z) : <c, z - x_i> <= margin}``: a constant, nonzero
    normal field."""
    f = p.field_map
    if f is None or not f.is_constant() or not any(f.offset):
        return None
    return np.array(f.offset, dtype=np.float64), p.margin


def _rival_scalar_form(p: PreferenceMap) -> Optional[tuple[AffineMap, np.ndarray]]:
    """Affine scalar field over rival coordinates, for 1-D own blocks with
    zero margin: complement is ``{c(x_-i) * (z - x_i) <= 0}``, a union of two
    orthogonal half-space intersections with an exact distance.  The field
    is not constant, so its row ``a`` is nonzero."""
    f = p.field_map
    if p.own_dim != 1 or f is None or f.is_constant() or p.margin != 0.0:
        return None
    a = np.array(f.matrix[0], dtype=np.float64)
    if a[p.own_start] != 0.0:
        return None
    return f, a


class _ComplementCloud:
    """Boundary points of the complement of a preference graph on a grid,
    built only where its queries reach.

    The grid is the context region's :func:`grid_axis` at step ``h_g`` on
    each active coordinate; inactive ones (those the gain's factors never
    read, ``_gain_axes``) are dropped exactly: the nearest complement point
    can always match the query there.  A grid point is a boundary point
    when it is not preferred and a neighbour along some axis is; past the
    region no point is preferred.  ``points`` holds the boundary points of
    the built sub-box, index ranges ``[lo, hi)`` into the axes: empty at
    first, grown by :meth:`min_distance` as its queries need and all of the
    region after :meth:`build_region`.  Each growth rebuilds the hull of
    the old box and the request in one piece, so the built points are the
    full-region cloud's on that box, in its order.
    Queries go to one :class:`~projnash.nearest.NearestIndex` over the
    built points, with buckets of ``CLOUD_BUCKET_STEPS * h_g``, rebuilt
    after each growth.  A table's cloud is its declared non-preferred pairs,
    all built at once.
    """

    def __init__(self, p: PreferenceMap, ctx: GraphDistanceContext):
        n, k = p.n_vars, p.own_dim
        lo, hi = ctx.region._np
        self.p, self.step, self._index = p, CLOUD_BUCKET_STEPS * ctx.h_g, None
        if isinstance(p, Sampled):
            rows, cols = np.nonzero(~p._table)          # row-major: the table's order
            self.active = np.arange(n + k)
            self.points = np.hstack([p._at[rows], p._z[cols]])
            self.axes = []
            self.shape = self.lo = self.hi = np.zeros(0, np.intp)
            return
        rival, own = p._gain_axes
        active = sorted(set(rival) | set(own)) + list(range(n, n + k))
        self.active = np.array(active, dtype=np.int64)
        total = math.prod(grid_axis_size(lo[j], hi[j], ctx.h_g) for j in active)
        if total > 120_000_000:
            raise InputError(
                f"distance grid of {cell_count_text(total)} cells is too large; increase h_g")
        self.axes = [grid_axis(lo[j], hi[j], ctx.h_g) for j in active]
        self.shape = np.array([ax.shape[0] for ax in self.axes])
        self._read = [active.index(j) for j in rival]
        self.points, self.lo, self.hi = np.empty((0, len(active))), None, None

    def build_region(self) -> "_ComplementCloud":
        """Build the whole region (the full cloud); returns the cloud."""
        if self.axes:
            self._cover(np.zeros_like(self.shape), self.shape)
        return self

    def _cover(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Grow the built sub-box to its hull with ``[lo, hi)``, rebuilt in
        one piece."""
        if self.lo is not None:
            lo, hi = np.minimum(lo, self.lo), np.maximum(hi, self.hi)
        points, covered = self._boundary_points(lo, hi)
        if not points.shape[0] and np.array_equal(hi - lo, self.shape):
            # every grid point is preferred or none is; the box stays as it
            # was, so a later query raises again
            what = "covers the whole" if covered else "prefers no point of the"
            raise InputError(f"preference {what} distance region at this resolution; "
                             "cannot build a complement cloud")
        self.points, self.lo, self.hi, self._index = points, lo, hi, None

    def _boundary_points(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, bool]:
        # the boundary points of the sub-box ``[lo, hi)``, with the status
        # of one grid point.  Masks cover the sub-box and a one-cell halo
        # inside the region; past it, a slab or cell with none stands in.
        # Blocks of whole slabs along the first active axis keep memory
        # bounded.  A block's preferred points are ``strictly_preferred((lift
        # - base) - margin)``, as at every other site: ``lift`` on the axes
        # ``read`` by the rival factors times the own grid (once per piece
        # unless they read the first axis), ``base`` on the x axes in chunks
        # of about a slab of x rows, both broadcast into the block.  A block
        # carries the slab before and after it for the neighbour test.
        p, read = self.p, self._read
        d, nx = len(self.axes), len(self.axes) - p.own_dim
        if nx == 0:                         # the gain is -margin: nothing is preferred
            return np.empty((0, d)), False
        # the first axis stays whole (blocks index it); the others are cut
        # to the sub-box and its halo, of which ``crop`` is the sub-box
        first = np.maximum(lo - 1, 0)
        axes = [self.axes[0]] + [ax[a:b + 1] for ax, a, b in zip(self.axes[1:], first[1:], hi[1:])]
        shape = tuple(len(ax) for ax in axes)
        crop = tuple(slice(a, b) for a, b in zip(lo[1:] - first[1:], hi[1:] - first[1:]))
        slab_shape = shape[1:]
        per = max(1, _CLOUD_BLOCK // math.prod(slab_shape))
        zs = mesh_points(axes[nx:])

        def rows(cols: list[int], start: int, stop: int) -> np.ndarray:
            # joint rows over x axes ``cols``, the first cut to ``start:stop``
            parts = [axes[c][start:stop] if c == 0 else axes[c] for c in cols]
            out = np.zeros((math.prod(map(len, parts)), p.n_vars))
            out[:, self.active[cols]] = mesh_points(parts) if parts else 0.0
            return out

        def lift_of(start: int, stop: int) -> np.ndarray:
            a = p._gain_factors(rows(read, start, stop), zs)[3](slice(None))
            return a.reshape([(stop - start if c == 0 else shape[c]) if c in read or c >= nx
                              else 1 for c in range(d)])

        order = read + [c for c in range(nx) if c not in read]   # rival axes first

        def base_of(start: int, stop: int) -> np.ndarray:
            # the lift at each x point's own block, paired: the base bit for
            # bit, with the rival factors evaluated once per rival row
            sizes = [stop - start if c == 0 else shape[c] for c in order]
            xg = rows(order, start, stop).reshape(math.prod(sizes[:len(read)]), -1, p.n_vars)
            base = p._gain_factors(xg[:, 0], _own_of(p, xg))[3](slice(None))
            return base.reshape(sizes).transpose(np.argsort(order))[(...,) + (None,) * p.own_dim]

        lift = None if 0 in read else lift_of(0, 1)
        # a chunk of base holds about a slab of x rows, at most a block
        span = per * max(1, math.prod(shape[nx:]) // per)
        lo0, hi0 = int(lo[0]), int(hi[0])
        start0 = max(lo0 - 1, 0)
        # (the first call asks for up to ``per + 2`` slabs)
        held = [start0, base_of(start0, min(shape[0], start0 + span + 2))]
        buffer = np.empty((min(shape[0], per + 2),) + slab_shape)

        def masks(start: int, stop: int) -> np.ndarray:
            if stop > held[0] + held[1].shape[0]:
                held[:] = start, base_of(start, min(shape[0], start + span))
            first, base = held
            gain = np.subtract(lift_of(start, stop) if lift is None else lift,
                               base[start - first:stop - first], out=buffer[:stop - start])
            gain -= p.margin
            return strictly_preferred(gain)

        # ``block`` holds the preferred points of slabs ``start - 1 .. stop``
        edge = np.zeros((1,) + slab_shape, dtype=bool)
        stop = min(hi0, lo0 + per)
        block = np.concatenate([edge] * (lo0 == 0) + [masks(start0, min(shape[0], stop + 1))]
                               + [edge] * (stop == shape[0]))
        boundary: list[np.ndarray] = []
        for start in range(lo0, hi0, per):
            stop = min(hi0, start + per)
            # points of slabs ``start .. stop - 1`` not preferred, with a
            # preferred neighbour along some axis
            near, inner = block[:-2] | block[2:], block[1:-1]
            for axis in range(1, inner.ndim):
                lo_sl = (slice(None),) * axis + (slice(None, -1),)
                hi_sl = (slice(None),) * axis + (slice(1, None),)
                near[hi_sl] |= inner[lo_sl]
                near[lo_sl] |= inner[hi_sl]
            hit = (near & ~inner)[(slice(None),) + crop]
            idx = np.unravel_index(np.flatnonzero(hit), hit.shape)   # C order, as argwhere
            coords = np.empty((idx[0].shape[0], d))
            coords[:, 0] = axes[0][start + idx[0]]
            for col in range(1, d):
                coords[:, col] = axes[col][crop[col - 1].start + idx[col]]
            boundary.append(coords)
            if stop < hi0:
                after = min(hi0, stop + per)
                block = np.concatenate([block[-2:], masks(stop + 1, min(shape[0], after + 1))]
                                       + [edge] * (after == shape[0]))
        return np.vstack(boundary), bool(block[1].flat[0])

    def _span(self, q: np.ndarray, reach) -> tuple[np.ndarray, np.ndarray]:
        """Index ranges of the grid points within ``reach`` of the ``q``
        rows along every axis, and one more on each side."""
        lo = [np.searchsorted(ax, np.min(q[:, j] - reach)) - 1 for j, ax in enumerate(self.axes)]
        hi = [np.searchsorted(ax, np.max(q[:, j] + reach), "right") + 1
              for j, ax in enumerate(self.axes)]
        return np.maximum(lo, 0), np.minimum(hi, self.shape)

    def _settled(self, q: np.ndarray, sq: np.ndarray) -> np.ndarray:
        """Rows whose least squared distance ``sq`` to the built points is
        at most the squared distance to the nearest grid coordinate past
        the built box, on every side where it stops short of the region.
        Differences and squares round monotonically, and a computed sum of
        squares is at least each of its terms, so no unbuilt point is
        computed nearer."""
        bound = np.full(q.shape[0], np.inf)
        for j, (ax, a, b) in enumerate(zip(self.axes, self.lo, self.hi)):
            gaps = ([q[:, j] - ax[a - 1]] if a > 0 else []) + (
                [ax[b] - q[:, j]] if b < ax.shape[0] else [])
            for gap in gaps:
                gap = np.maximum(gap, 0.0)
                np.minimum(bound, gap * gap, out=bound)
        return sq <= bound

    def _query(self, q: np.ndarray) -> np.ndarray:
        if self._index is None:
            from .nearest import NearestIndex     # imported on first use
            self._index = NearestIndex(self.points, self.step)
        return self._index.query(q)

    def min_distance(self, queries: np.ndarray) -> np.ndarray:
        """Distance from each joint ``(y, z)`` row to the nearest point of
        the full-region cloud, bit for bit.  The first call builds the box
        of its queries (the region, for a grid of at most ``_CLOUD_WHOLE``
        cells); a query whose nearest built point is not proven
        nearest by :meth:`_settled` grows the box to cover its nearest
        distance around it (that distance bounds the true one, so one
        growth settles it), or to the whole region when the built part
        holds no point, where an empty cloud raises."""
        q = queries[:, self.active]
        if self.lo is None:
            self._cover(*self._span(q, 0.0 if self.shape.prod() > _CLOUD_WHOLE else np.inf))
        sq = self._query(q)
        todo = ~self._settled(q, sq)
        while np.any(todo):
            self._cover(*self._span(q[todo], np.sqrt(sq[todo])))
            sq[todo] = self._query(q[todo])
            todo[todo] = ~self._settled(q[todo], sq[todo])
        return np.sqrt(sq)


def _cloud_for(p: PreferenceMap, ctx: GraphDistanceContext) -> _ComplementCloud:
    # keyed on the preference itself: equal hashes of distinct preferences
    # must not share a cloud
    cloud = ctx._clouds.get(p)
    if cloud is None:
        cloud = _ComplementCloud(p, ctx)
        ctx._clouds[p] = cloud
    return cloud


def graph_distance_many(p: PreferenceMap, ctx: GraphDistanceContext,
                        y, zs: np.ndarray) -> np.ndarray:
    """Graph distance for many own-block candidates at one joint ``y``, or,
    with ``zs`` of shape ``(m, s, own_dim)`` and ``y`` of shape ``(m, n)``,
    of each row against its own candidates: ``(m, s)`` values, each bitwise
    the one-row call's.  Non-preferred pairs are 0; preferred ones take the
    preference's closed form, or else the nearest distance in its
    complement cloud (:meth:`_ComplementCloud.min_distance`), which grows
    only as far as these queries need and answers as the full-region cloud
    would, bit for bit."""
    ys, zs = np.asarray(y, dtype=np.float64), np.asarray(zs, dtype=np.float64)
    paired = zs.ndim == 3
    if paired and (ys.ndim != 2 or ys.shape[0] != zs.shape[0]):
        raise InputError(f"paired graph-distance rows: y of shape {ys.shape} "
                         f"against candidates of shape {zs.shape}")
    ys = ys.reshape(ys.shape[0] if paired else 1, -1)
    zs = zs.reshape(ys.shape[0], -1, p.own_dim)
    n = ys.shape[1]
    if not (ctx._inside(ys, 0, n) and ctx._inside(zs, n, n + p.own_dim)):
        raise InputError("graph-distance query lies outside the context region")
    pref = strictly_preferred(strict_gain_paired(p, ys, zs))
    if not pref.any():
        return np.zeros(pref.shape) if paired else np.zeros(pref.shape[1])
    own = _own_of(p, ys)[:, None, :]
    half, scalar = p._distance_forms
    if half is not None:
        c, off = half
        gainvals = ((zs - own).reshape(-1, p.own_dim) @ c).reshape(pref.shape) - off
        out = np.where(pref, gainvals / (_SQRT2 * float(np.linalg.norm(c))), 0.0)
    elif scalar is not None:
        cmap, a = scalar
        cval = cmap.eval_many(ys)[:, :1]
        anorm = float(np.linalg.norm(a))
        dz = zs[..., 0] - own[..., 0]
        plus = np.hypot(np.maximum(0.0, -cval) / anorm, np.clip(dz, 0.0, None) / _SQRT2)
        minus = np.hypot(np.maximum(0.0, cval) / anorm, np.clip(-dz, 0.0, None) / _SQRT2)
        out = np.where(pref, np.minimum(plus, minus), 0.0)
    else:
        rows, cols = np.nonzero(pref)
        out = np.zeros(pref.shape)
        out[rows, cols] = _cloud_for(p, ctx).min_distance(np.hstack([ys[rows], zs[rows, cols]]))
    return out if paired else out[0]


def graph_distance(p: PreferenceMap, ctx: GraphDistanceContext, y, z) -> float:
    """Euclidean distance from ``(y, z)`` to the complement of the preference
    graph; 0 whenever ``z`` is not preferred at ``y``.

    Raises :class:`InputError` when the query leaves the context region,
    where the result would be unreliable.
    """
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    return float(graph_distance_many(p, ctx, y, z)[0])

"""Unit normal directions of convexified preference sets.

For each player and evaluation point, the operator of the variational
reformulation collects the unit vectors polar to the translated convex hull
of the preference set; the solver works with the convex hull of that
section.  An empty preference set (at the sampling resolution) makes the
section the whole sphere and its hull the closed unit ball, which contains
the zero vector.

Fast paths: both factorized kinds propose their negated unit
``normal_field`` (the own-block gradient of a utility, the field of a
direction field), validated against sampled preferred points each call.
Half-space kinds (``halfspace_valued``) skip that check, which holds for
them by construction.  Degenerate preferences fall back to the
sphere-scan separator.  Tables have no normal field: their gains reject
the off-grid probe pool with :class:`InputError`.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import InputError
from .game import GameInstance, seeded_rng
from .geometry import ConeSample, probe_points, separate
from . import preferences as prefs

POLAR_TOL = 1e-9
#: most (row, pool point) entries of one polar-check slab
POLAR_SLAB = 65_536


@dataclass(frozen=True)
class UnitNormalProduct:
    """Per-player cone samples evaluated at one joint point.

    Each factor stands for the convex hull of its stored unit directions
    (the closed unit ball when flagged full-space).  Membership queries are
    small convex-combination feasibility problems.
    """

    point: tuple[float, ...]
    factors: tuple[ConeSample, ...]
    flagged: tuple[bool, ...]  # True where no direction could be found

    def contains_factor(self, i: int, v, tol: float = POLAR_TOL) -> bool:
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        factor = self.factors[i]
        if factor.is_full_space:
            return float(np.linalg.norm(v)) <= 1.0 + tol
        return prefs._in_convex_hull(factor.as_array, v, tol)


def _sampling_window(game: GameInstance, i: int):
    return game.hull_boxes[i].inflate(1.0)


def normal_directions_batch(game: GameInstance, i: int, xs: np.ndarray, cfg
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized single-direction evaluation over many points.

    Returns ``(directions, full_mask, ok_mask)``: rows of unit directions
    (unspecified where not ok), a mask of empty-preference points, and a
    mask of rows where a validated direction exists.  Rows failing both are
    flagged for the caller (typically routed to the per-point fallback).
    """
    p = game.preference_maps[i]
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, game.n)
    m = xs.shape[0]
    k = game.dims[i]
    sl = game.own_slice(i)

    window = _sampling_window(game, i)
    rng = seeded_rng(cfg.seed, 29, i)
    zpool = probe_points(window, max(8, cfg.random_budget), rng)

    directions = np.zeros((m, k))
    full_mask = np.zeros(m, dtype=bool)
    ok_mask = np.zeros(m, dtype=bool)

    chunk = max(1, int(2_000_000 // max(1, zpool.shape[0])))
    slab = max(1, POLAR_SLAB // zpool.shape[0])
    # the polar check's (rows, |pool|) slabs are written into reused buffers
    zcols = zpool.T.copy()
    gain, inner, term = np.empty((3, min(slab, m), zpool.shape[0]))
    for start in range(0, m, chunk):
        rows = slice(start, min(m, start + chunk))
        block = xs[rows]
        # A_L over the pool once per distinct rival factor; IEEE subtraction
        # is monotone, so the group maximum answers "any(gain > 0)"
        reps, group, base, margin, lift = prefs.gain_groups(p, block, zpool)
        lifted = lift(reps)                                   # (groups, |pool|)
        nonempty = (np.max(lifted, axis=1)[group] - base) - margin > 0.0
        full_mask[rows] = ~nonempty

        # the field whose negated unit vector is the candidate direction (a
        # zero field never qualifies); a table never gets here, since its
        # gains reject the off-grid probe pool
        field = p.normal_field(block)
        norms = np.linalg.norm(field, axis=1)
        cand_ok = nonempty & (norms > 1e-12)
        d = np.zeros_like(field)
        d[cand_ok] = -field[cand_ok] / norms[cand_ok, None]

        # validate the polar inequality on the sampled preferred points, in
        # row slabs of at most POLAR_SLAB pool entries; <z - x_i, d> adds
        # one coordinate at a time, in coordinate order.  A half-space kind
        # passes by construction: a preferred z has <L, z - x_i> > margin >= 0
        # with L the normal field up to rounding, so <z - x_i, d> <= ~1e-16 |z|,
        # far below POLAR_TOL
        for s in range(0, 0 if p.halfspace_valued else block.shape[0], slab):
            r = slice(s, s + slab)
            if not np.any(cand_ok[r]):
                continue
            own, dr = block[r, sl], d[r]
            g, dot, t = gain[:own.shape[0]], inner[:own.shape[0]], term[:own.shape[0]]
            np.take(lifted, group[r], axis=0, out=g)
            g -= base[r, None]
            g -= margin
            np.subtract(zcols[0], own[:, 0, None], out=dot)
            dot *= dr[:, 0, None]
            for j in range(1, k):
                np.subtract(zcols[j], own[:, j, None], out=t)
                t *= dr[:, j, None]
                dot += t
            cand_ok[r] &= ~np.any((g > 0.0) & (dot > POLAR_TOL), axis=1)
        directions[rows] = d
        ok_mask[rows] = cand_ok
    return directions, full_mask, ok_mask


def normal_operator(game: GameInstance, i: int, x, cfg) -> ConeSample:
    """Sampled unit section of the normal cone to the convexified preference
    set of player ``i`` at ``x``.

    Empty preference at the sampling resolution yields a full-space sample.
    If no validated direction exists and the sphere scan also fails, the
    result is an empty sample (flagged by :func:`unit_normal_product`).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != game.n:
        raise InputError(f"point has dimension {x.shape[0]}, expected {game.n}")
    dom = game.domain_joint_box().inflate(1e-6)
    if not dom.contains(x):
        raise InputError("evaluation point lies outside the search domain")
    k = game.dims[i]
    dirs, full_mask, ok_mask = normal_directions_batch(game, i, x[None, :], cfg)
    if full_mask[0]:
        return ConeSample.full_space(k)
    if ok_mask[0]:
        return ConeSample.from_directions(dirs[0:1], k)
    # degenerate: scan the sphere against sampled hull points
    samples = prefs.sample_preferred(game.preference_maps[i], x, _sampling_window(game, i),
                                     max(1, cfg.random_budget),
                                     rng=seeded_rng(cfg.seed, 23, i, arrays=(x,)))
    if samples.shape[0] == 0:
        return ConeSample.full_space(k)
    found = separate(samples, x[game.own_slice(i)],
                     angular_resolution=cfg.angular_resolution)
    if found is None:
        return ConeSample.empty(k)
    return ConeSample.from_directions(found[None, :], k)


def unit_normal_product(game: GameInstance, x, cfg) -> UnitNormalProduct:
    """Assemble the per-player cone samples at ``x``.

    A factor that came back empty is flagged: under the self-exclusion
    hypothesis this should not happen, and downstream certification treats
    flagged points as non-certifiable.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    factors = []
    flagged = []
    for i in range(game.player_count):
        sample = normal_operator(game, i, x, cfg)
        factors.append(sample)
        flagged.append(sample.is_empty)
    return UnitNormalProduct(point=tuple(x), factors=tuple(factors),
                             flagged=tuple(flagged))

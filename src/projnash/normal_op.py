"""Unit normal directions of convexified preference sets.

For each player and evaluation point, the operator of the variational
reformulation collects the unit vectors polar to the translated convex hull
of the preference set; the solver works with the convex hull of that
section.  An empty preference set (at the sampling resolution) makes the
section the whole sphere and its hull the closed unit ball, which contains
the zero vector.

Fast paths: smooth utilities propose the negated own-block gradient
direction (validated against sampled preferred points each call, never
trusted blindly); direction fields negate their own field.  Degenerate or
tabulated preferences fall back to the sphere-scan separator.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy.optimize import linprog

from .errors import InputError
from .game import GameInstance, seeded_rng
from .geometry import ConeSample, probe_points, separate
from . import preferences as prefs
from .preferences import DirectionField, UtilityInduced

POLAR_TOL = 1e-9


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
        dirs = factor.as_array
        if dirs.shape[0] == 0:
            return False
        res = linprog(
            c=np.zeros(dirs.shape[0]),
            A_eq=np.vstack([dirs.T, np.ones(dirs.shape[0])]),
            b_eq=np.concatenate([v, [1.0]]),
            bounds=(0, None),
            method="highs",
        )
        if res.status != 0:
            return False
        return float(np.max(np.abs(dirs.T @ res.x - v))) <= tol


def _sampling_window(game: GameInstance, i: int):
    return game.hull_boxes[i].inflate(1.0)


def _preferred_samples(game: GameInstance, i: int, x: np.ndarray, cfg) -> np.ndarray:
    window = _sampling_window(game, i)
    rng = seeded_rng(cfg.seed, 23, i, arrays=(x,))
    return prefs.sample_preferred(game.preference_maps[i], x, window,
                                  max(1, cfg.random_budget), rng=rng)


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
    for start in range(0, m, chunk):
        rows = slice(start, min(m, start + chunk))
        block = xs[rows]
        # A_L over the pool once per distinct rival factor; IEEE subtraction
        # is monotone, so the group maximum answers "any(gain > 0)"
        reps, group, base, margin, lift = prefs.gain_groups(p, block, zpool)
        lifted = lift(reps)                                   # (groups, |pool|)
        nonempty = (np.max(lifted, axis=1)[group] - base) - margin > 0.0
        full_mask[rows] = ~nonempty

        # the field whose negated unit vector is the candidate direction;
        # tabulated maps have none (a zero field never qualifies)
        if isinstance(p, UtilityInduced):
            field = np.stack([g.eval_many(block) for g in p.own_gradient], axis=1)
        elif isinstance(p, DirectionField):
            field = p.c.eval_many(block)
        else:
            field = np.zeros((block.shape[0], k))
        norms = np.linalg.norm(field, axis=1)
        cand_ok = nonempty & (norms > 1e-12)
        d = np.zeros_like(field)
        d[cand_ok] = -field[cand_ok] / norms[cand_ok, None]

        if np.any(cand_ok):
            # validate the polar inequality on the sampled preferred points
            pref = (lifted[group] - base[:, None]) - margin > 0.0
            diffs = zpool[None, :, :] - block[:, None, sl]
            inner = np.einsum("rpk,rk->rp", diffs, d)
            bad = np.any(pref & (inner > POLAR_TOL), axis=1)
            cand_ok &= ~bad
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
    samples = _preferred_samples(game, i, x, cfg)
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


@dataclass(frozen=True)
class NormalDirectionAudit:
    """Result of auditing a claimed normal direction against samples."""

    samples_checked: int
    violations: tuple[tuple[float, ...], ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_normal_direction(game: GameInstance, i: int, x, direction, cfg
                           ) -> NormalDirectionAudit:
    """Search sampled preferred points for ``<direction, z - x_i> >= 0``.

    For open-valued preferences any hit contradicts the claim that
    ``direction`` is a unit normal of the translated hull, so hits are
    reported as violations.  Used as a self-test of the operator
    construction, not as a solver step.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    direction = np.asarray(direction, dtype=np.float64).reshape(-1)
    if abs(float(np.linalg.norm(direction)) - 1.0) > 1e-9:
        raise InputError("audited direction must have unit norm")
    samples = _preferred_samples(game, i, x, cfg)
    if samples.shape[0] == 0:
        return NormalDirectionAudit(samples_checked=0, violations=())
    own = x[game.own_slice(i)]
    inner = (samples - own) @ direction
    hits = samples[inner >= 0.0]
    return NormalDirectionAudit(
        samples_checked=int(samples.shape[0]),
        violations=tuple(tuple(row) for row in hits),
    )

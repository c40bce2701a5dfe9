"""Unit normal directions of convexified preference sets.

For each player and evaluation point, the operator of the variational
reformulation collects the unit vectors polar to the translated convex hull
of the preference set; the solver works with the convex hull of that
section.  An empty preference set (at the sampling resolution) makes the
section the whole sphere and its hull the closed unit ball, which contains
the zero vector.

Fast paths: both factorized kinds propose their negated unit
``normal_field`` (the own-block gradient of a utility, the field of a
direction field), validated against sampled preferred points each call:
no pool point ``z`` that ``preferences.strictly_preferred`` calls preferred
(computed gain above ``GAIN_GUARD``) may have a computed ``<z - x_i, d>``
above ``POLAR_TOL``.  Two kinds skip that polar check where it is proven to
pass:

* half-space kinds (``halfspace_valued``: direction fields, utilities
  affine in the own block), on every row.  A preferred ``z`` has computed
  ``<L, z - x_i> > margin + GAIN_GUARD > 0`` with ``L`` the normal field up
  to rounding, so ``<z - x_i, d> <= ~1e-16 |z|``, far below ``POLAR_TOL``.
* exactly concave utilities (``concave``: a constant own quadratic form,
  negative semidefinite in rational arithmetic), on the rows whose bound
  below is at most ``POLAR_TOL``.  The computed gain rounds monotonically,
  so a preferred ``z``, whose computed ``(A~(z) - B~) - margin`` is above
  ``GAIN_GUARD > 0``, has computed ``A~(z) > B~``, hence ``u(z) - u(x_i) =
  A(z) - B > -E`` with ``E`` the rounding bound of
  ``UtilityInduced.tangent_errors``.  By the tangent inequality ``<g, z -
  x_i> >= u(z) - u(x_i) > -E`` for the exact gradient ``g``, so
  ``<z - x_i, -g/|g|> < E / |g|``.  The computed field is within ``E_f`` of
  ``g`` (1-norm, same source); while ``4 E_f <= n~`` (``n~`` its computed
  norm) ``|g| >= n~/2`` and the computed ``d`` is within ``2 E_f/|g| +
  gamma_{k+2}`` of ``-g/|g|``; the dot product rounds by at most ``2 rho
  gamma_{k+2}`` with ``rho = |reach| + |x_i| >= |z - x_i|``.  Together the
  computed ``<z - x_i, d>`` is below ``B = 2 (E + 2 rho E_f) / n~ + 3 rho
  gamma_{k+2}``, and a row skips when ``2 B <= POLAR_TOL`` (the factor 2
  covers evaluating ``B``, and underflow, whose absolute errors are far
  below the half of ``POLAR_TOL`` it leaves).  Near-stationary rows keep
  the check, and so does every form that is not exactly concave, however
  small its positive eigenvalue.

Every candidate row of the shipped fixtures' routes is proven, so only the
tests reach the polar-check loop of :func:`normal_directions_batch`.

Where no field direction validates (a vanishing field, as at the inflection
of ``(x1 - 0.5)^3``), :func:`normal_operator` samples preferred points and
asks :func:`geometry.separate` for a polar direction: exact for the samples,
in any own dimension.  No shipped fixture route reaches this fallback.
Tables have no normal field: their gains reject the off-grid probe pool
with :class:`InputError`.
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


def _unproven(p, xs: np.ndarray, norms: np.ndarray, cand_ok: np.ndarray,
              zpool: np.ndarray) -> np.ndarray:
    """The ``cand_ok`` rows whose polar check must run: none for a
    half-space kind, those not proven by the module docstring's bound for
    an exactly concave one, all of them otherwise."""
    if p.halfspace_valued:
        return np.zeros_like(cand_ok)
    if not p.concave:
        return cand_ok
    rows = np.flatnonzero(cand_ok)
    own = xs[rows, p.own_start:p.own_start + p.own_dim]
    reach = np.max(np.abs(zpool), axis=0)
    gain_err, field_err = p.tangent_errors(xs[rows], reach)
    rho = np.linalg.norm(reach) + np.linalg.norm(own, axis=1)
    bound = 2.0 * (gain_err + 2.0 * rho * field_err) / norms[rows] \
        + 3.0 * rho * prefs._gamma(p.own_dim + 2)
    need = cand_ok.copy()
    need[rows] = ~((4.0 * field_err <= norms[rows]) & (2.0 * bound <= POLAR_TOL))
    return need


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
    for start in range(0, m, chunk):
        rows = slice(start, min(m, start + chunk))
        block = xs[rows]
        # the best gain over the pool, once per distinct rival factor
        nonempty = prefs.strictly_preferred(prefs.strict_gain_max(p, block, zpool))
        full_mask[rows] = ~nonempty

        # the field whose negated unit vector is the candidate direction (a
        # zero field never qualifies); a table never gets here, since its
        # gains reject the off-grid probe pool
        field = p.normal_field(block)
        norms = np.linalg.norm(field, axis=1)
        cand_ok = nonempty & (norms > 1e-12)
        d = np.zeros_like(field)
        d[cand_ok] = -field[cand_ok] / norms[cand_ok, None]

        # validate the polar inequality on the sampled preferred points of
        # the rows not proven to pass (module docstring), in row slabs of at
        # most POLAR_SLAB pool entries; <z - x_i, d> adds one coordinate at
        # a time, in coordinate order
        need = np.flatnonzero(_unproven(p, block, norms, cand_ok, zpool))
        for s in range(0, need.size, slab):
            r = need[s:s + slab]
            own, dr = block[r, sl], d[r]
            pref = prefs.strictly_preferred(prefs.strict_gain_outer(p, block[r], zpool))
            dot = (zpool[:, 0] - own[:, 0, None]) * dr[:, 0, None]
            for j in range(1, k):
                dot += (zpool[:, j] - own[:, j, None]) * dr[:, j, None]
            cand_ok[r] &= ~np.any(pref & (dot > POLAR_TOL), axis=1)
        directions[rows] = d
        ok_mask[rows] = cand_ok
    return directions, full_mask, ok_mask


def normal_operator(game: GameInstance, i: int, x, cfg) -> ConeSample:
    """Sampled unit section of the normal cone to the convexified preference
    set of player ``i`` at ``x``.

    Empty preference at the sampling resolution yields a full-space sample.
    If no validated direction exists and no direction separates ``x_i`` from
    the sampled preferred points, the result is an empty sample (flagged by
    :func:`unit_normal_product`).
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
    # degenerate: separate x_i from sampled preferred points
    samples = prefs.sample_preferred(game.preference_maps[i], x, _sampling_window(game, i),
                                     max(1, cfg.random_budget),
                                     rng=seeded_rng(cfg.seed, 23, i, arrays=(x,)))
    if samples.shape[0] == 0:
        return ConeSample.full_space(k)
    found = separate(samples, x[game.own_slice(i)])
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

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
get exact closed forms; everything else falls back to a distance cloud built
once per context from a grid scan of the complement boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InputError
from .expressions import AffineMap, Polynomial
from .geometry import (Box, ConvexSet, cell_count_text, grid_axis, grid_axis_size,
                       probe_points)

_SQRT2 = math.sqrt(2.0)

#: grid-point matching tolerance for the sampled variant
GRID_MATCH_TOL = 1e-9
#: grid cells per block of whole slabs in a complement-cloud scan
_CLOUD_BLOCK = 65_536
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

    def exclusion_probes(self, probes: np.ndarray) -> np.ndarray:
        """The joint points at which self-exclusion is checked, given the
        probe grid over the hull product: that grid."""
        return probes

    def _sample(self, x: np.ndarray, region: ConvexSet, budget: int,
                rng: Optional[np.random.Generator]) -> np.ndarray:
        """The preferred points among ``budget`` seeded probes of ``region``."""
        candidates = probe_points(region, budget, np.random.default_rng(0) if rng is None else rng)
        return candidates[strict_gain_outer(self, x[None, :], candidates)[0] > 0.0]

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
        if self.margin < 0:
            raise InputError("strictness margin must be nonnegative")

    @cached_property
    def gain(self) -> Polynomial:
        """Polynomial over (x, z) variables: u(x_-i, z) - u(x) - margin."""
        n, k = self.n_vars, self.own_dim
        identity = {j: j for j in range(n)}
        swapped = dict(identity)
        for j in range(k):
            swapped[self.own_start + j] = n + j
        u_z = self.utility.remap(swapped, n + k)
        u_x = self.utility.remap(identity, n + k)
        return u_z - u_x - Polynomial.constant(self.margin, n + k)

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
        rival, coeffs, starts, exps = self._own_groups
        err = 2.0 * _gamma(2 * (self.n_vars + coeffs.shape[0]) + 8)
        absx = np.abs(xs)
        lead = np.add.reduceat(np.prod(absx[:, None, :] ** rival, axis=2) * np.abs(coeffs),
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
        return all(sum(e) == 1 for e in self._own_groups[3])

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
    def _own_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """The utility's terms that read the own block, sorted by own
        exponent: their rival exponents (own columns zeroed) and
        coefficients, where each own exponent's group starts, and the
        distinct own exponents.  Terms free of the own block cancel in
        every gain and are dropped."""
        own = slice(self.own_start, self.own_start + self.own_dim)
        terms = sorted((e[own], e, c) for e, c in self.utility.terms if any(e[own]))
        rival = np.array([e for _, e, _ in terms], dtype=np.int64).reshape(-1, self.n_vars)
        rival[:, own] = 0
        starts = [r for r in range(len(terms)) if r == 0 or terms[r][0] != terms[r - 1][0]]
        return (rival, np.array([c for _, _, c in terms]), np.array(starts, dtype=np.intp),
                tuple(terms[r][0] for r in starts))

    def _gain_terms(self, xs: np.ndarray) -> tuple[np.ndarray, tuple, float]:
        """Rival factors ``L_t(x)`` (one column per own exponent ``e_t``),
        the exponents, and the margin: ``u(x_-i, z) = sum_t L_t(x) z^e_t``
        plus terms free of ``z``."""
        rival, coeffs, starts, exps = self._own_groups
        terms = np.prod(xs[:, None, :] ** rival, axis=2) * coeffs       # (m, P)
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
        if self.offset < 0:
            raise InputError("direction offset must be nonnegative")

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
    def gain(self) -> Polynomial:
        n, k = self.n_vars, self.own_dim
        rows = self.c.to_polynomials(n)
        total = Polynomial.constant(-self.offset, n + k)
        identity = {j: j for j in range(n)}
        for j in range(k):
            cj = rows[j].remap(identity, n + k)
            zj = Polynomial.variable(n + j, n + k)
            xj = Polynomial.variable(self.own_start + j, n + k)
            total = total + cj * (zj - xj)
        return total

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
        return self._z[np.array([k_set.contains(z, tol=1e-9) for z in self._z])]

    def exclusion_probes(self, probes: np.ndarray) -> np.ndarray:
        """The declared at-points."""
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


def strict_gain_outer(p: PreferenceMap, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Strict gain on the cross product of ``xs`` rows and ``zs`` rows;
    positive exactly on preferred pairs.

    Utilities and direction fields share one factorized form,
    ``sum_t L_t(x) z^e_t - sum_t L_t(x) x_i^e_t - margin``, with the rival
    factors ``L_t`` computed once per row.  Both sums accumulate term by
    term in the same order, so ``z == x_i`` cancels bitwise and the strict
    comparison there is exactly false.  For the sampled variant the
    magnitude is conventional (+/-1); only the sign matters.
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
    return bool(strict_gain_outer(p, x[None, :], z[None, :])[0, 0] > 0.0)


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

    def __post_init__(self):
        if self.h_g <= 0:
            raise InputError("distance grid step must be positive")


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
    """Boundary points of the complement of a preference graph on a grid.

    Built once per (preference, context); queries are nearest-neighbour
    distances to the stored points, answered by one
    :class:`~projnash.nearest.NearestIndex` built on the first query, with
    buckets of ``CLOUD_BUCKET_STEPS * h_g``.
    Inactive coordinates (those the strict gain never reads) are dropped
    exactly: the nearest complement point can always match the query there.
    """

    def __init__(self, p: PreferenceMap, ctx: GraphDistanceContext):
        n, k = p.n_vars, p.own_dim
        lo, hi = ctx.region._np
        self.step = CLOUD_BUCKET_STEPS * ctx.h_g
        if isinstance(p, Sampled):
            pairs = []
            for r, xp in enumerate(p._at):
                for s, zp in enumerate(p._z):
                    if not p._table[r, s]:
                        pairs.append(np.concatenate([xp, zp]))
            self.active = np.arange(n + k)
            self.points = np.array(pairs).reshape(-1, n + k)
            return
        gain = p.gain
        active = [j for j in range(n + k) if gain.uses_variable(j)]
        for j in range(n, n + k):
            if j not in active:
                active.append(j)
        active = sorted(active)
        self.active = np.array(active, dtype=np.int64)
        total = math.prod(grid_axis_size(lo[j], hi[j], ctx.h_g) for j in active)
        if total > 120_000_000:
            raise InputError(
                f"distance grid of {cell_count_text(total)} cells is too large; increase h_g")
        axes = [grid_axis(lo[j], hi[j], ctx.h_g) for j in active]
        shape = tuple(len(ax) for ax in axes)
        self.points = self._boundary_points(gain, active, axes, shape)
        if self.points.shape[0] == 0:
            raise InputError(
                "preference covers the whole distance region at this resolution; "
                "cannot build a complement cloud")

    def _boundary_points(self, gain: Polynomial, active: list[int],
                         axes: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
        # blocks of whole slabs along the first active axis keep memory
        # bounded; every active variable is its axis, broadcast along its
        # own block dimension.  A block's mask carries the slab before it and
        # the slab after it, each evaluated once, for the neighbour test,
        # which runs on the block's own slabs only.
        # The leading gain terms that do not read the first axis are summed
        # once, over one slab; each block starts from that sum and adds the
        # remaining terms in order, so every entry rounds as in one sum.
        d = len(axes)
        slab_shape = shape[1:] if d > 1 else (1,)
        per = max(1, _CLOUD_BLOCK // math.prod(slab_shape))
        cols: list = [None] * gain.n_vars
        for c in range(1, d):
            cols[active[c]] = axes[c].reshape([-1 if a == c else 1 for a in range(d)])
        split = next((t for t, (e, _) in enumerate(gain.terms) if e[active[0]]),
                     len(gain.terms))
        lead = Polynomial(gain.n_vars, gain.terms[:split]).eval_columns(cols, (1,) + slab_shape)
        rest = Polynomial(gain.n_vars, gain.terms[split:])
        buffer = np.empty((min(shape[0], per + 1),) + slab_shape)

        def masks(start: int, stop: int) -> np.ndarray:
            cols[active[0]] = axes[0][start:stop].reshape((-1,) + (1,) * len(slab_shape))
            out = buffer[:stop - start]
            out[...] = lead
            return rest.eval_columns(cols, out.shape, out=out) <= 0.0

        # ``block`` holds the mask on slabs ``start - 1 .. stop``; past either
        # end of the axis a slab of True (nothing preferred) stands in
        edge = np.ones((1,) + slab_shape, dtype=bool)
        block = np.concatenate([edge, masks(0, min(shape[0], per + 1))]
                               + [edge] * (per >= shape[0]))
        boundary: list[np.ndarray] = []
        for start in range(0, shape[0], per):
            stop = min(shape[0], start + per)
            # points of slabs ``start .. stop - 1`` with a preferred neighbour
            # along some axis
            pref, core = ~block, block[1:-1]
            near, inner = pref[:-2] | pref[2:], pref[1:-1]
            for axis in range(1, core.ndim):
                lo = (slice(None),) * axis + (slice(None, -1),)
                hi = (slice(None),) * axis + (slice(1, None),)
                near[hi] |= inner[lo]
                near[lo] |= inner[hi]
            hit = core & near
            idx = np.unravel_index(np.flatnonzero(hit), hit.shape)   # C order, as argwhere
            coords = np.empty((idx[0].shape[0], d))
            coords[:, 0] = axes[0][start + idx[0]]
            for col in range(1, d):
                coords[:, col] = axes[col][idx[col]]
            boundary.append(coords)
            if stop < shape[0]:
                block = np.concatenate([block[-2:], masks(stop + 1, min(shape[0], stop + per + 1))]
                                       + [edge] * (stop + per >= shape[0]))
        return np.vstack(boundary)

    @cached_property
    def _index(self):
        from .nearest import NearestIndex     # imported on first use
        return NearestIndex(self.points, self.step)

    def min_distance(self, queries: np.ndarray) -> np.ndarray:
        return self._index.query(queries[:, self.active])


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
    the one-row call's."""
    ys, zs = np.asarray(y, dtype=np.float64), np.asarray(zs, dtype=np.float64)
    paired = zs.ndim == 3
    if paired and (ys.ndim != 2 or ys.shape[0] != zs.shape[0]):
        raise InputError(f"paired graph-distance rows: y of shape {ys.shape} "
                         f"against candidates of shape {zs.shape}")
    ys = ys.reshape(ys.shape[0] if paired else 1, -1)
    zs = zs.reshape(ys.shape[0], -1, p.own_dim)
    lo, hi = ctx.region._np
    n = ys.shape[1]
    for v, a, b in ((ys, lo[:n], hi[:n]), (zs, lo[n:], hi[n:])):
        # one min and one max settle the usual case, every value inside the
        # bounds all columns share; otherwise (NaN too) compare per column
        if v.size and not (v.min() >= a.max() - GRID_MATCH_TOL
                           and v.max() <= b.min() + GRID_MATCH_TOL) \
                and (np.any(v < a - GRID_MATCH_TOL) or np.any(v > b + GRID_MATCH_TOL)):
            raise InputError("graph-distance query lies outside the context region")
    pref = strict_gain_paired(p, ys, zs) > 0.0
    if not np.any(pref):
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

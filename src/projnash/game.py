"""Game instances and the projected-solution certificate.

An instance bundles, per player: a closed convex choice set, a parametric
constraint map (not necessarily contained in the choice set), and a
strict-preference map.  The search domain is the choice-set product times an
axis-aligned over-approximation of the constraint hull, computed by interval
arithmetic.

A candidate pair ``(x, y)`` is certified as a projected solution when

* ``x`` is the nearest point of the choice-set product to ``y``, and
* for every player, ``y_i`` is feasible at the frozen constraint ``K_i(x)``
  and no feasible point is strictly preferred to ``y`` -- emptiness of the
  intersection is certified only up to a stated grid resolution and random
  probe budget, both recorded on the certificate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import HypothesisError, InputError
from .expressions import AffineMap, Polynomial, parse_polynomial_text
from .geometry import Box, ConvexSet, HalfspacePolytope, grid_points, set_grid
from . import preferences as prefs
from .preferences import PreferenceMap, UtilityInduced, hull_preferred

DEFAULT_PROBE_AXIS = 7


# ---------------------------------------------------------------------------
# Constraint maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MovingBox:
    """Box-valued constraint map with affine lower/upper bounds in x."""

    player_index: int
    lower: AffineMap
    upper: AffineMap

    def __post_init__(self):
        if (self.lower.out_dim, self.lower.in_dim) != (self.upper.out_dim, self.upper.in_dim):
            raise InputError("constraint bound dimensions disagree")

    @property
    def own_dim(self) -> int:
        return self.lower.out_dim

    @property
    def n_vars(self) -> int:
        return self.lower.in_dim

    def materialize(self, x, key: Optional[np.ndarray] = None) -> Box:
        """The value at ``x``; ``key``, its ``value_key`` row where the
        caller has it, holds the same bounds."""
        k = self.own_dim
        lo, hi = (self.lower.eval(x), self.upper.eval(x)) if key is None else (key[:k], key[k:])
        if np.any(lo > hi):
            raise InputError(
                f"constraint box for player {self.player_index + 1} is empty at x={np.asarray(x).tolist()}")
        return Box(tuple(lo), tuple(hi))

    def bounds_many(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.lower.eval_many(xs), self.upper.eval_many(xs)

    def linear_max_many(self, xs: np.ndarray, ws: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Exact rowwise ``max_z <w, z>`` over the values at ``xs``, with a
        maximizer per row (ties ``w_j = 0`` take the lower bound)."""
        lo, hi = self.bounds_many(xs)
        arg = np.where(ws > 0, hi, lo)
        return np.sum(arg * ws, axis=1), arg

    def residual_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Rowwise distance of own-block ``ys`` to the values at ``xs``."""
        lo, hi = self.bounds_many(xs)
        return np.linalg.norm(ys - np.clip(ys, lo, hi), axis=1)

    #: an upper bound on the distance of own-block ``ys`` to the values at
    #: ``xs``; the residual is that distance
    distance_bound_many = residual_many

    def value_key(self, xs: np.ndarray) -> np.ndarray:
        """The values at ``xs`` as rows ``lo‖hi``; equal rows are equal boxes."""
        return np.hstack(self.bounds_many(xs))

    def contains_key(self, keys: np.ndarray, pool: np.ndarray) -> np.ndarray:
        """``(m, |pool|)`` membership of the pool points in the values given
        by ``value_key`` rows, within 1e-12."""
        lo, hi = np.hsplit(keys, 2)
        return np.all((pool[None, :, :] >= lo[:, None, :] - 1e-12)
                      & (pool[None, :, :] <= hi[:, None, :] + 1e-12), axis=2)

    def value_range(self, x_box: Box, probes: np.ndarray, choice_max) -> Box:
        """A box holding every value over the choice set, by interval
        arithmetic on the bounds over its bounding box ``x_box``; the loader
        calls it once.  Raises :class:`HypothesisError` where a value is
        empty, decided exactly: ``choice_max`` (as
        :meth:`GameInstance.linear_max_many`) gives each component's
        smallest ``upper - lower`` over the choice set, with a minimizer."""
        (a_l, b_l), (a_u, b_u) = self.lower._np, self.upper._np
        neg_max, arg = choice_max(a_l - a_u)
        gap_min = (b_u - b_l) - neg_max
        row = int(np.argmin(gap_min))
        if gap_min[row] < -1e-12:
            raise HypothesisError(
                f"constraint map for player {self.player_index + 1} is empty at a choice "
                f"point (component {row + 1} has lower > upper)", witness=arg[row].tolist())
        x_lo, x_hi = x_box._np
        lo, _ = self.lower.range_over_box(x_lo, x_hi)
        _, hi = self.upper.range_over_box(x_lo, x_hi)
        return Box(tuple(lo), tuple(hi))


@dataclass(frozen=True)
class MovingPolytope:
    """Polytope-valued constraint map: fixed row normals, affine offsets.

    ``bounds_hint`` must enclose every value of the map over the choice set.
    The loader checks it at every X probe in one batched sweep: the exact
    maxima of ``+-z_j`` over the value intersected with the hint widened by
    1 must be finite (the value is nonempty there) and within 1e-6 of the
    hint, else it raises :class:`HypothesisError`.  The hint drives the
    hull box.  It also bounds the values, so every candidate vertex of the
    extended system (rows plus hint faces) is an affine function of ``x``;
    linear maxima over the values are exact and vectorize over scan rows.
    """

    player_index: int
    normals: tuple[tuple[float, ...], ...]
    offsets: AffineMap
    bounds_hint: Box

    def __post_init__(self):
        if len(self.normals) != self.offsets.out_dim:
            raise InputError("polytope normals/offsets row count mismatch")
        if any(len(n) != self.own_dim or not any(n) for n in self.normals):
            raise InputError("polytope normals must be nonzero and of one dimension")
        if len(self.bounds_hint.lower) != self.own_dim:
            raise InputError("bounds hint dimension mismatch")

    @property
    def own_dim(self) -> int:
        return len(self.normals[0])

    @property
    def n_vars(self) -> int:
        return self.offsets.in_dim

    def materialize(self, x, key: Optional[np.ndarray] = None) -> HalfspacePolytope:
        """The value at ``x`` (``key``: as :meth:`MovingBox.materialize`)."""
        offs = self.offsets.eval(x) if key is None else key
        rows = tuple((n, float(o)) for n, o in zip(self.normals, offs))
        return HalfspacePolytope(rows, self.own_dim)

    def value_range(self, x_box: Box, probes: np.ndarray, choice_max) -> Box:
        """The bounds hint, once checked at the ``probes`` (choice points)
        by exact maxima of ``+-z_j`` over the value inside the hint widened
        by 1: ``-inf`` where that is empty, past the hint where the hint is
        loose.  The loader calls it once."""
        k = self.own_dim
        wide = replace(self, bounds_hint=self.bounds_hint.inflate(1.0))
        maxima, _ = wide.linear_max_many(
            np.repeat(probes, 2 * k, axis=0),
            np.tile(np.vstack([np.eye(k), -np.eye(k)]), (probes.shape[0], 1)))
        maxima = maxima.reshape(-1, 2 * k)
        lo, hi = self.bounds_hint._np
        bad = np.nonzero(np.any(np.isneginf(maxima)
                                | (maxima > np.concatenate([hi, -lo]) + 1e-6), axis=1))[0]
        if bad.size:
            raise HypothesisError(
                f"constraint map for player {self.player_index + 1} is empty or leaves its "
                "bounds hint on a probe", witness=probes[bad[0]].tolist())
        return self.bounds_hint

    @cached_property
    def _normals(self) -> np.ndarray:
        return np.array(self.normals, dtype=np.float64)

    def residual_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Rowwise worst row violation of own-block ``ys`` at ``xs``."""
        viol = ys @ self._normals.T - self.offsets.eval_many(xs)
        return np.max(np.clip(viol, 0.0, None), axis=1)

    def distance_bound_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """An upper bound on the distance of own-block ``ys`` to the values
        at ``xs``: ``+inf``, since a row violation bounds no distance."""
        return np.full(xs.shape[0], np.inf)

    def value_key(self, xs: np.ndarray) -> np.ndarray:
        """The values at ``xs`` as rows of offsets; equal rows are equal sets."""
        return self.offsets.eval_many(xs)

    def contains_key(self, keys: np.ndarray, pool: np.ndarray) -> np.ndarray:
        """``(m, |pool|)`` membership of the pool points in the values given
        by ``value_key`` rows, every row within 1e-12."""
        viol = pool @ self._normals.T
        return np.all(viol[None, :, :] <= keys[:, None, :] + 1e-12, axis=2)

    @cached_property
    def _extended_normals(self) -> np.ndarray:
        """Row normals of the values intersected with the hint: the map's
        rows, then ``z_j <= hi_j`` and ``-z_j <= -lo_j``."""
        eye = np.eye(self.own_dim)
        return np.vstack([self._normals, eye, -eye])

    @cached_property
    def _vertex_maps(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        import itertools
        a_ext = self._extended_normals
        out = []
        for subset in itertools.combinations(range(a_ext.shape[0]), self.own_dim):
            sub = a_ext[list(subset)]
            if abs(float(np.linalg.det(sub))) < 1e-12:
                continue
            out.append((subset, np.linalg.inv(sub)))
        return out

    def linear_max_many(self, xs: np.ndarray, ws: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Exact rowwise ``max_z <w, z>`` over the hinted values at ``xs``,
        with the best feasible vertex per row.  No product is a matmul, so a
        row's result does not depend on its batch."""
        a_ext = self._extended_normals
        lo, hi = self.bounds_hint._np
        hint = np.broadcast_to(np.concatenate([hi, -lo]), (xs.shape[0], 2 * self.own_dim))
        offs = np.hstack([self.offsets.eval_many(xs), hint])          # (m, rows)
        best = np.full(xs.shape[0], -np.inf)
        arg = np.full((xs.shape[0], self.own_dim), np.nan)
        for subset, inv in self._vertex_maps:
            verts = _column_products(offs[:, list(subset)], inv)      # (m, k)
            feasible = np.all(_column_products(verts, a_ext) <= offs + 1e-7, axis=1)
            vals = np.sum(verts * ws, axis=1)
            better = feasible & (vals > best)
            best = np.where(better, vals, best)
            arg[better] = verts[better]
        return best, arg


def _column_products(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat.T``, adding ``rows[:, c] * mat[:, c]`` in column order."""
    out = np.zeros((rows.shape[0], mat.shape[0]))
    for col, mat_col in zip(rows.T, mat.T):
        out += col[:, None] * mat_col
    return out


#: both kinds answer the solvers through one batched surface over scan rows
#: ``xs``: ``linear_max_many``, ``residual_many``, ``distance_bound_many``,
#: ``value_key`` and pool membership at value keys (``contains_key``); and
#: the loader through ``value_range``, which checks the values and bounds them
ConstraintMap = Union[MovingBox, MovingPolytope]


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    """Probe counts of the load-time hypothesis checks.

    Outcomes are not recorded: the loader raises :class:`HypothesisError`
    when a check fails.  ``self_exclusion_probes`` counts the probes that
    ran, 0 when every player is excluded structurally.
    """

    constraint_probes: int = 0
    self_exclusion_probes: int = 0


def _joint_box(boxes: Sequence[Box]) -> Box:
    """Product of per-player boxes, in joint coordinates."""
    return Box(tuple(v for b in boxes for v in b.lower),
               tuple(v for b in boxes for v in b.upper))


@dataclass
class GameInstance:
    """A generalized Nash game plus its derived search domain."""

    dims: tuple[int, ...]
    choice_sets: tuple[ConvexSet, ...]
    constraint_maps: tuple[ConstraintMap, ...]
    preference_maps: tuple[PreferenceMap, ...]
    hull_boxes: tuple[Box, ...]            # per-player over-approx of co(cl K_i(X))
    utility_reducible: bool
    options: dict = field(default_factory=dict)
    hypotheses: HypothesisReport = field(default_factory=HypothesisReport)
    _caches: dict = field(default_factory=dict, repr=False)

    @property
    def player_count(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return sum(self.dims)

    def own_slice(self, i: int) -> slice:
        start = sum(self.dims[:i])
        return slice(start, start + self.dims[i])

    @cached_property
    def x_bbox(self) -> Box:
        return _joint_box([s.bounding_box() for s in self.choice_sets])

    @cached_property
    def hull_box(self) -> Box:
        return _joint_box(self.hull_boxes)

    def domain_joint_box(self) -> Box:
        """Bounding box of both domain factors in joint coordinates."""
        xb, qb = self.x_bbox, self.hull_box
        lo = np.minimum(xb._np[0], qb._np[0])
        hi = np.maximum(xb._np[1], qb._np[1])
        return Box(tuple(lo), tuple(hi))

    def project_choice(self, y) -> np.ndarray:
        """Nearest point of the choice-set product to ``y``: the one-row call
        of :meth:`project_choice_many`."""
        y = np.asarray(y, dtype=np.float64).reshape(1, -1)
        if y.shape[1] != self.n:
            raise InputError(f"point has dimension {y.shape[1]}, expected {self.n}")
        return self.project_choice_many(y)[0]

    def project_choice_many(self, ys: np.ndarray) -> np.ndarray:
        out = np.empty_like(ys)
        for i in range(self.player_count):
            sl = self.own_slice(i)
            out[:, sl] = self.choice_sets[i].project_many(ys[:, sl])
        return out

    def linear_max_many(self, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact rowwise ``max_x <w, x>`` over the choice-set product for the
        ``(m, n)`` rows ``ws``, with a maximizer per row, block by block."""
        best, arg = np.zeros(ws.shape[0]), np.empty_like(ws)
        for i in range(self.player_count):
            sl = self.own_slice(i)
            vals, arg[:, sl] = self.choice_sets[i].linear_max_many(ws[:, sl])
            best += vals
        return best, arg

    def in_choice(self, x, tol: float = 1e-9) -> bool:
        return bool(self.in_choice_many(np.asarray(x, dtype=np.float64).reshape(1, -1), tol)[0])

    def in_choice_many(self, xs: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Membership of each ``(m, n)`` row in the choice-set product."""
        keep = np.ones(xs.shape[0], dtype=bool)
        for i in range(self.player_count):
            keep &= self.choice_sets[i].contains_many(xs[:, self.own_slice(i)], tol)
        return keep

    def distance_context(self, i: int, h_g: float):
        key = ("ctx", i, h_g)
        ctx = self._caches.get(key)
        if ctx is None:
            ctx = prefs.context_for(self.domain_joint_box(), self.hull_boxes[i], h_g)
            self._caches[key] = ctx
        return ctx


def seeded_rng(seed: int, *tags, arrays: Sequence[np.ndarray] = ()) -> np.random.Generator:
    """Deterministic generator keyed by seed, integer tags and array contents.

    Independent of call order, so concurrent evaluation keeps byte-identical
    results.
    """
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())
    entropy = [seed & 0xFFFFFFFF, int.from_bytes(h.digest(), "little")]
    entropy.extend(int(t) & 0xFFFFFFFF for t in tags)
    return np.random.default_rng(entropy)


# ---------------------------------------------------------------------------
# Construction and hypothesis checks
# ---------------------------------------------------------------------------

def _probe_grid_for_box(box: Box, per_axis: int, cap: int = 20000) -> np.ndarray:
    d = box.dim
    while per_axis > 2 and per_axis ** d > cap:
        per_axis -= 2
    per_axis = max(3, per_axis) if per_axis % 2 == 1 else max(3, per_axis - 1)
    return grid_points(box, [per_axis] * d)


def build_instance(dims: Sequence[int],
                   choice_sets: Sequence[ConvexSet],
                   constraint_maps: Sequence[ConstraintMap],
                   preference_maps: Sequence[PreferenceMap],
                   options: Optional[dict] = None) -> GameInstance:
    """Assemble and validate a game instance.

    Load-time checks (each raises :class:`HypothesisError` with a witness
    on failure):

    * every moving box has nonempty values over the choice set, decided
      exactly by the choice sets' linear maxima (the witness is a
      minimizer of the most negative gap);
    * every moving polytope is nonempty and stays inside its bounds hint at
      all probes (one exact batched sweep of coordinate maxima);
    * no player's current strategy falls into the convex hull of their own
      preference set at any probe of the hull product.
    """
    dims = tuple(int(d) for d in dims)
    n = sum(dims)
    if len(choice_sets) != len(dims) or len(constraint_maps) != len(dims) \
            or len(preference_maps) != len(dims):
        raise InputError("per-player sequences must all have one entry per player")
    for i, (d, s) in enumerate(zip(dims, choice_sets)):
        if s.dim != d:
            raise InputError(f"choice set for player {i + 1} has dimension {s.dim}, expected {d}")
        if isinstance(s, HalfspacePolytope):
            raise InputError("choice sets must be boxes or balls")
    for i, p in enumerate(preference_maps):
        if p.n_vars != n or p.own_dim != dims[i]:
            raise InputError(f"preference map for player {i + 1} has inconsistent dimensions")
        if p.own_start != sum(dims[:i]):
            raise InputError(f"preference map for player {i + 1} has own_start {p.own_start}, "
                             f"expected {sum(dims[:i])}")
    for i, cmap in enumerate(constraint_maps):
        if cmap.own_dim != dims[i]:
            raise InputError(f"constraint map for player {i + 1} has wrong value dimension")
        if cmap.n_vars != n:
            raise InputError(f"constraint map for player {i + 1} reads {cmap.n_vars} "
                             f"variables, expected {n}")
    for kind, maps in (("preference", preference_maps), ("constraint", constraint_maps)):
        for i, m in enumerate(maps):
            if m.player_index != i:
                raise InputError(f"{kind} map for player {i + 1} has player_index "
                                 f"{m.player_index}, expected {i}")

    report = HypothesisReport()
    instance = GameInstance(
        dims=dims,
        choice_sets=tuple(choice_sets),
        constraint_maps=tuple(constraint_maps),
        preference_maps=tuple(preference_maps),
        hull_boxes=(),                     # set below, once the values are checked
        utility_reducible=all(isinstance(p, UtilityInduced) for p in preference_maps),
        options=dict(options or {}),
        hypotheses=report,
    )
    # probes of the choice-set product's bounding box (exact for boxes,
    # enclosing for balls), kept only inside the product
    x_probes = _probe_grid_for_box(instance.x_bbox, DEFAULT_PROBE_AXIS)
    x_probes = x_probes[instance.in_choice_many(x_probes)]
    report.constraint_probes = x_probes.shape[0]
    instance.hull_boxes = tuple(cmap.value_range(instance.x_bbox, x_probes,
                                                 instance.linear_max_many)
                                for cmap in constraint_maps)

    # self-exclusion on the hull product's grid (built when first read) or the
    # probes a map declares; a hull-exact map excludes x_i structurally
    q_probes = cache(lambda: _probe_grid_for_box(instance.hull_box, DEFAULT_PROBE_AXIS))
    checked = 0
    for i, p in enumerate(preference_maps):
        if p.hull_exact:
            continue
        sl = instance.own_slice(i)
        window = instance.hull_boxes[i].inflate(1.0)
        for r, xp in enumerate(p.exclusion_probes(q_probes)):
            checked += 1
            if hull_preferred(p, xp, xp[sl], window=window, rng=seeded_rng(0, 7, i, r)):
                raise HypothesisError(f"self-exclusion fails for player {i + 1}",
                                      witness=xp.tolist())
    report.self_exclusion_probes = checked
    return instance


def from_utilities(dims: Sequence[int],
                   choice_sets: Sequence[ConvexSet],
                   constraint_maps: Sequence[ConstraintMap],
                   utilities: Sequence[Union[Polynomial, str]],
                   strictness: float = 0.0,
                   options: Optional[dict] = None) -> GameInstance:
    """Build an instance whose preferences are strict upper level sets of
    one polynomial utility per player, ``u(x_-i, z) > u(x) + strictness``:
    ``strictness`` is the preference margin (``UtilityInduced.margin``).
    The result is flagged ``utility_reducible``."""
    dims = tuple(int(d) for d in dims)
    n = sum(dims)
    if len(utilities) != len(dims):
        raise InputError("need exactly one utility per player")
    maps: list[PreferenceMap] = []
    for i, u in enumerate(utilities):
        poly = parse_polynomial_text(u, n) if isinstance(u, str) else u
        maps.append(UtilityInduced(
            player_index=i, n_vars=n, own_start=sum(dims[:i]), own_dim=dims[i],
            utility=poly, margin=strictness))
    return build_instance(dims, choice_sets, constraint_maps, maps, options=options)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlayerCheck:
    membership_residual: float
    witness: Optional[tuple[float, ...]]
    emptiness_resolution: float
    points_scanned: int


@dataclass(frozen=True)
class Certificate:
    """Candidate pair with per-player residuals and a verdict.

    ``pass`` requires the projection residual and every membership residual
    at or below ``eps`` and no intersection witness at the stated resolution
    (grid step ``h`` plus ``budget`` seeded samples under ``seed``).
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    players: tuple[PlayerCheck, ...]
    projection_residual: float
    verdict: str                      # "pass" | "fail"
    reason: Optional[str]
    eps: float
    h: float
    budget: int
    seed: int
    cluster_size: int = 1
    x_range: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None
    y_range: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def constraint_set(game: GameInstance, i: int, x) -> ConvexSet:
    """Materialize the feasible set of player ``i`` at joint strategy ``x``."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != game.n:
        raise InputError(f"joint strategy has dimension {x.shape[0]}, expected {game.n}")
    if not game.in_choice(x, tol=1e-9):
        raise InputError("joint strategy lies outside the choice-set product")
    return game.constraint_maps[i].materialize(x)


#: most gain entries (rows × scanned points) of one certificate slab
CHECK_SLAB = 65_536
#: most grid points one instance's scan cache holds; the oldest go first
SCAN_CACHE_POINTS = 1_000_000


def _joint_rows(game: GameInstance, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or xs.shape != ys.shape or xs.shape[1] != game.n:
        raise InputError("joint strategy dimension mismatch")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise InputError("joint strategies must be finite")
    return xs, ys


def _scan_samples(k_set: ConvexSet, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` seeded draws from the bounding box of ``k_set``, projected
    onto it as one batch."""
    lo, hi = k_set.bounding_box()._np
    if k_set.dim == 1:
        # scalar bounds draw the same numbers, without numpy's array checks
        lo, hi = float(lo[0]), float(hi[0])
    return k_set.project_many(rng.uniform(lo, hi, size=(count, k_set.dim)))


def _scan_entry(game: GameInstance, i: int, key: np.ndarray, x: np.ndarray, h: float,
                declared: bool = False) -> tuple[ConvexSet, np.ndarray, float]:
    """``(k_set, grid, resolution)``: player ``i``'s constraint value at
    ``x``, whose ``value_key`` row is ``key``, and its :func:`set_grid`
    at step ``h`` (``declared``: the preference's ``declared_scan`` of it,
    resolution 0), from the instance's scan cache, which the certifier and
    the best responses share.  Grids are read-only.  The cache holds at most
    ``SCAN_CACHE_POINTS`` grid points: a larger grid is returned uncached,
    and older entries are evicted, oldest first, only as far as a new one
    needs."""
    cache, slot = game._caches.setdefault("scan", {}), (i, key.tobytes(), h, declared)
    entry = cache.get(slot)
    if entry is None:
        k_set = game.constraint_maps[i].materialize(x, key)
        grid, resolution = ((game.preference_maps[i].declared_scan(k_set), 0.0) if declared
                            else set_grid(k_set, h))
        grid.flags.writeable = False
        entry = (k_set, grid, resolution)
        held = game._caches.setdefault("scan_points", 0) + grid.shape[0]
        if grid.shape[0] <= SCAN_CACHE_POINTS:
            while held > SCAN_CACHE_POINTS:
                held -= cache.pop(next(iter(cache)))[1].shape[0]
            cache[slot] = entry
            game._caches["scan_points"] = held
    return entry


def check_nep(game: GameInstance, x_fix, y, cfg) -> list[PlayerCheck]:
    """Per-player feasibility and intersection report at frozen constraints.

    For each player: the distance of ``y_i`` to ``K_i(x_fix)``, and either the
    first strictly preferred feasible point found (a witness against
    equilibrium) or a record that none was found at the grid resolution
    reached (``cfg.h`` unless a non-box grid hit its axis cap, 0 for a
    table's exhaustive scan) with ``cfg.random_budget`` extra samples.  The
    one-row call of :func:`check_nep_many`.
    """
    x_fix = np.asarray(x_fix, dtype=np.float64).reshape(1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    return list(check_nep_many(game, x_fix, y, cfg)[0])


def check_nep_many(game: GameInstance, xs, ys, cfg) -> list[tuple[PlayerCheck, ...]]:
    """:func:`check_nep` on each row of ``(m, n)`` arrays ``xs``, ``ys``.

    Per player, rows with bitwise-equal ``value_key`` share one ``K_i(x)``
    and scan grid from the instance's scan cache (:func:`_scan_entry`, at
    most ``SCAN_CACHE_POINTS`` grid points) and one ``project_many`` call
    for their membership residuals.  The scan order is the grid, then the
    row's own samples (``seeded_rng(cfg.seed, 11, i, arrays=(x, y))``); the
    witness is the first hit.
    Gains run in slabs of at most ``CHECK_SLAB`` entries, the grid first;
    samples are drawn only for rows with no grid witness.
    ``points_scanned`` is the size of the stamped scan, grid plus budget.
    Every check is bitwise the one the row gets alone on a fresh instance.
    """
    xs, ys = _joint_rows(game, xs, ys)
    columns = []
    for i in range(game.player_count):
        pref, sl = game.preference_maps[i], game.own_slice(i)
        declared = pref.scans_declared
        count = 0 if declared else cfg.random_budget
        groups: dict[bytes, list[int]] = {}
        keys = game.constraint_maps[i].value_key(xs)
        for r, key in enumerate(keys):
            groups.setdefault(key.tobytes(), []).append(r)
        checks: list[Optional[PlayerCheck]] = [None] * xs.shape[0]
        for rows in groups.values():
            k_set, grid, resolution = _scan_entry(game, i, keys[rows[0]], xs[rows[0]], cfg.h,
                                                  declared)
            total = grid.shape[0] + count
            witnesses: dict[int, tuple] = {}
            step = max(1, CHECK_SLAB // max(1, total))
            for s in range(0, len(rows) if total else 0, step):
                slab = rows[s:s + step]
                hits = prefs.strictly_preferred(prefs.strict_gain_outer(pref, ys[slab], grid))
                for j in hits.any(axis=1).nonzero()[0]:
                    witnesses[slab[j]] = tuple(grid[np.argmax(hits[j])])
                misses = [r for r in slab if r not in witnesses] if count else []
                if misses:
                    samples = np.stack([_scan_samples(k_set, count, seeded_rng(
                        cfg.seed, 11, i, arrays=(xs[r], ys[r]))) for r in misses])
                    hits = prefs.strictly_preferred(
                        prefs.strict_gain_paired(pref, ys[misses], samples))
                    for j in hits.any(axis=1).nonzero()[0]:
                        witnesses[misses[j]] = tuple(samples[j, np.argmax(hits[j])])
            own = ys[rows, sl]
            for r, yi, nearest in zip(rows, own, k_set.project_many(own)):
                checks[r] = PlayerCheck(
                    membership_residual=float(np.linalg.norm(yi - nearest)),
                    witness=witnesses.get(r), emptiness_resolution=resolution,
                    points_scanned=total)
        columns.append(checks)
    return list(zip(*columns))


def _certify(game: GameInstance, xs: np.ndarray, ys: np.ndarray,
             players: Sequence[Sequence[PlayerCheck]], cfg,
             eps: Optional[float]) -> list[Certificate]:
    """Certificates from the rows' player checks and the nearest-point
    condition on the choice-set product."""
    eps = cfg.eps_analytic if eps is None else float(eps)
    out = []
    for x, y, row, gap in zip(xs, ys, players, game.project_choice_many(ys) - xs):
        projection_residual = float(np.linalg.norm(gap))
        reason = None
        if projection_residual > eps:
            reason = "projection"
        else:
            for i, pc in enumerate(row):
                if pc.membership_residual > eps:
                    reason = f"membership[{i}]"
                    break
                if pc.witness is not None:
                    reason = f"intersection[{i}]"
                    break
        out.append(Certificate(
            x=tuple(x), y=tuple(y), players=tuple(row),
            projection_residual=projection_residual,
            verdict="pass" if reason is None else "fail",
            reason=reason, eps=eps, h=cfg.h, budget=cfg.random_budget, seed=cfg.seed,
        ))
    return out


def check_projected_solution(game: GameInstance, x_tilde, y_tilde, cfg,
                             eps: Optional[float] = None) -> Certificate:
    """Full certificate for a candidate pair.

    Combines the nearest-point condition on the choice-set product with the
    per-player feasibility and empty-intersection checks of
    :func:`check_nep`; tolerances default to the analytic epsilon of ``cfg``.
    The one-row case of :func:`check_projected_solution_many`, taking its
    player checks from :func:`check_nep` so that wrappers of that name (the
    benchmark's tracer) see every one-row check.
    """
    xs, ys = _joint_rows(game, np.reshape(x_tilde, (1, -1)), np.reshape(y_tilde, (1, -1)))
    return _certify(game, xs, ys, [check_nep(game, xs[0], ys[0], cfg)], cfg, eps)[0]


def check_projected_solution_many(game: GameInstance, xs, ys, cfg,
                                  eps: Optional[float] = None) -> list[Certificate]:
    """:func:`check_projected_solution` on each row of ``(m, n)`` arrays
    ``xs``, ``ys``, through one :func:`check_nep_many` call."""
    xs, ys = _joint_rows(game, xs, ys)
    return _certify(game, xs, ys, check_nep_many(game, xs, ys, cfg), cfg, eps)

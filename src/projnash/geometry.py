"""Closed convex sets in low-dimensional Euclidean space.

Three set variants (axis-aligned boxes, Euclidean balls, half-space
polytopes) share a small oracle interface: batched nearest-point projection
(``project_many``) and membership (``contains_many``), whose rows do not
depend on their batch, with one-row calls beside them, and bounding boxes
for probe generation.  Boxes and balls project exactly; polytopes run one
cyclic Dykstra loop with a verified face polish.  On top of the
sets live scan grids, probe points, the projection VI residual, the cone
samples of the normal operator and :func:`separate`, which finds a direction
polar to a finite point family in any dimension with at most ``2 k`` HiGHS
LPs (scipy, imported on first use).

All functions are pure; set values are immutable after construction and safe
to share across workers.  Randomized probing always takes an explicit
``numpy.random.Generator`` (or derives one deterministically from a fixed
seed), never global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InputError, NonConvergenceError

#: stopping tolerance for the iterative polytope projection
TOL_PROJ = 1e-10
#: cycle cap for the iterative polytope projection
ITER_CAP = 10000
#: shared tolerance for polar / normal-cone inequalities
CONE_TOL = 1e-9
#: most points per axis of a non-box constraint grid (:func:`set_grid`)
GRID_AXIS_CAP = 201
#: most points of a scan grid (or of one axis of the fixed-point start
#: grid); larger grids stop with an InputError before any axis is built
GRID_GUARD = 10_000_000


def _as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    return v


# ---------------------------------------------------------------------------
# Set variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``{x : lower <= x <= upper}``."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise InputError("box bounds must be nonempty and of equal length")
        if not all(map(math.isfinite, (*self.lower, *self.upper))):    # NaN too
            raise InputError("box bounds must be finite")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise InputError(f"empty box: lower {self.lower} exceeds upper {self.upper}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @cached_property
    def _np(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.lower, dtype=np.float64), np.array(self.upper, dtype=np.float64)

    def project_many(self, points: np.ndarray) -> np.ndarray:
        lo, hi = self._np
        return np.clip(points, lo, hi)

    def contains(self, x, tol: float = CONE_TOL) -> bool:
        return bool(self.contains_many(_as_vector(x, self.dim)[None, :], tol)[0])

    def contains_many(self, points: np.ndarray, tol: float = CONE_TOL) -> np.ndarray:
        """Membership of each ``(m, dim)`` row, within ``tol`` per coordinate."""
        lo, hi = self._np
        return np.all((points >= lo - tol) & (points <= hi + tol), axis=1)

    def bounding_box(self) -> "Box":
        return self

    def linear_max_many(self, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact rowwise ``max_z <w, z>`` over the box for the ``ws`` rows,
        with a maximizer per row (ties ``w_j = 0`` take the upper bound)."""
        lo, hi = self._np
        arg = np.where(ws >= 0, hi, lo)
        return np.sum(arg * ws, axis=1), arg

    def inflate(self, margin: float) -> "Box":
        lo, hi = self._np
        return Box(tuple(lo - margin), tuple(hi + margin))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball ``{x : ||x - center|| <= radius}``."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not (0 <= self.radius < math.inf and all(map(math.isfinite, self.center))):
            raise InputError("ball radius must be finite and nonnegative, its center finite")
        if not self.center:
            raise InputError("ball center must be nonempty")

    @property
    def dim(self) -> int:
        return len(self.center)

    @cached_property
    def _c(self) -> np.ndarray:
        return np.array(self.center, dtype=np.float64)

    def project_many(self, points: np.ndarray) -> np.ndarray:
        v = points - self._c
        norms = np.linalg.norm(v, axis=1)
        scale = np.ones_like(norms)
        outside = norms > self.radius
        scale[outside] = self.radius / norms[outside]
        return self._c + v * scale[:, None]

    def contains(self, x, tol: float = CONE_TOL) -> bool:
        return bool(self.contains_many(_as_vector(x, self.dim)[None, :], tol)[0])

    def contains_many(self, points: np.ndarray, tol: float = CONE_TOL) -> np.ndarray:
        """Membership of each ``(m, dim)`` row, within ``tol`` of the radius."""
        return np.linalg.norm(points - self._c, axis=1) <= self.radius + tol

    def bounding_box(self) -> Box:
        c = self._c
        return Box(tuple(c - self.radius), tuple(c + self.radius))

    def linear_max_many(self, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact rowwise ``max_z <w, z>`` over the ball for the ``ws`` rows,
        with a maximizer per row (``w = 0`` takes the centre)."""
        norm = np.linalg.norm(ws, axis=1)
        arg = self._c + self.radius * ws / np.where(norm > 0.0, norm, 1.0)[:, None]
        return ws @ self._c + self.radius * norm, arg


@dataclass(frozen=True)
class HalfspacePolytope:
    """Intersection of half-spaces ``{x : <normal_r, x> <= offset_r}``.

    Feasibility is verified at construction by running the iterative
    projection from the origin; an empty intersection raises
    :class:`InputError`.
    """

    rows: tuple[tuple[tuple[float, ...], float], ...]
    dim: int

    def __post_init__(self):
        if not self.rows:
            raise InputError("polytope needs at least one half-space row")
        for normal, _ in self.rows:
            if len(normal) != self.dim:
                raise InputError("polytope row dimension mismatch")
            if not any(c != 0.0 for c in normal):
                raise InputError("polytope row normal is zero")
        # feasibility probe; stores the point found
        a, b = self._np
        try:
            feasible = _dykstra(a, b, np.zeros(self.dim))
        except NonConvergenceError as exc:
            raise InputError(
                "polytope appears infeasible or ill-conditioned "
                f"(projection from origin stalled at {exc.last_iterate})") from exc
        object.__setattr__(self, "_feasible", tuple(feasible))

    @cached_property
    def _np(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.array([n for n, _ in self.rows], dtype=np.float64)
        b = np.array([o for _, o in self.rows], dtype=np.float64)
        norms = np.linalg.norm(a, axis=1)
        return a / norms[:, None], b / norms

    def project_many(self, points: np.ndarray) -> np.ndarray:
        a, b = self._np
        return _dykstra_many(a, b, np.asarray(points, dtype=np.float64))

    def contains(self, x, tol: float = CONE_TOL) -> bool:
        return bool(self.contains_many(_as_vector(x, self.dim)[None, :], tol)[0])

    def contains_many(self, points: np.ndarray, tol: float = CONE_TOL) -> np.ndarray:
        """Membership of each ``(m, dim)`` row, every half-space within ``tol``."""
        a, b = self._np
        return np.all(_row_products(a, points) - b <= tol, axis=1)

    def bounding_box(self) -> Box:
        """Vertex-spanned box when the set has corners.  Otherwise a loose
        probe window around the stored feasible point: probes are projected
        back onto the set, so it only seeds probe generation."""
        v = self.vertices
        if v.shape[0]:
            return Box(tuple(v.min(axis=0)), tuple(v.max(axis=0)))
        p = np.array(self._feasible)
        _, b = self._np
        radius = 1.0 + 2.0 * float(np.linalg.norm(p)) + 2.0 * float(np.max(np.abs(b)))
        return Box(tuple(p - radius), tuple(p + radius))

    @cached_property
    def vertices(self) -> np.ndarray:
        """Vertices from all invertible row subsets (empty for unbounded
        sets with no corner in low dimensions)."""
        import itertools
        a, b = self._np
        found: list[np.ndarray] = []
        for subset in itertools.combinations(range(a.shape[0]), self.dim):
            sub = a[list(subset)]
            try:
                v = np.linalg.solve(sub, b[list(subset)])
            except np.linalg.LinAlgError:
                continue
            if float(np.max(a @ v - b)) <= 1e-7:
                found.append(v)
        if not found:
            return np.zeros((0, self.dim))
        arr = np.vstack(found)
        _, keep = np.unique(np.round(arr, 9), axis=0, return_index=True)
        return arr[np.sort(keep)]


ConvexSet = Union[Box, Ball, HalfspacePolytope]


def _row_products(a: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``points @ a.T`` as one stacked matrix-vector product per row, which
    rounds a row as its one-row call does (a matmul over the batch does not)."""
    return np.matmul(a, points[:, :, None])[:, :, 0]


def _face_polish(a: np.ndarray, b: np.ndarray, ys: np.ndarray,
                 xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest points given face guesses from the iteration.

    Row ``j`` solves the stationarity system for ``ys[j]`` on the
    near-active rows of ``xs[j]`` with a small add/drop loop.  Its point
    counts (``ok[j]``) only when the full optimality conditions verify
    (tight active rows, nonnegative multipliers, global feasibility), so a
    wrong guess is simply not ok; rows that are not ok hold NaN.

    All rows advance one add/drop round at a time, grouped by their active
    list.  A list is kept in index order (the order of the rows fixes the
    rounding of the Gram solve), so a verified point depends only on its
    final face, not on the guess that led there.  Stacked ``matmul`` rounds
    every row exactly as the one-row product would, so a row's point does
    not depend on its batch.
    """
    m = a.shape[0]
    n = ys.shape[0]
    points = np.full_like(ys, np.nan)
    ok = np.zeros(n, dtype=bool)
    # active lists in index order, padded with -1 (a list never repeats a
    # row); one dot product per point and half-space, as for a single point
    near = np.matmul(a[:, None, :], xs[:, None, :, None])[..., 0, 0] - b >= -1e-6
    active = np.where(near, np.arange(m), m)
    active.sort(axis=1)
    active[active == m] = -1
    live = np.arange(n)
    for _ in range(2 * m + 2):
        if not live.size:
            break
        # sort the live rows by active list and cut where the list changes
        lists = active[live]
        order = np.lexsort(lists.T[::-1])
        lists, live = lists[order], live[order]
        edges = np.ones(live.size + 1, dtype=bool)
        edges[1:-1] = np.any(lists[1:] != lists[:-1], axis=1)
        bounds = np.flatnonzero(edges).tolist()
        going = np.zeros(n, dtype=bool)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            rows = live[start:stop]
            act = lists[start][lists[start] >= 0]
            k = act.shape[0]
            cand = ys[rows]
            if k:
                a_act, b_act = a[act], b[act]
                rhs = np.matmul(a_act, cand[:, :, None])[:, :, 0] - b_act
                if k == 1:
                    lam = rhs  # rows are unit-normalized
                else:
                    gram = a_act @ a_act.T
                    try:
                        lam = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
                    except np.linalg.LinAlgError:
                        lam = np.stack([np.linalg.lstsq(gram, r, rcond=None)[0] for r in rhs])
                drop = np.any(lam < -1e-12, axis=1)
                if np.any(drop):
                    shrunk = rows[drop]
                    if k > 1:
                        keep = np.arange(k) != np.argmin(lam[drop], axis=1)[:, None]
                        active[shrunk, :k - 1] = active[shrunk, :k][keep].reshape(-1, k - 1)
                    active[shrunk, k - 1] = -1
                    going[shrunk] = True
                    rows, cand, lam = rows[~drop], cand[~drop], lam[~drop]
                cand = cand - np.matmul(a_act.T, lam[:, :, None])[:, :, 0]
                # a missed face is rank trouble: not ok (a NaN residual passes)
                tight = ~(np.max(np.abs(np.matmul(a_act, cand[:, :, None])[:, :, 0] - b_act),
                                 axis=1) > 1e-9)
                rows, cand = rows[tight], cand[tight]
            viol = _row_products(a, cand) - b
            worst = np.argmax(viol, axis=1)
            done = viol[np.arange(rows.shape[0]), worst] <= CONE_TOL
            points[rows[done]] = cand[done]
            ok[rows[done]] = True
            grow = ~done & ~np.any(act[None, :] == worst[:, None], axis=1)
            if np.any(grow):
                # the list stays in index order, so the Gram solve does not
                # depend on the iterate that led to it
                added = rows[grow]
                active[added, k] = worst[grow]
                active[added, :k + 1] = np.sort(active[added, :k + 1], axis=1)
                going[added] = True
        live = live[going[live]]
    return points, ok


def _dykstra_many(a: np.ndarray, b: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Nearest points of the ``ys`` rows in ``{x : a x <= b}``: cyclic
    half-space projection with Dykstra corrections (which make the limit the
    nearest point), vectorized over the infeasible rows.  Once every row
    moves less than 1e-6 in a cycle, one batched :func:`_face_polish`
    settles the rows it verifies.  The movement test alone is unsound (the
    iteration can stall at an infeasible point, and on degenerate faces it
    decays sublinearly), so the other rows keep cycling: a row moving less
    than 1e-7 is polished again, and a feasible one moving less than
    ``TOL_PROJ`` is accepted.  Raises :class:`NonConvergenceError`, with the
    first unsettled iterate, after ``ITER_CAP`` cycles."""
    out = ys.copy()
    live = np.flatnonzero(~np.all(_row_products(a, ys) - b <= CONE_TOL, axis=1))
    x = ys[live]
    corrections = np.zeros((a.shape[0],) + x.shape)
    polished = False
    for _ in range(ITER_CAP):
        if not live.size:
            break
        start = x
        for r in range(a.shape[0]):
            w = x + corrections[r]
            viol = np.clip(w @ a[r] - b[r], 0.0, None)
            x = w - viol[:, None] * a[r][None, :]
            corrections[r] = w - x
        move = np.linalg.norm(x - start, axis=1)
        if not polished and np.max(move) >= 1e-6:
            continue
        settle = np.flatnonzero(move < 1e-7) if polished else np.arange(live.size)
        polished = True
        done = np.zeros(live.size, dtype=bool)
        if settle.size:
            points, ok = _face_polish(a, b, ys[live[settle]], x[settle])
            out[live[settle[ok]]] = points[ok]
            done[settle[ok]] = True
        accept = ~done & (move < TOL_PROJ)
        accept[accept] = np.all(_row_products(a, x[accept]) - b <= CONE_TOL, axis=1)
        out[live[accept]] = x[accept]
        done |= accept
        live, x, corrections = live[~done], x[~done], corrections[:, ~done]
    if live.size:
        raise NonConvergenceError(
            f"polytope projection did not converge within {ITER_CAP} cycles",
            last_iterate=x[0])
    return out


def _dykstra(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nearest point of ``y`` in ``{x : a x <= b}``: the one-row call of
    :func:`_dykstra_many`."""
    return _dykstra_many(a, b, np.asarray(y, dtype=np.float64)[None, :])[0]


# ---------------------------------------------------------------------------
# Projection, grids and probes
# ---------------------------------------------------------------------------

def project(s: ConvexSet, y) -> np.ndarray:
    """Unique nearest point of ``s`` to ``y``: the one-row call of
    ``s.project_many`` (boxes clamp componentwise, balls rescale radially,
    polytopes run the iterative scheme)."""
    y = _as_vector(y, s.dim, "point")
    return s.project_many(y[None, :])[0]


def mesh_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Product of per-axis point lists, one row per point, lexicographic order."""
    if len(axes) == 1:
        # the one-axis product is the axis; meshgrid would cost 10 us more
        return np.array(axes[0]).reshape(-1, 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def grid_points(box: Box, per_axis: Sequence[int]) -> np.ndarray:
    """Deterministic grid over a box, endpoints included, lexicographic order."""
    lo, hi = box._np
    return mesh_points([np.linspace(lo[j], hi[j], max(1, int(per_axis[j])))
                        for j in range(box.dim)])


def grid_axis_size(lo: float, hi: float, step: float) -> Union[int, float]:
    """Point count of :func:`grid_axis`, without building the axis
    (``inf`` when the count overflows a float)."""
    if hi <= lo + 1e-15:
        return 1
    # Python floats: an overflowing division is inf, with no numpy warning
    cells = float(hi - lo) / step - 1e-9
    return int(math.ceil(cells)) + 1 if math.isfinite(cells) else math.inf


def grid_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Axis points spaced at most ``step`` apart, both endpoints included."""
    if hi <= lo + 1e-15:
        return np.array([lo])
    return np.linspace(lo, hi, grid_axis_size(lo, hi, step))


def lattice_span(lo: float, hi: float, step: float) -> tuple[float, float, Union[int, float]]:
    """First and last point and point count of :func:`lattice_axis`,
    without building the axis (count ``inf`` when it overflows a float)."""
    a, b = float(lo) / step + 1e-9, float(hi) / step - 1e-9
    if not (math.isfinite(a) and math.isfinite(b)):
        return lo, hi, math.inf
    lo_s = math.floor(a) * step
    hi_s = math.ceil(b) * step
    if hi_s <= lo_s + 1e-15:
        return lo_s, lo_s, 1
    return lo_s, hi_s, int(round((hi_s - lo_s) / step)) + 1


def lattice_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Axis snapped outward onto multiples of ``step``.

    Zero-anchored scan grids keep round-coordinate points representable
    whatever the interval phase, and nest under step halving.
    """
    lo_s, hi_s, n = lattice_span(lo, hi, step)
    return np.array([lo_s]) if n == 1 else np.linspace(lo_s, hi_s, n)


def cell_count_text(total: Union[int, float]) -> str:
    """A cell count for an error message: exact below 1e15, else its order
    of magnitude."""
    if total < 10 ** 15:
        return str(total)
    return "more than 1e308" if total == math.inf else f"about 1e{math.log10(total):.0f}"


def check_grid_size(counts: Sequence[Union[int, float]], what: str) -> int:
    """The cell count of a grid with these axis point counts, or an
    InputError naming it when it exceeds :data:`GRID_GUARD`."""
    total = math.prod(counts)
    if total > GRID_GUARD:
        raise InputError(f"{what} of {cell_count_text(total)} cells exceeds the guard "
                         f"({GRID_GUARD}); use a coarser h")
    return total


def constraint_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Scan axis for a constraint interval: the exact-endpoint grid enriched
    with the in-range points of the zero-anchored lattice, so both moving
    faces and round interior coordinates are representable."""
    base = grid_axis(lo, hi, step)
    k_lo = int(math.ceil(lo / step - 1e-9))
    k_hi = int(math.floor(hi / step + 1e-9))
    if k_hi < k_lo:
        return base
    lattice = np.arange(k_lo, k_hi + 1) * step
    return np.unique(np.concatenate([base, lattice]))


def _constraint_axis_bound(lo: float, hi: float, step: float) -> Union[int, float]:
    """An upper bound on the point count of :func:`constraint_axis`."""
    return grid_axis_size(lo, hi, step) + lattice_span(lo, hi, step)[2]


def set_grid(s: ConvexSet, step: float) -> tuple[np.ndarray, float]:
    """Scan grid over a constraint value, with the resolution it reaches.

    Box axes are :func:`constraint_axis` and honour ``step``.  Other sets
    grid their bounding box with :func:`grid_axis` (a zero-width axis is one
    point), capped at ``GRID_AXIS_CAP`` points per axis, and project the
    grid back onto the set; a capped axis coarsens the returned resolution
    to its actual spacing.  A box grid over ``GRID_GUARD`` points stops with
    an InputError before any axis is built.
    """
    if isinstance(s, Box):
        lo, hi = s._np
        check_grid_size([_constraint_axis_bound(lo[j], hi[j], step) for j in range(s.dim)],
                        "constraint scan grid")
        return mesh_points([constraint_axis(lo[j], hi[j], step) for j in range(s.dim)]), step
    lo, hi = s.bounding_box()._np
    axes = []
    resolution = step
    for j in range(s.dim):
        if grid_axis_size(lo[j], hi[j], step) > GRID_AXIS_CAP:
            axes.append(np.linspace(lo[j], hi[j], GRID_AXIS_CAP))
            resolution = max(resolution, float(hi[j] - lo[j]) / (GRID_AXIS_CAP - 1))
        else:
            axes.append(grid_axis(lo[j], hi[j], step))
    return s.project_many(mesh_points(axes)), resolution


def probe_points(s: ConvexSet, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Up to ``budget`` points of ``s``: a deterministic bounding-box grid plus
    seeded uniform draws, all projected back onto the set."""
    if budget <= 0:
        raise InputError(f"probe budget must be positive, got {budget}")
    bbox = s.bounding_box()
    d = s.dim
    per_axis = max(2, int(math.floor((budget / 2) ** (1.0 / d)))) if budget >= 2 ** d else 1
    grid = grid_points(bbox, [per_axis] * d)
    n_random = max(0, budget - grid.shape[0])
    lo, hi = bbox._np
    randoms = rng.uniform(lo, hi, size=(n_random, d)) if n_random else np.empty((0, d))
    raw = np.vstack([grid, randoms])[:budget]
    return s.project_many(raw)


def projection_vi_residual(s: ConvexSet, y, x, probe_budget: int,
                           rng: Optional[np.random.Generator] = None) -> float:
    """Minimum of ``<x - y, eta - x>`` over probed ``eta`` in ``s``.

    If ``x`` really is the projection of ``y`` onto ``s`` the minimum is
    nonnegative up to tolerance (the projection variational inequality); a
    clearly negative value exhibits a witness that ``x`` is not the nearest
    point.  ``x`` itself is always probed, so the result is never positive
    by more than 0.
    """
    if probe_budget <= 0:
        raise InputError(f"probe budget must be positive, got {probe_budget}")
    y = _as_vector(y, s.dim, "y")
    x = _as_vector(x, s.dim, "x")
    if not s.contains(x, tol=1e-9):
        raise InputError("x must belong to the set (within 1e-9)")
    if rng is None:
        rng = np.random.default_rng(0)
    probes = np.vstack([x[None, :], probe_points(s, probe_budget, rng)])
    vals = (probes - x) @ (x - y)
    return float(np.min(vals))


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------

def separate(points, x) -> Optional[np.ndarray]:
    """Unit vector ``d`` with ``<d, z - x> <= CONE_TOL`` for every row ``z``
    of ``points`` (so for their hull), or ``None`` when there is none.

    Exact in any dimension: a nonzero ``d`` scaled to ``|d|_inf = 1`` has
    some coordinate at +1 or -1, so at most ``2 k`` LPs decide it, each
    fixing one coordinate's sign and minimizing ``t`` subject to ``<d, z -
    x> <= t`` and ``|d|_inf <= 1``.  Every solution is normalized and
    checked in floats; the first with the smallest computed worst-case
    ``<d, z - x>`` is returned if that is at most ``CONE_TOL``.  When ``x``
    lies on the hull the best margin is 0 and a supporting direction is
    returned; callers treat those as valid normal-cone elements.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise InputError("separation needs a nonempty point family")
    pts = pts.reshape(pts.shape[0], -1)
    dim = pts.shape[1]
    shifted = pts - _as_vector(x, dim, "x")
    from scipy.optimize import linprog  # imported on first use: a slow import
    a_ub, b_ub = np.hstack([shifted, -np.ones((pts.shape[0], 1))]), np.zeros(pts.shape[0])
    cost = np.zeros(dim + 1)
    cost[-1] = 1.0
    best_dir, best_margin = None, math.inf
    for j in range(dim):
        for sign in (1.0, -1.0):
            bounds = [(-1.0, 1.0)] * dim + [(None, None)]
            bounds[j] = (sign, sign)
            res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
            if res.status != 0:
                continue
            d = res.x[:dim] / np.linalg.norm(res.x[:dim])
            margin = float(np.max(shifted @ d))
            if margin < best_margin:
                best_dir, best_margin = d, margin
    return best_dir if best_margin <= CONE_TOL else None


# ---------------------------------------------------------------------------
# Cone samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeSample:
    """Finite family of unit directions sampling a cone section.

    ``is_full_space`` marks the degenerate case where the cone is the whole
    space; such a sample stores no directions and stands for the closed
    unit ball.
    """

    directions: tuple[tuple[float, ...], ...]
    ambient_dim: int
    is_full_space: bool = False

    def __post_init__(self):
        for d in self.directions:
            if len(d) != self.ambient_dim:
                raise InputError("cone sample direction dimension mismatch")
            norm = math.sqrt(sum(c * c for c in d))
            if abs(norm - 1.0) > 1e-12:
                raise InputError(f"cone sample direction is not unit (norm {norm})")

    @staticmethod
    def from_directions(directions: np.ndarray, ambient_dim: int) -> "ConeSample":
        arr = np.asarray(directions, dtype=np.float64).reshape(-1, ambient_dim)
        return ConeSample(tuple(tuple(row) for row in arr), ambient_dim, False)

    @staticmethod
    def full_space(ambient_dim: int) -> "ConeSample":
        return ConeSample((), ambient_dim, True)

    @staticmethod
    def empty(ambient_dim: int) -> "ConeSample":
        return ConeSample((), ambient_dim, False)

    @property
    def is_empty(self) -> bool:
        return not self.is_full_space and not self.directions

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.array(self.directions, dtype=np.float64).reshape(len(self.directions), self.ambient_dim)

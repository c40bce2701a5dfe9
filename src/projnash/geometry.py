"""Closed convex sets in low-dimensional Euclidean space.

Three set variants (axis-aligned boxes, Euclidean balls, half-space
polytopes) share a small oracle interface: exact or iterative nearest-point
projection, membership, bounding boxes for probe generation.  On top of the
sets live the cone-side primitives: polar- and normal-cone membership tests
against finite probe families, and a sphere-scan separation routine for
dimensions 1-3.

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
#: default angular resolution of the separation scan, in points per angle
#: (2 pi / 1e-3 radians, rounded)
ANGULAR_RESOLUTION = 6283
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

    def inflate(self, margin: float) -> "Box":
        lo, hi = self._np
        return Box(tuple(lo - margin), tuple(hi + margin))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball ``{x : ||x - center|| <= radius}``."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise InputError(f"negative ball radius {self.radius}")
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
        a, b = self._rows_np()
        try:
            feasible = _dykstra(a, b, np.zeros(self.dim))
        except NonConvergenceError as exc:
            raise InputError(
                "polytope appears infeasible or ill-conditioned "
                f"(projection from origin stalled at {exc.last_iterate})") from exc
        object.__setattr__(self, "_feasible", tuple(feasible))

    def _rows_np(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.array([n for n, _ in self.rows], dtype=np.float64)
        b = np.array([o for _, o in self.rows], dtype=np.float64)
        norms = np.linalg.norm(a, axis=1)
        return a / norms[:, None], b / norms

    @cached_property
    def _np(self) -> tuple[np.ndarray, np.ndarray]:
        return self._rows_np()

    def project_many(self, points: np.ndarray) -> np.ndarray:
        a, b = self._np
        return _dykstra_many(a, b, np.asarray(points, dtype=np.float64))

    def contains(self, x, tol: float = CONE_TOL) -> bool:
        a, b = self._np
        return bool(np.all(a @ _as_vector(x, self.dim) - b <= tol))

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


def _face_polish(a: np.ndarray, b: np.ndarray, ys: np.ndarray,
                 xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest points given face guesses from the iteration.

    Row ``j`` solves the stationarity system for ``ys[j]`` on the
    near-active rows of ``xs[j]`` with a small add/drop loop.  Its point
    counts (``ok[j]``) only when the full optimality conditions verify
    (tight active rows, nonnegative multipliers, global feasibility), so a
    wrong guess is simply not ok; rows that are not ok hold NaN.

    All rows advance one add/drop round at a time, grouped by their
    *ordered* active list (the order of the rows fixes the rounding of the
    Gram solve).  Stacked ``matmul`` rounds every row exactly as the one-row
    product would, so a row's point does not depend on its batch.
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
            viol = np.matmul(a, cand[:, :, None])[:, :, 0] - b
            worst = np.argmax(viol, axis=1)
            done = viol[np.arange(rows.shape[0]), worst] <= CONE_TOL
            points[rows[done]] = cand[done]
            ok[rows[done]] = True
            grow = ~done & ~np.any(act[None, :] == worst[:, None], axis=1)
            if np.any(grow):
                active[rows[grow], k] = worst[grow]
                going[rows[grow]] = True
        live = live[going[live]]
    return points, ok


def _dykstra(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nearest point in ``{x : a x <= b}`` via cyclic half-space projection
    with Dykstra corrections.

    Plain cyclic projection only reaches *some* feasible point; the
    correction vectors are what make the limit the nearest point.  The
    movement test alone is unsound in both directions: the iteration can
    stall briefly at an infeasible point before the corrections release it,
    and on degenerate faces the movement decays sublinearly.  Termination
    therefore also demands feasibility, and once the movement is small the
    identified face is polished to the exact nearest point (verified
    against the optimality conditions before acceptance).  Raises
    :class:`NonConvergenceError` after ``ITER_CAP`` cycles.
    """
    x = y.astype(np.float64).copy()
    corrections = np.zeros((a.shape[0], a.shape[1]))
    for _ in range(ITER_CAP):
        start = x.copy()
        for r in range(a.shape[0]):
            w = x + corrections[r]
            viol = float(a[r] @ w - b[r])
            xr = w - max(0.0, viol) * a[r]
            corrections[r] = w - xr
            x = xr
        move = float(np.linalg.norm(x - start))
        if move < 1e-7:
            polished, ok = _face_polish(a, b, y[None, :], x[None, :])
            if ok[0]:
                return polished[0]
        if move < TOL_PROJ and float(np.max(a @ x - b)) <= CONE_TOL:
            return x
    raise NonConvergenceError(
        f"polytope projection did not converge within {ITER_CAP} cycles",
        last_iterate=x)


def _dykstra_many(a: np.ndarray, b: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Batched variant: vectorized cycles to localize the faces, then one
    batched exact polish.  Points whose polish fails fall back to the
    scalar iteration."""
    m, d = ys.shape
    feasible = np.all(ys @ a.T - b <= CONE_TOL, axis=1)
    out = np.empty_like(ys)
    out[feasible] = ys[feasible]
    if np.all(feasible):
        return out
    todo = np.nonzero(~feasible)[0]
    x = ys[todo].copy()
    corrections = np.zeros((a.shape[0], todo.shape[0], d))
    for _ in range(ITER_CAP):
        start = x.copy()
        for r in range(a.shape[0]):
            w = x + corrections[r]
            viol = np.clip(w @ a[r] - b[r], 0.0, None)
            xr = w - viol[:, None] * a[r][None, :]
            corrections[r] = w - xr
            x = xr
        if float(np.max(np.linalg.norm(x - start, axis=1))) < 1e-6:
            break
    polished, ok = _face_polish(a, b, ys[todo], x)
    out[todo] = polished
    for i in todo[~ok]:
        out[i] = _dykstra(a, b, ys[i])
    return out


# ---------------------------------------------------------------------------
# Projection and cone operations
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


def polar_membership(points, x_star, tol: float) -> bool:
    """True iff ``<x_star, p> <= tol`` for every probe point ``p``.

    An empty family accepts everything: the polar of the empty set is the
    whole space.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return True
    pts = pts.reshape(pts.shape[0], -1)
    xs = _as_vector(x_star, pts.shape[1], "x_star")
    return bool(np.all(pts @ xs <= tol))


def normal_cone_membership(s, x, x_star, tol: float, probe_budget: int,
                           rng: Optional[np.random.Generator] = None) -> bool:
    """True iff ``<x_star, y - x> <= tol`` for all probed ``y`` in ``s``.

    ``s`` may be a finite point family (checked exhaustively) or a
    :class:`ConvexSet` (checked on grid plus seeded random probes).  An empty
    family means the normal cone is the whole space, so the answer is True.
    """
    x = _as_vector(x)
    xs = _as_vector(x_star, x.shape[0], "x_star")
    if isinstance(s, (Box, Ball, HalfspacePolytope)):
        if s.dim != x.shape[0]:
            raise InputError("set and point dimensions differ")
        if rng is None:
            rng = np.random.default_rng(0)
        pts = probe_points(s, probe_budget, rng)
    else:
        pts = np.asarray(s, dtype=np.float64)
        if pts.size == 0:
            return True
        pts = pts.reshape(pts.shape[0], -1)
        if pts.shape[1] != x.shape[0]:
            raise InputError("point family and x dimensions differ")
    return bool(np.all((pts - x) @ xs <= tol))


# ---------------------------------------------------------------------------
# Sphere discretization and separation
# ---------------------------------------------------------------------------

def unit_directions(dim: int, angular_resolution: int = ANGULAR_RESOLUTION) -> np.ndarray:
    """Deterministic unit-vector scan family for dimensions 1-3.

    1D ignores the resolution (both signs are exhaustive); 2D sweeps the
    circle; 3D sweeps azimuth at full resolution and inclination at half.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, max(4, angular_resolution), endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dim == 3:
        n_azimuth = max(4, angular_resolution)
        n_incl = max(3, angular_resolution // 2)
        phis = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
        thetas = np.linspace(0.0, math.pi, n_incl)
        sin_t = np.sin(thetas)[:, None]
        cos_t = np.cos(thetas)[:, None]
        dirs = np.stack([
            (sin_t * np.cos(phis)[None, :]).reshape(-1),
            (sin_t * np.sin(phis)[None, :]).reshape(-1),
            np.broadcast_to(cos_t, (n_incl, n_azimuth)).reshape(-1),
        ], axis=1)
        # collapse the duplicated pole rings, keep first occurrences
        _, keep = np.unique(np.round(dirs, 12), axis=0, return_index=True)
        return dirs[np.sort(keep)]
    raise InputError(f"unit directions are only generated for dimensions 1-3, got {dim}")


def separate(points, x, angular_resolution: int = ANGULAR_RESOLUTION) -> Optional[np.ndarray]:
    """Unit vector ``d`` with ``<d, z - x> <= 1e-9`` for all hull points ``z``.

    Scans a fixed sphere discretization and returns the direction with the
    smallest worst-case inner product (first scanned on ties), or ``None``
    when no scanned direction qualifies.  When ``x`` lies on the hull of
    ``points`` the best margin is 0 and a zero-margin supporting direction is
    returned; callers treat those as valid normal-cone elements.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise InputError("separation needs a nonempty point family")
    pts = pts.reshape(pts.shape[0], -1)
    dim = pts.shape[1]
    if dim not in (1, 2, 3):
        raise InputError(f"separation scan supports dimensions 1-3, got {dim}")
    x = _as_vector(x, dim, "x")
    shifted = pts - x
    dirs = unit_directions(dim, angular_resolution)
    best_dir = None
    best_margin = math.inf
    chunk = max(1, int(2_000_000 // max(1, pts.shape[0])))
    for start in range(0, dirs.shape[0], chunk):
        block = dirs[start:start + chunk]
        margins = np.max(block @ shifted.T, axis=1)
        idx = int(np.argmin(margins))
        if margins[idx] < best_margin:
            best_margin = float(margins[idx])
            best_dir = block[idx]
    if best_margin <= CONE_TOL:
        return np.array(best_dir)
    return None


# ---------------------------------------------------------------------------
# Cone samples
# ---------------------------------------------------------------------------

#: resolution of the fixed discretization stored for full-space cone samples
_FULL_SPACE_RESOLUTION = 16


@dataclass(frozen=True)
class ConeSample:
    """Finite family of unit directions sampling a cone section.

    ``is_full_space`` marks the degenerate case where the cone is the whole
    space; the stored directions are then a fixed sphere discretization and
    the convex hull they stand for is the closed unit ball.
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
        dirs = unit_directions(ambient_dim, _FULL_SPACE_RESOLUTION)
        return ConeSample(tuple(tuple(row) for row in dirs), ambient_dim, True)

    @staticmethod
    def empty(ambient_dim: int) -> "ConeSample":
        return ConeSample((), ambient_dim, False)

    @property
    def is_empty(self) -> bool:
        return not self.is_full_space and not self.directions

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.array(self.directions, dtype=np.float64).reshape(len(self.directions), self.ambient_dim)

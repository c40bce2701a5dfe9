"""Three routes to projected solutions.

* :func:`solve_fixed_point` -- damped multistart iteration of the
  construction ``y <- best response by graph distance, x <- nearest choice
  point``; a heuristic whose limits are certified, never trusted.
* :func:`solve_qvi` -- grid scan of the coupled variational residual with
  operator values drawn from the unit normal sections.
* :func:`brute_force_oracle` -- exhaustive grid enumeration; the ground
  truth all other routes are compared against.

All three return a :class:`SolveResult` whose certificates passed the full
projected-solution check; an empty list is an honest outcome and comes with
an advisory rather than a fabricated answer.  Grid and multistart work units
are independent and merged in deterministic (lexicographic) order, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from .errors import InputError
from .game import (Certificate, GameInstance, WITNESS_GUARD,
                   check_projected_solution_many, seeded_rng)
from .geometry import (Box, check_grid_size, grid_axis, grid_axis_size, grid_points,
                       lattice_axis, lattice_span, mesh_points, project, set_grid)
from . import preferences as prefs
from .normal_op import normal_directions_batch, normal_operator

#: rows per lexicographic block of the joint scan grid
_SCAN_BLOCK = 65536
#: most padded (row, grid point) entries of one batched best-response call
_RESPONSE_ENTRIES = 16_384


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for all solver routes.

    ``eps`` left unset resolves to 1e-6 for analytic residuals and ``2 h``
    for grid-derived candidates; setting it overrides both.  ``strictness``
    is an extra margin a witness must clear in intersection scans.
    """

    h: float = 0.01
    eps: Optional[float] = None
    max_iter: int = 500
    damping: float = 1.0
    multistart: int = 8
    random_budget: int = 512
    seed: int = 0
    strictness: float = 0.0
    h_g: Optional[float] = None
    angular_resolution: int = 6283

    def __post_init__(self):
        # the chained comparisons also refuse NaN, which ``x <= 0`` lets through
        if not 0 < self.h < math.inf:
            raise InputError("grid resolution h must be positive")
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise InputError("residual tolerance eps must be positive")
        if self.h_g is not None and not 0 < self.h_g < math.inf:
            raise InputError("distance grid step must be positive")
        if not 0 <= self.strictness < math.inf:
            raise InputError("strictness must be finite and nonnegative")
        if not 0 < self.damping <= 1:
            raise InputError("damping must lie in (0, 1]")
        if self.max_iter < 0 or self.multistart < 1 or self.random_budget < 0:
            raise InputError("iteration, multistart and budget counts must be sensible")

    @property
    def eps_analytic(self) -> float:
        return 1e-6 if self.eps is None else self.eps

    @property
    def eps_grid(self) -> float:
        return 2.0 * self.h if self.eps is None else self.eps

    @property
    def distance_step(self) -> float:
        return self.h if self.h_g is None else self.h_g


@dataclass(frozen=True)
class QVIPoint:
    """A scanned pair with its operator selection and residual."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    y_star: tuple[float, ...]
    residual: float
    witness: Optional[tuple[tuple[float, ...], tuple[float, ...]]]


@dataclass
class StartTrace:
    start: tuple[float, ...]
    iterations: int
    converged: bool
    limit_x: tuple[float, ...]
    limit_y: tuple[float, ...]
    certified: bool
    history: list = field(default_factory=list, repr=False)


@dataclass
class SolveResult:
    solver: str
    certificates: list[Certificate]
    qvi_points: list[QVIPoint] = field(default_factory=list)
    starts: list[StartTrace] = field(default_factory=list)
    cells_scanned: int = 0
    candidates: int = 0
    iterations: int = 0
    advisory: Optional[str] = None


# ---------------------------------------------------------------------------
# Joint grid scan
# ---------------------------------------------------------------------------

def _scan(game: GameInstance, cfg: SolverConfig
          ) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The joint hull grid as feasible ``(x, y)`` blocks.

    Returns the cell count (checked against the guard before any work) and
    a generator over lexicographic blocks of the zero-anchored ``h``-lattice
    over the hull boxes.  Each block takes ``x`` as the nearest choice point
    of ``y`` and keeps only the rows where every ``y_i`` is feasible at
    ``K_i(x)`` within the grid tolerance; blocks with no such row are
    skipped.
    """
    lo, hi = game.hull_box._np
    total = check_grid_size([lattice_span(lo[j], hi[j], cfg.h)[2] for j in range(game.n)],
                            "scan grid")
    axes = [lattice_axis(lo[j], hi[j], cfg.h) for j in range(game.n)]
    shape = tuple(ax.shape[0] for ax in axes)

    def blocks():
        for start in range(0, total, _SCAN_BLOCK):
            coords = np.unravel_index(np.arange(start, min(total, start + _SCAN_BLOCK)), shape)
            ys = np.stack([ax[c] for ax, c in zip(axes, coords)], axis=1)
            xs = game.project_choice_many(ys)
            feasible, _ = _feasibility_mask(game, xs, ys, cfg.eps_grid)
            if np.any(feasible):
                yield xs[feasible], ys[feasible]
    return total, blocks()


# ---------------------------------------------------------------------------
# Variational residuals
# ---------------------------------------------------------------------------

def _projection_term_many(game: GameInstance, xs: np.ndarray, ys: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise ``max_{eta in X} <y - x, eta - x>`` with the maximizers.

    Exact: choice sets are boxes (ties ``w_j = 0`` take the upper bound) or
    balls (``w = 0`` takes the centre).
    """
    w = ys - xs
    total = np.zeros(xs.shape[0])
    eta = np.empty_like(xs)
    for i in range(game.player_count):
        sl = game.own_slice(i)
        s = game.choice_sets[i]
        wi = w[:, sl]
        if isinstance(s, Box):
            lo, hi = s._np
            eta[:, sl] = np.where(wi >= 0, hi, lo)
            mx = np.sum(eta[:, sl] * wi, axis=1)
        else:
            norm = np.linalg.norm(wi, axis=1)
            eta[:, sl] = s._c + s.radius * wi / np.where(norm > 0.0, norm, 1.0)[:, None]
            mx = wi @ s._c + s.radius * norm
        total += mx - np.sum(wi * xs[:, sl], axis=1)
    return total, eta


def _qvi_residual_many(game: GameInstance, xs: np.ndarray, ys: np.ndarray,
                       y_star: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rowwise worst violation of the coupled variational inequality.

    Returns ``(residual, eta, z)``: the projection term plus, per player,
    ``max_z <-y*_i, z - y_i>`` over the frozen constraint ``K_i(x)``, with
    the maximizers ``eta`` in the choice product and ``z`` in the
    constraint values.  Both maxima are exact.
    """
    residual, eta = _projection_term_many(game, xs, ys)
    z = np.empty_like(ys)
    for i in range(game.player_count):
        sl = game.own_slice(i)
        w = -y_star[:, sl]
        val, z[:, sl] = game.constraint_maps[i].linear_max_many(xs, w)
        residual += val - np.sum(w * ys[:, sl], axis=1)
    return residual, eta, z


# ---------------------------------------------------------------------------
# Best response by graph distance
# ---------------------------------------------------------------------------

def best_response_distance(game: GameInstance, i: int, x, y, cfg: SolverConfig
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximizers of the graph distance over the frozen constraint.

    Returns ``(maximizers, selected)``.  When the maximum is 0 the whole
    feasible grid ties (no feasible point is strictly preferred at this
    resolution) and the selection is the projection of ``y_i`` onto the
    constraint: the iteration is stationary at true solutions.  Otherwise
    the selection is the centroid of the maximizer list, a point of the
    hull of best responses.  The one-row call of :func:`_best_responses`.
    """
    xs = np.asarray(x, dtype=np.float64).reshape(1, -1)
    ys = np.asarray(y, dtype=np.float64).reshape(1, -1)
    maximizers, selected = _best_responses(game, i, xs, ys, cfg)
    return maximizers[0], selected[0]


def _best_responses(game: GameInstance, i: int, xs: np.ndarray, ys: np.ndarray,
                    cfg: SolverConfig) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`best_response_distance` at every ``(x, y)`` row.

    Each row's grid is its own :func:`set_grid`, built when its chunk is
    due: consecutive rows are padded to a common grid size of at most
    ``_RESPONSE_ENTRIES`` entries (a larger grid runs alone) and take one
    graph-distance call; the selection runs row by row.  Each row's
    maximizers and selection are bitwise its one-row call's.
    """
    if xs.shape[1] != game.n:
        raise InputError(f"joint strategy has dimension {xs.shape[1]}, expected {game.n}")
    if not np.all(game.in_choice_many(xs, tol=1e-9)):
        raise InputError("joint strategy lies outside the choice-set product")
    cmap, sl = game.constraint_maps[i], game.own_slice(i)
    ctx = game.distance_context(i, cfg.distance_step)
    maximizers: list = []
    selected = np.empty((xs.shape[0], game.dims[i]))

    def respond(chunk: list, width: int) -> None:
        # a padded entry repeats the row's last grid point, so it moves no maximum
        pts = np.stack([grid[np.minimum(np.arange(width), grid.shape[0] - 1)] for _, grid in chunk])
        rows = np.arange(len(maximizers), len(maximizers) + len(chunk))
        vals = prefs.graph_distance_many(game.preference_maps[i], ctx, ys[rows], pts)
        gmax = vals.max(axis=1)
        # the zero-distance plateau is the non-preferred region, never a maximizer
        best = (vals >= (gmax - cfg.eps_analytic)[:, None]) & (vals > 0.0)
        for r, (k_set, grid), mask, top in zip(rows, chunk, best, gmax.tolist()):
            if top <= 0.0:
                maximizers.append(grid)
                selected[r] = project(k_set, ys[r, sl])
            else:
                maximizers.append(grid[mask[:grid.shape[0]]])
                # np.mean's own sum and division, without its dispatch
                selected[r] = np.add.reduce(maximizers[r], axis=0) / maximizers[r].shape[0]

    chunk, width = [], 0
    for x in xs:
        k_set = cmap.materialize(x)
        grid = set_grid(k_set, cfg.h)[0]
        if chunk and (len(chunk) + 1) * max(width, grid.shape[0]) > _RESPONSE_ENTRIES:
            respond(chunk, width)
            chunk, width = [], 0
        chunk.append((k_set, grid))
        width = max(width, grid.shape[0])
    respond(chunk, width)
    return maximizers, selected


def _multistart_points(game: GameInstance, cfg: SolverConfig) -> np.ndarray:
    bbox = game.x_bbox
    corners = grid_points(bbox, [2] * game.n)
    lo, hi = bbox._np
    center = (lo + hi) / 2.0
    rng = seeded_rng(cfg.seed, 37)
    extras = []
    for j in range(game.n):
        check_grid_size([grid_axis_size(lo[j], hi[j], cfg.h)], "start grid axis")
    axes = [grid_axis(lo[j], hi[j], cfg.h) for j in range(game.n)]
    for _ in range(max(0, cfg.multistart)):
        extras.append([ax[rng.integers(0, ax.shape[0])] for ax in axes])
    raw = np.vstack([corners, center[None, :], np.array(extras).reshape(-1, game.n)])
    projected = game.project_choice_many(raw)
    seen = set()
    picks = []
    for row in projected:
        key = tuple(np.round(row, 12))
        if key not in seen:
            seen.add(key)
            picks.append(row)
        if len(picks) >= cfg.multistart:
            break
    return np.array(picks)


def solve_fixed_point(game: GameInstance, cfg: SolverConfig) -> SolveResult:
    """Damped multistart iteration of the projection/best-response map.

    The starts iterate in lock-step: each iteration makes one batched best
    response per player over the starts still moving, and a start leaves
    once its step is at most ``eps_analytic``.  Every limit point is passed
    through the full projected-solution check; only certified points are
    returned.  Convergence is not guaranteed -- an empty certificate list
    with an advisory is the honest failure mode.
    """
    def responses(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        target = np.empty_like(ys)
        for i in range(game.player_count):
            target[:, game.own_slice(i)] = _best_responses(game, i, xs, ys, cfg)[1]
        return target

    result = SolveResult(solver="solve-fp", certificates=[])
    starts = _multistart_points(game, cfg)
    result.starts = [StartTrace(start=tuple(start), iterations=0, converged=False,
                                limit_x=(), limit_y=(), certified=False) for start in starts]
    xs, ys = starts.copy(), starts.copy()
    live = np.arange(starts.shape[0])
    for _ in range(cfg.max_iter):
        if live.size == 0:
            break
        x, y = xs[live], ys[live]
        y_next = (1.0 - cfg.damping) * y + cfg.damping * responses(x, y)
        x_next = game.project_choice_many(y_next)
        steps = np.concatenate([x_next - x, y_next - y], axis=1)
        xs[live], ys[live] = x_next, y_next
        result.iterations += live.size
        moving = np.ones(live.size, dtype=bool)
        for j, r in enumerate(live):
            trace = result.starts[r]
            trace.iterations += 1
            trace.history.append((tuple(x_next[j]), tuple(y_next[j])))
            if float(np.linalg.norm(steps[j])) <= cfg.eps_analytic:
                trace.converged, moving[j] = True, False
        live = live[moving]
    # one undamped step before certification: exact fixed points are
    # unchanged (the tie-break is stationary there), while damped limits
    # that crept up to a best-response vertex snap onto it
    ys = responses(xs, ys)
    xs = game.project_choice_many(ys)
    for trace, x, y in zip(result.starts, xs, ys):
        trace.limit_x, trace.limit_y = tuple(x), tuple(y)
    certs = _check_rows(game, xs, ys, cfg)
    raw_certs = []
    for trace, cert in zip(result.starts, certs):
        trace.certified = cert.passed
        if cert.passed:
            raw_certs.append(cert)
    result.certificates = _cluster_certificates(raw_certs, 2.0 * cfg.h)
    result.candidates = len(raw_certs)
    if not result.certificates:
        result.advisory = ("no multistart converged to a certified projected "
                           "solution; run the oracle at this resolution")
    return result


# ---------------------------------------------------------------------------
# QVI residual
# ---------------------------------------------------------------------------

def qvi_residual(game: GameInstance, x, y, y_star, cfg: SolverConfig
                 ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Worst violation of the coupled variational inequality at ``(x, y)``.

    The one-row call of :func:`_qvi_residual_many`: maximizes
    ``-(<x - y, eta - x> + <y_star, z - y>)`` over ``(eta, z)`` in the choice
    product times the frozen constraint, and returns the value with the
    maximizers.  A value at or below the grid tolerance certifies the pair
    at this resolution.  ``y_star`` is the caller's selection from the unit
    normal product; ``y`` must be feasible as the grid scan defines it.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    y_star = np.asarray(y_star, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != game.n or y.shape[1] != game.n or y_star.shape[1] != game.n:
        raise InputError("joint vector dimension mismatch")
    tol = cfg.eps_grid + 1e-12
    feasible, resid = _feasibility_mask(game, x, y, tol)
    if not feasible[0]:
        i = int(np.argmax(resid[0] > tol))
        raise InputError(
            f"y is infeasible for player {i + 1} (residual {resid[0, i]:.3e})")
    total, eta, z = _qvi_residual_many(game, x, y, y_star)
    return float(total[0]), (eta[0], z[0])


def _candidate_residual(game: GameInstance, xs: np.ndarray, ys: np.ndarray,
                        cfg: SolverConfig, limit: float = math.inf
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best variational residual over operator candidates, rowwise.

    Returns ``(residual, y_star, ok)``: the projection term plus, per
    player, the minimal ``max_z <-(y*_i), z - y_i>`` over the candidates at
    the row (the stored direction, plus 0 for empty-preference points);
    ``y_star`` the minimizing selection; ``ok`` flags rows where every
    player offered a candidate.

    Players run in index order on the rows still alive.  A later term is at
    least ``-dist(y_j, K_j(x))`` (``w`` is a unit vector, ``K_j(x)`` holds
    the projection of ``y_j``; a full-space factor gives 0 or a negative
    direction term), so a row whose partial sum exceeds ``limit`` by more
    than the later distance bounds plus a rounding slack, or that lacks a
    candidate, gets residual ``+inf``.  Kept rows sum their terms as an
    uncascaded scan does.
    """
    m, players = xs.shape[0], game.player_count
    proj = _projection_term_many(game, xs, ys)[0]
    dist = np.stack([game.constraint_maps[j].distance_bound_many(xs, ys[:, game.own_slice(j)])
                     for j in range(players)], axis=1)
    terms = np.zeros((m, players))
    y_star = np.zeros((m, game.n))
    ok = np.ones(m, dtype=bool)
    alive = np.arange(m)
    partial, size = proj.copy(), 1.0 + np.abs(proj)
    for i in range(players):
        sl = game.own_slice(i)
        xa, ya = xs[alive], ys[alive]
        dirs, full_mask, dir_ok = normal_directions_batch(game, i, ya, cfg)
        missing = ~(full_mask | dir_ok)
        for r in np.nonzero(missing)[0]:
            sample = normal_operator(game, i, ya[r], cfg)
            if sample.is_full_space:
                full_mask[r] = True
            elif not sample.is_empty:
                dirs[r] = sample.as_array[0]
                dir_ok[r] = True
        offered = full_mask | dir_ok
        ok[alive] &= offered
        w = -dirs
        term_dir = (game.constraint_maps[i].linear_max_many(xa, w)[0]
                    - np.sum(w * ya[:, sl], axis=1))
        # full-space factors admit the zero vector, whose term vanishes
        use_dir = dir_ok & (~full_mask | (term_dir < 0.0))
        term = np.where(offered, np.where(use_dir, term_dir, 0.0), np.inf)
        terms[alive, i] = term
        y_star[alive, sl] = np.where(use_dir[:, None], dirs, 0.0)
        if i + 1 < players:
            alive, partial, size, term = alive[offered], partial[offered], size[offered], term[offered]
            partial += term
            size += np.abs(term)
            rest = np.sum(dist[alive, i + 1:], axis=1)
            live = partial - rest <= limit + 1e-9 * (size + rest)
            alive, partial, size = alive[live], partial[live], size[live]
    residual = np.full(m, np.inf)
    residual[alive] = proj[alive] + np.sum(terms[alive], axis=1)
    return residual, y_star, ok


def _feasibility_mask(game: GameInstance, xs: np.ndarray, ys: np.ndarray,
                      tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Membership of ``y_i`` in ``K_i(x)`` rowwise, with residual estimates."""
    residual = np.stack([game.constraint_maps[i].residual_many(xs, ys[:, game.own_slice(i)])
                         for i in range(game.player_count)], axis=1)
    return np.all(residual <= tol, axis=1), residual


def _witness_prefilter(game: GameInstance, xs: np.ndarray, ys: np.ndarray,
                       cfg: SolverConfig) -> np.ndarray:
    """Rows where some player has a strictly preferred feasible point among
    the shared probe pool.  A hit is proof of a nonempty intersection, so
    filtered rows can never certify; survivors are re-checked exactly.
    The best gain is taken once per distinct (rival factors of ``y``, value
    of ``K_i(x)``); IEEE subtraction is monotone, so each row's
    ``(max A_L - B) - margin`` clears the threshold exactly when a pair does."""
    has_witness = np.zeros(xs.shape[0], dtype=bool)
    for i in range(game.player_count):
        lo_q, hi_q = game.hull_boxes[i]._np
        pool = mesh_points([lattice_axis(lo_q[j], hi_q[j], cfg.h) for j in range(game.dims[i])])
        rng = seeded_rng(cfg.seed, 43, i)
        if cfg.random_budget:
            pool = np.vstack([pool, rng.uniform(lo_q, hi_q, size=(cfg.random_budget, game.dims[i]))])
        cmap = game.constraint_maps[i]
        keys = cmap.value_key(xs)
        best = prefs.strict_gain_max(game.preference_maps[i], ys, pool, keys,
                                     lambda reps: cmap.contains_key(keys[reps], pool))
        has_witness |= best > cfg.strictness + WITNESS_GUARD
    return has_witness


def solve_qvi(game: GameInstance, cfg: SolverConfig) -> SolveResult:
    """Grid scan for pairs solving the coupled variational inequality.

    Scans joint points ``y`` of the hull grid with ``x`` taken as the
    nearest choice point (the projection relation is necessary, so other
    pairs cannot solve), keeps pairs whose best residual over operator
    candidates is at most the grid tolerance, and certifies each survivor
    with the full projected-solution check.  An empty result is valid.
    """
    total, blocks = _scan(game, cfg)
    result = SolveResult(solver="solve-qvi", certificates=[], cells_scanned=total)
    tol = cfg.eps_grid + 1e-12
    for xs, ys in blocks:
        residual, y_star, ok = _candidate_residual(game, xs, ys, cfg, tol)
        keep = ok & (residual <= tol)
        xs, ys, y_star = xs[keep], ys[keep], y_star[keep]
        res_exact, eta, z = _qvi_residual_many(game, xs, ys, y_star)
        result.qvi_points.extend(
            QVIPoint(x=tuple(xs[r]), y=tuple(ys[r]), y_star=tuple(y_star[r]),
                     residual=float(res_exact[r]), witness=(tuple(eta[r]), tuple(z[r])))
            for r in range(xs.shape[0]))
    result.candidates = len(result.qvi_points)
    certs = _check_rows(game, [pt.x for pt in result.qvi_points],
                        [pt.y for pt in result.qvi_points], cfg)
    raw_certs = [cert for cert in certs if cert.passed]
    result.certificates = _cluster_certificates(raw_certs, 2.0 * cfg.h)
    return result


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_oracle(game: GameInstance, cfg: SolverConfig) -> SolveResult:
    """Exhaustive enumeration over the hull grid.

    For each grid ``y`` the candidate ``x`` is its nearest choice point;
    pairs must pass feasibility, the shared-pool intersection prefilter
    (whose hits are proofs of non-emptiness), and finally the full
    projected-solution check at tolerance ``2 h``.  The prefilter takes one
    maximal gain per distinct sub-problem; IEEE subtraction is monotone, so
    it rejects exactly the rows a pairwise scan would.  Survivors are
    clustered within radius ``2 h`` (single linkage) and reported through
    cluster representatives carrying member ranges.
    """
    total, blocks = _scan(game, cfg)
    survivors: list[tuple[np.ndarray, np.ndarray]] = []
    for xs, ys in blocks:
        witnessed = _witness_prefilter(game, xs, ys, cfg)
        survivors.extend(zip(xs[~witnessed], ys[~witnessed]))
    certs = _check_rows(game, [x for x, _ in survivors], [y for _, y in survivors], cfg)
    raw_certs = [cert for cert in certs if cert.passed]
    return SolveResult(solver="oracle",
                       certificates=_cluster_certificates(raw_certs, 2.0 * cfg.h),
                       cells_scanned=total, candidates=len(survivors))


def _check_rows(game: GameInstance, xs, ys, cfg: SolverConfig) -> list[Certificate]:
    """Certificates at the grid tolerance for the ``(x, y)`` rows, in one
    batched check."""
    shape = (-1, game.n)
    return check_projected_solution_many(game, np.reshape(xs, shape), np.reshape(ys, shape),
                                         cfg, eps=cfg.eps_grid)


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

#: most candidate pairs one block of the clustering sweep compares
_LINK_BLOCK = 8_192


def _link_labels(pts: np.ndarray, r2: float) -> np.ndarray:
    """Connected components of the lexsorted rows ``pts`` under the links
    ``sum((p - q)**2) <= r2``, each labelled by its first row.  A row is
    compared only with the later rows within ``sqrt(r2)`` on the first
    coordinate, ``_LINK_BLOCK`` pairs at a time, and the exact predicate
    decides each pair; labels come from min-label propagation with pointer
    jumping."""
    first = pts[:, 0]
    counts = np.searchsorted(first, first + math.sqrt(r2) * (1 + 1e-9), side="right") \
        - np.arange(1, pts.shape[0] + 1)            # later rows in each row's window
    starts, total = np.cumsum(counts) - counts, int(counts.sum())
    links = [np.empty((2, 0), dtype=np.intp)]
    for t in range(0, total, _LINK_BLOCK):
        pair = np.arange(t, min(t + _LINK_BLOCK, total))
        a = np.searchsorted(starts, pair, side="right") - 1
        b = a + 1 + pair - starts[a]
        links.append(np.stack([a, b])[:, np.sum((pts[a] - pts[b]) ** 2, axis=1) <= r2])
    a, b = np.hstack(links)
    labels, root_a, root_b = np.arange(pts.shape[0]), a, b
    while not np.array_equal(root_a, root_b):
        # hook each link's larger root under the smaller, then jump
        # pointers until every label is a root again
        low = np.minimum(root_a, root_b)
        np.minimum.at(labels, root_a, low)
        np.minimum.at(labels, root_b, low)
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        root_a, root_b = labels[a], labels[b]
    return labels


def _cluster_certificates(certs: list[Certificate], radius: float) -> list[Certificate]:
    """Single-linkage clustering of certificates on joint (x, y) coordinates.

    Two certificates link when their squared distance is at most
    ``radius**2 + 1e-15``.  Each cluster is reported by its lexicographically
    first member whose residual sum is within 1e-12 of the cluster's
    smallest, so sums that tie in exact arithmetic cannot hand the cluster
    to another member on a last-bit change; the report carries the member
    count and the per-coordinate ranges over the cluster.
    """
    if not certs:
        return []
    pts = np.array([c.x + c.y for c in certs])
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    certs = [certs[int(i)] for i in order]
    n = len(certs[0].x)
    labels = _link_labels(pts, radius * radius + 1e-15)
    residual_sums = np.array([c.projection_residual + sum(p.membership_residual for p in c.players)
                              for c in certs])

    out: list[Certificate] = []
    for root in np.unique(labels):
        members = np.nonzero(labels == root)[0]
        # rows are in lexicographic order, so the first near-minimum wins
        sums = residual_sums[members]
        rep = certs[members[np.argmax(sums <= sums.min() + 1e-12)]]
        member_pts = pts[members]
        out.append(replace(
            rep, cluster_size=len(members),
            x_range=(tuple(member_pts[:, :n].min(axis=0)), tuple(member_pts[:, :n].max(axis=0))),
            y_range=(tuple(member_pts[:, n:].min(axis=0)), tuple(member_pts[:, n:].max(axis=0)))))
    out.sort(key=lambda c: (c.x, c.y))
    return out


# ---------------------------------------------------------------------------
# Equivalence diagnostics
# ---------------------------------------------------------------------------

def equivalence_scan(game: GameInstance, cfg: SolverConfig
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Grid pairs passing the variational residual vs. the direct check.

    Returns two arrays of joint ``y`` grid points (with ``x`` the nearest
    choice point): those whose best operator residual is within tolerance,
    and those passing the full projected-solution check.  On instances with
    convex-valued, boundary-attained preferences the two sets coincide up
    to one grid cell.
    """
    _, blocks = _scan(game, cfg)
    qvi_rows: list[np.ndarray] = []
    x_rows: list[np.ndarray] = []
    y_rows: list[np.ndarray] = []
    tol = cfg.eps_analytic + 1e-12
    for xs, ys in blocks:
        residual, _, ok = _candidate_residual(game, xs, ys, cfg, tol)
        qvi_rows.extend(ys[ok & (residual <= tol)])
        x_rows.extend(xs)
        y_rows.extend(ys)
    nep_rows = [y for y, cert in zip(y_rows, _check_rows(game, x_rows, y_rows, cfg)) if cert.passed]
    to_arr = lambda rows: np.reshape(rows, (-1, game.n))
    return to_arr(qvi_rows), to_arr(nep_rows)

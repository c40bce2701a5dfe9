"""The lock-step fixed point against a sequential reference.

``solve_fixed_point`` advances every start together, one batched best
response per player per iteration.  The reference below is the per-start
loop it replaced, built on the one-row primitives: each start runs to
convergence before the next begins, with one scalar best response per
player per iteration over the :func:`set_grid` of its constraint value.
Every start trace (iterations, convergence, history, limits) and the
report must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from projnash import preferences as prefs, solvers
from projnash.cli import Report, _emit_result
from projnash.errors import InputError
from projnash.expressions import AffineMap, parse_polynomial_text
from projnash.fixtures import FIXTURE_NAMES, load_fixture
from projnash.game import MovingBox, MovingPolytope, constraint_set, from_utilities
from projnash.geometry import Box, project, set_grid
from projnash.solvers import (SolveResult, SolverConfig, StartTrace, _check_rows,
                              _cluster_certificates, _multistart_points,
                              best_response_distance, solve_fixed_point)
from test_cross_validation import (boundary_pinned_instance, interior_target_instance,
                                   random_direction_instance)


def _best_response(game, i, x, y, cfg):
    k_set = constraint_set(game, i, x)
    pts = set_grid(k_set, cfg.h)[0]
    ctx = game.distance_context(i, cfg.distance_step)
    vals = prefs.graph_distance_many(game.preference_maps[i], ctx, y, pts)
    gmax = float(np.max(vals))
    if gmax <= 0.0:
        return pts, project(k_set, y[game.own_slice(i)])
    maximizers = pts[(vals >= gmax - cfg.eps_analytic) & (vals > 0.0)]
    return maximizers, np.mean(maximizers, axis=0)


def _target(game, x, y, cfg):
    target = np.empty_like(y)
    for i in range(game.player_count):
        _, target[game.own_slice(i)] = _best_response(game, i, x, y, cfg)
    return target


def sequential_fixed_point(game, cfg) -> SolveResult:
    result = SolveResult(solver="solve-fp", certificates=[])
    for start in _multistart_points(game, cfg):
        x, y = start.copy(), start.copy()
        trace = StartTrace(start=tuple(start), iterations=0, converged=False,
                           limit_x=(), limit_y=(), certified=False)
        for _ in range(cfg.max_iter):
            trace.iterations += 1
            result.iterations += 1
            y_next = (1.0 - cfg.damping) * y + cfg.damping * _target(game, x, y, cfg)
            x_next = game.project_choice(y_next)
            delta = float(np.linalg.norm(np.concatenate([x_next - x, y_next - y])))
            trace.history.append((tuple(x_next), tuple(y_next)))
            x, y = x_next, y_next
            if delta <= cfg.eps_analytic:
                trace.converged = True
                break
        y = _target(game, x, y, cfg)
        x = game.project_choice(y)
        trace.limit_x, trace.limit_y = tuple(x), tuple(y)
        result.starts.append(trace)
    certs = _check_rows(game, [t.limit_x for t in result.starts],
                        [t.limit_y for t in result.starts], cfg)
    raw = []
    for trace, cert in zip(result.starts, certs):
        trace.certified = cert.passed
        if cert.passed:
            raw.append(cert)
    result.certificates = _cluster_certificates(raw, 2.0 * cfg.h)
    result.candidates = len(raw)
    if not result.certificates:
        result.advisory = ("no multistart converged to a certified projected "
                           "solution; run the oracle at this resolution")
    return result


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _report(result) -> str:
    report = Report()
    _emit_result(report, result)
    return report.text()


def _outcome(route, game, cfg):
    try:
        return route(game, cfg)
    except InputError as exc:
        return f"InputError: {exc}"


def assert_same_run(game, cfg):
    got, want = _outcome(solve_fixed_point, game, cfg), _outcome(sequential_fixed_point, game, cfg)
    if isinstance(want, str):
        assert got == want
        return
    assert len(got.starts) == len(want.starts)
    for a, b in zip(got.starts, want.starts):
        assert (a.start, a.iterations, a.converged, a.certified) == (
            b.start, b.iterations, b.converged, b.certified)
        assert _bits(a.limit_x) == _bits(b.limit_x) and _bits(a.limit_y) == _bits(b.limit_y)
        assert len(a.history) == len(b.history)
        assert all(_bits(p) == _bits(q) for p, q in zip(a.history, b.history))
    assert (got.iterations, got.candidates, got.advisory) == (
        want.iterations, want.candidates, want.advisory)
    assert _report(got) == _report(want)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_lockstep_matches_sequential_on_fixtures(name):
    game = load_fixture(name)
    for cfg in (SolverConfig(h=0.05, seed=0),                  # multistart 8: random starts
                SolverConfig(h=0.05, seed=3, damping=0.5, max_iter=60),
                SolverConfig(h=0.05, seed=1, max_iter=2)):     # some starts stop unconverged
        assert_same_run(game, cfg)


def test_lockstep_matches_sequential_at_the_benchmark_resolution():
    for name in ("expand", "spin", "chase", "corner", "offside"):
        assert_same_run(load_fixture(name), SolverConfig(h=0.02, multistart=5))


def test_lockstep_leaves_unconverged_starts_in_the_batch():
    game = load_fixture("corner")
    cfg = SolverConfig(h=0.05, max_iter=3)
    result = solve_fixed_point(game, cfg)
    assert any(not t.converged for t in result.starts)
    assert any(t.converged for t in result.starts)
    assert_same_run(game, cfg)


def test_lockstep_matches_sequential_on_generated_games():
    rng = np.random.default_rng(11)
    cfg = SolverConfig(h=0.05)
    for players in (2, 3):
        for make in (interior_target_instance, boundary_pinned_instance):
            for _ in range(2):
                assert_same_run(make(rng, players)[0], cfg)
    for _ in range(2):
        assert_same_run(random_direction_instance(rng)[0], cfg)


def test_one_row_best_response_is_the_sequential_one():
    for name in ("expand", "spin", "chase", "disk"):
        game = load_fixture(name)
        cfg = SolverConfig(h=0.05)
        for start in _multistart_points(game, cfg):
            for i in range(game.player_count):
                got = best_response_distance(game, i, start, start, cfg)
                want = _best_response(game, i, start, start, cfg)
                assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])


def test_lockstep_matches_sequential_in_small_chunks(monkeypatch):
    # rows split over several batched calls, and larger grids run alone
    monkeypatch.setattr(solvers, "_RESPONSE_ENTRIES", 64)
    for name in ("chase", "disk", "spin", "table"):
        assert_same_run(load_fixture(name), SolverConfig(h=0.05, multistart=5))


def test_best_response_grids_are_built_one_chunk_at_a_time(monkeypatch):
    # fine 1-D grids (thousands of points a row) split the rows over several
    # calls; a row's grid is built only once the chunk before it is scanned
    game = load_fixture("expand")
    cfg = SolverConfig(h=5e-4)
    xs = _multistart_points(game, cfg)
    events = []
    real_grid, real_distance = solvers.set_grid, prefs.graph_distance_many

    def grid(k_set, h):
        pts, resolution = real_grid(k_set, h)
        events.append(pts.shape[0])
        return pts, resolution

    def distance(p, ctx, ys, pts):
        events.append(pts.shape[:2])
        return real_distance(p, ctx, ys, pts)

    monkeypatch.setattr(solvers, "set_grid", grid)
    monkeypatch.setattr(prefs, "graph_distance_many", distance)
    maximizers, selected = solvers._best_responses(game, 0, xs, xs, cfg)
    sizes = [e for e in events if isinstance(e, int)]
    calls = [e for e in events if isinstance(e, tuple)]
    assert len(sizes) == xs.shape[0] and max(sizes) > 1000
    assert len(calls) > 1 and max(rows for rows, _ in calls) > 1
    built = scanned = 0
    for event in events:
        if isinstance(event, int):
            built += 1
            continue
        rows, width = event
        assert width == max(sizes[scanned:scanned + rows])
        assert rows == 1 or rows * width <= solvers._RESPONSE_ENTRIES
        scanned += rows
        assert built <= scanned + 1      # at most the next chunk's first row
    monkeypatch.undo()
    for r, x in enumerate(xs):
        want = _best_response(game, 0, x, x, cfg)
        assert _bits(maximizers[r]) == _bits(want[0]) and _bits(selected[r]) == _bits(want[1])


def test_lockstep_matches_sequential_on_a_polytope_constraint():
    # a polytope value's grid is projected back onto the set
    offsets = AffineMap.from_polynomials([parse_polynomial_text(t, 3)
                                          for t in ("0", "0", "0.5 + 0.5*x3")])
    triangle = MovingPolytope(player_index=0, normals=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)),
                              offsets=offsets, bounds_hint=Box((0.0, 0.0), (1.0, 1.0)))
    fixed = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 3),
                      upper=AffineMap.constant([1.0], 3))
    game = from_utilities([2, 1], [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))],
                          [triangle, fixed], ["x1 + x2", "-(x3 - 0.5)^2"])
    assert_same_run(game, SolverConfig(h=0.1, multistart=4))

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from projnash.errors import InputError
from projnash.expressions import AffineMap, parse_polynomial_text
from projnash.fixtures import load_fixture
from projnash.game import (Certificate, MovingBox, MovingPolytope, PlayerCheck,
                           WITNESS_GUARD, check_projected_solution, from_utilities,
                           seeded_rng)
from projnash.geometry import Box, grid_points, lattice_axis, mesh_points
from projnash.normal_op import normal_directions_batch, normal_operator, unit_normal_product
from projnash.geometry import grid_axis
from projnash.preferences import strict_gain_outer
from test_cross_validation import (boundary_pinned_instance, interior_target_instance,
                                   random_direction_instance)
from test_normal_op import normal_directions_reference
from projnash import solvers
from projnash.solvers import (SolverConfig, _candidate_residual, _cluster_certificates,
                              _projection_term_many, _scan, _witness_prefilter,
                              best_response_distance, brute_force_oracle,
                              equivalence_scan, qvi_residual,
                              solve_fixed_point, solve_qvi)

#: every fixture whose preferences are not tabulated
GAIN_FIXTURES = ("expand", "selfmap", "spin", "chase", "corner", "offside", "vacuous", "disk")


# -- configuration ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InputError):
        SolverConfig(h=0.0)
    with pytest.raises(InputError):
        SolverConfig(damping=0.0)
    with pytest.raises(InputError):
        SolverConfig(eps=-1.0)


@pytest.mark.parametrize("field, value, message", [
    ("h", float("nan"), "grid resolution h"),
    ("h", float("inf"), "grid resolution h"),
    ("eps", float("nan"), "residual tolerance eps"),
    ("eps", float("inf"), "residual tolerance eps"),
    ("h_g", float("nan"), "distance grid step"),
    ("h_g", float("inf"), "distance grid step"),
    ("h_g", 0.0, "distance grid step"),
    ("strictness", float("nan"), "strictness"),
    ("strictness", float("inf"), "strictness"),
    ("strictness", -1e-3, "strictness"),
])
def test_config_rejects_values_that_disable_checks(field, value, message):
    # NaN fails every comparison, so a NaN strictness or eps would pass
    # every intersection scan or residual test
    with pytest.raises(InputError, match=message):
        SolverConfig(**{field: value})


def test_config_eps_defaults_and_override():
    cfg = SolverConfig(h=0.05)
    assert cfg.eps_analytic == 1e-6
    assert cfg.eps_grid == 0.1
    cfg = SolverConfig(h=0.05, eps=1e-3)
    assert cfg.eps_analytic == 1e-3
    assert cfg.eps_grid == 1e-3


def test_grid_axis_includes_endpoints():
    ax = grid_axis(0.0, 1.0, 0.3)
    assert ax[0] == 0.0 and ax[-1] == 1.0
    assert np.max(np.diff(ax)) <= 0.3 + 1e-12
    assert grid_axis(0.5, 0.5, 0.1).tolist() == [0.5]


# -- best response by graph distance ----------------------------------------------

def test_best_response_expand_initial():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.01)
    maximizers, selected = best_response_distance(g, 0, [0.0, 0.0], [0.0, 0.0], cfg)
    assert np.allclose(maximizers, [[1.0]])
    assert np.allclose(selected, [1.0])


def test_best_response_tie_break_projects_current():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.01)
    # preferred set (2, inf) misses [0, 2]: max distance is 0, tie-break rule
    maximizers, selected = best_response_distance(g, 0, [1.0, 1.0], [2.0, 2.0], cfg)
    assert np.allclose(selected, [2.0])
    assert maximizers.shape[0] == grid_axis(0.0, 2.0, 0.01).shape[0]


def test_best_response_centroid_of_saturated_ties():
    g = load_fixture("spin")
    cfg = SolverConfig(h=0.01)
    # at y2 > 0.5 the distance saturates past y1 + sqrt(2)(y2 - 0.5)
    maximizers, selected = best_response_distance(g, 0, [0.0, 1.0], [0.0, 1.5], cfg)
    assert maximizers.shape[0] > 1
    assert np.allclose(selected, np.mean(maximizers, axis=0))


# -- fixed point -------------------------------------------------------------------

def test_fixed_point_expand_trace_and_certificate():
    g = load_fixture("expand")
    res = solve_fixed_point(g, SolverConfig(h=0.01))
    assert len(res.certificates) == 1
    cert = res.certificates[0]
    assert np.allclose(cert.x, [1.0, 1.0])
    assert np.allclose(cert.y, [2.0, 2.0])
    first = next(t for t in res.starts if np.allclose(t.start, [0.0, 0.0]))
    assert np.allclose(first.history[0][1], [1.0, 1.0])   # y1
    assert np.allclose(first.history[0][0], [1.0, 1.0])   # x1
    assert np.allclose(first.history[1][1], [2.0, 2.0])   # y2
    assert first.converged


def test_fixed_point_selfmap():
    g = load_fixture("selfmap")
    res = solve_fixed_point(g, SolverConfig(h=0.01))
    assert len(res.certificates) == 1
    assert np.allclose(res.certificates[0].x, [0.5, 0.5])
    assert np.allclose(res.certificates[0].y, [0.5, 0.5])


def test_fixed_point_spin_certifies_degenerate_point():
    g = load_fixture("spin")
    res = solve_fixed_point(g, SolverConfig(h=0.01))
    assert res.certificates
    cert = res.certificates[0]
    assert abs(cert.x[0] - 1.0) <= 0.02
    assert abs(cert.x[1] - 0.5) <= 0.02
    assert 1.0 - 0.02 <= cert.y[0] <= 1.25 + 0.02
    assert abs(cert.y[1] - 0.5) <= 0.02


def test_fixed_point_honest_failure():
    g = load_fixture("expand")
    res = solve_fixed_point(g, SolverConfig(h=0.01, max_iter=0, multistart=1))
    assert res.certificates == []
    assert res.advisory is not None


def test_fixed_point_damping_still_converges():
    g = load_fixture("expand")
    res = solve_fixed_point(g, SolverConfig(h=0.01, damping=0.5, multistart=2,
                                            max_iter=200))
    assert res.certificates
    assert np.allclose(res.certificates[0].x, [1.0, 1.0], atol=0.02)


# -- qvi residual ------------------------------------------------------------------

def test_qvi_residual_zero_at_solution():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.01)
    res, witness = qvi_residual(g, [1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], cfg)
    assert abs(res) <= 1e-12


def test_qvi_residual_violation_with_witness():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.01)
    res, (eta, z) = qvi_residual(g, [0.0, 0.0], [0.0, 0.0], [-1.0, -1.0], cfg)
    assert abs(res - 2.0) <= 1e-12
    assert np.allclose(z, [1.0, 1.0])


def test_qvi_residual_zero_selection_reduces_to_projection_vi():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.01)
    rng = np.random.default_rng(2)
    for _ in range(25):
        y = rng.uniform(0.0, 1.0, 2)  # feasible for K(x) at x = y
        x = g.project_choice(y)
        res, _ = qvi_residual(g, x, y, np.zeros(2), cfg)
        assert res <= 1e-9


def test_qvi_residual_rejects_infeasible_y():
    g = load_fixture("expand")
    with pytest.raises(InputError):
        qvi_residual(g, [0.0, 0.0], [1.5, 0.0], [-1.0, -1.0], SolverConfig(h=0.01))


def test_generators_dominate_hull_interior():
    # the per-player term is convex in the selection, so its maximum over a
    # sampled hull never exceeds the best generator value
    rng = np.random.default_rng(3)
    for _ in range(80):
        k = int(rng.integers(1, 4))
        gens = rng.normal(size=(int(rng.integers(1, 5)), k))
        norms = np.linalg.norm(gens, axis=1, keepdims=True)
        gens = gens / np.where(norms == 0, 1.0, norms)
        lo = rng.uniform(-1, 0, k)
        hi = lo + rng.uniform(0.1, 2, k)
        y = rng.uniform(lo, hi)

        def term(v):
            w = -v
            return float(np.sum(np.where(w > 0, hi, lo) * w) - w @ y)

        gen_best = max(term(d) for d in gens)
        for _ in range(20):
            lam = rng.uniform(0, 1, gens.shape[0])
            lam /= lam.sum()
            assert term(lam @ gens) <= gen_best + 1e-9


# -- qvi solver --------------------------------------------------------------------

def test_solve_qvi_expand_single_cell():
    g = load_fixture("expand")
    res = solve_qvi(g, SolverConfig(h=0.05))
    assert len(res.certificates) == 1
    cert = res.certificates[0]
    assert np.allclose(cert.x, [1.0, 1.0])
    assert np.allclose(cert.y, [2.0, 2.0])


def test_solve_qvi_selfmap_zero_selection():
    g = load_fixture("selfmap")
    res = solve_qvi(g, SolverConfig(h=0.05))
    assert len(res.certificates) == 1
    assert np.allclose(res.certificates[0].y, [0.5, 0.5])
    point = next(p for p in res.qvi_points
                 if np.allclose(p.y, [0.5, 0.5]))
    assert np.allclose(point.y_star, [0.0, 0.0])  # empty preferences admit 0


def test_solve_qvi_vacuous_game_keeps_everything():
    g = load_fixture("vacuous")
    cfg = SolverConfig(h=0.25)
    res = solve_qvi(g, cfg)
    grid = grid_points(Box((0.0, 0.0), (1.0, 1.0)), [5, 5])
    assert res.candidates == grid.shape[0]
    assert sum(c.cluster_size for c in res.certificates) == grid.shape[0]
    for p in res.qvi_points:
        assert p.residual <= 1e-9


def test_solve_qvi_selection_lies_in_operator_hull():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.05)
    res = solve_qvi(g, cfg)
    for point in res.qvi_points[:5]:
        product = unit_normal_product(g, np.array(point.y), cfg)
        for i in range(g.player_count):
            sl = g.own_slice(i)
            assert product.contains_factor(i, np.array(point.y_star[sl]), tol=1e-9)


def test_projection_factor_consistency_at_survivors():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.05)
    res = solve_qvi(g, cfg)
    etas = grid_points(Box((0.0, 0.0), (1.0, 1.0)), [11, 11])
    for point in res.qvi_points:
        x = np.array(point.x)
        y = np.array(point.y)
        inner = (etas - x) @ (x - y)
        assert np.min(inner) >= -cfg.eps_grid - 1e-9


def test_candidate_residual_falls_back_to_per_row_operator():
    # cubic utility: the own gradient vanishes at 0.5, where the batch kernel
    # offers no candidate and the per-row sphere scan must supply one
    maps = [MovingBox(player_index=0, lower=AffineMap.constant([0.0], 1),
                      upper=AffineMap.constant([1.0], 1))]
    g = from_utilities([1], [Box((0.0,), (1.0,))], maps, ["(x1 - 0.5)^3"])
    cfg = SolverConfig(h=0.05, random_budget=128, angular_resolution=64)
    ys = np.array([[0.25], [0.5], [1.0]])
    _, full_mask, dir_ok = normal_directions_batch(g, 0, ys, cfg)
    assert list(full_mask | dir_ok) == [True, False, True]
    residual, y_star, ok = _candidate_residual(g, ys.copy(), ys, cfg)
    assert ok.all()
    assert np.array_equal(y_star, [[-1.0], [-1.0], [-1.0]])
    assert np.allclose(residual, [0.75, 0.5, 0.0], atol=1e-12)


# -- grouped gain kernels against pairwise references ------------------------------

def _polytope_game():
    """Player 1 on the moving triangle ``z >= 0, z1 + z2 <= 0.5 + 0.5 x3``."""
    offsets = AffineMap.from_polynomials(
        [parse_polynomial_text(t, 3) for t in ("0", "0", "0.5 + 0.5*x3")])
    triangle = MovingPolytope(player_index=0, normals=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)),
                              offsets=offsets, bounds_hint=Box((0.0, 0.0), (1.0, 1.0)))
    fixed = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 3),
                      upper=AffineMap.constant([1.0], 3))
    return from_utilities([2, 1], [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))],
                          [triangle, fixed], ["x1*x3 + x2", "-(x3 - 0.5)^2"])


def _pairwise_prefilter(game, xs, ys, cfg):
    """Every (row, pool point) pair tested on its own."""
    hit = np.zeros(xs.shape[0], dtype=bool)
    for i in range(game.player_count):
        lo, hi = game.hull_boxes[i]._np
        pool = mesh_points([lattice_axis(lo[j], hi[j], cfg.h) for j in range(game.dims[i])])
        rng = seeded_rng(cfg.seed, 43, i)
        pool = np.vstack([pool, rng.uniform(lo, hi, size=(cfg.random_budget, game.dims[i]))])
        gains = strict_gain_outer(game.preference_maps[i], ys, pool)
        cmap = game.constraint_maps[i]
        in_k = cmap.contains_key(cmap.value_key(xs), pool)
        hit |= np.any(in_k & (gains > cfg.strictness + WITNESS_GUARD), axis=1)
    return hit


@pytest.mark.parametrize("strictness", [0.0, 1e-3])
def test_witness_prefilter_matches_the_pairwise_test(strictness):
    games = [(load_fixture(name), 0.05) for name in GAIN_FIXTURES] + [(_polytope_game(), 0.1)]
    for game, h in games:
        cfg = SolverConfig(h=h, strictness=strictness)
        for xs, ys in _scan(game, cfg)[1]:
            assert np.array_equal(_witness_prefilter(game, xs, ys, cfg),
                                  _pairwise_prefilter(game, xs, ys, cfg))


def test_normal_directions_match_the_per_row_kernel():
    # spin's field vanishes at x2 = 0.5; vacuous is full-space on every row
    cfg = SolverConfig(h=0.05)
    for name in GAIN_FIXTURES:
        game = load_fixture(name)
        for _, ys in _scan(game, cfg)[1]:
            for i in range(game.player_count):
                got = normal_directions_batch(game, i, ys, cfg)
                want = normal_directions_reference(game, i, ys, cfg)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (name, i)


# -- QVI cascade -------------------------------------------------------------------

def _uncascaded_residual(game, xs, ys, cfg):
    """The candidate residual with every player's term on every row."""
    m = xs.shape[0]
    terms = np.zeros((m, game.player_count))
    y_star = np.zeros((m, game.n))
    ok = np.ones(m, dtype=bool)
    for i in range(game.player_count):
        sl = game.own_slice(i)
        dirs, full_mask, dir_ok = normal_directions_batch(game, i, ys, cfg)
        for r in np.nonzero(~(full_mask | dir_ok))[0]:
            sample = normal_operator(game, i, ys[r], cfg)
            if sample.is_full_space:
                full_mask[r] = True
            elif not sample.is_empty:
                dirs[r] = sample.as_array[0]
                dir_ok[r] = True
        ok &= full_mask | dir_ok
        w = -dirs
        term_dir = (game.constraint_maps[i].linear_max_many(xs, w)[0]
                    - np.sum(w * ys[:, sl], axis=1))
        use_dir = dir_ok & (~full_mask | (term_dir < 0.0))
        terms[:, i] = np.where(use_dir, term_dir, 0.0)
        terms[~(dir_ok | full_mask), i] = np.inf
        y_star[:, sl] = np.where(use_dir[:, None], dirs, 0.0)
    return _projection_term_many(game, xs, ys)[0] + np.sum(terms, axis=1), y_star, ok


def _generated_games():
    """Two- and three-player draws of the cross-validation families."""
    games = []
    for players in (2, 3):
        rng = np.random.default_rng(100 + players)
        games += [interior_target_instance(rng, players)[0] for _ in range(3)]
        rng = np.random.default_rng(200 + players)
        games += [boundary_pinned_instance(rng, players)[0] for _ in range(3)]
    rng = np.random.default_rng(7)
    return games + [random_direction_instance(rng)[0] for _ in range(3)]


def _cascade_cases():
    return ([(load_fixture(name), h) for name in GAIN_FIXTURES for h in (0.1, 0.05, 0.02)]
            + [(_polytope_game(), 0.1)] + [(game, 0.05) for game in _generated_games()])


def test_cascade_keeps_every_row_within_the_limit():
    # the scans' two limits; rows that pass must match the uncascaded
    # residual and selection bit for bit
    for game, h in _cascade_cases():
        cfg = SolverConfig(h=h)
        for xs, ys in _scan(game, cfg)[1]:
            want_res, want_star, want_ok = _uncascaded_residual(game, xs, ys, cfg)
            for limit in (cfg.eps_grid + 1e-12, cfg.eps_analytic + 1e-12):
                res, y_star, ok = _candidate_residual(game, xs, ys, cfg, limit)
                rows = ok & (res <= limit)
                assert np.array_equal(rows, want_ok & (want_res <= limit)), (h, limit)
                assert np.array_equal(res[rows], want_res[rows])
                assert np.array_equal(y_star[rows], want_star[rows])


def test_cascade_leaves_the_scans_unchanged(monkeypatch):
    cases = ([(load_fixture(name), 0.05) for name in GAIN_FIXTURES]
             + [(_polytope_game(), 0.1)] + [(game, 0.05) for game in _generated_games()[::3]])
    got = [solve_qvi(game, SolverConfig(h=h)).qvi_points for game, h in cases]
    small = [(load_fixture(name), 0.1) for name in ("expand", "spin", "chase")]
    got_eq = [equivalence_scan(game, SolverConfig(h=h))[0] for game, h in small]
    monkeypatch.setattr(solvers, "_candidate_residual",
                        lambda game, xs, ys, cfg, limit: _uncascaded_residual(game, xs, ys, cfg))
    assert got == [solve_qvi(game, SolverConfig(h=h)).qvi_points for game, h in cases]
    for (game, h), qvi_rows in zip(small, got_eq):
        assert np.array_equal(qvi_rows, equivalence_scan(game, SolverConfig(h=h))[0])


def test_cascade_skips_rows_that_cannot_pass(monkeypatch):
    # on disk, player 1's term alone rules out almost every scan row, so
    # player 2's directions run on a few hundred of about ten thousand
    rows = [0, 0]

    def counted(game, i, xs, cfg):
        rows[i] += xs.shape[0]
        return normal_directions_batch(game, i, xs, cfg)

    monkeypatch.setattr(solvers, "normal_directions_batch", counted)
    solve_qvi(load_fixture("disk"), SolverConfig(h=0.05))
    assert rows[0] > 10_000
    assert rows[1] * 20 < rows[0]


# -- oracle ------------------------------------------------------------------------

def test_oracle_expand_unique_cluster():
    g = load_fixture("expand")
    res = brute_force_oracle(g, SolverConfig(h=0.01))
    assert len(res.certificates) == 1
    cert = res.certificates[0]
    assert np.allclose(cert.x, [1.0, 1.0])
    assert np.allclose(cert.y, [2.0, 2.0])
    assert res.cells_scanned == 201 ** 2


def test_oracle_grid_guard():
    g = load_fixture("expand")
    with pytest.raises(InputError):
        brute_force_oracle(g, SolverConfig(h=1e-4))


def test_grid_guards_stop_before_building_any_axis():
    # only steps the guards refuse before allocating belong here: a finer h
    # that passes them can allocate gigabytes
    g = load_fixture("selfmap")
    cfg = SolverConfig(h=1e-300)
    for route in (brute_force_oracle, solve_qvi, solve_fixed_point):
        with pytest.raises(InputError, match="about 1e[0-9]+ cells exceeds the guard"):
            route(g, cfg)
    with pytest.raises(InputError, match="exceeds the guard"):
        check_projected_solution(g, [0.5, 0.5], [0.5, 0.5], cfg)
    with pytest.raises(InputError, match="distance grid of about 1e[0-9]+ cells is too large"):
        solve_fixed_point(load_fixture("chase"), SolverConfig(h=0.05, h_g=1e-300))


def test_oracle_spin_cluster_shape():
    g = load_fixture("spin")
    res = brute_force_oracle(g, SolverConfig(h=0.01))
    assert len(res.certificates) == 1
    cert = res.certificates[0]
    lo_x, hi_x = np.array(cert.x_range[0]), np.array(cert.x_range[1])
    lo_y, hi_y = np.array(cert.y_range[0]), np.array(cert.y_range[1])
    assert np.all(np.abs(lo_x - [1.0, 0.5]) <= 0.02)
    assert np.all(np.abs(hi_x - [1.0, 0.5]) <= 0.02)
    assert 1.0 - 0.02 <= lo_y[0] and hi_y[0] <= 1.25 + 0.02
    assert np.all(np.abs(np.array([lo_y[1], hi_y[1]]) - 0.5) <= 0.02)


def test_oracle_subsumes_other_solvers():
    # every certificate from the heuristic routes lies within 2h of an
    # oracle cluster, fixture by fixture
    cases = {"expand": 0.01, "selfmap": 0.01, "spin": 0.01,
             "chase": 0.05, "corner": 0.02, "offside": 0.02, "disk": 0.05}
    for name, h in cases.items():
        g = load_fixture(name)
        cfg = SolverConfig(h=h)
        oracle = brute_force_oracle(g, cfg)
        assert oracle.certificates, name
        for res in (solve_fixed_point(g, cfg), solve_qvi(g, cfg)):
            for cert in res.certificates:
                x = np.array(cert.x)
                ok = False
                for ref in oracle.certificates:
                    lo = np.array(ref.x_range[0]) - 2 * h
                    hi = np.array(ref.x_range[1]) + 2 * h
                    if np.all(x >= lo) and np.all(x <= hi):
                        ok = True
                assert ok, (name, res.solver, cert.x)


def test_solver_determinism():
    g = load_fixture("spin")
    cfg = SolverConfig(h=0.02, seed=3)
    a = brute_force_oracle(g, cfg)
    b = brute_force_oracle(g, cfg)
    assert repr(a.certificates) == repr(b.certificates)
    fa = solve_fixed_point(g, cfg)
    fb = solve_fixed_point(g, cfg)
    assert repr(fa.certificates) == repr(fb.certificates)


# -- clustering --------------------------------------------------------------------

def _passing_cert(x, y, membership_residual):
    return Certificate(x=tuple(x), y=tuple(y),
                       players=(PlayerCheck(membership_residual, None, 0.05, 1),),
                       projection_residual=0.0, verdict="pass", reason=None,
                       eps=0.1, h=0.05, budget=0, seed=0)


def test_cluster_links_at_exactly_radius_and_not_beyond():
    h = 0.05
    radius = 2.0 * h
    # x on the h-lattice, consecutive members one radius apart; the residual
    # sums tie at 0.1 between x = 0.1 and x = 0.3
    chain = [_passing_cert([2 * k * h], [0.5], res)
             for k, res in enumerate((0.3, 0.1, 0.2, 0.1))]
    end = chain[-1].x[0]
    lone = _passing_cert([end + radius * (1 + 1e-6)], [0.5], 0.0)
    out = _cluster_certificates([chain[2], lone, chain[0], chain[3], chain[1]], radius)
    assert [c.cluster_size for c in out] == [4, 1]
    linked, separate = out
    assert linked.x == (2 * h,) and linked.players == chain[1].players
    assert linked.x_range == ((0.0,), (end,))
    assert linked.y_range == ((0.5,), (0.5,))
    assert separate.x == lone.x
    assert separate.x_range == (lone.x, lone.x)


def test_cluster_representative_ties_break_lexicographically():
    # equal residual sums everywhere: the smallest (x, y) represents
    certs = [_passing_cert([0.1], [0.2], 0.0), _passing_cert([0.0], [0.25], 0.0),
             _passing_cert([0.0], [0.2], 0.0)]
    (cluster,) = _cluster_certificates(certs, 0.1)
    assert (cluster.x, cluster.y) == ((0.0,), (0.2,))
    assert cluster.cluster_size == 3



def test_cluster_representative_ignores_last_bit_differences():
    # the sums differ by one ulp, the larger on the lexicographically first
    # member: it still represents the cluster
    first = _passing_cert([0.0], [0.5], np.nextafter(0.1, 1.0))
    second = _passing_cert([0.05], [0.5], 0.1)
    (cluster,) = _cluster_certificates([second, first], 0.1)
    assert cluster.x == (0.0,) and cluster.players == first.players
    assert cluster.cluster_size == 2


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2)),
                min_size=1, max_size=30))
def test_cluster_matches_pairwise_single_linkage(cells):
    # reference: components of the link graph over all pairs, by flood fill
    h, radius = 0.05, 0.1
    certs = [_passing_cert([a * h], [b * h], 0.1 * r) for a, b, r in cells]
    pts = np.array([c.x + c.y for c in certs])
    label = [-1] * len(certs)
    for start in range(len(certs)):
        if label[start] < 0:
            label[start], stack = start, [start]
            while stack:
                r = stack.pop()
                for s in range(len(certs)):
                    if label[s] < 0 and np.sum((pts[r] - pts[s]) ** 2) <= radius ** 2 + 1e-15:
                        label[s] = start
                        stack.append(s)
    expected = []
    for root in set(label):
        members = [certs[r] for r in range(len(certs)) if label[r] == root]
        best = min(members, key=lambda c: (c.players[0].membership_residual, c.x + c.y))
        expected.append((best.x, best.y, len(members)))
    out = _cluster_certificates(certs, radius)
    assert [(c.x, c.y, c.cluster_size) for c in out] == sorted(expected)


def scipy_link_labels(pts, r2):
    """Reference components: every pair under the exact predicate, linked
    by scipy's ``connected_components``, each labelled by its first row."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    m = pts.shape[0]
    a, b = np.triu_indices(m, 1)
    keep = np.sum((pts[a] - pts[b]) ** 2, axis=1) <= r2
    _, comp = connected_components(coo_matrix((np.ones(int(keep.sum())), (a[keep], b[keep])),
                                              shape=(m, m)), directed=False)
    first = {c: r for r, c in reversed(list(enumerate(comp)))}
    return np.array([first[c] for c in comp])


def _lexsorted(pts):
    return pts[np.lexsort(pts.T[::-1])]


@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 8)] * d), min_size=1, max_size=60)))
def test_link_labels_match_scipy_components(cells):
    # eighth-unit lattice with radius 1/4: many pairs lie exactly at the
    # radius (dyadic, so exactly), and repeated cells are duplicate points
    pts = _lexsorted(np.array(cells, dtype=np.float64) / 8.0)
    r2 = 0.25 * 0.25 + 1e-15
    want = scipy_link_labels(pts, r2)
    assert np.array_equal(solvers._link_labels(pts, r2), want)
    with mock.patch.object(solvers, "_LINK_BLOCK", 3):      # windows split across blocks
        assert np.array_equal(solvers._link_labels(pts, r2), want)


@pytest.mark.parametrize("block", [None, 5])
def test_link_labels_join_long_chains(block, monkeypatch):
    # a straight chain of 500 points, each exactly one radius from the next
    # and farther from all others, so every link is needed; plus its copy
    # moved 5 radii away
    if block is not None:
        monkeypatch.setattr(solvers, "_LINK_BLOCK", block)
    k = np.arange(500, dtype=np.float64)
    chain = np.stack([0.25 * k, np.zeros_like(k)], axis=1)
    pts = _lexsorted(np.vstack([chain, chain + [0.0, 1.25]]))
    r2 = 0.25 * 0.25 + 1e-15
    labels = solvers._link_labels(pts, r2)
    assert np.array_equal(labels, scipy_link_labels(pts, r2))
    assert len(set(labels.tolist())) == 2
    assert np.array_equal(solvers._link_labels(pts[:1], r2), [0])


# -- equivalence scan ----------------------------------------------------------------

def test_equivalence_scan_expand_exact():
    g = load_fixture("expand")
    qvi_set, nep_set = equivalence_scan(g, SolverConfig(h=0.05))
    assert qvi_set.shape[0] == 1 and nep_set.shape[0] == 1
    assert np.allclose(qvi_set[0], [2.0, 2.0])
    assert np.allclose(nep_set[0], [2.0, 2.0])


@pytest.mark.parametrize("route", ["oracle", "qvi"])
def test_certifying_every_vacuous_cell_stays_in_bounded_memory(route):
    # all 1225 cells survive and certify at h = 0.03; the batched certifier
    # draws each slab's samples only when it checks that slab, so the peak
    # stays near the one-row certifier's instead of holding every row's
    # 512 samples per player at once
    import tracemalloc
    game = load_fixture("vacuous")
    solve = {"oracle": solvers.brute_force_oracle, "qvi": solvers.solve_qvi}[route]
    tracemalloc.start()
    try:
        result = solve(game, SolverConfig(h=0.03))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.candidates == 1225
    assert peak < 6_000_000, peak

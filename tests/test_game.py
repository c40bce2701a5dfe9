from dataclasses import replace

import numpy as np
import pytest

from projnash.errors import HypothesisError, InputError
from projnash.expressions import AffineMap, parse_polynomial_text
from projnash.fixtures import FIXTURE_NAMES, load_fixture
from projnash import game as game_mod
from projnash.game import (DEFAULT_PROBE_AXIS, MovingBox, MovingPolytope,
                           _probe_grid_for_box, _scan_samples, check_nep,
                           check_nep_many, check_projected_solution,
                           check_projected_solution_many, constraint_set,
                           from_utilities, seeded_rng)
from projnash.geometry import Ball, Box, HalfspacePolytope, set_grid
from projnash.preferences import preferred, sample_preferred
from projnash.cli import parse_problem
from projnash.solvers import SolverConfig

from test_check_nep_many import _bits, _polytope_game, bench_workloads, scan_rows, with_margin


# -- constraint materialization -------------------------------------------------

def test_constraint_set_expand_examples():
    g = load_fixture("expand")
    k = constraint_set(g, 0, [0.0, 0.0])
    assert isinstance(k, Box) and k.lower == (0.0,) and k.upper == (1.0,)
    k = constraint_set(g, 0, [1.0, 1.0])
    assert k.upper == (2.0,)


def test_constraint_set_spin_example():
    g = load_fixture("spin")
    k = constraint_set(g, 0, [0.0, 1.0])
    assert k.lower == (0.5,) and k.upper == (1.5,)


def test_constraint_set_rejects_outside_choice():
    g = load_fixture("expand")
    with pytest.raises(InputError):
        constraint_set(g, 0, [2.0, 0.0])


# -- equilibrium checks -----------------------------------------------------------

def test_check_nep_solution_point():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.01)
    checks = check_nep(g, [1.0, 1.0], [2.0, 2.0], cfg)
    for pc in checks:
        assert pc.membership_residual == 0.0
        assert pc.witness is None
        assert pc.emptiness_resolution == 0.01


def test_check_nep_finds_witnesses():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.01)
    checks = check_nep(g, [1.0, 1.0], [1.0, 1.0], cfg)
    for i, pc in enumerate(checks):
        assert pc.witness is not None
        z = pc.witness[0]
        assert 1.0 < z <= 2.0  # strictly preferred and feasible


def test_check_nep_membership_residual():
    g = load_fixture("expand")
    cfg = SolverConfig(h=0.01)
    checks = check_nep(g, [1.0, 1.0], [3.0, 2.0], cfg)
    assert abs(checks[0].membership_residual - 1.0) < 1e-12


def test_check_projected_solution_pass():
    g = load_fixture("expand")
    cert = check_projected_solution(g, [1.0, 1.0], [2.0, 2.0], SolverConfig())
    assert cert.passed
    assert cert.projection_residual == 0.0


def test_check_projected_solution_projection_failure():
    g = load_fixture("expand")
    cert = check_projected_solution(g, [0.5, 0.5], [1.5, 1.5], SolverConfig())
    assert not cert.passed
    assert cert.reason == "projection"


def test_check_projected_solution_spin_point():
    g = load_fixture("spin")
    cert = check_projected_solution(g, [1.0, 0.5], [1.1, 0.5], SolverConfig())
    assert cert.passed


def test_check_projected_solution_intersection_failure():
    g = load_fixture("expand")
    cert = check_projected_solution(g, [1.0, 1.0], [1.0, 1.0], SolverConfig())
    assert not cert.passed
    assert cert.reason.startswith("intersection")


@pytest.mark.parametrize("x, y", [([0.5, 0.5], [np.nan, 0.5]), ([np.nan, 0.5], [0.5, 0.5]),
                                  ([0.5, -np.inf], [0.5, 0.5])])
def test_certifier_entry_points_reject_non_finite_rows(x, y):
    g, cfg = load_fixture("selfmap"), SolverConfig(h=0.1)
    calls = (lambda: check_nep(g, x, y, cfg),
             lambda: check_nep_many(g, [[0.5, 0.5], x], [[0.5, 0.5], y], cfg),
             lambda: check_projected_solution(g, x, y, cfg),
             lambda: check_projected_solution_many(g, [x], [y], cfg))
    for call in calls:
        with pytest.raises(InputError, match="must be finite"):
            call()


# -- from_utilities ---------------------------------------------------------------

def unit_box_self_maps(n_players):
    sets, maps = [], []
    for i in range(n_players):
        sets.append(Box((0.0,), (1.0,)))
        maps.append(MovingBox(player_index=i,
                              lower=AffineMap.constant([0.0], n_players),
                              upper=AffineMap.constant([1.0], n_players)))
    return sets, maps


def test_from_utilities_linear():
    sets, maps = unit_box_self_maps(2)
    g = from_utilities([1, 1], sets, maps, ["x1", "x2"])
    assert g.utility_reducible
    assert preferred(g.preference_maps[0], [0.0, 0.0], [0.5])


def test_from_utilities_quadratic_level_set():
    sets, maps = unit_box_self_maps(2)
    g = from_utilities([1, 1], sets, maps, ["-(x1 - 0.5)^2", "x2"])
    p = g.preference_maps[0]
    # preferred set at x1 = 0 is the open interval (0, 1)
    assert preferred(p, [0.0, 0.0], [0.9])
    assert preferred(p, [0.0, 0.0], [0.5])
    assert not preferred(p, [0.0, 0.0], [1.0])
    assert not preferred(p, [0.0, 0.0], [0.0])


def test_from_utilities_constant_utility_empty_preference():
    sets, maps = unit_box_self_maps(1)
    g = from_utilities([1], sets, maps, ["0"])
    p = g.preference_maps[0]
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert not preferred(p, rng.uniform(0, 1, 1), rng.uniform(-1, 2, 1))
    pts = sample_preferred(p, [0.5], Box((-1.0,), (2.0,)), 64)
    assert pts.shape[0] == 0


# -- load-time hypothesis checks -----------------------------------------------

def test_empty_constraint_values_rejected():
    sets, _ = unit_box_self_maps(2)
    bad = MovingBox(player_index=0,
                    lower=AffineMap.from_polynomials([parse_polynomial_text("1", 2)]),
                    upper=AffineMap.from_polynomials([parse_polynomial_text("x2 - 0.5", 2)]))
    ok = MovingBox(player_index=1,
                   lower=AffineMap.constant([0.0], 2),
                   upper=AffineMap.constant([1.0], 2))
    with pytest.raises(HypothesisError) as err:
        from_utilities([1, 1], sets, [bad, ok], ["x1", "x2"])
    assert err.value.witness is not None


def test_maps_must_sit_at_their_player_position():
    # an empty value on a map that claims to be player 2's would be
    # reported for the wrong player
    empty = MovingBox(player_index=1, lower=AffineMap.constant([1.0], 1),
                      upper=AffineMap.constant([0.0], 1))
    with pytest.raises(InputError, match="constraint map for player 1 has player_index 1, "
                                         "expected 0"):
        from_utilities([1], [Box((0.0,), (1.0,))], [empty], ["x1"])
    sets, maps = unit_box_self_maps(2)
    good = from_utilities([1, 1], sets, maps, ["x1", "x2"]).preference_maps
    with pytest.raises(InputError, match="preference map for player 2 has player_index 0, "
                                         "expected 1"):
        game_mod.build_instance([1, 1], sets, maps, [good[0], replace(good[1], player_index=0)])
    with pytest.raises(InputError, match="preference map for player 2 has own_start 0, "
                                         "expected 1"):
        game_mod.build_instance([1, 1], sets, maps, [good[0], replace(good[1], own_start=0)])


def test_constraint_maps_of_the_wrong_arity_are_refused():
    # unchecked, polytope offsets over (x1, x2) in a 3-variable game read x2
    # where x3 belongs, and 1-variable box bounds in a 2-variable game fail
    # inside numpy
    offsets = AffineMap.from_polynomials(
        [parse_polynomial_text(t, 2) for t in ("0", "0", "0.5 + 0.5*x2")])
    short = replace(triangle_constraint(3), offsets=offsets)
    cmap2 = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 3),
                      upper=AffineMap.constant([1.0], 3))
    sets = [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))]
    with pytest.raises(InputError, match="constraint map for player 1 reads 2 variables, "
                                         "expected 3"):
        from_utilities([2, 1], sets, [short, cmap2], ["x1 + x2", "-(x3 - 0.5)^2"])
    sets, maps = unit_box_self_maps(2)
    narrow = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 1),
                       upper=AffineMap.constant([1.0], 1))
    with pytest.raises(InputError, match="constraint map for player 2 reads 1 variables, "
                                         "expected 2"):
        from_utilities([1, 1], sets, [maps[0], narrow], ["x1", "x2"])
    with pytest.raises(InputError, match="constraint bound dimensions disagree"):
        MovingBox(player_index=1, lower=AffineMap.constant([0.0], 1),
                  upper=AffineMap.constant([1.0], 2))


def test_self_exclusion_violation_rejected():
    # convex utility: at the vertex the two preferred branches surround x1
    sets, maps = unit_box_self_maps(2)
    with pytest.raises(HypothesisError):
        from_utilities([1, 1], sets, maps, ["(x1 - 0.5)^2", "x2"])


def _indefinite_game(c):
    box = Box((-1.0, -1.0), (1.0, 1.0))
    cmap = MovingBox(player_index=0, lower=AffineMap.constant([-1.0, -1.0], 2),
                     upper=AffineMap.constant([1.0, 1.0], 2))
    return from_utilities([2], [box], [cmap], [f"-x1^2 + {c}*x2^2"])


def test_an_indefinite_form_within_1e_12_of_concave_is_checked():
    # -x1^2 + 1e-13 x2^2 is not concave, however small its positive
    # eigenvalue, so every probe is checked; but its gains stay below 3e-13
    # on the sampling window, under GAIN_GUARD, so no point is preferred
    # and the game loads
    game = _indefinite_game("1e-13")
    assert not game.preference_maps[0].hull_exact
    assert game.hypotheses.self_exclusion_probes == 49


def test_the_hull_probe_grid_is_built_only_when_a_map_reads_it(monkeypatch):
    # the choice probes are one grid; the hull product's is built only for a
    # map that is neither hull-exact nor a table, as no shipped fixture is
    boxes = []
    build = game_mod._probe_grid_for_box
    monkeypatch.setattr(game_mod, "_probe_grid_for_box",
                        lambda box, per_axis: boxes.append(box) or build(box, per_axis))
    for name in FIXTURE_NAMES:
        boxes.clear()
        game = load_fixture(name)
        assert boxes == [game.x_bbox], name
    boxes.clear()
    game = _indefinite_game("1e-13")
    assert boxes == [game.x_bbox, game.hull_box]


def test_an_indefinite_form_whose_gains_clear_the_guard_is_rejected():
    # with 1e-9 x2^2, at x = (0, -1) the preferred points z1 ~ 0, |z2| > 1
    # gain up to 3e-9 and lie on both sides of x, so x lies in the hull of
    # its preferred set
    with pytest.raises(HypothesisError) as err:
        _indefinite_game("1e-9")
    assert "player 1" in str(err.value)
    assert err.value.witness == [0.0, -1.0]


def _one_player_table(kbox, zpoints, table):
    return parse_problem(f"players 1 dims 1\nplayer 1\nbox [0] [1]\nkbox {kbox}\n"
                         f"sampled\nzpoints {zpoints}\n{table}\nend\n")


def test_table_self_exclusion_probes_its_at_points():
    assert load_fixture("table").hypotheses.self_exclusion_probes == 4
    # at 0.5 the table prefers 0 and 1, whose hull holds 0.5
    with pytest.raises(HypothesisError) as err:
        _one_player_table("[0] [1]", "[0] [0.5] [1]", "at [0.5] prefers [0] [1]")
    assert err.value.witness == [0.5]
    assert str(err.value).endswith("(witness: [0.5])")
    assert "player 1" in str(err.value)


def test_check_nep_on_a_table_with_no_declared_point_feasible():
    game = _one_player_table("[0] [0.25]", "[0.5] [1]", "at [0.5] prefers [1]")
    cfg = SolverConfig(h=0.05)
    (check,) = check_nep(game, [0.5], [0.5], cfg)
    assert check.points_scanned == 0 and check.witness is None
    assert check.emptiness_resolution == 0.0
    assert check.membership_residual == 0.25


def test_hull_boxes_cover_constraint_values():
    g = load_fixture("expand")
    assert g.hull_boxes[0].lower == (0.0,)
    assert g.hull_boxes[0].upper == (2.0,)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(0, 1, 2)
        k = constraint_set(g, 0, x)
        assert k.lower[0] >= g.hull_boxes[0].lower[0] - 1e-12
        assert k.upper[0] <= g.hull_boxes[0].upper[0] + 1e-12


# -- certificate grid-refinement monotonicity -----------------------------------

def test_witness_monotone_under_refinement():
    # spans are integer multiples of h, so the h/2 grid nests the h grid
    g = load_fixture("expand")
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = np.round(rng.uniform(0, 1, 2), 1)
        y = np.round(rng.uniform(0, 2, 2), 1)
        coarse = check_nep(g, x, y, SolverConfig(h=0.2, random_budget=0))
        fine = check_nep(g, x, y, SolverConfig(h=0.1, random_budget=0))
        for pc_c, pc_f in zip(coarse, fine):
            if pc_c.witness is not None:
                assert pc_f.witness is not None


# -- self-map reduction -----------------------------------------------------------

def test_self_map_certificates_collapse():
    from projnash.solvers import brute_force_oracle
    for name in ("selfmap", "corner"):
        g = load_fixture(name)
        cfg = SolverConfig(h=0.05)
        res = brute_force_oracle(g, cfg)
        assert res.certificates
        for cert in res.certificates:
            assert np.linalg.norm(np.array(cert.x) - np.array(cert.y)) <= cfg.eps_grid


# -- moving polytopes --------------------------------------------------------------

def triangle_constraint(n_vars):
    # z1 >= 0, z2 >= 0, z1 + z2 <= 0.5 + 0.5 x2
    normals = ((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0))
    offsets = AffineMap.from_polynomials([
        parse_polynomial_text("0", n_vars),
        parse_polynomial_text("0", n_vars),
        parse_polynomial_text("0.5 + 0.5*x3", n_vars),
    ])
    return MovingPolytope(player_index=0, normals=normals, offsets=offsets,
                          bounds_hint=Box((0.0, 0.0), (1.0, 1.0)))


def test_moving_polytope_instance():
    cmap1 = triangle_constraint(3)
    cmap2 = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 3),
                      upper=AffineMap.constant([1.0], 3))
    sets = [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))]
    g = from_utilities([2, 1], sets, [cmap1, cmap2],
                       ["x1 + x2", "-(x3 - 0.5)^2"])
    k = constraint_set(g, 0, [0.2, 0.2, 1.0])
    assert isinstance(k, HalfspacePolytope)
    assert k.contains([0.5, 0.5])
    assert not k.contains([0.9, 0.9])
    cfg = SolverConfig(h=0.05)
    checks = check_nep(g, [0.5, 0.5, 0.5], [0.375, 0.375, 0.5], cfg)
    assert checks[0].membership_residual <= 1e-9
    assert checks[0].witness is None  # 0.375 + 0.375 = 0.75 is the cap
    assert checks[1].witness is None


def test_moving_polytope_solvers_agree_on_face():
    # solutions fill the maximal face x1 + x2 = 0.5 + 0.5 x3 with x3 = 0.5
    from projnash.solvers import brute_force_oracle, solve_qvi
    cmap1 = triangle_constraint(3)
    cmap2 = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 3),
                      upper=AffineMap.constant([1.0], 3))
    sets = [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))]
    g = from_utilities([2, 1], sets, [cmap1, cmap2],
                       ["x1 + x2", "-(x3 - 0.5)^2"])
    cfg = SolverConfig(h=0.1)
    oracle = brute_force_oracle(g, cfg)
    qvi = solve_qvi(g, cfg)
    assert oracle.certificates and qvi.certificates
    for res in (oracle, qvi):
        for cert in res.certificates:
            assert abs(cert.x[0] + cert.x[1] - 0.75) <= 2 * cfg.h + 1e-9
            assert abs(cert.x[2] - 0.5) <= 2 * cfg.h


def test_capped_polytope_grid_stamps_its_spacing():
    # a [0, 4] value at h = 0.01 would need 401 points; the axis cap of 201
    # scans at spacing 0.02, and the certificate must say so
    value = MovingPolytope(player_index=0, normals=((1.0,), (-1.0,)),
                           offsets=AffineMap.constant([4.0, 0.0], 1),
                           bounds_hint=Box((0.0,), (4.0,)))
    g = from_utilities([1], [Box((0.0,), (1.0,))], [value], ["x1"])
    (check,) = check_nep(g, [1.0], [4.0], SolverConfig(h=0.01, random_budget=0))
    assert check.points_scanned == 201
    assert check.emptiness_resolution == 4.0 / 200


def test_polytope_samples_are_drawn_from_the_vertex_box():
    # the triangle z1, z2 >= 0, z1 + z2 <= 0.75 spans [0, 0.75]^2; samples
    # drawn from a wider window pile up on its boundary after projection
    k_set = triangle_constraint(3).materialize([0.5, 0.5, 0.5])
    lo, hi = k_set.bounding_box()._np
    assert np.allclose(lo, 0.0, atol=1e-12) and np.allclose(hi, 0.75, atol=1e-12)
    samples = _scan_samples(k_set, 128, np.random.default_rng(0))
    assert np.unique(samples, axis=0).shape[0] == 128


def test_polytope_normals_validated():
    for normals in (((1.0,), (0.0,)), ((1.0,), (-1.0, 0.0))):
        with pytest.raises(InputError):
            MovingPolytope(player_index=0, normals=normals,
                           offsets=AffineMap.constant([1.0, 1.0], 1),
                           bounds_hint=Box((0.0,), (1.0,)))


def test_loose_polytope_hint_rejected():
    # the value [0, 1 + 3 x1] leaves the hint [0, 1] at every probe x1 > 0
    value = MovingPolytope(player_index=0, normals=((1.0,), (-1.0,)),
                           offsets=AffineMap.from_polynomials([
                               parse_polynomial_text("1 + 3*x1", 1),
                               parse_polynomial_text("0", 1)]),
                           bounds_hint=Box((0.0,), (1.0,)))
    with pytest.raises(HypothesisError) as err:
        from_utilities([1], [Box((0.0,), (1.0,))], [value], ["x1"])
    assert err.value.witness == pytest.approx([1.0 / 6.0])


def test_polytope_empty_at_a_probe_rejected():
    # the value [0, 1 - 2 x1] is empty for x1 > 0.5
    value = MovingPolytope(player_index=0, normals=((1.0,), (-1.0,)),
                           offsets=AffineMap.from_polynomials([
                               parse_polynomial_text("1 - 2*x1", 1),
                               parse_polynomial_text("0", 1)]),
                           bounds_hint=Box((0.0,), (1.0,)))
    with pytest.raises(HypothesisError) as err:
        from_utilities([1], [Box((0.0,), (1.0,))], [value], ["x1"])
    assert err.value.witness[0] > 0.5


def test_ball_choice_set_instance():
    g = load_fixture("disk")
    assert isinstance(g.choice_sets[0], Ball)
    cert = check_projected_solution(g, [0.25, 0.5, 0.25], [0.25, 0.5, 0.25],
                                    SolverConfig(h=0.01))
    assert cert.passed


# -- load-time probe filter ----------------------------------------------------------

def _member(s, v, tol=1e-9):
    """One point against one choice set, by the set's scalar rule."""
    if isinstance(s, Ball):
        return float(np.linalg.norm(v - np.array(s.center))) <= s.radius + tol
    lo, hi = np.array(s.lower), np.array(s.upper)
    return bool(np.all(v >= lo - tol) and np.all(v <= hi + tol))


def _kept_probes(game):
    """The probes inside the choice-set product, one membership call per
    probe and player."""
    probes = _probe_grid_for_box(game.x_bbox, DEFAULT_PROBE_AXIS)
    keep = [r for r, x in enumerate(probes)
            if all(_member(game.choice_sets[i], x[game.own_slice(i)])
                   for i in range(game.player_count))]
    return probes, np.array(keep, dtype=np.intp)


def _random_choice_game(rng, boundary):
    """Two players on a random ball and a random box; with ``boundary``,
    a ball whose probe grid has points exactly on its sphere."""
    if boundary:
        ball = Ball((0.0,) * 2, 1.0) if rng.random() < 0.5 else Ball((0.5, 0.5, 0.5), 0.5)
    else:
        d = int(rng.integers(1, 3))
        ball = Ball(tuple(rng.uniform(-1, 1, d)), float(rng.uniform(0.1, 2)))
    lo = rng.uniform(-1, 1, 1 if ball.dim == 3 else int(rng.integers(1, 3)))
    box = Box(tuple(lo), tuple(lo + rng.uniform(0, 2, lo.size)))
    sets = [ball, box] if rng.random() < 0.5 else [box, ball]
    dims = [s.dim for s in sets]
    n = sum(dims)
    maps = [MovingBox(player_index=i, lower=AffineMap.constant([0.0] * d, n),
                      upper=AffineMap.constant([1.0] * d, n)) for i, d in enumerate(dims)]
    return from_utilities(dims, sets, maps, ["x1", f"x{n}"])


def test_load_probe_filter_matches_a_per_probe_loop():
    rng = np.random.default_rng(0)
    games = [load_fixture(name) for name in FIXTURE_NAMES] + [_polytope_game()]
    games += [_random_choice_game(rng, boundary=r % 3 == 0) for r in range(30)]
    on_sphere = 0
    for game in games:
        probes, keep = _kept_probes(game)
        assert np.array_equal(np.flatnonzero(game.in_choice_many(probes)), keep)
        assert game.hypotheses.constraint_probes == keep.size
        assert [game.in_choice(x) for x in probes] == np.isin(np.arange(len(probes)), keep).tolist()
        for i, s in enumerate(game.choice_sets):
            pts = probes[:, game.own_slice(i)]
            assert s.contains_many(pts, 1e-9).tolist() == [_member(s, v) for v in pts]
            if isinstance(s, Ball):
                on_sphere += int(np.sum(np.linalg.norm(pts - s.center, axis=1) == s.radius))
    assert on_sphere > 0


# -- deterministic rng ---------------------------------------------------------------

def test_seeded_rng_stable_and_content_keyed():
    a1 = seeded_rng(0, 5, arrays=(np.array([1.0, 2.0]),)).uniform(size=3)
    a2 = seeded_rng(0, 5, arrays=(np.array([1.0, 2.0]),)).uniform(size=3)
    b = seeded_rng(0, 5, arrays=(np.array([1.0, 2.1]),)).uniform(size=3)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# -- scan cache ----------------------------------------------------------------------

def _fresh(game):
    """The same game with an empty scan cache."""
    return replace(game, _caches={})


def _cert_bits(cert):
    return (np.float64(cert.projection_residual).tobytes(), cert.verdict, cert.reason,
            _bits(cert.players))


def test_warm_instance_certifies_the_verify_batch_as_fresh_ones():
    # every verify-batch row of the benchmark (box and ball fixtures, table,
    # the moving polytope): one warm instance per problem across all calls
    wl = bench_workloads()
    batch = wl.WORKLOADS["certify"]
    ops = wl.verify_ops(batch, 0)
    games = {p: wl.load(p) for p, _ in batch.verify}
    # the second pass adds a preference margin of 1e-3 to every game
    strict = SolverConfig(h=0.05, random_budget=64, seed=4)
    for cfg, rows, margin in ((wl.config(wl.VERIFY_H, 0), ops, 0.0), (strict, ops[::5], 1e-3)):
        warm = {p: _fresh(with_margin(g, margin)) for p, g in games.items()}
        for op in rows:
            got = check_projected_solution(warm[op.problem], op.x, op.y, cfg)
            want = check_projected_solution(_fresh(warm[op.problem]), op.x, op.y, cfg)
            assert _cert_bits(got) == _cert_bits(want), op
        entries = sum(len(g._caches["scan"]) for g in warm.values())
        assert entries < sum(g.player_count for g in warm.values()) * len(rows) / 2


def test_scan_cache_never_shares_an_entry():
    # table: both players' constraint values are [0, 1], so their value keys
    # are equal bytes, but a table scans its declared points and a utility
    # a grid plus samples; the budget is not part of the key, since it only
    # sets how many samples a row draws
    game = load_fixture("table")
    at = np.array(game.preference_maps[0].at_points)
    cfgs = [SolverConfig(h=h, random_budget=b) for h in (0.1, 0.05) for b in (0, 64)]
    for cfg in cfgs + cfgs[::-1]:
        for point in at:
            got = check_nep(game, point, point, cfg)
            assert _bits(got) == _bits(check_nep(_fresh(game), point, point, cfg))
    cache = game._caches["scan"]
    assert len(cache) == game.player_count * 2
    for (i, key, h, declared), (k_set, grid, resolution) in cache.items():
        cmap, pref = game.constraint_maps[i], game.preference_maps[i]
        assert key == cmap.value_key(at[:1]).tobytes()
        assert declared == pref.scans_declared == (i == 0)
        value = cmap.materialize(at[0])
        want = (pref.declared_scan(value), 0.0) if declared else set_grid(value, h)
        assert np.array_equal(grid, want[0]) and resolution == want[1]


def test_cached_scan_grids_are_read_only():
    game = load_fixture("disk")
    xs, ys = scan_rows(game, 0.1, 20)
    check_nep_many(game, xs, ys, SolverConfig(h=0.1))
    grids = [entry[1] for entry in game._caches["scan"].values()]
    assert grids and all(grid.size for grid in grids)
    for grid in grids:
        with pytest.raises(ValueError):
            grid[0, 0] = 7.0


def test_scan_cache_evicts_only_as_needed_and_keeps_no_oversize_grid(monkeypatch):
    # expand at x = y = 0: both players' values are [0, 1], 51 grid points
    # at h = 0.02 and 501 at h = 0.002; at x = y = 0.05 they are [0, 1.05],
    # 106 points at h = 0.02
    monkeypatch.setattr(game_mod, "SCAN_CACHE_POINTS", 300)
    game = load_fixture("expand")
    coarse, fine = SolverConfig(h=0.02), SolverConfig(h=0.002)
    a, b = np.zeros(2), np.full(2, 0.05)

    def held():
        cache = game._caches["scan"]
        assert sum(e[1].shape[0] for e in cache.values()) == game._caches["scan_points"] <= 300
        return [(slot, id(entry[1])) for slot, entry in cache.items()]

    check_nep(game, a, a, coarse)
    first = held()
    assert len(first) == 2
    # a grid past the bound is returned uncached and evicts nothing
    assert _bits(check_nep(game, a, a, fine)) == _bits(check_nep(_fresh(game), a, a, fine))
    assert held() == first
    # 102 + 2 x 106 points: the second new grid evicts the oldest entry only
    assert _bits(check_nep(game, b, b, coarse)) == _bits(check_nep(_fresh(game), b, b, coarse))
    now = held()
    assert len(now) == 3 and now[0] == first[1]


@pytest.mark.parametrize("bound", [250, 50])
def test_scan_cache_stays_within_its_bound(bound, monkeypatch):
    # expand at h = 0.02 scans about 100 grid points per constraint value:
    # a bound of 250 keeps two values, a bound of 50 none
    monkeypatch.setattr(game_mod, "SCAN_CACHE_POINTS", bound)
    game = load_fixture("expand")
    cfg = SolverConfig(h=0.02)
    xs, ys = scan_rows(game, 0.05, 80)
    for x, y in zip(xs, ys):
        assert _bits(check_nep(game, x, y, cfg)) == _bits(check_nep(_fresh(game), x, y, cfg))
        held = [entry[1].shape[0] for entry in game._caches["scan"].values()]
        assert sum(held) == game._caches["scan_points"] <= bound
        assert (len(held) > 0) == (bound == 250)

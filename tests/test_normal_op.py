from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from projnash import normal_op
from projnash.errors import InputError
from projnash.expressions import AffineMap, parse_polynomial_text
from projnash.fixtures import FIXTURE_NAMES, load_fixture
from projnash.game import MovingBox, build_instance, from_utilities
from projnash.game import seeded_rng
from projnash.geometry import (Box, ConeSample, grid_points, lattice_axis, mesh_points,
                               probe_points)
from projnash.normal_op import (POLAR_SLAB, POLAR_TOL, UnitNormalProduct,
                                normal_directions_batch,
                                normal_operator, unit_normal_product)
from projnash.preferences import (GAIN_GUARD, DirectionField, UtilityInduced,
                                  sample_preferred, strict_gain_outer)
from projnash.solvers import SolverConfig, _scan

from test_check_nep_many import _polytope_game
from test_cross_validation import (boundary_pinned_instance, interior_target_instance,
                                   random_direction_instance)

CFG = SolverConfig(h=0.05, random_budget=128)


@lru_cache(maxsize=None)
def cubic_player_4d():
    """One player on ``[0, 1]^4`` with utility ``x1^3``, whose own gradient
    vanishes on the face ``x1 = 0`` (built once: its load-time self-exclusion
    check samples the preferred set at 2401 probes)."""
    box = Box((0.0,) * 4, (1.0,) * 4)
    cmap = MovingBox(player_index=0, lower=AffineMap.constant([0.0] * 4, 4),
                     upper=AffineMap.constant([1.0] * 4, 4))
    return from_utilities([4], [box], [cmap], ["x1^3"])


def test_linear_utility_direction_is_minus_one():
    g = load_fixture("expand")
    for x in ([0.0, 0.0], [1.5, 0.7], [2.0, 2.0]):
        sample = normal_operator(g, 0, x, CFG)
        assert not sample.is_full_space
        assert np.allclose(sample.as_array, [[-1.0]])


def test_empty_preference_gives_full_space_with_zero():
    g = load_fixture("selfmap")
    product = unit_normal_product(g, [0.5, 0.5], CFG)
    for i in range(2):
        assert product.factors[i].is_full_space
        assert product.contains_factor(i, np.zeros(1))


def test_direction_field_negated_unit():
    c = AffineMap.constant([0.6, -0.8], 2)
    pref = DirectionField(player_index=0, n_vars=2, own_start=0, own_dim=2, c=c)
    cmap = MovingBox(player_index=0, lower=AffineMap.constant([0.0, 0.0], 2),
                     upper=AffineMap.constant([1.0, 1.0], 2))
    g = build_instance([2], [Box((0.0, 0.0), (1.0, 1.0))], [cmap], [pref])
    sample = normal_operator(g, 0, [0.2, 0.2], CFG)
    assert np.allclose(sample.as_array, [[-0.6, 0.8]], atol=1e-12)


def test_zero_gradient_falls_back_to_sphere_scan():
    # cubic utility: zero own-gradient at the inflection, nonempty preference;
    # the direction comes from geometry.separate
    sets = [Box((0.0,), (1.0,))]
    maps = [MovingBox(player_index=0, lower=AffineMap.constant([0.0], 1),
                      upper=AffineMap.constant([1.0], 1))]
    g = from_utilities([1], sets, maps, ["(x1 - 0.5)^3"])
    sample = normal_operator(g, 0, [0.5], SolverConfig(h=0.05, random_budget=128))
    assert not sample.is_full_space
    assert np.allclose(sample.as_array, [[-1.0]])


def test_empty_preference_in_four_dimensions_gives_full_space():
    # an all-zero direction field prefers nothing; the full-space sample
    # stores no directions, so the own dimension is not limited
    box = Box((0.0,) * 4, (1.0,) * 4)
    pref = DirectionField(player_index=0, n_vars=4, own_start=0, own_dim=4,
                          c=AffineMap.constant([0.0] * 4, 4))
    cmap = MovingBox(player_index=0, lower=AffineMap.constant([0.0] * 4, 4),
                     upper=AffineMap.constant([1.0] * 4, 4))
    g = build_instance([4], [box], [cmap], [pref])
    x = [0.5, 0.25, 0.0, 1.0]
    sample = normal_operator(g, 0, x, CFG)
    assert sample.is_full_space and not sample.is_empty
    product = unit_normal_product(g, x, CFG)
    assert product.flagged == (False,)
    assert product.contains_factor(0, np.zeros(4))
    assert product.contains_factor(0, [0.0, 0.6, 0.0, -0.8])
    assert not product.contains_factor(0, [1.0, 1.0, 0.0, 0.0])


def test_zero_gradient_in_four_dimensions_separates_exactly():
    # on the face x1 = 0 the preferred set is the open half-space x1 > 0: the
    # separator answers in four dimensions, polar to the preferred points the
    # operator sampled
    g = cubic_player_4d()
    x = np.array([0.0, 0.5, 0.25, 1.0])
    sample = normal_operator(g, 0, x, CFG)
    assert not sample.is_full_space and not sample.is_empty
    (d,) = sample.as_array
    zs = sample_preferred(g.preference_maps[0], x, g.hull_boxes[0].inflate(1.0), 128,
                          rng=seeded_rng(CFG.seed, 23, 0, arrays=(x,)))
    assert zs.shape[0] > 0
    assert np.all((zs - x) @ d <= 1e-9)
    assert d[0] < 0.0


def test_polar_validity_on_fixture_grids():
    for name in ("expand", "selfmap", "spin", "chase"):
        g = load_fixture(name)
        pts = grid_points(g.hull_box, [7] * g.n)
        for i in range(g.player_count):
            window = g.hull_boxes[i].inflate(1.0)
            sl = g.own_slice(i)
            for x in pts:
                sample = normal_operator(g, i, x, CFG)
                if sample.is_full_space or sample.is_empty:
                    continue
                zs = sample_preferred(g.preference_maps[i], x, window, 128,
                                      rng=np.random.default_rng(5))
                for d in sample.as_array:
                    assert np.all((zs - x[sl]) @ d <= 1e-9)


def test_strictness_for_open_half_space_variants():
    for name, player in (("expand", 0), ("spin", 1), ("corner", 0)):
        g = load_fixture(name)
        window = g.hull_boxes[player].inflate(1.0)
        sl = g.own_slice(player)
        rng = np.random.default_rng(6)
        lo, hi = g.hull_box._np
        for _ in range(30):
            x = rng.uniform(lo, hi)
            sample = normal_operator(g, player, x, CFG)
            if sample.is_full_space:
                continue
            zs = sample_preferred(g.preference_maps[player], x, window, 64,
                                  rng=np.random.default_rng(7))
            if zs.shape[0] == 0:
                continue
            for d in sample.as_array:
                assert np.all((zs - x[sl]) @ d < 0.0)


def test_nonempty_factors_on_fixture_grids():
    for name in ("expand", "selfmap", "spin", "chase", "corner", "offside", "vacuous"):
        g = load_fixture(name)
        pts = grid_points(g.hull_box, [5] * g.n)
        for x in pts:
            product = unit_normal_product(g, x, CFG)
            for i in range(g.player_count):
                assert not product.factors[i].is_empty
                assert not product.flagged[i]


def test_direction_invariant_under_affine_utility_rescale():
    sets = [Box((0.0,), (1.0,)), Box((0.0,), (1.0,))]
    maps = [MovingBox(player_index=i, lower=AffineMap.constant([0.0], 2),
                      upper=AffineMap.constant([1.0], 2)) for i in range(2)]
    g1 = from_utilities([1, 1], sets, maps, ["-(x1 - 0.5)^2", "x2"])
    g2 = from_utilities([1, 1], sets, maps,
                        ["-2*(x1 - 0.5)^2 + 3", "2*x2 + 3"])
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.uniform(0, 1, 2)
        for i in range(2):
            s1 = normal_operator(g1, i, x, CFG)
            s2 = normal_operator(g2, i, x, CFG)
            assert s1.is_full_space == s2.is_full_space
            if not s1.is_full_space:
                assert np.allclose(s1.as_array, s2.as_array, atol=1e-12)


def test_normal_operator_rejects_far_point():
    g = load_fixture("expand")
    with pytest.raises(InputError):
        normal_operator(g, 0, [9.0, 9.0], CFG)


def test_hull_membership_of_product_factor():
    product = UnitNormalProduct(
        point=(0.0,),
        factors=(ConeSample(((1.0,), (-1.0,)), 1),),
        flagged=(False,))
    assert product.contains_factor(0, [0.3])
    assert product.contains_factor(0, [-1.0])
    assert not product.contains_factor(0, [1.2])


def normal_directions_reference(game, i, xs, cfg):
    """The direction kernel with the gain of every (row, probe) pair from
    ``strict_gain_outer`` and the polar check over each whole outer chunk at
    once; ``<z - x_i, d>`` adds one coordinate at a time, in coordinate
    order, for every own dimension."""
    p = game.preference_maps[i]
    sl = game.own_slice(i)
    zpool = probe_points(game.hull_boxes[i].inflate(1.0), max(8, cfg.random_budget),
                         seeded_rng(cfg.seed, 29, i))
    out = (np.zeros((xs.shape[0], game.dims[i])), np.zeros(xs.shape[0], dtype=bool),
           np.zeros(xs.shape[0], dtype=bool))
    chunk = max(1, int(2_000_000 // zpool.shape[0]))
    for start in range(0, xs.shape[0], chunk):
        rows = slice(start, start + chunk)
        block = xs[rows]
        pref = strict_gain_outer(p, block, zpool) > GAIN_GUARD
        nonempty = np.any(pref, axis=1)
        field = p.normal_field(block)
        norms = np.linalg.norm(field, axis=1)
        ok = nonempty & (norms > 1e-12)
        d = np.zeros_like(field)
        d[ok] = -field[ok] / norms[ok, None]
        diffs = zpool[None, :, :] - block[:, None, sl]
        inner = diffs[:, :, 0] * d[:, None, 0]
        for j in range(1, diffs.shape[2]):
            inner = inner + diffs[:, :, j] * d[:, None, j]
        ok &= ~np.any(pref & (inner > POLAR_TOL), axis=1)
        out[0][rows], out[1][rows], out[2][rows] = d, ~nonempty, ok
    return out


def _cubic_game(k=2):
    """Player 1 on [-1.5, 1.5]^k with the utility x1^3 - x1 + x2 + ... +
    xk + x1 x(k+1), whose upper level sets are not convex: the polar check
    rejects the gradient direction on most rows.  The map is swapped in
    after construction, since the self-exclusion check rejects it."""
    n = k + 1
    sets = [Box((-1.5,) * k, (1.5,) * k), Box((0.0,), (1.0,))]
    maps = [MovingBox(player_index=i, lower=AffineMap.constant(list(s.lower), n),
                      upper=AffineMap.constant(list(s.upper), n)) for i, s in enumerate(sets)]
    concave = " - ".join(f"x{j}^2" for j in range(1, k + 1))
    game = from_utilities([k, 1], sets, maps, ["-" + concave, f"-(x{n} - 0.5)^2"])
    text = " + ".join(["x1^3 - x1"] + [f"x{j}" for j in range(2, k + 1)] + [f"x1*x{n}"])
    cubic = UtilityInduced(player_index=0, n_vars=n, own_start=0, own_dim=k,
                           utility=parse_polynomial_text(text, n))
    game.preference_maps = (cubic,) + game.preference_maps[1:]
    return game


@pytest.mark.parametrize("name,h", [("disk", 0.05), ("cubic", 0.1), ("cubic3", 0.25),
                                    ("cubic4", 0.5)])
def test_slabbed_polar_check_matches_the_whole_block(name, h):
    # every scan row in one call, so the check spans many slabs (and on
    # disk more than one outer chunk); on the cubics it rejects most rows,
    # with own blocks of 2, 3 and 4
    game = _cubic_game(int(name[5:] or 2)) if name.startswith("cubic") else load_fixture(name)
    cfg = SolverConfig(h=h)
    ys = np.vstack([block for _, block in _scan(game, cfg)[1]])
    assert ys.shape[0] * cfg.random_budget > 8 * POLAR_SLAB
    rejected = 0
    for i in range(game.player_count):
        got = normal_directions_batch(game, i, ys, cfg)
        want = normal_directions_reference(game, i, ys, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), i
        rejected += int(np.sum(~got[1] & ~got[2]))
    assert (rejected > 0) == name.startswith("cubic")


#: which fixture players have half-space preferred sets
HALFSPACE = {"expand": (True, True), "selfmap": (False, False), "spin": (True, True),
             "chase": (False, False), "corner": (True, True), "offside": (True, True),
             "vacuous": (True, True), "disk": (True, False), "table": (False, True)}


def test_halfspace_valued_on_fixture_players():
    assert set(HALFSPACE) == set(FIXTURE_NAMES)
    for name, want in HALFSPACE.items():
        got = tuple(p.halfspace_valued for p in load_fixture(name).preference_maps)
        assert got == want, name


def _lattice_rows(game, h):
    lo, hi = game.hull_box._np
    return mesh_points([lattice_axis(lo[j], hi[j], h) for j in range(game.n)])


def _scaled(game, ys, factor):
    """The game with its hull boxes, hence its probe pools, and the rows
    scaled by ``factor``."""
    boxes = tuple(Box(tuple(factor * b._np[0]), tuple(factor * b._np[1]))
                  for b in game.hull_boxes)
    return replace(game, hull_boxes=boxes, _caches={}), factor * ys


def assert_directions_match_the_reference(game, ys, cfg, players=None):
    """``(directions, full_mask, ok_mask)`` bit for bit the reference's for
    every player; returns the validated rows of half-space players, whose
    polar check the kernel skips."""
    skipped = 0
    for i in range(game.player_count) if players is None else players:
        got = normal_directions_batch(game, i, ys, cfg)
        want = normal_directions_reference(game, i, ys, cfg)
        assert all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                   for a, b in zip(got, want)), i
        if game.preference_maps[i].halfspace_valued:
            skipped += int(np.sum(got[2]))
    return skipped


@pytest.mark.parametrize("factor", [1.0, 1e3])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_directions_match_the_reference_on_fixtures(name, factor):
    game = load_fixture(name)
    cfg = SolverConfig(h=0.1, random_budget=256)
    # a table answers only at its declared at-points, and its own gains
    # reject the off-grid probe pool
    if name == "table":
        ys = np.array(game.preference_maps[0].at_points)
    else:
        ys = _lattice_rows(game, 0.1)
    game, ys = _scaled(game, ys, factor)
    players = [1] if name == "table" else None
    if name == "table":
        with pytest.raises(InputError):
            normal_directions_batch(game, 0, ys, cfg)
    skipped = assert_directions_match_the_reference(game, ys, cfg, players)
    assert (skipped > 0) == (any(HALFSPACE[name]) and name != "vacuous")


@pytest.mark.parametrize("family", ["interior", "pinned", "direction"])
def test_directions_match_the_reference_on_generated_games(family):
    rng = np.random.default_rng(5)
    make = {"interior": lambda: interior_target_instance(rng, 3),
            "pinned": lambda: boundary_pinned_instance(rng, 2),
            "direction": lambda: random_direction_instance(rng)}[family]
    skipped = 0
    for _ in range(3):
        game, _ = make()
        skipped += assert_directions_match_the_reference(game, _lattice_rows(game, 0.05),
                                                         SolverConfig(h=0.05))
    assert (skipped > 0) == (family != "interior")


@pytest.mark.parametrize("offset", [0.05, 0.4])
def test_directions_match_the_reference_with_offset_fields(offset):
    # a two-dimensional field that turns with the rival coordinate, and a
    # one-dimensional field whose sign flips inside the box
    n = 3
    sets = [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))]
    maps = [MovingBox(player_index=i, lower=AffineMap.constant(list(s.lower), n),
                      upper=AffineMap.constant(list(s.upper), n)) for i, s in enumerate(sets)]
    fields = [AffineMap(((0.0, 0.0, -1.0), (0.0, 0.0, 0.3)), (0.5, -0.2)),
              AffineMap(((1.0, -1.0, 0.0),), (0.1,))]
    maps_p = [DirectionField(player_index=i, n_vars=n, own_start=2 * i, own_dim=s.dim,
                             c=c, offset=offset) for i, (s, c) in enumerate(zip(sets, fields))]
    game = build_instance([2, 1], sets, maps, maps_p)
    assert all(p.halfspace_valued for p in game.preference_maps)
    assert assert_directions_match_the_reference(game, _lattice_rows(game, 0.05),
                                                 SolverConfig(h=0.05)) > 0


# -- the polar check proven by concavity ----------------------------------------------

def _checked_rows(monkeypatch) -> list:
    """``[candidate rows, checked rows]`` summed over the kernel calls that
    follow: rows with a nonzero field on a nonempty preference, and those
    of them whose polar check runs."""
    seen = [0, 0]
    real = normal_op._unproven

    def unproven(p, xs, norms, cand_ok, zpool):
        need = real(p, xs, norms, cand_ok, zpool)
        seen[0] += int(cand_ok.sum())
        seen[1] += int(need.sum())
        return need

    monkeypatch.setattr(normal_op, "_unproven", unproven)
    return seen


def _one_d_game(utility: str):
    sets = [Box((0.0,), (1.0,)), Box((0.0,), (1.0,))]
    maps = [MovingBox(player_index=i, lower=AffineMap.constant([0.0], 2),
                      upper=AffineMap.constant([1.0], 2)) for i in range(2)]
    return from_utilities([1, 1], sets, maps, [utility, "x2"])


def _two_d_game(utility: str):
    """A player on the unit square against a player on [0, 1]."""
    sets = [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))]
    maps = [MovingBox(player_index=i, lower=AffineMap.constant(list(s.lower), 3),
                      upper=AffineMap.constant(list(s.upper), 3)) for i, s in enumerate(sets)]
    return from_utilities([2, 1], sets, maps, [utility, "-(x3 - 0.5)^2"])


#: the exactly concave, not half-space players of the fixtures and the
#: benchmark's polytope game
CONCAVE = {"selfmap": [0, 1], "chase": [0, 1], "disk": [1], "polytope": [1]}


@pytest.mark.parametrize("factor", [1.0, 1e3])
@pytest.mark.parametrize("name", sorted(CONCAVE))
def test_concave_players_skip_the_check_only_where_proven(name, factor, monkeypatch):
    game = _polytope_game() if name == "polytope" else load_fixture(name)
    assert [i for i, p in enumerate(game.preference_maps)
            if p.concave and not p.halfspace_valued] == CONCAVE[name]
    game, ys = _scaled(game, _lattice_rows(game, 0.05), factor)
    seen = _checked_rows(monkeypatch)
    assert_directions_match_the_reference(game, ys, SolverConfig(h=0.1, random_budget=256),
                                          CONCAVE[name])
    # at the fixtures' scale every candidate row is proven; scaled by 1e3
    # the quadratic terms' rounding grows a million-fold, and on chase,
    # whose gradient scales less, some rows keep the check
    assert seen[0] > 0 and (seen[1] > 0) == (name == "chase" and factor > 1.0)


def test_near_stationary_rows_keep_the_check():
    # -(x1 - t)^2 with x1 = z - 1e-8 and t = x1 - 1e-9, z a probe point:
    # the gradient is 2e-9 and no gain exceeds 1e-18.  On the unit window
    # every gain rounds to at most GAIN_GUARD, so nothing is preferred; on
    # a window scaled by 1e3 the gain's terms are of order 1e6 and their
    # rounding, far above GAIN_GUARD, can call z preferred although it is
    # not, with <z - x1, d> = 1e-8 > POLAR_TOL
    cfg = SolverConfig(h=0.1, random_budget=256)
    for factor in (1.0, 1e3):
        pool = probe_points(Box((-1.0,), (factor + 1.0,)), 256, seeded_rng(cfg.seed, 29, 0))
        rejected = 0
        for z in pool[100:, 0]:
            x = float(z) - 1e-8
            game = _one_d_game(f"-(x1 - {x - 1e-9!r})^2")
            assert game.preference_maps[0].concave
            game = _scaled(game, np.zeros((0, 2)), factor)[0]
            ys = np.array([[x, 0.3]])
            assert_directions_match_the_reference(game, ys, cfg, [0])
            full, ok = normal_directions_batch(game, 0, ys, cfg)[1:]
            assert full[0] or factor > 1.0
            rejected += int(not full[0] and not ok[0])
        assert (rejected > 0) == (factor > 1.0)


@pytest.mark.parametrize("tilt, checked", [("1e-2", False), ("1e-5", True)])
def test_a_flat_ridge_keeps_the_check(tilt, checked, monkeypatch):
    # -(x1 - x2)^2 + tilt x1: on the diagonal the gradient is (tilt, 0)
    # while the terms stay of order 1, so a small tilt proves nothing
    game = _two_d_game(f"-(x1 - x2)^2 + {tilt}*x1")
    assert game.preference_maps[0].concave
    ys = np.array([[v, v, 0.3] for v in np.linspace(0.05, 0.95, 19)])
    seen = _checked_rows(monkeypatch)
    assert_directions_match_the_reference(game, ys, SolverConfig(h=0.1), [0])
    assert seen[0] == ys.shape[0] and seen[1] == (seen[0] if checked else 0)


def test_a_tiny_positive_eigenvalue_keeps_the_check(monkeypatch):
    # not exactly concave, so neither hull-exact: the game loads only after
    # its self-exclusion probes pass, and every candidate row is checked
    game = _two_d_game("-x1^2 + 1e-13*x2^2 + x2")
    p = game.preference_maps[0]
    assert not p.hull_exact and not p.concave and not p.halfspace_valued
    assert game.hypotheses.self_exclusion_probes == 343
    seen = _checked_rows(monkeypatch)
    assert_directions_match_the_reference(game, _lattice_rows(game, 0.1), SolverConfig(h=0.1),
                                          [0])
    assert seen[1] == seen[0] > 0

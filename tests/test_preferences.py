import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from projnash.errors import InputError
from projnash.expressions import AffineMap, Polynomial, parse_polynomial_text
from projnash.fixtures import load_fixture
from projnash.geometry import Box
from projnash.preferences import (DirectionField, Sampled, UtilityInduced,
                                  _cloud_for, context_for, graph_distance,
                                  graph_distance_many, hull_preferred,
                                  preferred, preferred_many, sample_preferred,
                                  strict_gain_outer)

SQRT2 = math.sqrt(2.0)


def grid_distance(p, ctx, y, z):
    """Graph distance through the complement cloud, skipping closed forms."""
    if not preferred_many(p, y, np.reshape(z, (1, -1)))[0]:
        return 0.0
    query = np.concatenate([np.ravel(y), np.ravel(z)])[None, :]
    return float(_cloud_for(p, ctx).min_distance(query)[0])


def linear_pref_1d():
    # single player, 1-D: preferred points are {z : z > x1}
    return UtilityInduced(player_index=0, n_vars=1, own_start=0, own_dim=1,
                          utility=parse_polynomial_text("x1", 1))


def make_sampled():
    return Sampled(
        player_index=0, n_vars=2, own_start=0, own_dim=1,
        at_points=((0.0, 0.0), (0.5, 0.0)),
        zpoints=((0.0,), (0.5,), (1.0,)),
        prefers=((False, True, True), (False, False, True)),
    )


# -- preferred ---------------------------------------------------------------

def test_preferred_linear_utility():
    g = load_fixture("expand")
    p = g.preference_maps[0]
    assert preferred(p, [0.0, 0.0], [0.5]) is True
    assert preferred(p, [0.0, 0.0], [0.0]) is False  # strict inequality


def test_preferred_direction_field_degenerate_empty():
    g = load_fixture("spin")
    p = g.preference_maps[0]
    for z in (-1.0, 0.0, 0.2, 5.0):
        assert preferred(p, [0.2, 0.5], [z]) is False  # c(x) = 0 -> empty set


def test_preferred_dimension_errors():
    p = linear_pref_1d()
    with pytest.raises(InputError):
        preferred(p, [0.0, 1.0], [0.5])
    with pytest.raises(InputError):
        preferred(p, [0.0], [0.5, 0.5])


def test_sampled_lookup_and_off_grid_error():
    p = make_sampled()
    assert preferred(p, [0.0, 0.0], [0.5]) is True
    assert preferred(p, [0.5, 0.0], [0.5]) is False
    with pytest.raises(InputError):
        preferred(p, [0.3, 0.0], [0.5])
    with pytest.raises(InputError):
        preferred(p, [0.0, 0.0], [0.7])


# -- hull view -----------------------------------------------------------------

def test_hull_equals_raw_for_half_spaces():
    g = load_fixture("spin")
    p = g.preference_maps[1]
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(0, 1, 2)
        z = rng.uniform(-1, 2, 1)
        assert hull_preferred(p, x, z) == preferred(p, x, z)


def test_hull_midpoint_of_sampled():
    p = make_sampled()
    # preferred set at (0,0) is {0.5, 1.0}: the hull covers points between
    # grid entries even though raw membership is only defined on the grid
    assert hull_preferred(p, [0.0, 0.0], [0.75]) is True
    assert hull_preferred(p, [0.0, 0.0], [0.25]) is False
    assert hull_preferred(p, [0.5, 0.0], [0.75]) is False  # hull of {1.0}


def test_hull_equals_raw_for_concave_quadratic():
    u = parse_polynomial_text("-(x1 - 0.5)^2", 2)
    p = UtilityInduced(player_index=0, n_vars=2, own_start=0, own_dim=1, utility=u)
    rng = np.random.default_rng(6)
    for _ in range(60):
        x = rng.uniform(0, 1, 2)
        z = rng.uniform(-0.5, 1.5, 1)
        assert hull_preferred(p, x, z) == preferred(p, x, z)


def test_convexity_of_half_space_preferences():
    g = load_fixture("expand")
    p = g.preference_maps[0]
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.uniform(0, 1, 2)
        a, b = rng.uniform(-1, 3, 2)
        if preferred(p, x, [a]) and preferred(p, x, [b]):
            assert preferred(p, x, [(a + b) / 2.0])


# -- sampling ------------------------------------------------------------------

def test_sample_preferred_finds_points():
    g = load_fixture("expand")
    pts = sample_preferred(g.preference_maps[0], [0.0, 0.0], Box((0.0,), (1.0,)), 100)
    assert pts.shape[0] > 0
    assert np.all(pts > 0.0)


def test_sample_preferred_empty_when_disjoint():
    g = load_fixture("expand")
    # preferred set at x1 = 1 is (1, inf); the region stops at 1
    pts = sample_preferred(g.preference_maps[0], [1.0, 1.0], Box((0.0,), (1.0,)), 100)
    assert pts.shape[0] == 0


def test_sample_preferred_consistent_with_membership():
    g = load_fixture("selfmap")
    p = g.preference_maps[0]
    x = np.array([0.2, 0.9])
    pts = sample_preferred(p, x, Box((-1.0,), (2.0,)), 200)
    assert pts.shape[0] > 0
    for z in pts:
        assert preferred(p, x, z)


def test_sample_preferred_budget_guard():
    g = load_fixture("expand")
    with pytest.raises(InputError):
        sample_preferred(g.preference_maps[0], [0.0, 0.0], Box((0.0,), (1.0,)), 0)


# -- graph distance --------------------------------------------------------------

def test_graph_distance_half_plane_closed_form():
    p = linear_pref_1d()
    ctx = context_for(Box((0.0,), (2.0,)), Box((0.0,), (2.0,)), h_g=0.01)
    assert abs(graph_distance(p, ctx, [0.0], [1.0]) - 1.0 / SQRT2) < 1e-12


def test_graph_distance_zero_off_graph():
    p = linear_pref_1d()
    ctx = context_for(Box((0.0,), (2.0,)), Box((0.0,), (2.0,)), h_g=0.01)
    assert graph_distance(p, ctx, [0.5], [0.3]) == 0.0


def test_graph_distance_grid_matches_closed_form():
    p = linear_pref_1d()
    h_g = 0.02
    ctx = context_for(Box((0.0,), (2.0,)), Box((0.0,), (2.0,)), h_g=h_g)
    rng = np.random.default_rng(9)
    for _ in range(60):
        y = rng.uniform(-0.5, 2.5, 1)
        z = rng.uniform(-0.5, 2.5, 1)
        exact = graph_distance(p, ctx, y, z)
        grid = grid_distance(p, ctx, y, z)
        assert abs(exact - grid) <= h_g * math.sqrt(2) + 1e-12


def test_complement_cloud_distance_is_the_brute_force_minimum():
    p = load_fixture("chase").preference_maps[1]     # x1 never enters its gain
    ctx = context_for(Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,)), h_g=0.05)
    cloud = _cloud_for(p, ctx)
    assert cloud.active.tolist() == [1, 2]
    queries = np.random.default_rng(11).uniform(-0.5, 1.5, (50, 3))
    diffs = queries[:, None, cloud.active] - cloud.points[None, :, :]
    brute = np.sqrt(np.min(np.sum(diffs ** 2, axis=2), axis=1))
    assert np.allclose(cloud.min_distance(queries), brute, rtol=0.0, atol=1e-12)


def test_graph_distance_region_guard():
    p = linear_pref_1d()
    ctx = context_for(Box((0.0,), (2.0,)), Box((0.0,), (2.0,)), h_g=0.01)
    with pytest.raises(InputError):
        graph_distance(p, ctx, [10.0], [0.0])


def test_graph_distance_positive_iff_preferred():
    for name in ("expand", "selfmap", "spin", "chase"):
        g = load_fixture(name)
        rng = np.random.default_rng(10)
        for i in range(g.player_count):
            p = g.preference_maps[i]
            ctx = g.distance_context(i, 0.02)
            lo, hi = ctx.region._np
            for _ in range(80):
                q = rng.uniform(lo + 0.3, hi - 0.3)
                y, z = q[:g.n], q[g.n:]
                val = graph_distance(p, ctx, y, z)
                assert (val > 0.0) == preferred(p, y, z)


def test_graph_distance_lipschitz_all_fixtures():
    for name in ("expand", "selfmap", "spin", "chase", "corner", "offside"):
        g = load_fixture(name)
        rng = np.random.default_rng(12)
        for i in range(g.player_count):
            p = g.preference_maps[i]
            ctx = g.distance_context(i, 0.025)
            lo, hi = ctx.region._np
            for _ in range(150):
                qa = rng.uniform(lo + 0.2, hi - 0.2)
                qb = rng.uniform(lo + 0.2, hi - 0.2)
                ga = graph_distance(p, ctx, qa[:g.n], qa[g.n:])
                gb = graph_distance(p, ctx, qb[:g.n], qb[g.n:])
                assert abs(ga - gb) <= np.linalg.norm(qa - qb) + 1e-9


def test_graph_distance_spin_two_branch_form():
    # exact distance to the sign-flip complement, checked against the grid
    g = load_fixture("spin")
    p = g.preference_maps[0]
    ctx = g.distance_context(0, 0.02)
    rng = np.random.default_rng(14)
    for _ in range(40):
        y = rng.uniform(0.1, 1.4, 2)
        z = rng.uniform(0.1, 1.4, 1)
        exact = graph_distance(p, ctx, y, z)
        grid = grid_distance(p, ctx, y, z)
        assert abs(exact - grid) <= 0.02 * math.sqrt(3) + 1e-12


def test_graph_distance_sampled_table():
    p = make_sampled()
    ctx = context_for(Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,)), h_g=0.5)
    # non-preferred declared pair sits in the complement
    assert graph_distance(p, ctx, [0.5, 0.0], [0.5]) == 0.0
    # preferred pair: distance to the nearest declared complement pair
    val = graph_distance(p, ctx, [0.0, 0.0], [0.5])
    assert val > 0.0
    complements = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.0, 0.5)]
    expected = min(np.linalg.norm(np.array(c) - np.array([0.0, 0.0, 0.5]))
                   for c in complements)
    assert abs(val - expected) < 1e-12


def test_graph_distance_many_matches_scalar():
    g = load_fixture("selfmap")
    p = g.preference_maps[0]
    ctx = g.distance_context(0, 0.02)
    y = np.array([0.3, 0.6])
    zs = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
    batch = graph_distance_many(p, ctx, y, zs)
    for z, val in zip(zs, batch):
        assert abs(graph_distance(p, ctx, y, z) - val) < 1e-12


def test_self_exclusion_on_fixture_probes():
    for name in ("expand", "selfmap", "spin", "chase", "corner", "offside", "vacuous"):
        g = load_fixture(name)
        lo, hi = g.hull_box._np
        rng = np.random.default_rng(15)
        for i in range(g.player_count):
            p = g.preference_maps[i]
            sl = g.own_slice(i)
            for _ in range(40):
                x = rng.uniform(lo, hi)
                assert hull_preferred(p, x, x[sl]) is False


def test_preferred_many_matches_scalar():
    g = load_fixture("chase")
    p = g.preference_maps[0]
    x = np.array([0.3, 0.8])
    zs = np.linspace(-0.5, 1.5, 21).reshape(-1, 1)
    mask = preferred_many(p, x, zs)
    for z, flag in zip(zs, mask):
        assert preferred(p, x, z) == bool(flag)


class _CollidingUtility(UtilityInduced):
    """Utility preference whose hash collides with every other one."""

    def __hash__(self):
        return 0


def test_complement_cloud_cache_keys_on_the_preference():
    # two utilities without closed forms share one context and one hash;
    # each must still get its own complement cloud
    ctx = context_for(Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,)), h_g=0.05)
    first, second = (
        _CollidingUtility(player_index=0, n_vars=2, own_start=0, own_dim=1,
                          utility=parse_polynomial_text(text, 2))
        for text in ("-(x1 - x2)^2", "-(x1 - 0.5*x2)^2"))
    y, z = [0.9, 0.2], [0.5]
    assert preferred(second, y, z)
    graph_distance(first, ctx, y, z)
    fresh = context_for(Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,)), h_g=0.05)
    assert graph_distance(second, ctx, y, z) == graph_distance(second, fresh, y, z)


# -- self-exclusion of the gain kernel ------------------------------------------

@st.composite
def gain_preferences(draw):
    """Utilities of degree <= 4 and zero-offset affine direction fields with
    own dimension 1-3 and up to two rival coordinates.  Structure comes from
    hypothesis, coefficients from a drawn seed, so they are generic floats
    whose sums round."""
    own_dim, rivals = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n = own_dim + rivals
    own_start = draw(st.integers(0, rivals))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = dict(player_index=0, n_vars=n, own_start=own_start, own_dim=own_dim)
    if draw(st.booleans()):
        c = AffineMap(tuple(map(tuple, rng.uniform(-2, 2, (own_dim, n)).tolist())),
                      tuple(rng.uniform(-2, 2, own_dim).tolist()))
        return DirectionField(c=c, offset=0.0, **shape)
    utility = Polynomial.constant(0.0, n)
    for _ in range(draw(st.integers(1, 6))):
        term = Polynomial.constant(float(rng.uniform(-3, 3)), n)
        for j in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            term = term * Polynomial.variable(j, n)
        utility = utility + term
    return UtilityInduced(utility=utility, **shape)


@given(gain_preferences(), st.integers(0, 2**32 - 1))
def test_current_strategy_is_never_strictly_preferred(p, seed):
    xs = np.random.default_rng(seed).uniform(-2, 2, (16, p.n_vars))
    own = slice(p.own_start, p.own_start + p.own_dim)
    assert not np.any(np.diag(strict_gain_outer(p, xs, xs[:, own])) > 0.0)
    for x in xs:
        assert preferred(p, x, x[own]) is False


@given(gain_preferences(), st.integers(0, 2**32 - 1))
def test_strict_gain_matches_the_gain_polynomial(p, seed):
    # independent checker: the (x, z) gain polynomial, evaluated pair by pair
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2, 2, (5, p.n_vars))
    zs = rng.uniform(-2, 2, (7, p.own_dim))
    gains = strict_gain_outer(p, xs, zs)
    expected = np.array([[p.gain.eval(np.concatenate([x, z])) for z in zs] for x in xs])
    assert np.allclose(gains, expected, rtol=1e-9, atol=1e-9)


def test_sampled_gain_table_batched():
    p = make_sampled()
    xs = np.array([[0.5, 0.0], [0.0, 0.0]])
    zs = np.array([[1.0], [0.0], [0.5]])
    assert strict_gain_outer(p, xs, zs).tolist() == [[1.0, -1.0, -1.0], [1.0, -1.0, 1.0]]
    with pytest.raises(InputError, match="z-point"):
        strict_gain_outer(p, xs, np.array([[0.5], [0.7]]))
    with pytest.raises(InputError, match="at-point"):
        strict_gain_outer(p, np.array([[0.0, 0.0], [0.3, 0.0]]), zs)

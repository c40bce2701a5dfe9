import dataclasses
import math
from fractions import Fraction
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from projnash import preferences as prefs_mod
from projnash.cli import parse_problem
from projnash.errors import InputError
from projnash.expressions import AffineMap, Polynomial, parse_polynomial_text
from projnash.fixtures import FIXTURE_NAMES, load_fixture
from projnash.geometry import Box, grid_axis, lattice_axis, mesh_points, probe_points
from projnash.normal_op import normal_directions_batch
from projnash.preferences import (GAIN_GUARD, DirectionField, Sampled, UtilityInduced,
                                  _ComplementCloud, _cloud_for, _gain_factors,
                                  _halfspace_form, _in_convex_hull,
                                  _rival_scalar_form, context_for, graph_distance,
                                  graph_distance_many, hull_preferred,
                                  gain_groups, preferred,
                                  sample_preferred, strict_gain_max,
                                  strict_gain_outer, strict_gain_paired,
                                  strictly_preferred)
from projnash.game import check_nep
from projnash.solvers import SolverConfig

SQRT2 = math.sqrt(2.0)


def grid_distance(p, ctx, y, z):
    """Graph distance through the complement cloud, skipping closed forms."""
    if not preferred(p, y, z):
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


def test_a_table_that_repeats_a_point_is_refused():
    # a repeat within GRID_MATCH_TOL contradicts itself: only its first row
    # or column is ever read
    good = make_sampled()
    with pytest.raises(InputError, match=r"player 1 repeats the z-point \[0.5000000001\]"):
        dataclasses.replace(good, zpoints=((0.0,), (0.5,), (0.5 + 1e-10,)))
    with pytest.raises(InputError, match=r"player 1 repeats the at-point \[0.0, 0.0\]"):
        dataclasses.replace(good, at_points=((0.0, 0.0), (0.0, 0.0)))
    dataclasses.replace(good, zpoints=((0.0,), (0.5,), (0.5 + 1e-8,)))    # apart: loads
    head = ("players 2 dims 1 1\nplayer 1\nbox [0] [1]\nkbox [0] [1]\nsampled\n"
            "zpoints [0] [0.5] [0.5] [1]\nat [0, 0] prefers [0.5] [1]\n")
    tail = "end\nplayer 2\nbox [0] [1]\nkbox [0] [1]\nutility x2\n"
    with pytest.raises(InputError, match=r"repeats the z-point \[0.5\]"):
        parse_problem(head + tail)
    with pytest.raises(InputError, match=r"repeats the at-point \[0.0, 0.0\]"):
        parse_problem(head.replace(" [0.5] [0.5]", " [0.5]") + "at [0, 0] prefers\n" + tail)


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


@pytest.mark.parametrize("text, hull_exact, concave", [
    ("-(x1 - 0.5)^2 - x2^2", True, True),
    ("-(x1 - x2)^2", True, True),                        # singular form
    ("-x2^2 + x1*x3", True, True),                       # zero first pivot
    ("x1*x3 + x2", True, True),                          # own degree 1
    ("-x1^2 + 1e-13*x2^2", False, False),                 # eigenvalue in (0, 1e-12]
    ("-x1^2 - x2^2 + 2.0000000000000004*x1*x2", False, False),
    ("1e-13*x1*x2 - x2^2", False, False),                 # zero pivot, nonzero row
    ("x1*x2 - x2^2", False, False),
    ("-x1^2 - x2^2 + 3*x1*x2", False, False),            # indefinite
    ("x1^2 - x2^2", False, False),
    ("-x1^2*x3", False, False),                          # rival-modulated
    ("-x1^4", False, False),
])
def test_concave_is_exact_negative_semidefiniteness(text, hull_exact, concave):
    p = UtilityInduced(player_index=0, n_vars=3, own_start=0, own_dim=2,
                       utility=parse_polynomial_text(text, 3))
    assert (p.hull_exact, p.concave) == (hull_exact, concave)


def _exact_value(poly, point):
    """``poly`` at the float coordinates ``point`` in rational arithmetic."""
    total = Fraction(0)
    for e, c in poly.terms:
        term = Fraction(c)
        for v, k in zip(point, e):
            term *= Fraction(float(v)) ** k
        total += term
    return total


@st.composite
def quadratic_utilities(draw):
    """Utilities of own degree <= 2 with constant quadratic coefficients,
    rival-dependent linear and free terms, generic coefficients, own
    dimension 1-2 and two rival coordinates."""
    own_dim = draw(st.integers(1, 2))
    n, own_start = own_dim + 2, draw(st.integers(0, 2))
    own = list(range(own_start, own_start + own_dim))
    rivals = [j for j in range(n) if j not in own]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    var = lambda j: Polynomial.variable(j, n)
    utility = Polynomial.constant(0.0, n)
    for a in own:
        for b in own:
            if a <= b and draw(st.booleans()):
                utility = utility + (var(a) * var(b)).scale(float(rng.uniform(-3, 3)))
        for _ in range(draw(st.integers(1, 3))):
            term = var(a).scale(float(rng.uniform(-3, 3)))
            for j in draw(st.lists(st.sampled_from(rivals), max_size=2)):
                term = term * var(j)
            utility = utility + term
    utility = utility + (var(rivals[0]) * var(rivals[1])).scale(float(rng.uniform(-3, 3)))
    scale = 10.0 ** draw(st.integers(0, 3))
    return UtilityInduced(player_index=0, n_vars=n, own_start=own_start, own_dim=own_dim,
                          utility=utility), scale, rng


@given(quadratic_utilities())
def test_tangent_errors_bound_the_rounding(case):
    # the computed A~(z) - B~ and normal field against rational arithmetic
    p, scale, rng = case
    sl = slice(p.own_start, p.own_start + p.own_dim)
    xs = rng.uniform(-scale, scale, (6, p.n_vars))
    zs = rng.uniform(-scale, scale, (40, p.own_dim))
    reach = np.max(np.abs(zs), axis=0)
    gain_err, field_err = p.tangent_errors(xs, reach)
    _, base, _, lift = p._gain_factors(xs, zs)
    lifted = lift(slice(None))
    field = p.normal_field(xs)
    for r, x in enumerate(xs):
        at_x = _exact_value(p.utility, x)
        for s, z in enumerate(zs):
            xz = x.copy()
            xz[sl] = z
            exact = _exact_value(p.utility, xz) - at_x
            assert abs(Fraction(lifted[r, s]) - Fraction(base[r]) - exact) <= gain_err[r]
        slack = sum(abs(field[r, j] - _exact_value(g, x)) for j, g in enumerate(p.own_gradient))
        assert slack <= field_err[r]


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


def test_sample_preferred_on_a_table_keeps_declared_points_in_the_region():
    # at (0, 0) the table prefers 0.5 and 1.0, at (0.5, 0) only 1.0
    p = make_sampled()
    wide = Box((-1.0,), (2.0,))
    assert sample_preferred(p, [0.0, 0.0], wide, 10).tolist() == [[0.5], [1.0]]
    assert sample_preferred(p, [0.0, 0.0], wide, 1).tolist() == [[0.5]]
    assert sample_preferred(p, [0.0, 0.0], Box((0.75,), (2.0,)), 10).tolist() == [[1.0]]
    assert sample_preferred(p, [0.5, 0.0], Box((-1.0,), (0.75,)), 10).shape == (0, 1)


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
    cloud = _ComplementCloud(p, ctx).build_region()
    assert cloud.active.tolist() == [1, 2]
    queries = np.random.default_rng(11).uniform(-0.5, 1.5, (50, 3))
    diffs = queries[:, None, cloud.active] - cloud.points[None, :, :]
    brute = np.sqrt(np.min(np.sum(diffs ** 2, axis=2), axis=1))
    assert np.allclose(_cloud_for(p, ctx).min_distance(queries), brute, rtol=0.0, atol=1e-12)


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



def _direction(rows, n, own_dim=1, offset=0.0):
    return DirectionField(player_index=0, n_vars=n, own_start=0, own_dim=own_dim,
                          c=AffineMap.from_polynomials(
                              [parse_polynomial_text(t, n) for t in rows]),
                          offset=offset)


def _utility(text, n, margin=0.0):
    return UtilityInduced(player_index=0, n_vars=n, own_start=0, own_dim=1,
                          utility=parse_polynomial_text(text, n), margin=margin)


@pytest.mark.parametrize("field, value", [
    (f, v) for f in ("margin", "offset") for v in (float("nan"), float("inf"), -1e-3)])
def test_margins_reject_values_that_disable_checks(field, value):
    # preference margins are the only strictness knob; a NaN margin makes
    # every gain NaN, which no scan would ever call preferred
    with pytest.raises(InputError, match="must be finite and nonnegative"):
        if field == "margin":
            _utility("x1", 2, margin=value)
        else:
            _direction(["1"], 2, offset=value)


def test_halfspace_form_needs_a_nonzero_constant_field():
    # a zero field prefers nothing: its complement is everything, not a half-space
    assert _halfspace_form(_direction(["0"], 2)) is None
    assert _halfspace_form(_direction(["x2"], 2)) is None
    c, off = _halfspace_form(_direction(["2"], 2, offset=0.5))
    assert c.tolist() == [2.0] and off == 0.5
    c, off = _halfspace_form(_utility("3*x1 + x2^2", 2, margin=0.25))
    assert c.tolist() == [3.0] and off == 0.25
    assert _halfspace_form(_utility("x1*x2", 2)) is None
    assert _halfspace_form(make_sampled()) is None


def test_rival_scalar_form_only_for_rival_affine_fields_on_one_coordinate():
    cmap, a = _rival_scalar_form(_direction(["x2 - 0.5"], 2))
    assert a.tolist() == [0.0, 1.0] and cmap.offset == (-0.5,)
    cmap, a = _rival_scalar_form(_utility("x1*x2", 2))
    assert a.tolist() == [0.0, 1.0] and cmap.offset == (0.0,)
    for p in (_direction(["x3", "x3"], 3, own_dim=2),     # own block of 2
              _direction(["x2"], 2, offset=0.1),           # nonzero offset
              _utility("x1*x2", 2, margin=0.1),           # nonzero margin
              _direction(["1"], 2),                       # constant field
              _utility("2*x1", 2),
              _utility("x1*x2^2", 2),                     # degree-2 own gradient
              _direction(["x1 + x2"], 2),                 # reads the own coordinate
              make_sampled()):
        assert _rival_scalar_form(p) is None


def test_graph_distance_takes_its_forms_once_and_checks_each_column(monkeypatch):
    calls = []
    for name in ("_halfspace_form", "_rival_scalar_form"):
        real = getattr(prefs_mod, name)
        monkeypatch.setattr(prefs_mod, name, lambda p, real=real: calls.append(p) or real(p))
    g = load_fixture("chase")           # region: y in [-1, 3] x [-1, 2], z in [-1, 3]
    p, ctx = g.preference_maps[0], g.distance_context(0, 0.05)
    zs = np.array([[0.25], [2.5]])
    first = graph_distance_many(p, ctx, [2.5, 0.5], zs)
    for _ in range(3):
        assert graph_distance_many(p, ctx, [2.5, 0.5], zs).tobytes() == first.tobytes()
    assert calls == [p, p]
    # a value inside one column's bounds but past its own column's
    for y, z in (([0.5, 2.5], zs), ([0.5, -1.5], zs), ([0.5, 0.5], [[3.5]]),
                 ([0.5, 0.5], [[np.nan], [-1.5]])):
        with pytest.raises(InputError, match="outside the context region"):
            graph_distance_many(p, ctx, y, z)
    # NaN is no region violation by itself, as for the per-entry comparisons
    graph_distance_many(p, ctx, [0.5, 0.5], [[np.nan], [0.5]])
    # disk: y in [-2, 2]^2 x [-1, 2] and z in [-2, 2] x [-1.5, 1.5], so the
    # columns' lower bounds differ too
    g = load_fixture("disk")
    p, ctx = g.preference_maps[0], g.distance_context(0, 0.05)
    graph_distance_many(p, ctx, [0.0, 0.0, -0.5], [[-1.8, -1.2]])
    for y, z in (([0.0, 0.0, -1.5], [[0.0, 0.0]]), ([0.0, 0.0, 0.5], [[0.0, -1.8]])):
        with pytest.raises(InputError, match="outside the context region"):
            graph_distance_many(p, ctx, y, z)


def test_graph_distance_many_matches_scalar():
    g = load_fixture("selfmap")
    p = g.preference_maps[0]
    ctx = g.distance_context(0, 0.02)
    y = np.array([0.3, 0.6])
    zs = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
    batch = graph_distance_many(p, ctx, y, zs)
    for z, val in zip(zs, batch):
        assert abs(graph_distance(p, ctx, y, z) - val) < 1e-12


def test_paired_graph_distance_rows_are_the_one_row_calls():
    rng = np.random.default_rng(23)
    for name in ("selfmap", "spin", "chase", "corner", "disk"):
        g = load_fixture(name)
        lo, hi = g.x_bbox._np
        for i in range(g.player_count):
            p, sl = g.preference_maps[i], g.own_slice(i)
            ctx = g.distance_context(i, 0.05)
            ys = rng.uniform(lo, hi, size=(4, g.n))
            zs = rng.uniform(lo[sl], hi[sl], size=(4, 6, g.dims[i]))
            paired = graph_distance_many(p, ctx, ys, zs)
            assert paired.shape == (4, 6)
            for r in range(4):
                one = graph_distance_many(p, ctx, ys[r], zs[r])
                assert paired[r].tobytes() == one.tobytes()
                # a (1, n) joint row with flat candidates is the one-row call
                assert graph_distance_many(p, ctx, ys[r:r + 1], zs[r]).tobytes() == one.tobytes()
            with pytest.raises(InputError, match="paired graph-distance rows"):
                graph_distance_many(p, ctx, ys[:3], zs)
            with pytest.raises(InputError, match="paired graph-distance rows"):
                graph_distance_many(p, ctx, ys[0], zs[:1])


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


def test_sample_preferred_matches_scalar():
    g = load_fixture("chase")
    p = g.preference_maps[0]
    x = np.array([0.3, 0.8])
    region = Box((-0.5,), (1.5,))
    zs = probe_points(region, 21, np.random.default_rng(4))
    kept = sample_preferred(p, x, region, 21, rng=np.random.default_rng(4))
    assert np.array_equal(kept, [z for z in zs if preferred(p, x, z)])
    assert 0 < kept.shape[0] < zs.shape[0]


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


# -- complement cloud ----------------------------------------------------------------

def gain_polynomial(p):
    """The strict gain as one polynomial over the ``(x, z)`` variables,
    ``u(x_-i, z) - u(x) - margin`` or ``<c(x), z - x_i> - offset``,
    expanded term by term: an independent reference for the factorized
    kernel, which never builds it."""
    n, k, s = p.n_vars, p.own_dim, p.own_start

    def widen(poly, own_to_z):
        # the same polynomial over n + k variables, its own block moved to z
        out = Polynomial.constant(0.0, n + k)
        for e, c in poly.terms:
            term = Polynomial.constant(c, n + k)
            for j, power in enumerate(e):
                var = n + j - s if own_to_z and s <= j < s + k else j
                term = term * Polynomial.variable(var, n + k).pow(power)
            out = out + term
        return out

    if isinstance(p, UtilityInduced):
        return (widen(p.utility, True) - widen(p.utility, False)
                - Polynomial.constant(p.margin, n + k))
    total = Polynomial.constant(-p.offset, n + k)
    for j, row in enumerate(p.c.to_polynomials()):
        step = Polynomial.variable(n + j, n + k) - Polynomial.variable(s + j, n + k)
        total = total + widen(row, False) * step
    return total


def _reads(poly, j) -> bool:
    return any(e[j] for e, _ in poly.terms)


def _x_rows(p, active, parts):
    """Joint rows over the grid's x axes ``parts`` (one per active joint
    coordinate, in order); coordinates off the grid stay 0."""
    rows = np.zeros((math.prod(map(len, parts)), p.n_vars))
    rows[:, active[:len(parts)]] = mesh_points(parts)
    return rows


def _outer_mask(p, active, axes, start, stop):
    """Complement on the grid's first-axis values ``start:stop`` by the one
    rule, on the cross product of the x grid and the own grid."""
    nx = len(axes) - p.own_dim
    xs = _x_rows(p, active, [axes[0][start:stop]] + axes[1:nx])
    gains = strict_gain_outer(p, xs, mesh_points(axes[nx:]))
    return ~strictly_preferred(gains).reshape((stop - start,) + tuple(map(len, axes[1:])))


def _boundary_points_by_rows(p, active, axes, shape):
    """The complement boundary with each slab's grid filled into full
    ``(x, z)`` rows, each row's gain paired with its own ``z`` under the one
    rule, and neighbours found by ``np.roll``."""
    d, n = len(axes), p.n_vars
    rest_axes = axes[1:]
    rest_flat = np.stack([m.reshape(-1) for m in np.meshgrid(*rest_axes, indexing="ij")], axis=1)
    full = np.zeros((rest_flat.shape[0], n + p.own_dim))

    def slab_mask(i):
        full[:, :] = 0.0
        full[:, active[0]] = axes[0][i]
        for col, var in enumerate(active[1:]):
            full[:, var] = rest_flat[:, col]
        gains = strict_gain_paired(p, full[:, :n], full[:, None, n:])[:, 0]
        return ~strictly_preferred(gains).reshape(shape[1:])

    boundary = []
    prev_mask, cur_mask = None, slab_mask(0)
    for i in range(shape[0]):
        next_mask = slab_mask(i + 1) if i + 1 < shape[0] else None
        pref_here = ~cur_mask
        neighbor_pref = np.zeros_like(cur_mask)
        for axis in range(cur_mask.ndim):
            shifted = np.roll(pref_here, 1, axis=axis)
            shifted2 = np.roll(pref_here, -1, axis=axis)
            sl = [slice(None)] * cur_mask.ndim
            sl[axis] = 0
            shifted[tuple(sl)] = False
            sl[axis] = -1
            shifted2[tuple(sl)] = False
            neighbor_pref |= shifted | shifted2
        if prev_mask is not None:
            neighbor_pref |= ~prev_mask
        if next_mask is not None:
            neighbor_pref |= ~next_mask
        idx = np.argwhere(cur_mask & neighbor_pref)
        coords = np.empty((idx.shape[0], d))
        coords[:, 0] = axes[0][i]
        for col in range(1, d):
            coords[:, col] = axes[col][idx[:, col - 1]]
        boundary.append(coords)
        prev_mask, cur_mask = cur_mask, next_mask
    return np.vstack(boundary)


def _cloud_axes(cloud, ctx):
    lo, hi = ctx.region._np
    axes = [grid_axis(lo[j], hi[j], ctx.h_g) for j in cloud.active]
    return cloud.active.tolist(), axes, tuple(ax.shape[0] for ax in axes)


def _check_cloud_against_rows(p, ctx, max_cells=math.inf) -> int:
    """Points of the cloud, which must equal the row scan's bit for bit;
    0 when the cloud is refused (too large, or no complement boundary) or
    its grid has more than ``max_cells`` cells."""
    try:
        cloud = _ComplementCloud(p, ctx).build_region()
    except InputError:
        return 0
    active, axes, shape = _cloud_axes(cloud, ctx)
    if math.prod(shape) > max_cells:
        return 0
    want = _boundary_points_by_rows(p, active, axes, shape)
    assert cloud.points.shape == want.shape
    assert np.array_equal(cloud.points.view(np.uint64), want.view(np.uint64))
    return cloud.points.shape[0]


def test_complement_cloud_matches_the_row_scan_on_fixtures():
    built = 0
    for name in ("expand", "selfmap", "spin", "chase", "corner", "offside", "vacuous", "disk"):
        game = load_fixture(name)
        for h_g in (0.05, 0.02):
            for i in range(game.player_count):
                built += _check_cloud_against_rows(game.preference_maps[i],
                                                   game.distance_context(i, h_g)) > 0
    assert built >= 25


@st.composite
def cloud_preferences(draw):
    """Utilities of degree <= 3 with own dimension 1-2 and two rival
    coordinates, one of which no term reads; generic coefficients."""
    own_dim = draw(st.integers(1, 2))
    n = own_dim + 2
    own_start = draw(st.integers(0, 2))
    rivals = [j for j in range(n) if not own_start <= j < own_start + own_dim]
    used = [j for j in range(n) if j != rivals[draw(st.integers(0, 1))]]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    utility = Polynomial.variable(own_start, n).scale(float(rng.uniform(0.5, 2)))
    for _ in range(draw(st.integers(1, 5))):
        term = Polynomial.constant(float(rng.uniform(-2, 2)), n)
        for j in draw(st.lists(st.sampled_from(used), max_size=3)):
            term = term * Polynomial.variable(j, n)
        utility = utility + term
    return UtilityInduced(player_index=0, n_vars=n, own_start=own_start, own_dim=own_dim,
                          utility=utility)


@given(cloud_preferences())
def test_complement_cloud_matches_the_row_scan_on_random_utilities(p):
    joint = Box((0.0,) * p.n_vars, (1.0,) * p.n_vars)
    ctx = context_for(joint, Box((0.0,) * p.own_dim, (1.0,) * p.own_dim), h_g=0.25)
    _check_cloud_against_rows(p, ctx)


def _boundary_points_by_slabs(p, active, axes, shape):
    """The complement boundary one first-axis slab at a time, each slab's
    mask kept for its neighbours' test: the scan the block-wise cloud
    replaced."""
    d = len(axes)

    def slab_mask(i):
        return _outer_mask(p, active, axes, i, i + 1)[0]

    boundary = [np.zeros((0, d))]
    prev_mask, cur_mask = None, slab_mask(0)
    for i in range(shape[0]):
        next_mask = slab_mask(i + 1) if i + 1 < shape[0] else None
        pref = ~cur_mask
        near = np.zeros_like(pref)
        for axis in range(pref.ndim):
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            near[hi] |= pref[lo]
            near[lo] |= pref[hi]
        for other in (prev_mask, next_mask):
            if other is not None:
                near |= ~other
        idx = np.argwhere(cur_mask & near)
        coords = np.empty((idx.shape[0], d))
        coords[:, 0] = axes[0][i]
        for col in range(1, d):
            coords[:, col] = axes[col][idx[:, col - 1]]
        boundary.append(coords)
        prev_mask, cur_mask = cur_mask, next_mask
    return np.vstack(boundary)


def _check_cloud_against_slabs(p, ctx) -> int:
    try:
        cloud = _ComplementCloud(p, ctx).build_region()
    except InputError:
        return 0
    want = _boundary_points_by_slabs(p, *_cloud_axes(cloud, ctx))
    assert cloud.points.tobytes() == want.tobytes()
    return cloud.points.shape[0]


@pytest.mark.parametrize("block, steps, clouds", [(prefs_mod._CLOUD_BLOCK, (0.013, 0.02, 0.05), 43),
                                                   (997, (0.05,), 15), (1, (0.05,), 15)])
def test_block_wise_cloud_matches_the_slab_scan(monkeypatch, block, steps, clouds):
    # small blocks split the first axis into many blocks of one or more slabs
    monkeypatch.setattr(prefs_mod, "_CLOUD_BLOCK", block)
    built = 0
    for name in FIXTURE_NAMES:
        game = load_fixture(name)
        for h_g in steps:
            for i, p in enumerate(game.preference_maps):
                if not isinstance(p, Sampled):
                    built += _check_cloud_against_slabs(p, game.distance_context(i, h_g)) > 0
    assert built >= clouds


def _long_axis_preferences():
    """Preferences on two joint coordinates whose rival factors skip the
    first active axis, read it, and share an own coordinate with the base."""
    util = lambda text, own: UtilityInduced(player_index=own, n_vars=2, own_start=own,
                                            own_dim=1, utility=parse_polynomial_text(text, 2))
    field = DirectionField(player_index=0, n_vars=2, own_start=0, own_dim=1,
                           c=AffineMap(((1.0, -1.0),), (0.25,)))
    return [util("-(x1 - x2)^2", 0), util("-(x2 - x1)^2 + x1*x2^3", 1), field]


@pytest.mark.parametrize("block", [prefs_mod._CLOUD_BLOCK, 997, 1])
@pytest.mark.parametrize("case", range(3))
def test_cloud_base_chunks_on_a_long_first_axis(monkeypatch, block, case):
    # a joint box much wider than the own box: the first axis outruns the
    # own grid, so the base is evaluated in several chunks
    monkeypatch.setattr(prefs_mod, "_CLOUD_BLOCK", block)
    p = _long_axis_preferences()[case]
    ctx = context_for(Box((0.0, 0.0), (6.0, 6.0)), Box((0.0,), (0.5,)), h_g=0.1)
    cloud = _ComplementCloud(p, ctx).build_region()
    active, axes, shape = _cloud_axes(cloud, ctx)
    assert shape[0] > math.prod(shape[2:]) and len(active) == 3
    assert cloud.points.tobytes() == _boundary_points_by_slabs(p, active, axes, shape).tobytes()


def _boundary_points_argwhere(p, active, axes, shape):
    """The block-wise complement boundary with its indices from N-D
    ``np.argwhere``: the cloud's scan before it took flat indices."""
    d = len(axes)
    per = max(1, prefs_mod._CLOUD_BLOCK // math.prod(shape[1:]))

    def masks(start, stop):
        return _outer_mask(p, active, axes, start, stop)

    boundary = []
    first, block = 0, masks(0, min(shape[0], per + 1))
    for start in range(0, shape[0], per):
        stop = min(shape[0], start + per)
        pref, near = ~block, np.zeros_like(block)
        for axis in range(block.ndim):
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            near[hi] |= pref[lo]
            near[lo] |= pref[hi]
        idx = np.argwhere((block & near)[start - first:stop - first])
        coords = np.empty((idx.shape[0], d))
        coords[:, 0] = axes[0][start + idx[:, 0]]
        for col in range(1, d):
            coords[:, col] = axes[col][idx[:, col]]
        boundary.append(coords)
        if stop < shape[0]:
            block = np.concatenate([block[stop - 1 - first:],
                                    masks(stop + 1, min(shape[0], stop + per + 1))])
            first = stop - 1
    return np.vstack(boundary)


@pytest.mark.parametrize("block", [prefs_mod._CLOUD_BLOCK, 997])
def test_cloud_points_match_the_argwhere_scan(monkeypatch, block):
    # every fixture's clouds, chase's full grid at the benchmark's step among them
    monkeypatch.setattr(prefs_mod, "_CLOUD_BLOCK", block)
    built = 0
    for name in FIXTURE_NAMES:
        game = load_fixture(name)
        for h_g in (0.05, 0.02):
            for i, p in enumerate(game.preference_maps):
                if isinstance(p, Sampled):
                    continue
                ctx = game.distance_context(i, h_g)
                try:
                    cloud = _ComplementCloud(p, ctx).build_region()
                except InputError:
                    continue
                want = _boundary_points_argwhere(p, *_cloud_axes(cloud, ctx))
                assert cloud.points.tobytes() == want.tobytes()
                built += 1
    assert built >= 25


@pytest.mark.parametrize("n, text", [(1, "-1000000*x1^2 + 600000*x1"),
                                     (2, "-1000000*x1^2 + 600000*x1*x2")])
def test_no_cloud_point_is_preferred_at_scaled_coefficients(n, text):
    # large coefficients round the expanded (x, z) polynomial and the
    # factorized gain differently; the cloud holds complement points only
    # as the one rule decides them, so none of its points is preferred
    p = UtilityInduced(player_index=0, n_vars=n, own_start=0, own_dim=1,
                       utility=parse_polynomial_text(text, n))
    ctx = context_for(Box((0.0,) * n, (1.0,) * n), Box((0.0,), (1.0,)), h_g=0.02)
    cloud = _ComplementCloud(p, ctx).build_region()
    assert cloud.active.tolist() == list(range(n + 1))
    xs, xi = np.unique(cloud.points[:, :n], axis=0, return_inverse=True)
    zs, zi = np.unique(cloud.points[:, n:], axis=0, return_inverse=True)
    gains = strict_gain_outer(p, xs, zs)[xi.reshape(-1), zi.reshape(-1)]
    assert cloud.points.shape[0] > 300
    assert not np.any(strictly_preferred(gains))


@pytest.mark.parametrize("h_g", [0.0, -0.1, math.inf, math.nan])
def test_distance_context_rejects_steps_that_are_not_positive_and_finite(h_g):
    with pytest.raises(InputError, match="distance grid step must be positive and finite"):
        context_for(Box((0.0,), (1.0,)), Box((0.0,), (1.0,)), h_g)


# -- self-exclusion of the gain kernel ------------------------------------------

@st.composite
def gain_preferences(draw):
    """Utilities of degree <= 4 and zero-offset affine direction fields with
    own dimension 1-3 and up to two rival coordinates; a field may have
    rows of zeros (offset included) and columns of zeros.  Structure comes
    from hypothesis, coefficients from a drawn seed, so they are generic
    floats whose sums round."""
    own_dim, rivals = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n = own_dim + rivals
    own_start = draw(st.integers(0, rivals))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = dict(player_index=0, n_vars=n, own_start=own_start, own_dim=own_dim)
    if draw(st.booleans()):
        zero_rows = draw(st.lists(st.booleans(), min_size=own_dim, max_size=own_dim))
        zero_cols = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        a = rng.uniform(-2, 2, (own_dim, n))
        b = rng.uniform(-2, 2, own_dim)
        a[:, zero_cols], a[zero_rows], b[zero_rows] = 0.0, 0.0, 0.0
        c = AffineMap(tuple(map(tuple, a.tolist())), tuple(b.tolist()))
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
    gain = gain_polynomial(p)
    expected = np.array([[gain.eval(np.concatenate([x, z])) for z in zs] for x in xs])
    assert np.allclose(gains, expected, rtol=1e-9, atol=1e-9)


@given(gain_preferences())
def test_gain_axes_are_the_gain_polynomial_variables(p):
    # the cloud's active joint axes come from the factorized terms; they are
    # the variables the expanded gain reads, and the rival factors' axes are
    # those its terms with an own variable read (a zero row of a field's
    # ``c`` drops its own coordinate from both)
    n, gain = p.n_vars, gain_polynomial(p)
    rival, own = p._gain_axes
    assert sorted(set(rival) | set(own)) == [j for j in range(n) if _reads(gain, j)]
    assert rival == sorted({j for e, _ in gain.terms if any(e[n:]) for j in range(n) if e[j]})


@given(gain_preferences())
def test_complement_cloud_matches_the_row_scan_on_gain_preferences(p):
    joint = Box((0.0,) * p.n_vars, (1.0,) * p.n_vars)
    ctx = context_for(joint, Box((0.0,) * p.own_dim, (1.0,) * p.own_dim), h_g=0.25)
    _check_cloud_against_rows(p, ctx, max_cells=200_000)


def test_sampled_gain_table_batched():
    p = make_sampled()
    xs = np.array([[0.5, 0.0], [0.0, 0.0]])
    zs = np.array([[1.0], [0.0], [0.5]])
    assert strict_gain_outer(p, xs, zs).tolist() == [[1.0, -1.0, -1.0], [1.0, -1.0, 1.0]]
    with pytest.raises(InputError, match="z-point"):
        strict_gain_outer(p, xs, np.array([[0.5], [0.7]]))
    with pytest.raises(InputError, match="at-point"):
        strict_gain_outer(p, np.array([[0.0, 0.0], [0.3, 0.0]]), zs)


# -- grouped strict-gain maximum ---------------------------------------------------

def _masked_max(p, xs, zs, mask):
    """Independent reference: the maximum over every masked pair."""
    return np.max(np.where(mask, strict_gain_outer(p, xs, zs), -np.inf), axis=1)


def _with_margin(p, margin):
    if isinstance(p, DirectionField):
        return dataclasses.replace(p, offset=margin)
    return dataclasses.replace(p, margin=margin)


@st.composite
def grouped_gain_cases(draw):
    """A preference with rows and candidates for the grouped maximum.

    Rows sit on a half-unit lattice, so rival factors repeat; some rows are
    one ulp away from another and must stay in their own group.  Candidates
    include the rows' own strategies (exact zero gain before the margin).
    A key in {0, 1, 2} splits the groups further, and each key admits its
    own candidate subset, none at all for key 0."""
    if draw(st.integers(0, 4)) == 0:    # no own terms: L has zero columns
        p = load_fixture("vacuous").preference_maps[1]
    else:
        p = _with_margin(draw(gain_preferences()),
                         draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0 / 3.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    own = slice(p.own_start, p.own_start + p.own_dim)
    xs = rng.integers(-3, 4, (24, p.n_vars)) * 0.5
    xs[18:] = np.nextafter(xs[:6], np.inf)
    zs = np.vstack([rng.integers(-3, 4, (10, p.own_dim)) * 0.5, xs[:6, own],
                    rng.uniform(-2, 2, (4, p.own_dim))])
    keys = rng.integers(0, 3, (xs.shape[0], 1)).astype(np.float64)
    admitted = rng.random((3, zs.shape[0])) < 0.6
    admitted[0] = False
    return p, xs, zs, keys, admitted


@given(grouped_gain_cases())
def test_grouped_gain_maximum_is_the_masked_pairwise_maximum(case):
    p, xs, zs, keys, admitted = case
    by_key = lambda rows: admitted[keys[rows, 0].astype(int)]
    everything = np.ones((xs.shape[0], zs.shape[0]), dtype=bool)
    assert np.array_equal(strict_gain_max(p, xs, zs), _masked_max(p, xs, zs, everything))
    best = strict_gain_max(p, xs, zs, keys, by_key)
    assert np.array_equal(best, _masked_max(p, xs, zs, by_key(np.arange(xs.shape[0]))))
    assert np.all(best[keys[:, 0] == 0] == -np.inf)
    reps, group, base, margin, lift = gain_groups(p, xs, zs)
    assert np.array_equal((lift(reps)[group] - base[:, None]) - margin,
                          strict_gain_outer(p, xs, zs))


@given(st.integers(0, 2**32 - 1))
def test_grouped_gain_maximum_on_a_table(seed):
    # the at-point index is the rival factor: repeated at-points share a group
    p = make_sampled()
    rng = np.random.default_rng(seed)
    xs = p._at[rng.integers(0, 2, 9)]
    zs = p._z[rng.integers(0, 3, 5)]
    mask = rng.random((xs.shape[0], zs.shape[0])) < 0.5
    assert np.array_equal(strict_gain_max(p, xs, zs, mask.astype(np.float64),
                                          lambda rows: mask[rows]),
                          _masked_max(p, xs, zs, mask))


def _prefilter_cases(name, h=0.1):
    """Per player of a fixture: its preference, the hull-lattice rows, the
    prefilter's lattice pool, the constraint keys and their pool mask."""
    game = load_fixture(name)
    lo, hi = game.hull_box._np
    ys = mesh_points([lattice_axis(lo[j], hi[j], h) for j in range(game.n)])
    xs = game.project_choice_many(ys)
    for i in range(game.player_count):
        lo_q, hi_q = game.hull_boxes[i]._np
        pool = mesh_points([lattice_axis(lo_q[j], hi_q[j], h) for j in range(game.dims[i])])
        cmap, keys = game.constraint_maps[i], game.constraint_maps[i].value_key(xs)
        yield (game, i, ys, pool, keys,
               lambda reps, cmap=cmap, keys=keys, pool=pool: cmap.contains_key(keys[reps], pool))


@pytest.mark.parametrize("name", ["disk", "chase", "expand", "spin"])
def test_hash_collisions_fall_back_to_the_row_sort(name, monkeypatch):
    # every row hashed to one key: the grouping must notice and sort the rows
    cfg = SolverConfig(h=0.1, random_budget=64)
    most = 0
    for game, i, ys, pool, keys, allowed in _prefilter_cases(name):
        p = game.preference_maps[i]
        hashed = gain_groups(p, ys, pool, keys)[:2]
        best = strict_gain_max(p, ys, pool, keys, allowed)
        dirs = normal_directions_batch(game, i, ys, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(prefs_mod, "_mix_rows",
                          lambda bits: np.zeros(bits.shape[0], dtype=np.uint64))
            collided = gain_groups(p, ys, pool, keys)[:2]
            best_c = strict_gain_max(p, ys, pool, keys, allowed)
            dirs_c = normal_directions_batch(game, i, ys, cfg)
        bits = np.hstack([_gain_factors(p, ys, pool)[0], keys]).view(np.uint64)
        _, reps, group = np.unique(bits, axis=0, return_index=True, return_inverse=True)
        most = max(most, reps.size)
        # representatives are first rows either way, so each row's
        # representative names its group
        for got_reps, got_group in (hashed, collided):
            assert set(got_reps.tolist()) == set(reps.tolist())
            assert np.array_equal(got_reps[got_group], reps[group.reshape(-1)])
        assert best.tobytes() == best_c.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(dirs, dirs_c))
    assert most > 1


# -- one-dimensional hulls ------------------------------------------------------

def _lp_in_hull(points, target, tol=1e-9):
    # the HiGHS feasibility LP of the general path, its weights clipped at 0
    # and renormalised before the distance check
    from scipy.optimize import linprog
    res = linprog(c=np.zeros(points.shape[0]),
                  A_eq=np.vstack([points.T, np.ones(points.shape[0])]),
                  b_eq=np.concatenate([target, [1.0]]), bounds=(0, None), method="highs")
    if res.status != 0:
        return False
    weights = np.clip(res.x, 0.0, None)
    return float(np.max(np.abs(points.T @ (weights / weights.sum()) - target))) <= tol


def test_one_dimensional_hull_is_the_interval_the_lp_finds():
    # the LP agrees at the endpoints, inside and 1e-6 outside.  Within a
    # few tol of an endpoint its answer follows HiGHS's own tolerances (it
    # accepts most points 2 tol outside, admitting weights a little below
    # 0, and rejects some single points tol/2 outside), so there the
    # interval is held to the definition: within tol of the hull
    rng = np.random.default_rng(0)
    tol = 1e-9
    for _ in range(60):
        points = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 6)), 1))
        lo, hi = float(points.min()), float(points.max())
        targets = [lo, hi, lo - 1e-6, hi + 1e-6, float(rng.uniform(lo, hi)),
                   float(rng.uniform(-3.0, 3.0))]
        for t in targets:
            target = np.array([t])
            assert _in_convex_hull(points, target, tol) == _lp_in_hull(points, target, tol), \
                (points.ravel().tolist(), t)
        for t, inside in ((lo - tol / 2, True), (hi + tol / 2, True),
                          (lo - 2 * tol, False), (hi + 2 * tol, False)):
            assert _in_convex_hull(points, np.array([t]), tol) == inside


def test_a_target_outside_the_bounding_box_runs_no_lp(monkeypatch):
    # every convex combination lies in the points' bounding box, so a
    # target more than tol outside it is decided before any LP
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")
    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5]])
    for target in ([1.0 + 2e-9, 0.5, 0.0], [0.2, -1e-8, 0.1], [0.3, 0.3, 5.0]):
        assert not _in_convex_hull(points, np.array(target), 1e-9)
    with pytest.raises(AssertionError, match="linprog called"):
        _in_convex_hull(points, np.array([0.2, 0.2, 0.1]), 1e-9)


def test_two_dimensional_hull_answers_are_held_to_tol():
    # HiGHS meets its constraints only to about 1e-7, so its weights can
    # reach a target just past the hull; the returned weights are verified
    rng = np.random.default_rng(0)
    tol = 1e-9
    outside = accepted = 0
    for _ in range(300):
        points = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 9)), 2))
        weights = rng.dirichlet(np.ones(points.shape[0]))
        assert _in_convex_hull(points, points.T @ weights, tol)
        # past the max-x vertex by push: at least push from every hull point
        push = float(np.exp(rng.uniform(np.log(1e-9), np.log(3e-7))))
        target = points[np.argmax(points[:, 0])] + np.array([push, 0.0])
        if push > 2 * tol:
            outside += 1
            accepted += _in_convex_hull(points, target, tol)
    assert outside > 200
    assert accepted == 0


def test_loading_a_table_leaves_the_lp_solver_unimported():
    # scipy.optimize is a slow import; a table's one-dimensional hulls need
    # no LP, so parsing the table fixture must not load it
    code = ("import sys; from projnash.cli import parse_problem; "
            "from projnash.fixtures import fixture_text; parse_problem(fixture_text('table')); "
            "print('scipy.optimize' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_paired_gains_are_the_outer_gains_entry_by_entry():
    # each row against its own candidates: the entries strict_gain_outer
    # gives on that row's diagonal, bit for bit
    rng = np.random.default_rng(2)
    p = UtilityInduced(player_index=1, n_vars=3, own_start=1, own_dim=2,
                       utility=parse_polynomial_text("x1*x2^2 - 0.3*x2*x3 + x1^2*x3 - x3^3", 3))
    xs = rng.uniform(-1.0, 1.0, size=(7, 3))
    zs = rng.uniform(-1.0, 1.0, size=(7, 5, 2))
    paired = strict_gain_paired(p, xs, zs)
    for r in range(7):
        assert np.array_equal(paired[r], strict_gain_outer(p, xs[r:r + 1], zs[r])[0])



@st.composite
def wide_utilities(draw):
    """Utilities over 8-12 joint coordinates whose own-reading terms have
    rival factors on scattered columns, so the columns between the first
    and last one read carry exponent 0 in some or all terms."""
    n = draw(st.integers(8, 12))
    own_dim = draw(st.integers(1, 2))
    own_start = draw(st.integers(0, n - own_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    utility = Polynomial.constant(0.0, n)
    for _ in range(draw(st.integers(1, 6))):
        term = Polynomial.constant(float(rng.uniform(-3, 3)), n)
        own = own_start + draw(st.integers(0, own_dim - 1))
        for j in [own] + draw(st.lists(st.integers(0, n - 1), max_size=5)):
            term = term * Polynomial.variable(j, n)
        utility = utility + term
    return UtilityInduced(player_index=0, n_vars=n, own_start=own_start, own_dim=own_dim,
                          utility=utility)


@given(wide_utilities(), st.integers(0, 2**32 - 1))
def test_rival_factors_are_the_full_column_product(p, seed):
    # the factors raise only the span of columns they read; on negative
    # bases, zeros and exponent-0 columns they are bitwise the product of
    # every column raised to its rival exponent, as the factors were built
    n, own = p.n_vars, slice(p.own_start, p.own_start + p.own_dim)
    terms = sorted((e[own], e, c) for e, c in p.utility.terms if any(e[own]))
    rival = np.array([e for _, e, _ in terms], dtype=np.int64).reshape(-1, n)
    rival[:, own] = 0
    starts = [r for r in range(len(terms)) if r == 0 or terms[r][0] != terms[r - 1][0]]
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.0, 2.0, (60, n))
    xs[rng.random(xs.shape) < 0.1] = 0.0
    want = np.add.reduceat(np.prod(xs[:, None, :] ** rival, axis=2)
                           * np.array([c for _, _, c in terms]), starts, axis=1)
    got, exps, _ = p._gain_terms(xs)
    assert got.tobytes() == want.tobytes()
    assert exps == tuple(terms[r][0] for r in starts)
    assert p._gain_axes[0] == np.flatnonzero(rival.any(axis=0)).tolist()

# -- one rule at ties ----------------------------------------------------------------

#: most (y, z) pairs one player's tie search evaluates
_TIE_PAIRS = 500_000


def _tie_pairs(p, ctx, h_g, per_player=6):
    """Pairs of the complement cloud's grid whose computed strict gain lies
    in ``(0, GAIN_GUARD]``, exact ties that rounding leaves a few ulps above
    0: up to ``per_player`` of them, strided, as ``(y, z, neighbours)``
    with the pair's neighbours along every grid axis.  Joint coordinates the
    gain never reads stay at their axis midpoint."""
    lo, hi = ctx.region._np
    n = p.n_vars
    axes = [grid_axis(lo[j], hi[j], h_g) for j in range(n + p.own_dim)]
    gain = gain_polynomial(p)
    read = [j >= n or _reads(gain, j) for j in range(n + p.own_dim)]
    picks = [np.arange(len(ax)) if r else np.array([len(ax) // 2]) for ax, r in zip(axes, read)]
    ys = mesh_points([axes[j][picks[j]] for j in range(n)])
    zs = mesh_points(axes[n:])
    if ys.shape[0] * zs.shape[0] > _TIE_PAIRS:
        return []
    gains = strict_gain_outer(p, ys, zs)
    rows, cols = np.nonzero((gains > 0.0) & (gains <= GAIN_GUARD))
    out = []
    for k in np.linspace(0, rows.size - 1, min(per_player, rows.size)).astype(int):
        pair = np.concatenate([ys[rows[k]], zs[cols[k]]])
        index = [int(np.flatnonzero(ax == v)[0]) for ax, v in zip(axes, pair)]
        neighbours = []
        for j in (j for j in range(n + p.own_dim) if read[j]):
            for step in (-1, 1):
                if 0 <= index[j] + step < len(axes[j]):
                    near = pair.copy()
                    near[j] = axes[j][index[j] + step]
                    neighbours.append(near)
        out.append((pair[:n], pair[n:], np.array(neighbours)))
    return out


@pytest.mark.parametrize("name", ["chase", "selfmap", "disk"])
def test_every_site_gives_one_answer_at_ties(name, monkeypatch):
    # a pair whose computed gain is in (0, GAIN_GUARD] is not preferred:
    # not by the membership test, not by the graph distance, not by the
    # complement cloud (which keeps it as a boundary point next to a
    # preferred neighbour) and not by a certificate that scans only it
    from projnash import game as game_mod
    real_grid = game_mod.set_grid
    game = load_fixture(name)
    h_g = 0.05
    cfg = SolverConfig(h=h_g, random_budget=0)
    ties = on_boundary = 0
    for i, p in enumerate(game.preference_maps):
        ctx = game.distance_context(i, h_g)
        cloud = _ComplementCloud(p, ctx).build_region()
        points = {row.tobytes() for row in cloud.points}
        for y, z, neighbours in _tie_pairs(p, ctx, h_g):
            ties += 1
            assert not preferred(p, y, z)
            assert graph_distance(p, ctx, y, z) == 0.0
            near = strict_gain_outer(p, neighbours[:, :p.n_vars], neighbours[:, p.n_vars:])
            if np.any(np.diag(near) > 1e-9):
                on_boundary += 1
                assert np.concatenate([y, z])[cloud.active].tobytes() in points
            # every scan of player i's dimension is that one point
            monkeypatch.setattr(game_mod, "set_grid", lambda k_set, h: (
                (z[None, :], h) if k_set.dim == z.size else real_grid(k_set, h)))
            fresh = dataclasses.replace(game, _caches={})
            check = check_nep(fresh, fresh.project_choice(y), y, cfg)[i]
            assert check.points_scanned == 1 and check.witness is None
            monkeypatch.undo()
    assert ties > 0 and on_boundary > 0


@pytest.mark.parametrize("utility, margin", [("0", 0.0), ("x1", 100.0)])
def test_a_cloud_of_a_preference_that_prefers_nothing_says_so(utility, margin):
    # utility 0 reads no x axis; x1 with a margin wider than the region
    # reads one but prefers no grid point.  Neither covers the region.
    p = UtilityInduced(player_index=0, n_vars=1, own_start=0, own_dim=1,
                       utility=parse_polynomial_text(utility, 1), margin=margin)
    ctx = context_for(Box((0.0,), (1.0,)), Box((0.0,), (1.0,)), 0.05)
    with pytest.raises(InputError, match="^preference prefers no point of the distance "
                                         "region at this resolution"):
        _ComplementCloud(p, ctx).build_region()


def test_a_cloud_of_a_preference_that_covers_the_region_says_so():
    # z - x2 with the own box far above the joint one: every grid pair is
    # preferred; the on-demand cloud grows to the region before it raises,
    # and raises again on a later query
    p = UtilityInduced(player_index=1, n_vars=2, own_start=1, own_dim=1,
                       utility=parse_polynomial_text("x2", 2))
    ctx = context_for(Box((0.0, 0.0), (1.0, 1.0)), Box((5.0,), (6.0,)), 0.05)
    message = "^preference covers the whole distance region at this resolution"
    with pytest.raises(InputError, match=message):
        _ComplementCloud(p, ctx).build_region()
    cloud = _ComplementCloud(p, ctx)
    for _ in range(2):
        with pytest.raises(InputError, match=message):
            cloud.min_distance(np.array([[0.5, 0.5, 5.5]]))
    assert cloud.points.shape[0] == 0


# -- the on-demand cloud is the full cloud ---------------------------------------

#: full-region clouds of the fixture players by (fixture, player, h_g), or
#: the message of the error their build raises
_FULL_CLOUDS: dict = {}


def _full_cloud(name, i, h_g):
    key = (name, i, h_g)
    if key not in _FULL_CLOUDS:
        game = load_fixture(name)
        try:
            _FULL_CLOUDS[key] = _ComplementCloud(game.preference_maps[i],
                                                 game.distance_context(i, h_g)).build_region()
        except InputError as exc:
            _FULL_CLOUDS[key] = str(exc)
    return _FULL_CLOUDS[key]


def _query_batches(p, ctx, full, rng, count):
    """``count`` query batches inside the region, each drawn in a box of
    random width about a centre in the middle third of the region (where
    the solvers' queries lie), every other one reduced to the deepest
    preferred points of its box (those farthest from the full cloud), which
    force the cloud to grow; a table answers only at its declared points,
    and its cloud is built whole."""
    lo, hi = ctx.region._np
    for b in range(count):
        centre = rng.uniform(2 * lo + hi, lo + 2 * hi) / 3
        width = rng.uniform(0.0, 0.7) ** 2 * (hi - lo)
        pts = np.clip(rng.uniform(centre - width, centre + width, (400, lo.size)), lo, hi)
        if b % 2 and not isinstance(full, str) and not isinstance(p, Sampled):
            pref = strictly_preferred(strict_gain_paired(p, pts[:, :p.n_vars],
                                                         pts[:, None, p.n_vars:]))[:, 0]
            pts = pts[pref][np.argsort(full.min_distance(pts[pref]))[::-1]]
        yield pts[:int(rng.integers(1, 40))]


@pytest.mark.parametrize("name, i", [(name, i) for name in FIXTURE_NAMES for i in range(2)])
@given(h_g=st.sampled_from([0.05, 0.02, 0.013, 0.01]), seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, 4))
def test_the_on_demand_cloud_is_the_full_cloud(name, i, h_g, seed, count):
    # batches in sequence on one cloud: each distance is the full-region
    # cloud's, bit for bit, and a refused cloud raises the full build's error
    full = _full_cloud(name, i, h_g)
    game = load_fixture(name)
    p, ctx = game.preference_maps[i], game.distance_context(i, h_g)
    try:
        cloud = _ComplementCloud(p, ctx)
    except InputError as exc:
        assert str(exc) == full
        return
    for queries in _query_batches(p, ctx, full, np.random.default_rng(seed), count):
        if isinstance(full, str):
            with pytest.raises(InputError) as info:
                cloud.min_distance(queries)
            assert str(info.value) == full
        else:
            assert cloud.min_distance(queries).tobytes() == full.min_distance(queries).tobytes()
    if not isinstance(full, str):
        assert cloud.points.shape[0] <= full.points.shape[0]

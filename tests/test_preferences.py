import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from projnash import preferences as prefs_mod
from projnash.errors import InputError
from projnash.expressions import AffineMap, Polynomial, parse_polynomial_text
from projnash.fixtures import FIXTURE_NAMES, load_fixture
from projnash.geometry import Box, grid_axis, lattice_axis, mesh_points
from projnash.normal_op import normal_directions_batch
from projnash.preferences import (DirectionField, Sampled, UtilityInduced,
                                  _ComplementCloud, _cloud_for, _gain_factors,
                                  _halfspace_form, _in_convex_hull,
                                  _rival_scalar_form, context_for, graph_distance,
                                  graph_distance_many, hull_preferred,
                                  gain_groups, preferred, preferred_many,
                                  sample_preferred, strict_gain_max,
                                  strict_gain_outer, strict_gain_paired)
from projnash.solvers import SolverConfig

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



def _direction(rows, n, own_dim=1, offset=0.0):
    return DirectionField(player_index=0, n_vars=n, own_start=0, own_dim=own_dim,
                          c=AffineMap.from_polynomials(
                              [parse_polynomial_text(t, n) for t in rows]),
                          offset=offset)


def _utility(text, n, margin=0.0):
    return UtilityInduced(player_index=0, n_vars=n, own_start=0, own_dim=1,
                          utility=parse_polynomial_text(text, n), margin=margin)


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


# -- complement cloud ----------------------------------------------------------------

def _boundary_points_by_rows(gain, active, axes, shape):
    """The complement boundary with each slab's grid filled into full
    ``(x, z)`` rows for ``eval_many`` and neighbours found by ``np.roll``."""
    d = len(axes)
    rest_axes = axes[1:]
    rest_flat = (np.stack([m.reshape(-1) for m in np.meshgrid(*rest_axes, indexing="ij")], axis=1)
                 if rest_axes else np.zeros((1, 0)))
    full = np.zeros((rest_flat.shape[0], gain.n_vars))

    def slab_mask(i):
        full[:, :] = 0.0
        full[:, active[0]] = axes[0][i]
        for col, var in enumerate(active[1:]):
            full[:, var] = rest_flat[:, col]
        return (gain.eval_many(full) <= 0.0).reshape(shape[1:] if d > 1 else (1,))

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


def _check_cloud_against_rows(p, ctx) -> int:
    """Points of the cloud, which must equal the row scan's bit for bit;
    0 when the cloud is refused (too large, or no complement boundary)."""
    try:
        cloud = _ComplementCloud(p, ctx)
    except InputError:
        return 0
    lo, hi = ctx.region._np
    axes = [grid_axis(lo[j], hi[j], ctx.h_g) for j in cloud.active]
    want = _boundary_points_by_rows(p.gain, cloud.active.tolist(), axes,
                                    tuple(ax.shape[0] for ax in axes))
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


def test_complement_cloud_matches_the_row_scan_on_one_active_axis():
    # the gain reads z alone: every slab is a single grid point
    p = SimpleNamespace(n_vars=1, own_dim=1, gain=parse_polynomial_text("x2^2 - 0.25", 2))
    ctx = context_for(Box((0.0,), (1.0,)), Box((0.0,), (1.0,)), h_g=0.05)
    assert _check_cloud_against_rows(p, ctx) == 2
    assert _ComplementCloud(p, ctx).active.tolist() == [1]


def _boundary_points_by_slabs(gain, active, axes, shape):
    """The complement boundary one first-axis slab at a time, each slab's
    mask kept for its neighbours' test: the scan the block-wise cloud
    replaced."""
    d = len(axes)
    slab_shape = shape[1:] if d > 1 else (1,)
    cols = [None] * gain.n_vars
    for c in range(1, d):
        cols[active[c]] = axes[c].reshape([-1 if a == c - 1 else 1 for a in range(d - 1)])

    def slab_mask(i):
        cols[active[0]] = axes[0][i:i + 1]
        return gain.eval_columns(cols, slab_shape) <= 0.0

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
        cloud = _ComplementCloud(p, ctx)
    except InputError:
        return 0
    lo, hi = ctx.region._np
    axes = [grid_axis(lo[j], hi[j], ctx.h_g) for j in cloud.active]
    want = _boundary_points_by_slabs(p.gain, cloud.active.tolist(), axes,
                                     tuple(ax.shape[0] for ax in axes))
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
    one_axis = SimpleNamespace(n_vars=1, own_dim=1, gain=parse_polynomial_text("x2^2 - 0.25", 2))
    ctx = context_for(Box((0.0,), (1.0,)), Box((0.0,), (1.0,)), h_g=0.05)
    assert _check_cloud_against_slabs(one_axis, ctx) == 2


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

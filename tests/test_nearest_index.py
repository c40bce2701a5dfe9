"""The complement clouds' nearest-neighbour index against cKDTree.

The square roots of ``nearest.NearestIndex``'s squared distances must be
the very bits that ``scipy.spatial.cKDTree.query`` returns, so that graph
distances, best responses and reports do not depend on which one answers.
cKDTree is the reference here only; no route imports it.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial import cKDTree

from projnash.fixtures import load_fixture
from projnash.nearest import PAIR_SLAB, NearestIndex
from projnash.preferences import (CLOUD_BUCKET_STEPS, _cloud_for,
                                  graph_distance, preferred)


def reference(points, queries):
    if points.shape[0] == 0:
        return np.full(queries.shape[0], np.inf)
    return cKDTree(points, balanced_tree=False, compact_nodes=False).query(queries)[0]


def assert_same_bits(points, queries, step):
    got = np.sqrt(NearestIndex(points, step).query(queries))
    assert got.tobytes() == reference(points, queries).tobytes()


@st.composite
def point_sets(draw):
    """Points in 1 to 9 coordinates, some repeated, and queries: some
    random, some exactly on points."""
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 400))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    points = rng.uniform(-scale, scale, (n, d))
    if draw(st.booleans()):                         # coarse lattice: ties and repeats
        points = np.round(points / scale, 1) * scale
    if n and draw(st.booleans()):
        points = np.vstack([points, points[rng.integers(0, n, n // 2)]])
    queries = rng.uniform(-2 * scale, 2 * scale, (draw(st.integers(0, 60)), d))
    if n:
        queries = np.vstack([queries, points[rng.integers(0, points.shape[0], 10)]])
    step = scale * draw(st.sampled_from([1e-3, 0.05, 0.4, 3.0]))
    return points, queries, step


@given(point_sets())
def test_random_point_sets_match_cKDTree_bitwise(case):
    assert_same_bits(*case)


def test_slab_limits_keep_results_exact():
    rng = np.random.default_rng(5)
    # 70 000 copies of one point: its bucket is cut into runs of 65 536
    points = np.repeat([[0.0, 0.0], [1.0, 0.5]], [70_000, 10], axis=0)
    assert NearestIndex(points, 0.1).sizes.tolist() == [PAIR_SLAB, 70_000 - PAIR_SLAB, 10]
    assert_same_bits(points, rng.uniform(-1.0, 2.0, (50, 2)), 0.1)
    # 70 000 spread points on a fine grid: the grid is coarsened until
    # there are at most 65 536 buckets
    points = rng.uniform(0.0, 1.0, (70_000, 2))
    index = NearestIndex(points, 1e-4)
    assert index.starts.shape[0] <= PAIR_SLAB and index.step > 1e-4
    queries = rng.uniform(-0.5, 1.5, (400, 2))
    assert np.sqrt(index.query(queries)).tobytes() == reference(points, queries).tobytes()


@pytest.mark.parametrize("name, player", [("chase", 0), ("chase", 1), ("selfmap", 0),
                                          ("disk", 1)])
@given(seed=st.integers(0, 2 ** 32 - 1), h_g=st.sampled_from([0.05, 0.1]))
def test_fixture_clouds_match_cKDTree_bitwise(name, player, seed, h_g):
    game = load_fixture(name)
    p = game.preference_maps[player]
    ctx = game.distance_context(player, h_g)
    cloud = _cloud_for(p, ctx)
    lo, hi = ctx.region._np
    queries = np.random.default_rng(seed).uniform(lo, hi, (200, lo.shape[0]))
    got = cloud.min_distance(queries)
    assert got.tobytes() == reference(cloud.points, queries[:, cloud.active]).tobytes()
    assert cloud._index.step == CLOUD_BUCKET_STEPS * h_g


@given(h_g=st.sampled_from([0.01, 0.1, 0.5, 2.0]))
def test_table_declared_pair_cloud_matches_cKDTree_bitwise(h_g):
    game = load_fixture("table")
    p = game.preference_maps[0]
    ctx = game.distance_context(0, h_g)
    pairs = [(x, z) for x in p._at for z in p._z if preferred(p, x, z)]
    assert pairs
    got = np.array([graph_distance(p, ctx, x, z) for x, z in pairs])
    queries = np.array([np.concatenate([x, z]) for x, z in pairs])
    assert got.tobytes() == reference(_cloud_for(p, ctx).points, queries).tobytes()

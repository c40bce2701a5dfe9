"""Property tests of the batched constraint-map surface.

``linear_max_many``, ``residual_many`` and ``contains_key`` (at
``value_key`` rows) of both map kinds are checked against the
materialized value at each row.  Polytope rows compare raw normals where
the materialized set normalizes them, so points within 1e-9 of a row
boundary are left out of the exact comparisons there.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from projnash.expressions import AffineMap
from projnash.game import MovingBox, MovingPolytope
from projnash.geometry import Box, grid_points, probe_points

N_VARS = 3      # joint dimension; the choice box is [0, 1]^3
OWN = 2         # own-block dimension of every drawn map
ROWS = 4        # scan rows per example


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def _matrix(draw, shape, lo, hi):
    return draw(arrays(np.float64, shape, elements=_floats(lo, hi)))


def _affine(a: np.ndarray, b: np.ndarray) -> AffineMap:
    return AffineMap(tuple(map(tuple, a.tolist())), tuple(b.tolist()))


@st.composite
def moving_boxes(draw):
    """Affine bounds with ``upper - lower = G x + g``, ``G, g >= 0``, so the
    values are nonempty on the choice box."""
    a_lo, b_lo = _matrix(draw, (OWN, N_VARS), -1, 1), _matrix(draw, (OWN,), -1, 1)
    gap_a, gap_b = _matrix(draw, (OWN, N_VARS), 0, 1), _matrix(draw, (OWN,), 0, 1)
    return MovingBox(player_index=0, lower=_affine(a_lo, b_lo),
                     upper=_affine(a_lo + gap_a, b_lo + gap_b))


@st.composite
def moving_polytopes(draw):
    """Moving box rows ``l(x) <= z <= u(x)`` inside the unit hint, plus cuts
    through directions ``(cos t, sin t)`` that keep ``(0.5, 0.5)`` inside."""
    normals, rows, offs = [], [], []
    for j in range(OWN):
        e = [0.0] * OWN
        e[j] = 1.0
        normals += [tuple(e), tuple(-v for v in e)]
        # z_j <= u_j(x) in [0.65, 1] and -z_j <= -l_j(x), l_j(x) in [0, 0.35]
        rows += [-_matrix(draw, (N_VARS,), 0, 0.05), -_matrix(draw, (N_VARS,), 0, 0.05)]
        offs += [1.0 - draw(_floats(0, 0.2)), -draw(_floats(0, 0.2))]
    for t in draw(st.lists(_floats(0, 2 * math.pi), min_size=0, max_size=2)):
        nu = (math.cos(t), math.sin(t))
        normals.append(nu)
        rows.append(_matrix(draw, (N_VARS,), 0, 0.1))
        offs.append(0.5 * (nu[0] + nu[1]) + draw(_floats(0.01, 0.5)))
    return MovingPolytope(player_index=0, normals=tuple(normals),
                          offsets=_affine(np.array(rows), np.array(offs)),
                          bounds_hint=Box((0.0,) * OWN, (1.0,) * OWN))


maps = st.one_of(moving_boxes(), moving_polytopes())
joint_points = arrays(np.float64, (ROWS, N_VARS), elements=_floats(0, 1))
own_points = arrays(np.float64, (ROWS, OWN), elements=_floats(-0.5, 1.5))
weights = arrays(np.float64, (ROWS, OWN), elements=_floats(-2, 2))


def _extreme_points(value) -> np.ndarray:
    if isinstance(value, Box):
        return grid_points(value, [2] * value.dim)
    return value.vertices


def _boundary_margin(value, z: np.ndarray) -> float:
    """Distance of ``z`` to the nearest row boundary (inf for boxes, whose
    two surfaces compare identically)."""
    if isinstance(value, Box):
        return math.inf
    a, b = value._np
    return float(np.min(np.abs(a @ z - b)))


@given(maps, joint_points, weights)
def test_linear_max_bounds_and_is_attained(cmap, xs, ws):
    best, arg = cmap.linear_max_many(xs, ws)
    assert np.array_equal(np.sum(arg * ws, axis=1), best)
    for r in range(ROWS):
        value = cmap.materialize(xs[r])
        assert value.contains(arg[r], tol=1e-7)
        probes = np.vstack([_extreme_points(value),
                            probe_points(value, 64, np.random.default_rng(r))])
        vals = probes @ ws[r]
        assert np.all(vals <= best[r] + 1e-9)
        assert np.max(vals) >= best[r] - 1e-9


@given(maps, joint_points, own_points)
def test_residual_vanishes_exactly_on_members(cmap, xs, ys):
    residual = cmap.residual_many(xs, ys)
    assert np.all(residual >= 0.0)
    for r in range(ROWS):
        value = cmap.materialize(xs[r])
        if _boundary_margin(value, ys[r]) > 1e-9:
            assert (residual[r] == 0.0) == value.contains(ys[r], tol=0.0)


@given(maps, joint_points, arrays(np.float64, (8, OWN), elements=_floats(-0.5, 1.5)))
def test_pool_membership_matches_contains(cmap, xs, pool):
    inside = cmap.contains_key(cmap.value_key(xs), pool)
    assert inside.shape == (ROWS, pool.shape[0])
    for r in range(ROWS):
        value = cmap.materialize(xs[r])
        for s, z in enumerate(pool):
            if _boundary_margin(value, z) > 1e-9:
                assert inside[r, s] == value.contains(z, tol=1e-12)


def test_polytope_linear_max_does_not_depend_on_the_batch():
    # generic normals and offset coefficients: a row's maximum and vertex
    # are bitwise the same in the full batch, in a row subset (as the QVI
    # cascade passes) and alone
    rng = np.random.default_rng(0)
    for _ in range(20):
        angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(3) / 3.0 \
            + rng.uniform(-0.3, 0.3, 3)
        normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        offsets = _affine(rng.uniform(-0.2, 0.2, (3, N_VARS)), rng.uniform(0.5, 1.0, 3))
        cmap = MovingPolytope(player_index=0, normals=tuple(map(tuple, normals.tolist())),
                              offsets=offsets, bounds_hint=Box((-5.0, -5.0), (5.0, 5.0)))
        xs = rng.uniform(0.0, 1.0, (600, N_VARS))
        ws = rng.normal(size=(600, OWN))
        best, arg = cmap.linear_max_many(xs, ws)
        assert np.all(np.isfinite(best))
        sub_best, sub_arg = cmap.linear_max_many(xs[::3], ws[::3])
        assert sub_best.tobytes() == best[::3].tobytes()
        assert sub_arg.tobytes() == arg[::3].tobytes()
        for r in range(0, 600, 7):
            one_best, one_arg = cmap.linear_max_many(xs[r:r + 1], ws[r:r + 1])
            assert one_best.tobytes() == best[r:r + 1].tobytes(), r
            assert one_arg.tobytes() == arg[r:r + 1].tobytes(), r

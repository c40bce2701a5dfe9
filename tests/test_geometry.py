import numpy as np
import pytest

from projnash import geometry
from projnash.errors import InputError, NonConvergenceError
from projnash.geometry import (Ball, Box, ConeSample, HalfspacePolytope,
                               normal_cone_membership, polar_membership,
                               probe_points, project, projection_vi_residual,
                               separate, set_grid, unit_directions)


def random_set(rng, kind, d):
    if kind == 0:
        lo = rng.uniform(-2, 0, d)
        hi = lo + rng.uniform(0.1, 2, d)
        return Box(tuple(lo), tuple(hi))
    if kind == 1:
        return Ball(tuple(rng.uniform(-1, 1, d)), float(rng.uniform(0.1, 2)))
    center = rng.uniform(-1, 1, d)
    rows = []
    for _ in range(int(rng.integers(2, 6))):
        a = rng.normal(size=d)
        a /= np.linalg.norm(a)
        rows.append((tuple(a), float(a @ center + rng.uniform(0.1, 1.5))))
    return HalfspacePolytope(tuple(rows), d)


# -- projection ------------------------------------------------------------

def test_project_box_clamps():
    s = Box((0.0, 0.0), (1.0, 1.0))
    assert np.allclose(project(s, [2.0, 2.0]), [1.0, 1.0])


def test_project_ball_radial():
    s = Ball((0.0, 0.0), 1.0)
    assert np.allclose(project(s, [2.0, 0.0]), [1.0, 0.0])


def test_project_identity_inside():
    for s in (Box((0.0,), (1.0,)), Ball((0.0, 0.0), 1.0)):
        y = np.zeros(s.dim) + 0.3
        assert np.allclose(project(s, y), y)


def test_project_dimension_mismatch():
    with pytest.raises(InputError):
        project(Box((0.0,), (1.0,)), [1.0, 2.0])


def test_polytope_projection_matches_box_oracle():
    # a box written as four half-spaces must project exactly like the clamp
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-2, 0, d)
        hi = lo + rng.uniform(0.2, 2, d)
        rows = []
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            rows.append((tuple(e), float(hi[j])))
            rows.append((tuple(-e), float(-lo[j])))
        poly = HalfspacePolytope(tuple(rows), d)
        box = Box(tuple(lo), tuple(hi))
        y = rng.uniform(-4, 4, d)
        assert np.allclose(project(poly, y), project(box, y), atol=1e-8)


def test_polytope_nonconvergence_carries_iterate(monkeypatch):
    wedge = HalfspacePolytope((((0.0, 1.0), 0.0), ((0.1, -1.0), 0.0)), 2)
    a, b = wedge._np
    monkeypatch.setattr(geometry, "ITER_CAP", 1)
    with pytest.raises(NonConvergenceError) as err:
        geometry._dykstra(a, b, np.array([5.0, 4.0]))
    assert err.value.last_iterate is not None


def test_infeasible_polytope_rejected():
    with pytest.raises(InputError):
        HalfspacePolytope((((1.0,), -1.0), ((-1.0,), -1.0)), 1)


def test_zero_normal_rejected():
    with pytest.raises(InputError):
        HalfspacePolytope((((0.0, 0.0), 1.0),), 2)


def test_empty_box_rejected():
    with pytest.raises(InputError):
        Box((1.0,), (0.0,))


def test_negative_radius_rejected():
    with pytest.raises(InputError):
        Ball((0.0,), -0.1)


# -- projection variational inequality --------------------------------------

def test_vi_residual_at_true_projection():
    s = Box((0.0, 0.0), (1.0, 1.0))
    assert projection_vi_residual(s, [2.0, 2.0], [1.0, 1.0], 500) >= -1e-9


def test_vi_residual_detects_non_projection():
    # independent oracle: min over a dense eta grid of <x - y, eta - x>
    s = Box((0.0,), (1.0,))
    etas = np.linspace(0.0, 1.0, 2001)
    oracle = np.min((etas - 0.5) * (0.5 - 2.0))
    assert abs(oracle - (-0.75)) < 1e-12
    val = projection_vi_residual(s, [2.0], [0.5], 500)
    assert val < 0
    assert abs(val - (-0.75)) < 1e-12  # witness eta = 1 is in the probe grid


def test_vi_residual_zero_when_y_inside():
    s = Box((0.0,), (1.0,))
    assert projection_vi_residual(s, [0.3], [0.3], 100) == 0.0


def test_vi_residual_budget_guard():
    with pytest.raises(InputError):
        projection_vi_residual(Box((0.0,), (1.0,)), [2.0], [1.0], 0)


def test_vi_residual_requires_membership():
    with pytest.raises(InputError):
        projection_vi_residual(Box((0.0,), (1.0,)), [2.0], [1.5], 10)


# -- polar and normal cones --------------------------------------------------

def test_polar_membership_empty_family():
    assert polar_membership([], [1.0, 1.0], 0.0) is True


def test_polar_membership_examples():
    assert polar_membership([(1.0, 0.0)], (-1.0, 0.0), 0.0) is True
    assert polar_membership([(1.0, 0.0)], (1.0, 0.0), 1e-12) is False


def test_polar_membership_positively_homogeneous():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pts = rng.normal(size=(int(rng.integers(1, 6)), 2))
        x_star = rng.normal(size=2)
        base = polar_membership(pts, x_star, 0.0)
        for lam in (0.5, 2.0):
            assert polar_membership(pts, lam * x_star, 0.0) == base


def test_normal_cone_membership_box_corner():
    s = Box((0.0, 0.0), (1.0, 1.0))
    assert normal_cone_membership(s, [1.0, 1.0], [1.0, 1.0], 1e-9, 400) is True


def test_normal_cone_membership_interior_fails():
    s = Box((0.0, 0.0), (1.0, 1.0))
    assert normal_cone_membership(s, [0.5, 0.5], [1.0, 0.0], 1e-9, 400) is False


def test_normal_cone_membership_empty_family():
    assert normal_cone_membership([], [0.0], [5.0], 1e-9, 10) is True


# -- separation ---------------------------------------------------------------

def test_separate_1d_example():
    d = separate([(1.2,), (1.5,)], [1.0])
    assert d is not None
    assert np.allclose(d, [-1.0])


def test_separate_2d_example():
    pts = [(1.0, 0.0), (0.0, 1.0)]
    d = separate(pts, [0.0, 0.0], angular_resolution=6283)
    assert d is not None
    assert abs(np.linalg.norm(d) - 1.0) < 1e-12
    for p in pts:
        assert float(np.dot(d, p)) <= 1e-9


def test_separate_degenerate_point_on_hull():
    # x is its own hull: the zero-margin supporting direction is returned
    d = separate([(0.3, 0.7)], [0.3, 0.7], angular_resolution=64)
    assert d is not None
    assert abs(float(np.dot(d, [0.0, 0.0]))) <= 1e-9


def test_separate_none_when_x_interior():
    pts = [(1.0,), (-1.0,)]
    assert separate(pts, [0.0]) is None


def test_separate_consistent_with_polar_membership():
    rng = np.random.default_rng(13)
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        pts = rng.normal(size=(int(rng.integers(1, 5)), dim)) + 1.5
        x = rng.normal(size=dim)
        d = separate(pts, x, angular_resolution=720)
        if d is not None:
            assert polar_membership(pts - x, d, 1e-9)


def test_separate_3d():
    pts = [(1.0, 0.2, 0.1), (0.8, -0.1, 0.3), (1.2, 0.0, -0.2)]
    d = separate(pts, [0.0, 0.0, 0.0], angular_resolution=360)
    assert d is not None
    assert abs(np.linalg.norm(d) - 1.0) < 1e-12
    for p in pts:
        assert float(np.dot(d, p)) <= 1e-9


def test_separate_rejects_high_dimension():
    with pytest.raises(InputError):
        separate(np.ones((2, 4)), np.zeros(4))


def test_separate_rejects_empty():
    with pytest.raises(InputError):
        separate(np.zeros((0, 2)), np.zeros(2))


# -- sphere discretization and cone samples ----------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unit_directions_are_unit(dim):
    dirs = unit_directions(dim, 48)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def test_unit_directions_dim_guard():
    with pytest.raises(InputError):
        unit_directions(4)


def test_cone_sample_validates_norms():
    with pytest.raises(InputError):
        ConeSample(((0.5, 0.5),), 2)
    full = ConeSample.full_space(2)
    assert full.is_full_space
    assert np.allclose(np.linalg.norm(full.as_array, axis=1), 1.0, atol=1e-12)


# -- randomized invariants -----------------------------------------------------

def test_projection_invariants_random_sets():
    rng = np.random.default_rng(17)
    for trial in range(300):
        s = random_set(rng, trial % 3, int(rng.integers(1, 4)))
        y = rng.uniform(-4, 4, s.dim)
        y2 = rng.uniform(-4, 4, s.dim)
        px, px2 = project(s, y), project(s, y2)
        assert np.array_equal(px, s.project_many(y[None, :])[0])
        assert np.linalg.norm(project(s, px) - px) <= 1e-9
        assert np.linalg.norm(px - px2) <= np.linalg.norm(y - y2) + 1e-9
        assert projection_vi_residual(s, y, px, 200,
                                      rng=np.random.default_rng(trial)) >= -1e-9


def test_probe_points_live_in_set():
    rng = np.random.default_rng(19)
    for trial in range(60):
        s = random_set(rng, trial % 3, int(rng.integers(1, 4)))
        pts = probe_points(s, 64, np.random.default_rng(trial))
        assert pts.shape[0] <= 64
        for p in pts:
            assert s.contains(p, tol=1e-7)


def test_set_grid_polytope_zero_width_axis_is_one_point():
    # z1 in [0, 1], z2 pinned at 0.3: the pinned axis contributes one point
    rows = (((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0), ((0.0, 1.0), 0.3), ((0.0, -1.0), -0.3))
    pts, resolution = set_grid(HalfspacePolytope(rows, 2), 0.25)
    assert resolution == 0.25
    assert pts.shape == (5, 2)
    assert np.allclose(pts[:, 1], 0.3)


def test_axis_sizes_match_the_axes_they_count():
    # the grid guards decide on these counts before any axis is built
    rng = np.random.default_rng(4)
    for _ in range(2000):
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo + float(rng.choice([0.0, 1e-16, rng.uniform(0.0, 4.0)]))
        step = float(rng.choice([0.05, 0.1, 0.25, rng.uniform(0.01, 1.0)]))
        assert geometry.grid_axis_size(lo, hi, step) == geometry.grid_axis(lo, hi, step).shape[0]
        lo_s, hi_s, n = geometry.lattice_span(lo, hi, step)
        axis = geometry.lattice_axis(lo, hi, step)
        assert (axis[0], axis[-1], axis.shape[0]) == (lo_s, hi_s if n > 1 else lo_s, n)
        assert (geometry._constraint_axis_bound(lo, hi, step)
                >= geometry.constraint_axis(lo, hi, step).shape[0])


def test_set_grid_guards_box_grids_and_caps_others_before_allocating():
    box = Box((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(InputError, match=r"about 1e\d+ cells exceeds the guard"):
        set_grid(box, 1e-300)
    # a step whose point count overflows a float is refused the same way
    with pytest.raises(InputError, match="more than 1e308 cells exceeds the guard"):
        set_grid(box, 1e-320)
    # a non-box grid is capped per axis, so it never needs the guard
    pts, resolution = set_grid(Ball((0.0, 0.0), 1.0), 1e-300)
    assert pts.shape == (geometry.GRID_AXIS_CAP ** 2, 2)
    assert resolution == 2.0 / (geometry.GRID_AXIS_CAP - 1)


# -- batched face polish -------------------------------------------------------

def _polish_one(a, b, y, x):
    """The per-point add/drop loop the batched ``_face_polish`` replaces:
    the nearest point of ``y`` from the face guess ``x``, or None."""
    m = a.shape[0]
    active = [r for r in range(m) if float(a[r] @ x - b[r]) >= -1e-6]
    for _ in range(2 * m + 2):
        if active:
            a_act = a[active]
            rhs = a_act @ y - b[active]
            if len(active) == 1:
                lam = rhs
            else:
                gram = a_act @ a_act.T
                try:
                    lam = np.linalg.solve(gram, rhs)
                except np.linalg.LinAlgError:
                    lam, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
            if np.any(lam < -1e-12):
                active.pop(int(np.argmin(lam)))
                continue
            cand = y - a_act.T @ lam
            if float(np.max(np.abs(a_act @ cand - b[active]))) > 1e-9:
                return None
        else:
            cand = y
        viol = a @ cand - b
        worst = int(np.argmax(viol))
        if float(viol[worst]) <= geometry.CONE_TOL:
            return cand
        if worst in active:
            return None
        active.append(worst)
    return None


def _polish_per_point(a, b, ys, xs):
    points = np.full_like(ys, np.nan)
    ok = np.zeros(ys.shape[0], dtype=bool)
    for j in range(ys.shape[0]):
        p = _polish_one(a, b, ys[j], xs[j])
        if p is not None:
            points[j], ok[j] = p, True
    return points, ok


def _lattice(lo, hi, h, d):
    return geometry.mesh_points([np.arange(lo, hi + h / 2, h)] * d)


TRIANGLE = ((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0))


def _polish_cases():
    """(a, b, points): random bounded polytopes, unbounded wedges, slabs and
    zero-width axes in 1-3 dimensions, on uniform and lattice points, then
    the triangle of the benchmark's polytope game at three offsets."""
    rng = np.random.default_rng(23)
    cases = []
    for t in range(24):
        d = 1 + t % 3
        kind = (t // 3) % 4
        center = rng.uniform(-1, 1, d)
        center[0] = 0.1 if kind == 2 else center[0]
        center[-1] = 0.3 if kind == 3 else center[-1]
        rows = []
        for _ in range(int(rng.integers(2, 6))):
            a = rng.normal(size=d)
            rows.append((tuple(a), float(a @ center + rng.uniform(0.1, 1.5))))
        e0, e1 = np.eye(d)[0], np.eye(d)[-1]
        if kind == 1:       # wedge with its apex at the centre (in 1-D a half-line or a point)
            rows = [(a, float(np.dot(a, center))) for a, _ in rows[:2]]
        elif kind == 2:     # slab across axis 0
            rows = [(tuple(e0), 0.5), (tuple(-e0), 0.2)] + rows[:1]
        elif kind == 3:     # the last axis pinned at 0.3
            rows = [(tuple(e1), 0.3), (tuple(-e1), -0.3)] + rows
        a, b = HalfspacePolytope(tuple(rows), d)._np
        points = (rng.uniform(-2.5, 2.5, (300, d)) if t % 2
                  else _lattice(-1.5, 1.5, 0.05 if d < 3 else 0.25, d))
        cases.append((a, b, points))
    for top in (0.5, 0.75, 1.0):
        a, b = HalfspacePolytope(tuple((n, 0.0) for n in TRIANGLE[:2])
                                 + ((TRIANGLE[2], top),), 2)._np
        points = np.vstack([_lattice(-0.5, 1.5, 0.05, 2),
                            rng.uniform(-0.5, 1.5, (500, 2))])
        cases.append((a, b, points))
    return cases


def test_batched_polish_matches_the_per_point_loop(monkeypatch):
    cases = _polish_cases()
    batched = [geometry._dykstra_many(a, b, ys) for a, b, ys in cases]
    monkeypatch.setattr(geometry, "_face_polish", _polish_per_point)
    for (a, b, ys), got in zip(cases, batched):
        assert np.array_equal(got, geometry._dykstra_many(a, b, ys))


def test_batched_polish_rows_do_not_depend_on_the_batch(monkeypatch):
    calls = []
    polish = geometry._face_polish

    def recording(a, b, ys, xs):
        calls.append((a, b, ys, xs))
        return polish(a, b, ys, xs)

    monkeypatch.setattr(geometry, "_face_polish", recording)
    for a, b, ys in _polish_cases():
        geometry._dykstra_many(a, b, ys)
    monkeypatch.undo()
    assert calls
    for a, b, ys, xs in calls:
        points, ok = polish(a, b, ys, xs)
        for j in range(0, ys.shape[0], 7):
            one, one_ok = polish(a, b, ys[j:j + 1], xs[j:j + 1])
            assert one_ok[0] == ok[j]
            assert np.array_equal(one[0], points[j], equal_nan=True)
    # on the benchmark triangle the whole projection is batch-independent
    for a, b, ys in _polish_cases()[-3:]:
        full = geometry._dykstra_many(a, b, ys)
        for j in range(0, ys.shape[0], 5):
            assert np.array_equal(geometry._dykstra_many(a, b, ys[j:j + 1])[0], full[j])

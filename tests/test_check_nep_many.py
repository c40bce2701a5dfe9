"""The batched certifier against a per-row reference, bit for bit.

``reference_check_nep`` is the one-row certificate check as it ran before
rows were batched: one materialized constraint value, one scan grid and one
seeded sample draw per row and player, and one ``strict_gain_outer`` call
over the row's whole scan (grid plus samples), whose first hit is the
witness.  ``check_nep_many`` shares cached grids between rows with equal
constraint values, takes gains in slabs, and scans the grid before it
draws any samples; every player check it returns must equal the
reference's exactly, witnesses included.
"""

import functools
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from projnash import game as game_mod
from projnash.fixtures import FIXTURE_NAMES, load_fixture
from projnash.game import (WITNESS_GUARD, PlayerCheck, check_nep, check_nep_many,
                           check_projected_solution, check_projected_solution_many,
                           seeded_rng)
from projnash.expressions import AffineMap, parse_polynomial_text
from projnash.game import MovingBox, MovingPolytope, from_utilities
from projnash.geometry import Box, lattice_axis, mesh_points, project, set_grid
from projnash.preferences import Sampled, strict_gain_outer
from projnash.solvers import SolverConfig

from test_cross_validation import (boundary_pinned_instance, interior_target_instance,
                                   random_direction_instance)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = [(s, b) for s in (0.0, 1e-3) for b in (0, 512)]


def reference_check_nep(game, x, y, cfg):
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    out = []
    for i in range(game.player_count):
        k_set = game.constraint_maps[i].materialize(x)
        yi = y[game.own_slice(i)]
        residual = float(np.linalg.norm(yi - project(k_set, yi)))
        pref = game.preference_maps[i]
        rng = seeded_rng(cfg.seed, 11, i, arrays=(x, y))
        if isinstance(pref, Sampled):
            pts = pref._z[np.array([k_set.contains(z, tol=1e-9) for z in pref._z])]
            resolution = 0.0
        else:
            pts, resolution = set_grid(k_set, cfg.h)
            if cfg.random_budget > 0:
                lo, hi = k_set.bounding_box()._np
                draws = rng.uniform(lo, hi, size=(cfg.random_budget, k_set.dim))
                pts = np.vstack([pts, k_set.project_many(draws)])
        witness = None
        if pts.shape[0]:
            gains = strict_gain_outer(pref, y[None, :], pts)[0]
            hits = np.nonzero(gains > cfg.strictness + WITNESS_GUARD)[0]
            witness = tuple(pts[hits[0]]) if hits.size else None
        out.append(PlayerCheck(membership_residual=residual, witness=witness,
                               emptiness_resolution=resolution, points_scanned=pts.shape[0]))
    return out


def _bits(checks):
    # exact comparison: floats by their bits, so -0.0 and NaN cannot hide
    def b(v):
        return None if v is None else np.asarray(v, dtype=np.float64).tobytes()
    return [(b(pc.membership_residual), b(pc.witness), b(pc.emptiness_resolution),
             pc.points_scanned) for pc in checks]


def scan_rows(game, h, limit):
    """Up to ``limit`` hull-lattice rows ``y`` with ``x`` the nearest choice
    point, strided over the whole lattice: feasible and infeasible rows,
    passing and failing ones."""
    lo, hi = game.hull_box._np
    ys = mesh_points([lattice_axis(lo[j], hi[j], h) for j in range(game.n)])
    ys = ys[np.linspace(0, ys.shape[0] - 1, min(limit, ys.shape[0])).astype(int)]
    return game.project_choice_many(ys), ys


def assert_matches_reference(game, xs, ys, cfg):
    batched = check_nep_many(game, xs, ys, cfg)
    assert len(batched) == xs.shape[0]
    witnesses = 0
    for x, y, row in zip(xs, ys, batched):
        want = reference_check_nep(game, x, y, cfg)
        assert _bits(row) == _bits(want), (x, y)
        witnesses += sum(pc.witness is not None for pc in want)
    return witnesses


@functools.cache
def bench_workloads():
    """The benchmark's workload module (its problems and verify batches)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _polytope_game():
    return bench_workloads().polytope_game()


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("name", [f for f in FIXTURE_NAMES if f != "table"])
def test_fixture_rows_match_the_reference(name, h):
    game = load_fixture(name)
    xs, ys = scan_rows(game, h, 60)
    witnesses = 0
    for strictness, budget in CONFIGS:
        cfg = SolverConfig(h=h, strictness=strictness, random_budget=budget, seed=3)
        witnesses += assert_matches_reference(game, xs, ys, cfg)
    if name != "vacuous":
        assert witnesses > 0     # failing rows, so first witnesses are compared


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_table_rows_match_the_reference(h):
    # a table answers only at its declared at-points
    game = load_fixture("table")
    ys = np.array(game.preference_maps[0].at_points)
    xs = game.project_choice_many(ys)
    for strictness, budget in CONFIGS:
        cfg = SolverConfig(h=h, strictness=strictness, random_budget=budget)
        assert_matches_reference(game, xs, ys, cfg)


def _pentagon_game():
    # generic normals, unlike the benchmark game's axis-aligned triangle
    angles = 0.3 + 2.0 * np.pi * np.arange(5) / 5.0
    normals = tuple((float(np.cos(a)), float(np.sin(a))) for a in angles)
    offsets = AffineMap.from_polynomials(
        [parse_polynomial_text(f"0.6 + {0.1 * (k + 1)}*x3", 3) for k in range(5)])
    value = MovingPolytope(player_index=0, normals=normals, offsets=offsets,
                           bounds_hint=Box((-2.0, -2.0), (2.0, 2.0)))
    rival = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 3),
                      upper=AffineMap.constant([1.0], 3))
    return from_utilities([2, 1], [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))],
                          [value, rival], ["x1 + 0.3*x2 - x1^2", "-(x3 - 0.5)^2"])


@pytest.mark.parametrize("make", [_polytope_game, _pentagon_game])
def test_polytope_rows_match_the_reference(make):
    game = make()
    xs, ys = scan_rows(game, 0.1, 40)
    # repeat rows so groups hold several rows with one shared polytope grid
    xs, ys = np.vstack([xs, xs[::3]]), np.vstack([ys, ys[::3]])
    witnesses = 0
    for strictness, budget in CONFIGS:
        cfg = SolverConfig(h=0.1, strictness=strictness, random_budget=budget)
        witnesses += assert_matches_reference(game, xs, ys, cfg)
    assert witnesses > 0


@pytest.mark.parametrize("family", ["interior", "pinned", "direction"])
def test_generated_game_rows_match_the_reference(family):
    rng = np.random.default_rng(5)
    for _ in range(3):
        if family == "interior":
            game, _ = interior_target_instance(rng, 3)
        elif family == "pinned":
            game, _ = boundary_pinned_instance(rng, 2)
        else:
            game, _ = random_direction_instance(rng)
        xs, ys = scan_rows(game, 0.05, 40)
        for strictness, budget in CONFIGS:
            cfg = SolverConfig(h=0.05, strictness=strictness, random_budget=budget)
            assert_matches_reference(game, xs, ys, cfg)


@pytest.mark.parametrize("slab", [None, 1500])
def test_groups_spanning_several_slabs_match_the_reference(slab, monkeypatch):
    # vacuous: one constraint value for every row, so one group of 441 rows;
    # expand with a small slab: many rows with witnesses, cut across slabs
    if slab is not None:
        monkeypatch.setattr(game_mod, "CHECK_SLAB", slab)
    cfg = SolverConfig(h=0.05, random_budget=512)
    for name in ("vacuous", "expand"):
        game = load_fixture(name)
        xs, ys = scan_rows(game, 0.05, 441)
        k_set = game.constraint_maps[0].materialize(xs[0])
        per_row = set_grid(k_set, cfg.h)[0].shape[0] + cfg.random_budget
        if name == "vacuous" or slab is not None:
            assert xs.shape[0] > game_mod.CHECK_SLAB // per_row
        assert_matches_reference(game, xs, ys, cfg)


def test_one_row_calls_are_the_batched_rows():
    game = load_fixture("spin")
    cfg = SolverConfig(h=0.05)
    xs, ys = scan_rows(game, 0.05, 30)
    xs, ys = np.vstack([xs, [[1.0, 0.5]]]), np.vstack([ys, [[1.1, 0.5]]])   # a solution
    batched = check_projected_solution_many(game, xs, ys, cfg, eps=cfg.eps_grid)
    for x, y, cert in zip(xs, ys, batched):
        assert cert == check_projected_solution(game, x, y, cfg, eps=cfg.eps_grid)
        assert list(cert.players) == check_nep(game, x, y, cfg)
    assert {c.verdict for c in batched} == {"pass", "fail"}


def test_batched_rows_reject_mismatched_shapes():
    game = load_fixture("spin")
    cfg = SolverConfig(h=0.1)
    assert check_nep_many(game, np.zeros((0, 2)), np.zeros((0, 2)), cfg) == []
    for xs, ys in ((np.zeros((2, 3)), np.zeros((2, 3))), (np.zeros((2, 2)), np.zeros((3, 2))),
                   (np.zeros(2), np.zeros(2))):
        with pytest.raises(game_mod.InputError):
            check_nep_many(game, xs, ys, cfg)


@pytest.mark.parametrize("name", [f for f in FIXTURE_NAMES if f != "table"])
def test_samples_are_drawn_only_for_rows_with_no_grid_witness(name, monkeypatch):
    calls = Counter()
    real = game_mod.seeded_rng

    def counting(seed, *tags, arrays=()):
        calls[tags, np.concatenate(arrays).tobytes()] += 1
        return real(seed, *tags, arrays=arrays)

    monkeypatch.setattr(game_mod, "seeded_rng", counting)
    game = load_fixture(name)
    xs, ys = scan_rows(game, 0.05, 60)
    for strictness in (0.0, 1e-3):
        cfg = SolverConfig(h=0.05, strictness=strictness, random_budget=64)
        calls.clear()
        check_nep_many(game, xs, ys, cfg)
        want = Counter()
        for i, pref in enumerate(game.preference_maps):
            for x, y in zip(xs, ys):
                grid = set_grid(game.constraint_maps[i].materialize(x), cfg.h)[0]
                gains = strict_gain_outer(pref, y[None, :], grid)
                if not np.any(gains > strictness + WITNESS_GUARD):
                    want[(11, i), np.concatenate([x, y]).tobytes()] += 1
        assert calls == want
        if name != "vacuous":
            assert sum(want.values()) < 2 * xs.shape[0]     # some rows skip their samples

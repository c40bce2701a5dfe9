"""Import hygiene: parsing, building, verifying and solving games need
numpy only.

scipy serves only the two LP paths, hull membership in two or more
dimensions and the separator of degenerate normal directions, each
imported on first use; no CLI route on a shipped fixture reaches them, so
none loads scipy's slow submodules.  Complement-cloud distances and
certificate clustering need numpy only.
Each check runs in a fresh interpreter, where ``sys.modules`` shows
exactly what the work loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from projnash.fixtures import FIXTURE_NAMES, fixture_path
from test_golden import EXIT_CODES, FLAGS, ROUTES, VERIFY_POINTS

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW_MODULES = ("scipy.sparse", "scipy.spatial", "scipy.optimize")

_PREAMBLE = f"""
import json, runpy, sys
SLOW_MODULES = {SLOW_MODULES!r}
def loaded():
    return [m for m in SLOW_MODULES if m in sys.modules]
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    proc = _python("-c", _PREAMBLE + code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_loading_and_verifying_leave_scipy_unimported():
    verify_args = {name: ["verify", str(fixture_path(name)), *FLAGS, "--x", x, "--y", y]
                   for name, (x, y) in VERIFY_POINTS.items()}
    out = _fresh(f"""
import projnash
from projnash import (AffineMap, Box, MovingBox, MovingPolytope, from_utilities,
                      load_fixture, parse_polynomial_text)
from projnash.fixtures import FIXTURE_NAMES
for name in FIXTURE_NAMES:
    load_fixture(name)
offsets = AffineMap.from_polynomials([parse_polynomial_text(t, 3)
                                      for t in ("0", "0", "0.5 + 0.5*x3")])
triangle = MovingPolytope(player_index=0, normals=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)),
                          offsets=offsets, bounds_hint=Box((0.0, 0.0), (1.0, 1.0)))
fixed = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 3),
                  upper=AffineMap.constant([1.0], 3))
from_utilities([2, 1], [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))],
               [triangle, fixed], ["x1 + x2", "-(x3 - 0.5)^2"])
after_loading = loaded()
codes = {{}}
for name, argv in {verify_args!r}.items():
    # what ``python -m projnash verify ...`` runs
    sys.argv = ["projnash", *argv]
    try:
        runpy.run_module("projnash", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes[name] = exc.code
print(json.dumps({{"after_loading": after_loading, "codes": codes, "loaded": loaded()}}))
""")
    assert out["after_loading"] == []
    expected = json.loads(EXIT_CODES.read_text())
    assert out["codes"] == {name: expected[f"{name}.verify"] for name in VERIFY_POINTS}
    assert out["loaded"] == []


def test_clustering_imports_no_scipy():
    # selfmap certifies one cell, vacuous every cell: both cluster nonempty
    # certificate lists with numpy alone
    out = _fresh("""
from projnash import SolverConfig, load_fixture, solvers
sizes = []
cluster = solvers._cluster_certificates
def recording(certs, radius):
    sizes.append(len(certs))
    return cluster(certs, radius)
solvers._cluster_certificates = recording
found = [len(solvers.brute_force_oracle(load_fixture(name), SolverConfig(h=0.05, seed=0))
             .certificates) for name in ("selfmap", "vacuous")]
print(json.dumps({"certificates": found, "sizes": sizes, "loaded": loaded()}))
""")
    assert out["certificates"][0] == 1 and out["certificates"][1] >= 1
    assert min(out["sizes"]) >= 1 and max(out["sizes"]) > 100
    assert not {"scipy.sparse", "scipy.spatial"} & set(out["loaded"])


def test_python_dash_m_runs_the_cli():
    x, y = VERIFY_POINTS["expand"]
    proc = _python("-m", "projnash", "verify", str(fixture_path("expand")), *FLAGS,
                   "--x", x, "--y", y)
    assert proc.returncode == 0, proc.stderr
    assert "verdict = pass" in proc.stdout


def test_closed_form_fixed_point_builds_no_kd_tree():
    # expand and corner have closed-form graph distances; chase, selfmap and
    # disk query complement clouds, whose nearest-neighbour index needs
    # numpy only, so no fixed point loads scipy.spatial
    for name, cloud in (("expand", False), ("corner", False), ("chase", True),
                        ("selfmap", True), ("disk", True)):
        out = _fresh(f"""
from projnash import SolverConfig, load_fixture, preferences, solvers
seen, queries = [], []
cluster = solvers._cluster_certificates
def recording(certs, radius):
    seen.append("scipy.spatial" in sys.modules)
    return cluster(certs, radius)
solvers._cluster_certificates = recording
min_distance = preferences._ComplementCloud.min_distance
def counting(cloud, rows):
    queries.append(rows.shape[0])
    return min_distance(cloud, rows)
preferences._ComplementCloud.min_distance = counting
result = solvers.solve_fixed_point(load_fixture({name!r}), SolverConfig(h=0.05, multistart=5))
print(json.dumps({{"certificates": len(result.certificates), "seen": seen,
                  "cloud": sum(queries) > 0}}))
""")
        assert out == {"certificates": 1, "seen": [False], "cloud": cloud}, name


def test_every_cli_route_leaves_scipy_unimported():
    runs = {f"{name}.{route}": [route, str(fixture_path(name)), *FLAGS]
            for name in FIXTURE_NAMES for route in ROUTES}
    out = _fresh(f"""
import io
from projnash import cli
codes = {{key: cli.run(argv, stdout=io.StringIO()) for key, argv in {runs!r}.items()}}
print(json.dumps({{"codes": codes, "loaded": loaded()}}))
""")
    expected = json.loads(EXIT_CODES.read_text())
    assert out["codes"] == {key: expected[key] for key in runs}
    assert out["loaded"] == []

"""Every route operation of the benchmark workloads, run once at seed 0,
must reproduce the recorded reference output, and so must the two polytope
routes of ``certify`` and the ``solve-fp`` routes of ``routes`` at every
recorded seed.  Rewrites of the scan
kernels claim to be exact; this holds them to it in the test suite and not
only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
CERTIFY = json.loads((BENCH / "reference" / "certify.json").read_text())
ROUTES = json.loads((BENCH / "reference" / "routes.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["routes", "certify"])
def test_route_outputs_match_the_references(name):
    wl = _workloads()
    workload = wl.WORKLOADS[name]
    recorded = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    assert recorded["definition"] == json.loads(json.dumps(workload.definition()))
    expected = recorded["seeds"]["0"]["routes"]
    assert len(expected) == len(workload.routes)
    for op, want in zip(workload.routes, expected):
        assert wl.check_route(op, wl.run_route(op, 0), 0, want) is None, op


def test_verify_batch_matches_the_reference():
    # certify's verify batch: its 20 polytope calls are the main users of
    # the batched face polish outside the polytope routes
    wl = _workloads()
    workload = wl.WORKLOADS["certify"]
    recorded = json.loads((BENCH / "reference" / "certify.json").read_text())
    ops = wl.verify_ops(workload, 0)
    games = {p: wl.load(p) for p, _ in workload.verify}
    cfg = wl.config(wl.VERIFY_H, 0)
    outs = [wl.run_verify(op, games[op.problem], cfg) for op in ops]
    assert wl.check_verify(ops, outs, recorded["seeds"]["0"]["verify"]) == {}


@pytest.mark.parametrize("seed", sorted(CERTIFY["seeds"], key=int))
@pytest.mark.parametrize("route", ["oracle", "solve-qvi"])
def test_polytope_routes_match_the_references_at_every_seed(route, seed):
    # each seed draws other prefilter and scan samples, so a change that
    # holds at seed 0 alone fails at some other seed
    wl = _workloads()
    routes = wl.WORKLOADS["certify"].routes
    (k,) = [k for k, op in enumerate(routes) if (op.route, op.problem) == (route, wl.POLYTOPE)]
    want = CERTIFY["seeds"][seed]["routes"][k]
    assert wl.check_route(routes[k], wl.run_route(routes[k], int(seed)), int(seed), want) is None


@pytest.mark.parametrize("seed", sorted(ROUTES["seeds"], key=int))
def test_fixed_point_routes_match_the_references_at_every_seed(seed):
    # the on-demand complement cloud and the lock-step best responses are
    # exact rewrites: every solve-fp route reproduces every recorded seed
    wl = _workloads()
    routes = wl.WORKLOADS["routes"].routes
    fp = [k for k, op in enumerate(routes) if op.route == "solve-fp"]
    assert len(fp) == 7
    for k in fp:
        want = ROUTES["seeds"][seed]["routes"][k]
        assert wl.check_route(routes[k], wl.run_route(routes[k], int(seed)), int(seed),
                              want) is None, routes[k]

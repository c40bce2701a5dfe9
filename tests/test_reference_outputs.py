"""Every route operation of the benchmark workloads, run once at seed 0,
must reproduce the recorded reference output.  Rewrites of the scan
kernels claim to be exact; this holds them to it in the test suite and not
only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

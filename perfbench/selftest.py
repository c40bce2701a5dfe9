"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that a run prints every metric of BENCHMARK.json with its unit, in
both modes, and that a tampered reference output is caught as failed
operations.  The file name keeps it out of the repository's own test run.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import time

import run

SPEC = run.bootstrap()
import workloads as wl  # noqa: E402  (importable once bootstrap set the path)

TINY = wl.Workload(
    "tiny",
    (wl.RouteOp("oracle", "expand", 0.1), wl.RouteOp("solve-qvi", "spin", 0.1),
     wl.RouteOp("solve-fp", "chase", 0.1), wl.RouteOp("oracle", wl.POLYTOPE, 0.25)),
    verify=(("expand", 4), ("disk", 4), ("table", 4)))
SEED = 3


def _run_cli(trace: int) -> dict:
    args = argparse.Namespace(workload=TINY.name, seed=SEED, seconds=0.0, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.run_one(args, SPEC, TINY) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_every_metric_prints_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run_cli(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _measure(expected) -> dict:
    return run.measure(TINY, SEED, 0.0, False, expected, time.monotonic() + 120)


def test_tampered_reference_raises_failed_ops():
    vops = wl.verify_ops(TINY, SEED)
    rec = run.run_pass(TINY, SEED, vops, time.monotonic() + 120)
    reference = wl.reference_record(rec.route_outs, vops, rec.verify_outs)
    assert _measure(reference)["failures"] == []

    moved = copy.deepcopy(reference)
    cert = next(o for o in moved["routes"] if o["certificates"])["certificates"][0]
    cert["residuals"][0] += 1e-6
    assert len(_measure(moved)["failures"]) > 0

    flipped = copy.deepcopy(reference)
    codes = flipped["verify"]["verdicts"]
    flipped["verify"]["verdicts"] = ("X" if codes[0] != "X" else "P") + codes[1:]
    assert len(_measure(flipped)["failures"]) > 0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

"""projnash benchmark.

    python3 perfbench/run.py --workload routes --seed 0 --seconds 50 --trace 0

Run from the repository root.  Load comes from this one process, one
operation after another (a closed loop with a single client), with BLAS
threads capped at the CPU count.  Passes over the workload's operations
repeat until ``--seconds`` would be exceeded; timings are medians over the
passes.  Outputs are checked outside the timed region.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is the
result object; the line before it (``detail ...``) carries the stamp of
machine and settings, every route timing and any failures, and the same
detail is written to ``perfbench/out/``.  ``--workload all`` runs every
workload in turn, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

SETUP_RUNS = 7
#: per operation; a run also stops starting operations after RUN_DEADLINE_S
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import projnash
import workloads
for problem in sys.argv[3:]:
    workloads.load(problem)
print(time.perf_counter() - t0)
"""


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def cap_blas_threads() -> None:
    nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            os.environ[var] = str(nproc)


# ---------------------------------------------------------------------------
# One pass over a workload
# ---------------------------------------------------------------------------

@dataclass
class PassRecord:
    wall: float = 0.0
    latency: list = field(default_factory=list)       # (kind, seconds) per operation
    route_outs: list = field(default_factory=list)
    verify_outs: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)        # operation index -> (message, seconds)


def _call(fn, deadline: float, tracer, op_id: int, name: str):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, 0.0, "not started: run deadline reached"
    signal.setitimer(signal.ITIMER_REAL, min(OP_TIMEOUT_S, remaining))
    start = perf_counter()
    try:
        out = fn() if tracer is None else tracer.run_op(op_id, name, fn)
        err = None
    except OpTimeout:
        out, err = None, "timeout"
    except Exception as exc:  # an operation that raises is a failed operation
        out, err = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, perf_counter() - start, err


def run_pass(workload, seed: int, vops: list, deadline: float, tracer=None) -> PassRecord:
    import workloads as wl

    rec = PassRecord()
    start = perf_counter()
    for k, op in enumerate(workload.routes):
        out, dt, err = _call(lambda: wl.run_route(op, seed), deadline, tracer, k, "op." + op.route)
        rec.route_outs.append(out)
        rec.latency.append((op.route, dt))
        if err:
            rec.errors[k] = (err, dt)
    if vops:
        base = len(workload.routes)
        if tracer is not None:
            tracer.op = base
        games = {p: wl.load(p) for p, _ in workload.verify}
        cfg = wl.config(wl.VERIFY_H, seed)
        for j, vop in enumerate(vops):
            game = games[vop.problem]
            out, dt, err = _call(lambda: wl.run_verify(vop, game, cfg), deadline, tracer,
                                 base + j, "op.verify")
            rec.verify_outs.append(out)
            rec.latency.append(("verify", dt))
            if err:
                rec.errors[base + j] = (err, dt)
    rec.wall = perf_counter() - start
    return rec


def check_outputs(workload, seed: int, vops: list, first: PassRecord,
                  expected) -> dict[int, str]:
    """Operations whose first-pass output is wrong, by index."""
    import workloads as wl

    bad: dict[int, str] = {}
    for k, (op, out) in enumerate(zip(workload.routes, first.route_outs)):
        if out is None:
            continue
        problem = wl.check_route(op, out, seed,
                                 expected["routes"][k] if expected else None)
        if problem:
            bad[k] = problem
    if vops and all(out is not None for out in first.verify_outs):
        base = len(workload.routes)
        for j, problem in wl.check_verify(vops, first.verify_outs,
                                          expected["verify"] if expected else None).items():
            bad[base + j] = problem
    return bad


def count_failures(workload, passes: list[PassRecord], bad: dict[int, str]):
    """Attempted and failed operations over all passes, with the failures.

    An operation fails in a pass when it raised or timed out, when its
    output differs from the first pass (outputs are deterministic), or when
    the first-pass output failed the check."""
    first = passes[0]
    attempted, failures = 0, []
    labels = [f"{op.route} {op.problem} h={op.h}" for op in workload.routes]
    for p, rec in enumerate(passes):
        outs = rec.route_outs + rec.verify_outs
        firsts = first.route_outs + first.verify_outs
        attempted += len(outs)
        for k, out in enumerate(outs):
            label = labels[k] if k < len(labels) else f"verify #{k - len(labels)}"
            if k in rec.errors:
                err, dt = rec.errors[k]
                failures.append({"pass": p, "op": label, "error": err, "elapsed_s": dt})
            elif k in bad:
                failures.append({"pass": p, "op": label, "error": bad[k]})
            elif out != firsts[k]:
                failures.append({"pass": p, "op": label, "error": "output differs from pass 0"})
    return attempted, failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def route_metrics(passes: list[PassRecord]) -> dict[str, float]:
    """Every end-to-end timing of a set of untraced passes."""
    verify = [dt for rec in passes for kind, dt in rec.latency if kind == "verify"]
    out = {"solve_s": _median([rec.wall for rec in passes])}
    for route, key in (("oracle", "oracle_s"), ("solve-qvi", "qvi_s"), ("solve-fp", "fp_s")):
        sums = [sum(dt for kind, dt in rec.latency if kind == route) for rec in passes]
        if any(sums):
            out[key] = _median(sums)
    if verify:
        out["verify_ms.p50"] = 1e3 * _median(verify)
        if len(verify) >= 1000:  # at least ten samples beyond the 99th percentile
            out["verify_ms.p99"] = 1e3 * statistics.quantiles(verify, n=100)[98]
    return out


def report_counters(rec: PassRecord) -> dict[str, float]:
    """The reports' deterministic work counters, summed over the pass."""
    outs = [o for o in rec.route_outs if o is not None and o["work"]]
    candidates = sum(o["work"][1] for o in outs)
    members = sum(c["cluster_size"] for o in outs for c in o["certificates"])
    return {
        "solvers.cells_scanned": sum(o["work"][0] for o in outs),
        "solvers.candidates": candidates,
        "solvers.iterations": sum(o["work"][2] for o in outs),
        "solvers.certificates": sum(len(o["certificates"]) for o in outs),
        "solvers.survivor_pass_ratio": members / candidates if candidates else 0.0,
    }


def measure_setup(workload) -> list[float]:
    """Fresh interpreters importing projnash and parsing and validating
    every problem of the workload."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), *workload.problems],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# Stamp
# ---------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "projnash").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".gnep", ".ebnf"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _blas_name():
    import numpy as np
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return None


def stamp(workload, args, passes: int, vops: list, has_reference: bool) -> dict:
    """Machine and run settings that every result carries."""
    import numpy
    import scipy
    import workloads as wl

    cfg = wl.config(wl.VERIFY_H, args.seed)
    return {
        "workload": workload.name, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas_name(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "definition": workload.definition(), "passes": passes,
        "route_ops_per_pass": len(workload.routes), "verify_calls_per_pass": len(vops),
        "random_budget": cfg.random_budget,
        "setup_runs": SETUP_RUNS, "op_timeout_s": OP_TIMEOUT_S,
        "reference": "recorded for this seed" if has_reference else "none for this seed",
    }


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def load_reference(workload, seed: int):
    """Reference outputs for ``seed``, or None.  A reference recorded for a
    different workload definition is an error, never a silent pass."""
    path = REFERENCE / f"{workload.name}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data["definition"] != json.loads(json.dumps(workload.definition())):
        raise SystemExit(f"{path} was recorded for another definition of {workload.name}")
    return data["seeds"].get(str(seed))


def measure(workload, seed: int, seconds: float, trace: bool, expected,
            deadline: float) -> dict:
    """Run passes for ``seconds`` and return metrics, counts and failures."""
    import workloads as wl
    from tracing import Tracer

    vops = wl.verify_ops(workload, seed)
    # the traced run compares traced with untraced passes, so a cold first
    # pass would bias the overhead; untraced runs take medians instead
    warm = [run_pass(workload, seed, vops, deadline)] if trace else []
    untraced: list[PassRecord] = []
    traced: list[PassRecord] = []
    layers: list[dict] = []
    spans: list = []      # of the first traced pass, written out at the end
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        untraced.append(run_pass(workload, seed, vops, deadline))
        if trace:
            with Tracer() as tracer:
                traced.append(run_pass(workload, seed, vops, deadline, tracer))
            layers.append(tracer.layer_metrics() | report_counters(traced[-1]))
            spans = spans or tracer.spans
        now = time.monotonic()
        if now + (now - round_start) > min(start + seconds, deadline):
            break
    passes = warm + untraced + traced
    bad = check_outputs(workload, seed, vops, passes[0], expected)
    attempted, failures = count_failures(workload, passes, bad)
    metrics = route_metrics(untraced)
    if trace:
        metrics |= {k: _median([m[k] for m in layers]) for k in layers[0]}
        traced_solve = _median([rec.wall for rec in traced])
        metrics["trace.traced_solve_s"] = traced_solve
        metrics["trace.untraced_solve_s"] = metrics["solve_s"]
        metrics["trace.overhead_s"] = traced_solve - metrics["solve_s"]
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "passes": len(untraced), "vops": vops, "spans": spans}


def write_spans(path: Path, spans: list) -> None:
    origin = spans[0][1] if spans else 0.0
    with path.open("w") as fh:
        fh.write("op,name,start_s,end_s,parent\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{op},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


def run_one(args, spec: dict, workload) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    expected = load_reference(workload, args.seed)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), expected, deadline)
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = _median(measure_setup(workload))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    all_units = _DETAIL_UNITS | {m["name"]: m["unit"]
                                 for sec in ("end_to_end", "per_layer") for m in spec[sec]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"benchmark did not compute {missing}")
    failed = len(result["failures"])
    detail = {
        "stamp": stamp(workload, args, result["passes"], result["vops"], expected is not None),
        "metrics": {k: {"value": v, "unit": all_units[k]}
                    for k, v in sorted(values.items())},
        "failed_ops": failed / result["attempted"],
        "failures": result["failures"][:50],
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        write_spans(OUT / f"spans-{tag}.csv", result["spans"])
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


#: units of the end-to-end timings that only some workloads have; they are
#: printed in the detail line, not gated
_DETAIL_UNITS = {"oracle_s": "s", "qvi_s": "s", "fp_s": "s",
                 "verify_ms.p50": "ms", "verify_ms.p99": "ms"}


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    import workloads as wl

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name} " + json.dumps(result), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def bootstrap() -> dict:
    """Import projnash from this checkout's sources, with BLAS threads
    capped; returns BENCHMARK.json.  Exits when the sources are missing."""
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "projnash" / "__init__.py").is_file() or not spec_path.is_file():
        raise SystemExit(f"error: no projnash sources under {SRC} or no {spec_path.name}")
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import projnash

    if Path(projnash.__file__).resolve().parent != SRC / "projnash":
        raise SystemExit(f"error: imported projnash from {projnash.__file__}")
    signal.signal(signal.SIGALRM, _on_alarm)
    return json.loads(spec_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = bootstrap()
    import workloads as wl

    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)} or all")
    return run_one(args, spec, wl.WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())

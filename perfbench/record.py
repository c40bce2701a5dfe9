"""Record the reference outputs the benchmark checks route and verify
operations against.

    python3 perfbench/record.py

Run it from the repository root, on a commit whose outputs are known to be
right: re-recording is a reviewed change, never a silent refresh.  Every
recorded pass must first pass the benchmark's own checks (certificates
re-verify on a fresh instance, known solutions pass, offset candidates fail
on projection).
"""

from __future__ import annotations

import json
import time

import run

#: references are recorded for seeds 0 .. SEEDS-1 of every workload
SEEDS = 32


def record(workload) -> dict:
    import workloads as wl

    out = {"definition": workload.definition(), "seeds": {}}
    for seed in range(SEEDS):
        vops = wl.verify_ops(workload, seed)
        rec = run.run_pass(workload, seed, vops, time.monotonic() + run.RUN_DEADLINE_S)
        bad = run.check_outputs(workload, seed, vops, rec, None)
        if rec.errors or bad:
            raise SystemExit(f"{workload.name} seed {seed}: {rec.errors or bad}")
        out["seeds"][str(seed)] = wl.reference_record(rec.route_outs, vops, rec.verify_outs)
    return out


def main() -> None:
    run.bootstrap()
    import workloads as wl

    run.REFERENCE.mkdir(exist_ok=True)
    for name, workload in wl.WORKLOADS.items():
        data = record(workload)
        path = run.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"{path}: seeds 0..{SEEDS - 1}", flush=True)


if __name__ == "__main__":
    main()

"""Check every recorded benchmark seed against the current code.

For each workload in ``perfbench/workloads.py`` that has a reference file
under ``perfbench/reference/``, and for every seed recorded there, runs one
pass of the workload's route operations and its verify batch, as
``perfbench/run.py`` runs them, and checks the outputs against that seed's
reference with the workload module's own ``check_route`` and
``check_verify``.  The workloads module is only imported and called.

It prints each mismatch with its workload, seed and operation, then one
count per workload, and exits nonzero on any mismatch.  Nothing is
re-recorded.  Run from the repository root:

    python tools/check_references.py              # every workload
    python tools/check_references.py certify      # named workloads only
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"


def check_seed(wl, workload, seed: int, expected: dict) -> list[str]:
    """Mismatches of one pass of ``workload`` at ``seed``."""
    bad = []
    for op, want in zip(workload.routes, expected["routes"]):
        problem = wl.check_route(op, wl.run_route(op, seed), seed, want)
        if problem:
            bad.append(f"{op.route} {op.problem} h={op.h}: {problem}")
    ops = wl.verify_ops(workload, seed)
    if ops:
        games = {p: wl.load(p) for p, _ in workload.verify}
        cfg = wl.config(wl.VERIFY_H, seed)
        outs = [wl.run_verify(op, games[op.problem], cfg) for op in ops]
        for k, problem in sorted(wl.check_verify(ops, outs, expected["verify"]).items()):
            bad.append(f"verify #{k} ({ops[k].problem}, {ops[k].kind}): {problem}")
    return bad


def main(names: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl

    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    total = 0
    for name, workload in wl.WORKLOADS.items():
        path = REFERENCE / f"{name}.json"
        if (names and name not in names) or not path.is_file():
            continue
        data = json.loads(path.read_text())
        if data["definition"] != json.loads(json.dumps(workload.definition())):
            print(f"{name}: {path.name} was recorded for another definition")
            total += 1
            continue
        count = 0
        for seed, expected in sorted(data["seeds"].items(), key=lambda kv: int(kv[0])):
            for line in check_seed(wl, workload, int(seed), expected):
                print(f"{name} seed {seed}: {line}", flush=True)
                count += 1
        print(f"{name}: {count} mismatches at {len(data['seeds'])} seeds", flush=True)
        total += count
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

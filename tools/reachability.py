"""Source lines of ``src/projnash`` that no shipped route executes.

Traces, with the standard library's ``sys.settrace``:

* every CLI route (``oracle``, ``solve-fp``, ``solve-qvi``) on each shipped
  fixture at ``h = 0.05``, seed 0, through ``projnash.cli.run`` (a route
  that exits 2, as the table fixture's do, still counts);
* one pass of each benchmark workload in ``perfbench/workloads.py`` at seed
  0: its route operations and its verify batch, as ``perfbench/run.py``
  runs them.  The workloads module is only imported and called.

It prints every executable line none of these ran, as ranges per module,
then a count per module and the total, the physical line count of
``src/projnash/*.py`` (as ``wc -l`` counts them), and last which of
scipy's slow submodules (``SLOW_MODULES``) the traced runs imported.  A
line is executable when the compiler gives it bytecode; a ``def`` or
``class`` header counts as run when the module is imported.  Tracing
starts before ``projnash`` is imported.  Run from the repository root:

    python tools/reachability.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "projnash"
FIXTURE_H = 0.05
SEED = 0
ROUTES = ("oracle", "solve-fp", "solve-qvi")
SLOW_MODULES = ("scipy.sparse", "scipy.spatial", "scipy.optimize")


def executable_lines(path: Path) -> set[int]:
    """Lines that carry bytecode in the module compiled from ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 is the module's entry, not a source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_runs() -> dict[str, set[int]]:
    """Lines of each source file executed by the fixture routes and one
    pass of every workload."""
    prefix = str(SRC)
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.settrace(enter)
    try:
        import projnash as pn
        import workloads as wl

        for name in pn.FIXTURE_NAMES:
            for route in ROUTES:
                with contextlib.redirect_stderr(io.StringIO()):
                    pn.cli.run([route, str(pn.fixture_path(name)), "--h", repr(FIXTURE_H),
                                "--seed", str(SEED)], stdout=io.StringIO())
        for workload in wl.WORKLOADS.values():
            for op in workload.routes:
                wl.run_route(op, SEED)
            games = {p: wl.load(p) for p, _ in workload.verify}
            cfg = wl.config(wl.VERIFY_H, SEED)
            for op in wl.verify_ops(workload, SEED):
                wl.run_verify(op, games[op.problem], cfg)
    finally:
        sys.settrace(None)
    return hits


def ranges(lines: list[int]) -> str:
    """``3-5, 9`` for ``[3, 4, 5, 9]``."""
    spans = [[lines[0], lines[0]]]
    for line in lines[1:]:
        if line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    hits = trace_runs()
    total = missed_total = physical = 0
    summary = []
    for path in sorted(SRC.glob("*.py")):
        physical += path.read_text().count("\n")
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed_total += len(missed)
        summary.append(f"{path.name}: {len(missed)} of {len(lines)} executable lines not run")
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    print("\n".join(summary))
    print(f"total: {missed_total} of {total} executable lines not run")
    print(f"src/projnash/*.py: {physical} lines")
    loaded = [m for m in SLOW_MODULES if m in sys.modules]
    print(f"scipy modules imported: {len(loaded)} of {len(SLOW_MODULES)}"
          + (f" ({', '.join(loaded)})" if loaded else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

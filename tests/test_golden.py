"""Golden CLI reports: every route on every shipped fixture, byte for byte.

Each case reruns ``cli.run`` and compares the exit code and the report with
the files under ``tests/golden/``.  The corpus pins the reproducibility
contract across refactors; regenerate it only for a deliberate report
change, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from projnash.cli import run
from projnash.fixtures import FIXTURE_NAMES, fixture_path

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
FLAGS = ["--h", "0.05", "--seed", "0"]
ROUTES = ("oracle", "solve-qvi", "solve-fp")

#: (x, y) verified per fixture: its known solution, or for the tabulated
#: fixture a declared at-point (off-table queries are input errors)
VERIFY_POINTS = {
    "expand": ("1,1", "2,2"),
    "selfmap": ("0.5,0.5", "0.5,0.5"),
    "spin": ("1,0.5", "1,0.5"),
    "chase": ("0.5,0.5", "0.5,0.5"),
    "corner": ("1,1", "1,1"),
    "offside": ("0.5,0.5", "0.5,0.5"),
    "vacuous": ("0,0", "0,0"),
    "disk": ("0.25,0.5,0.25", "0.25,0.5,0.25"),
    "table": ("1,0", "1,0"),
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in FIXTURE_NAMES:
        path = str(fixture_path(name))
        for route in ROUTES:
            cases[f"{name}.{route}"] = [route, path, *FLAGS]
        x, y = VERIFY_POINTS[name]
        cases[f"{name}.verify"] = ["verify", path, *FLAGS, "--x", x, "--y", y]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    expected_code = json.loads(EXIT_CODES.read_text())[case]
    expected = (GOLDEN / f"{case}.report").read_text(encoding="utf-8")
    code, text = _run(CASES[case])
    assert code == expected_code, f"{case}: exit code {code}, golden {expected_code}"
    if text == expected:
        return
    got, want = text.splitlines(), expected.splitlines()
    for k, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            pytest.fail(f"{case}: line {k} differs\n  got:    {a}\n  golden: {b}")
    pytest.fail(f"{case}: {len(got)} lines, golden has {len(want)} "
                "(or the trailing newline differs)")


def _write_corpus() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], text = _run(argv)
        (GOLDEN / f"{case}.report").write_text(text, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_corpus()

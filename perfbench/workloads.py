"""Workloads of the projnash benchmark and the output checks they share.

A workload is a fixed list of operations.  Route operations (``oracle``,
``solve-qvi``, ``solve-fp``) each start from a freshly parsed or freshly
built instance, as a command-line user does, so the complement-cloud and
context caches on ``GameInstance._caches`` are filled inside the timed call.
Verify operations are single ``check_projected_solution`` calls on seeded
candidate pairs; their instances are parsed once per pass.

Everything random here derives from the benchmark seed, which is also the
``SolverConfig.seed`` of every operation.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import projnash as pn
from projnash import cli
from projnash.expressions import AffineMap, parse_polynomial_text
from projnash.game import MovingBox, MovingPolytope, from_utilities
from projnash.geometry import Box

#: name of the library-built moving-polytope game (no ``.gnep`` file can
#: declare a polytope constraint)
POLYTOPE = "polytope"

BOX_FIXTURES = ("expand", "selfmap", "spin", "chase", "corner", "offside")

#: exact projected solutions ``(x, y)``: no feasible point is strictly
#: preferred, so they pass at every seed and every resolution
KNOWN_SOLUTIONS = {
    "expand": ((1.0, 1.0), (2.0, 2.0)),
    "selfmap": ((0.5, 0.5), (0.5, 0.5)),
    "spin": ((1.0, 0.5), (1.0, 0.5)),
    "chase": ((0.5, 0.5), (0.5, 0.5)),
    "corner": ((1.0, 1.0), (1.0, 1.0)),
    "offside": ((0.5, 0.5), (0.5, 0.5)),
    "vacuous": ((0.0, 0.0), (0.0, 0.0)),
    "disk": ((0.25, 0.5, 0.25), (0.25, 0.5, 0.25)),
    POLYTOPE: ((0.375, 0.375, 0.5), (0.375, 0.375, 0.5)),
}

#: candidate kinds of the verify batch; "solution" must pass and "offset"
#: (x moved away from the nearest choice point of y) must fail on projection
SOLUTION, LATTICE, OFFSET, DECLARED = "solution", "lattice", "offset", "declared"

#: ``--multistart`` of every route.  Only ``solve-fp`` uses it: five starts
#: are the box corners and the centre, so the start set, and with it the
#: iteration work, does not depend on the seed
FP_STARTS = 5

#: grid resolution of every verify call
VERIFY_H = 0.02


@dataclass(frozen=True)
class RouteOp:
    route: str      # "oracle" | "solve-qvi" | "solve-fp"
    problem: str    # fixture name or POLYTOPE
    h: float


@dataclass(frozen=True)
class Workload:
    name: str
    routes: tuple[RouteOp, ...]
    verify: tuple[tuple[str, int], ...] = ()    # (problem, calls per pass)

    @property
    def problems(self) -> tuple[str, ...]:
        names = [op.problem for op in self.routes] + [p for p, _ in self.verify]
        return tuple(dict.fromkeys(names))

    def definition(self) -> dict:
        """Everything that fixes the operations for a seed; stored with the
        reference outputs so a changed definition cannot match old ones."""
        return {
            "routes": [[op.route, op.problem, op.h] for op in self.routes],
            "verify": [list(v) for v in self.verify],
            "verify_h": VERIFY_H,
            "fp_starts": FP_STARTS,
        }


def _routes(names, routes, h):
    return tuple(RouteOp(r, p, h) for p in names for r in routes)


#: why each workload exists: BENCHMARK.json and perfbench/README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        "routes",
        _routes(BOX_FIXTURES, ("oracle", "solve-qvi"), 0.02)
        + _routes(("disk",), ("oracle", "solve-qvi"), 0.05)
        + _routes(BOX_FIXTURES, ("solve-fp",), 0.02)
        + _routes(("disk",), ("solve-fp",), 0.01)),
    Workload(
        "certify",
        _routes(("vacuous",), ("oracle", "solve-qvi"), 0.03)
        + _routes((POLYTOPE,), ("oracle", "solve-qvi"), 0.1),
        verify=tuple((p, 250) for p in BOX_FIXTURES + ("vacuous", "disk"))
        + (("table", 4), (POLYTOPE, 20))),
)}


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

def polytope_game() -> pn.GameInstance:
    """Moving-polytope game: player 1 on the triangle
    ``z1, z2 >= 0, z1 + z2 <= 0.5 + 0.5 x3``, player 2 aiming at 0.5."""
    n = 3
    offsets = AffineMap.from_polynomials([
        parse_polynomial_text("0", n),
        parse_polynomial_text("0", n),
        parse_polynomial_text("0.5 + 0.5*x3", n),
    ])
    triangle = MovingPolytope(player_index=0, normals=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)),
                              offsets=offsets, bounds_hint=Box((0.0, 0.0), (1.0, 1.0)))
    fixed = MovingBox(player_index=1, lower=AffineMap.constant([0.0], n),
                      upper=AffineMap.constant([1.0], n))
    return from_utilities([2, 1], [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))],
                          [triangle, fixed], ["x1 + x2", "-(x3 - 0.5)^2"])


def load(problem: str) -> pn.GameInstance:
    """A freshly parsed (or built) and validated instance."""
    if problem == POLYTOPE:
        return polytope_game()
    return pn.parse_problem(pn.fixture_text(problem))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyOp:
    problem: str
    kind: str
    x: tuple[float, ...]
    y: tuple[float, ...]


def _latin_lattice(rng: np.random.Generator, boxes, h: float, count: int) -> np.ndarray:
    """``count`` points of the ``h``-lattice over the product of ``boxes``,
    Latin-hypercube stratified: along every coordinate each point falls in
    its own stratum, so every seed's batch covers each axis evenly and the
    batch's work hardly depends on the seed."""
    columns = []
    for box in boxes:
        lo, hi = box._np
        for j in range(box.dim):
            cells = int(math.floor((hi[j] - lo[j]) / h + 1e-9)) + 1
            edges = np.linspace(0, cells, count + 1)
            idx = np.array([int(rng.integers(int(a), max(int(a) + 1, int(b))))
                            for a, b in zip(edges[:-1], edges[1:])])
            columns.append(lo[j] + h * np.minimum(rng.permutation(idx), cells - 1))
    return np.stack(columns, axis=1)


def verify_ops(workload: Workload, seed: int) -> list[VerifyOp]:
    """The seeded verify batch: per problem one known solution, then
    lattice candidates ``(P_X(y), y)`` and, every fourth, an offset
    candidate ``(x', y)`` with ``x'`` another choice point; ``table`` is
    queried at its declared points, the only points a tabulated preference
    answers."""
    rng = np.random.default_rng([seed, 7])
    ops: list[VerifyOp] = []
    for problem, calls in workload.verify:
        game = load(problem)
        if problem == "table":
            for at in game.preference_maps[0]._at:
                point = tuple(float(v) for v in at)
                ops.append(VerifyOp(problem, DECLARED, point, point))
            continue
        x, y = KNOWN_SOLUTIONS[problem]
        ops.append(VerifyOp(problem, SOLUTION, x, y))
        ys = _latin_lattice(rng, game.hull_boxes, VERIFY_H, calls - 1)
        others = _latin_lattice(rng, [game.x_bbox], VERIFY_H, calls - 1)
        for k, y in enumerate(ys):
            x = game.project_choice(y)
            kind = LATTICE
            if k % 4 == 3:
                other = game.project_choice(others[k])
                if float(np.linalg.norm(other - x)) > 1e-3:
                    x, kind = other, OFFSET
            ops.append(VerifyOp(problem, kind, tuple(float(v) for v in x),
                                tuple(float(v) for v in y)))
    return ops


def config(h: float, seed: int) -> pn.SolverConfig:
    return pn.SolverConfig(h=h, seed=seed, multistart=FP_STARTS)


def run_route(op: RouteOp, seed: int) -> dict:
    """Run one route operation from a fresh instance; canonical output."""
    if op.problem == POLYTOPE:
        solver = {"oracle": pn.brute_force_oracle, "solve-qvi": pn.solve_qvi}[op.route]
        result = solver(load(op.problem), config(op.h, seed))
        return {
            "rc": 0 if result.certificates else 1,
            "work": [result.cells_scanned, result.candidates, result.iterations],
            "certificates": [_cert_record(c) for c in result.certificates],
        }
    out = io.StringIO()
    rc = cli.run([op.route, str(pn.fixture_path(op.problem)), "--h", repr(op.h),
                  "--seed", str(seed), "--multistart", str(FP_STARTS)], stdout=out)
    return parse_report(out.getvalue(), rc)


def run_verify(op: VerifyOp, game: pn.GameInstance, cfg: pn.SolverConfig) -> list:
    cert = pn.check_projected_solution(game, op.x, op.y, cfg)
    return [cert.reason or "pass", cert.projection_residual,
            [p.membership_residual for p in cert.players],
            sum(p.points_scanned for p in cert.players)]


def _cert_record(cert) -> dict:
    return {
        "x": [float(v) for v in cert.x],
        "y": [float(v) for v in cert.y],
        "verdict": cert.verdict,
        "cluster_size": int(cert.cluster_size),
        "residuals": [float(cert.projection_residual)]
                     + [float(p.membership_residual) for p in cert.players],
        "points_scanned": [int(p.points_scanned) for p in cert.players],
    }


def parse_report(text: str, rc: int) -> dict:
    """Canonical route output from a CLI report (floats print at 17
    significant digits, so they read back exactly)."""
    fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    if rc == 2 or "certificates" not in fields:
        return {"rc": rc, "work": [], "certificates": []}

    def floats(key):
        return [float(v) for v in fields[key].split(", ")]

    certs = []
    for k in range(int(fields["certificates"])):
        pre = f"certificate[{k}]"
        players = sum(1 for key in fields if key.startswith(f"{pre}.player[")
                      and key.endswith(".membership_residual"))
        certs.append({
            "x": floats(f"{pre}.x"),
            "y": floats(f"{pre}.y"),
            "verdict": fields[f"{pre}.verdict"],
            "cluster_size": int(fields[f"{pre}.cluster_size"]),
            "residuals": [float(fields[f"{pre}.projection_residual"])]
                         + [float(fields[f"{pre}.player[{i}].membership_residual"])
                            for i in range(players)],
            "points_scanned": [int(fields[f"{pre}.player[{i}].points_scanned"])
                               for i in range(players)],
        })
    return {
        "rc": rc,
        "work": [int(fields["work.cells_scanned"]), int(fields["work.candidates"]),
                 int(fields["work.iterations"])],
        "certificates": certs,
    }


# ---------------------------------------------------------------------------
# Output checks (run outside the timed region)
# ---------------------------------------------------------------------------

TOL = 1e-9


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(u, v) for u, v in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and abs(a - b) <= TOL
    return a == b


def check_route(op: RouteOp, out: dict, seed: int,
                expected: Optional[dict]) -> Optional[str]:
    """Problem with one route output, or None.  Every returned certificate
    must re-verify on a freshly parsed instance; when a reference exists the
    output must match it (counters and verdicts exactly, floats to 1e-9)."""
    if out["rc"] not in (0, 1):
        return f"exit code {out['rc']}"
    if (out["rc"] == 0) != bool(out["certificates"]):
        return "exit code disagrees with the certificate count"
    if expected is not None and not _close(out, expected):
        return "differs from the reference output"
    cfg = config(op.h, seed)
    game = load(op.problem)
    for k, cert in enumerate(out["certificates"]):
        again = pn.check_projected_solution(game, cert["x"], cert["y"], cfg, eps=cfg.eps_grid)
        if cert["verdict"] != "pass" or not again.passed:
            return f"certificate {k} does not re-verify ({again.reason})"
    return None


def verify_code(out: list) -> str:
    """One letter per verdict: P pass, X projection, a/b/.. membership of
    player 1/2/.., A/B/.. intersection of player 1/2/.."""
    reason = out[0]
    if reason in ("pass", "projection"):
        return "P" if reason == "pass" else "X"
    player = int(reason[reason.index("[") + 1:-1])
    return chr((ord("a") if reason.startswith("membership") else ord("A")) + player)


def check_verify(ops: list[VerifyOp], outs: list, expected: Optional[dict]) -> dict[int, str]:
    """Problems in the verify batch, by operation index.  Solutions must
    pass and offset candidates must fail on projection; with a reference,
    every verdict must match and each problem's residual and scan totals
    must match to 1e-9."""
    bad: dict[int, str] = {}
    for k, (op, out) in enumerate(zip(ops, outs)):
        if op.kind == SOLUTION and out[0] != "pass":
            bad[k] = f"known solution failed ({out[0]})"
        elif op.kind == OFFSET and out[0] != "projection":
            bad[k] = f"offset candidate gave {out[0]}"
    if expected is None:
        return bad
    codes = expected["verdicts"]
    if len(codes) != len(outs):
        return {k: "verify batch size differs from the reference" for k in range(len(ops))}
    for k, out in enumerate(outs):
        if verify_code(out) != codes[k]:
            bad.setdefault(k, f"verdict {out[0]} differs from the reference")
    for problem, totals in verify_totals(ops, outs).items():
        if not _close(totals, expected["totals"].get(problem)):
            for k, op in enumerate(ops):
                if op.problem == problem:
                    bad.setdefault(k, "residual or scan totals differ from the reference")
    return bad


def verify_totals(ops: list[VerifyOp], outs: list) -> dict:
    """Per problem: summed projection residual, summed membership
    residuals, and the number of points scanned."""
    totals: dict[str, list] = {}
    for op, out in zip(ops, outs):
        t = totals.setdefault(op.problem, [0.0, 0.0, 0])
        t[0] += out[1]
        t[1] += sum(out[2])
        t[2] += out[3]
    return totals


def reference_record(route_outs: list, ops: list, verify_outs: list) -> dict:
    return {
        "routes": route_outs,
        "verify": {"verdicts": "".join(verify_code(o) for o in verify_outs),
                   "totals": verify_totals(ops, verify_outs)} if ops else None,
    }

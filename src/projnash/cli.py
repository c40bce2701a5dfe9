"""Problem-file ingestion, solver orchestration, and reporting.

Problem files are line-oriented declarative text (grammar in
``docs/problem_grammar.ebnf``).  Reports are flat ``key = value`` lines with
floats printed at 17 significant digits; identical inputs regenerate
byte-identical reports, so the timing section carries deterministic work
counters rather than wall-clock readings.

Exit codes: 0 at least one certificate (or a passing verification), 1 clean
run with no certificate, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InputError, ParseError, ProjnashError
from .expressions import AffineMap, Cursor, format_float
from .game import (Certificate, GameInstance, MovingBox, build_instance,
                   check_projected_solution)
from .geometry import Ball, Box
from .preferences import GAIN_GUARD, DirectionField, Sampled, UtilityInduced
from .solvers import (SolveResult, SolverConfig, brute_force_oracle,
                      solve_fixed_point, solve_qvi)

SCHEMA = "projnash.report.v1"

#: the solver options, each written once: file key -> (``SolverConfig`` field,
#: type).  ``set <key>`` reads them in a problem file and ``--<key>`` (``-``
#: for ``_``) on the command line; the flag wins.
OPTIONS = {
    "h": ("h", float), "eps": ("eps", float), "lambda": ("damping", float),
    "budget": ("random_budget", int), "seed": ("seed", int),
    "max_iter": ("max_iter", int), "multistart": ("multistart", int),
    "h_g": ("h_g", float),
}


# ---------------------------------------------------------------------------
# Problem-file parsing
# ---------------------------------------------------------------------------

def parse_problem(text: str) -> GameInstance:
    """Parse problem text into a validated :class:`GameInstance`.

    Grammar and hypothesis violations raise :class:`ParseError` /
    :class:`HypothesisError` with location or witness information.
    """
    cur = Cursor(text)
    cur.expect_keyword("players")
    n_players = cur.parse_count("need at least one player")
    cur.expect_keyword("dims")
    dims = [cur.parse_count("player dimensions must be positive") for _ in range(n_players)]
    n = cur.n_vars = sum(dims)

    choice_sets: dict[int, object] = {}
    constraint_maps: dict[int, MovingBox] = {}
    preference_maps: dict[int, object] = {}
    options: dict[str, float] = {}

    while cur.peek().kind != "eof":
        if cur.at_keyword("set"):
            cur.next()
            key_tok = cur.next()
            if key_tok.text not in OPTIONS:
                raise ParseError(f"unknown option {key_tok.text!r}",
                                 key_tok.line, key_tok.col)
            _, kind = OPTIONS[key_tok.text]
            options[key_tok.text] = cur.parse_int() if kind is int else cur.parse_real()
            continue
        cur.expect_keyword("player")
        idx_tok = cur.peek()
        idx = cur.parse_int() - 1
        if not 0 <= idx < n_players:
            raise ParseError(f"player index out of range", idx_tok.line, idx_tok.col)
        if idx in choice_sets:
            raise ParseError(f"player {idx + 1} declared twice", idx_tok.line, idx_tok.col)
        own_dim = dims[idx]
        own_start = sum(dims[:idx])

        kw = cur.next()
        if kw.kind != "ident" or kw.text not in ("box", "ball"):
            raise ParseError("expected 'box' or 'ball'", kw.line, kw.col)
        if kw.text == "box":
            lo = cur.parse_const_vector()
            hi = cur.parse_const_vector()
            if len(lo) != own_dim or len(hi) != own_dim:
                raise ParseError(f"choice box must have {own_dim} entries", kw.line, kw.col)
            choice_sets[idx] = Box(tuple(lo), tuple(hi))
        else:
            center = cur.parse_const_vector()
            radius = cur.parse_real()
            if len(center) != own_dim:
                raise ParseError(f"ball center must have {own_dim} entries", kw.line, kw.col)
            choice_sets[idx] = Ball(tuple(center), radius)

        cur.expect_keyword("kbox")
        lo_polys = cur.parse_expr_vector()
        hi_polys = cur.parse_expr_vector()
        if len(lo_polys) != own_dim or len(hi_polys) != own_dim:
            raise ParseError(f"constraint bounds must have {own_dim} entries",
                             kw.line, kw.col)
        constraint_maps[idx] = MovingBox(
            player_index=idx,
            lower=AffineMap.from_polynomials(lo_polys),
            upper=AffineMap.from_polynomials(hi_polys))

        pref_tok = cur.next()
        if pref_tok.kind != "ident":
            raise ParseError("expected a preference declaration",
                             pref_tok.line, pref_tok.col)
        if pref_tok.text == "utility":
            preference_maps[idx] = UtilityInduced(
                player_index=idx, n_vars=n, own_start=own_start, own_dim=own_dim,
                utility=cur.parse_expr())
        elif pref_tok.text == "direction":
            rows = cur.parse_expr_vector()
            if len(rows) != own_dim:
                raise ParseError(f"direction field must have {own_dim} entries",
                                 pref_tok.line, pref_tok.col)
            cur.expect_keyword("offset")
            offset = cur.parse_real()
            preference_maps[idx] = DirectionField(
                player_index=idx, n_vars=n, own_start=own_start, own_dim=own_dim,
                c=AffineMap.from_polynomials(rows), offset=offset)
        elif pref_tok.text == "sampled":
            cur.expect_keyword("zpoints")
            zpoints = []
            while cur.peek().is_op("["):
                zp = cur.parse_const_vector()
                if len(zp) != own_dim:
                    raise ParseError(f"zpoint must have {own_dim} entries",
                                     pref_tok.line, pref_tok.col)
                zpoints.append(tuple(zp))
            at_points = []
            table = []
            while cur.at_keyword("at"):
                cur.next()
                ap = cur.parse_const_vector()
                if len(ap) != n:
                    raise ParseError(f"at-point must have {n} entries",
                                     pref_tok.line, pref_tok.col)
                cur.expect_keyword("prefers")
                row = [False] * len(zpoints)
                while cur.peek().is_op("["):
                    zp = tuple(cur.parse_const_vector())
                    matches = [j for j, cand in enumerate(zpoints)
                               if max(abs(a - b) for a, b in zip(cand, zp)) <= 1e-9]
                    if not matches:
                        raise ParseError(f"preferred point {list(zp)} is not a declared zpoint",
                                         pref_tok.line, pref_tok.col)
                    row[matches[0]] = True
                at_points.append(tuple(ap))
                table.append(tuple(row))
            cur.expect_keyword("end")
            if not at_points:
                raise ParseError("sampled preference needs at least one 'at' row",
                                 pref_tok.line, pref_tok.col)
            preference_maps[idx] = Sampled(
                player_index=idx, n_vars=n, own_start=own_start, own_dim=own_dim,
                at_points=tuple(at_points), zpoints=tuple(zpoints),
                prefers=tuple(table))
        else:
            raise ParseError(f"unknown preference kind {pref_tok.text!r}",
                             pref_tok.line, pref_tok.col)

    missing = [i + 1 for i in range(n_players) if i not in choice_sets]
    if missing:
        raise ParseError(f"missing declarations for players {missing}")
    return build_instance(
        dims,
        [choice_sets[i] for i in range(n_players)],
        [constraint_maps[i] for i in range(n_players)],
        [preference_maps[i] for i in range(n_players)],
        options=options,
    )


# ---------------------------------------------------------------------------
# Canonical serialization and digest
# ---------------------------------------------------------------------------

def _vec_text(values) -> str:
    return "[" + ", ".join(format_float(float(v)) for v in values) + "]"


def serialize_instance(game: GameInstance) -> str:
    lines = [f"players {game.player_count} dims " + " ".join(str(d) for d in game.dims)]
    for key, val in sorted(game.options.items()):
        lines.append(f"set {key} {val if isinstance(val, int) else format_float(float(val))}")
    for i in range(game.player_count):
        lines.append(f"player {i + 1}")
        s = game.choice_sets[i]
        if isinstance(s, Box):
            lines.append(f"box {_vec_text(s.lower)} {_vec_text(s.upper)}")
        else:
            lines.append(f"ball {_vec_text(s.center)} {format_float(s.radius)}")
        cmap = game.constraint_maps[i]
        if not isinstance(cmap, MovingBox):
            raise InputError("only box-valued constraint maps are serializable")
        lo_rows = "[" + ", ".join(cmap.lower.to_text_rows()) + "]"
        hi_rows = "[" + ", ".join(cmap.upper.to_text_rows()) + "]"
        lines.append(f"kbox {lo_rows} {hi_rows}")
        p = game.preference_maps[i]
        if isinstance(p, UtilityInduced):
            if p.margin:          # the grammar has none; dropping it would alias digests
                raise InputError("utility margins are not serializable")
            lines.append(f"utility {p.utility.to_text()}")
        elif isinstance(p, DirectionField):
            rows = "[" + ", ".join(p.c.to_text_rows()) + "]"
            lines.append(f"direction {rows} offset {format_float(p.offset)}")
        else:
            lines.append("sampled")
            lines.append("zpoints " + " ".join(_vec_text(z) for z in p.zpoints))
            for ap, row in zip(p.at_points, p.prefers):
                preferred = " ".join(_vec_text(p.zpoints[j]) for j, flag in enumerate(row) if flag)
                lines.append(f"at {_vec_text(ap)} prefers" + (" " + preferred if preferred else ""))
            lines.append("end")
    return "\n".join(lines) + "\n"


def instance_digest(game: GameInstance) -> str:
    return "sha256:" + hashlib.sha256(serialize_instance(game).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return ", ".join(format_float(float(v)) for v in value)
    return str(value)


class Report:
    def __init__(self):
        self.lines: list[str] = []

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key} = {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_certificate(report: Report, k: int, cert: Certificate) -> None:
    prefix = f"certificate[{k}]"
    report.add(f"{prefix}.x", cert.x)
    report.add(f"{prefix}.y", cert.y)
    report.add(f"{prefix}.projection_residual", cert.projection_residual)
    for i, pc in enumerate(cert.players):
        report.add(f"{prefix}.player[{i}].membership_residual", pc.membership_residual)
        report.add(f"{prefix}.player[{i}].witness",
                   "none" if pc.witness is None else _fmt(pc.witness))
        report.add(f"{prefix}.player[{i}].emptiness_resolution", pc.emptiness_resolution)
        report.add(f"{prefix}.player[{i}].points_scanned", pc.points_scanned)
    report.add(f"{prefix}.cluster_size", cert.cluster_size)
    if cert.x_range is not None:
        report.add(f"{prefix}.x_min", cert.x_range[0])
        report.add(f"{prefix}.x_max", cert.x_range[1])
        report.add(f"{prefix}.y_min", cert.y_range[0])
        report.add(f"{prefix}.y_max", cert.y_range[1])
    report.add(f"{prefix}.verdict", cert.verdict)
    if cert.reason:
        report.add(f"{prefix}.reason", cert.reason)


def _emit_header(report: Report, command: str, problem: str, game: GameInstance,
                 cfg: SolverConfig) -> None:
    report.add("schema", SCHEMA)
    report.add("command", command)
    report.add("problem", Path(problem).name)
    report.add("instance.digest", instance_digest(game))
    report.add("instance.players", game.player_count)
    report.add("instance.dims", list(game.dims))
    report.add("instance.utility_reducible", game.utility_reducible)
    report.add("config.h", cfg.h)
    report.add("config.eps_analytic", cfg.eps_analytic)
    report.add("config.eps_grid", cfg.eps_grid)
    report.add("config.lambda", cfg.damping)
    report.add("config.max_iter", cfg.max_iter)
    report.add("config.multistart", cfg.multistart)
    report.add("config.budget", cfg.random_budget)
    report.add("config.seed", cfg.seed)
    report.add("config.h_g", cfg.distance_step)
    hyp = game.hypotheses
    report.add("hypotheses.constraint_probes", hyp.constraint_probes)
    report.add("hypotheses.self_exclusion_probes", hyp.self_exclusion_probes)
    report.add("resolution.statement",
               f"emptiness certified at grid resolution {format_float(cfg.h)} "
               f"with {cfg.random_budget} seeded samples (seed {cfg.seed}); "
               f"a point is preferred where its strict gain exceeds {GAIN_GUARD:g}")


def _emit_result(report: Report, result: SolveResult) -> None:
    report.add("work.cells_scanned", result.cells_scanned)
    report.add("work.candidates", result.candidates)
    report.add("work.iterations", result.iterations)
    for k, trace in enumerate(result.starts):
        report.add(f"start[{k}].point", trace.start)
        report.add(f"start[{k}].iterations", trace.iterations)
        report.add(f"start[{k}].converged", trace.converged)
        report.add(f"start[{k}].certified", trace.certified)
    report.add("certificates", len(result.certificates))
    for k, cert in enumerate(result.certificates):
        _emit_certificate(report, k, cert)
    if result.advisory:
        report.add("advisory", result.advisory)


# ---------------------------------------------------------------------------
# Command-line entry
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse keeps its
    results in a fresh namespace and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="projnash",
        description="Compute and verify projected solutions of generalized "
                    "Nash games with set-valued preferences.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve-fp", "solve-qvi", "oracle", "verify"):
        p = sub.add_parser(name)
        p.add_argument("problem", help="path to a .gnep problem file")
        for key, (field, kind) in OPTIONS.items():
            # usage names the value after the key, but --lambda's after its field
            p.add_argument("--" + key.replace("_", "-"), dest=field, type=kind,
                           metavar=(field if key == "lambda" else key).upper())
        if name == "verify":
            p.add_argument("--x", required=True, help="candidate x, comma separated")
            p.add_argument("--y", required=True, help="candidate y, comma separated")
    return parser


def _config_from(options: dict, args: argparse.Namespace) -> SolverConfig:
    """File options, then command-line flags, over the solver defaults."""
    values = {OPTIONS[key][0]: val for key, val in options.items()}
    for field, _ in OPTIONS.values():
        if (val := getattr(args, field)) is not None:
            values[field] = val
    return SolverConfig(**values)


def _parse_point(text: str, n: int, name: str) -> np.ndarray:
    try:
        vals = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"could not parse {name} {text!r}: {exc}") from exc
    if len(vals) != n:
        raise InputError(f"{name} must have {n} entries, got {len(vals)}")
    return np.array(vals)


def run(argv: Optional[list[str]] = None, stdout=None) -> int:
    """Execute one CLI command; returns the process exit code."""
    out = sys.stdout if stdout is None else stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        text = Path(args.problem).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read problem file: {exc}", file=sys.stderr)
        return 2

    try:
        game = parse_problem(text)
        cfg = _config_from(game.options, args)
        report = Report()
        _emit_header(report, args.command, args.problem, game, cfg)
        if args.command == "verify":
            x = _parse_point(args.x, game.n, "--x")
            y = _parse_point(args.y, game.n, "--y")
            cert = check_projected_solution(game, x, y, cfg)
            report.add("work.cells_scanned", 0)
            report.add("work.candidates", 1)
            report.add("work.iterations", 0)
            report.add("certificates", 1 if cert.passed else 0)
            _emit_certificate(report, 0, cert)
            report.add("verdict", cert.verdict)
            if cert.reason:
                report.add("reason", cert.reason)
            out.write(report.text())
            return 0 if cert.passed else 1
        solver = {"solve-fp": solve_fixed_point,
                  "solve-qvi": solve_qvi,
                  "oracle": brute_force_oracle}[args.command]
        result = solver(game, cfg)
        _emit_result(report, result)
        out.write(report.text())
        return 0 if result.certificates else 1
    except ProjnashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

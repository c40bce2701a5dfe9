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
import dataclasses
import functools
import hashlib
import sys
from itertools import compress
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InputError, ParseError, ProjnashError
from .expressions import AffineMap, Cursor, Polynomial, format_float
from .game import (Certificate, GameInstance, MovingBox, build_instance,
                   check_projected_solution)
from .geometry import Ball, Box
from .preferences import (GAIN_GUARD, GRID_MATCH_TOL, DirectionField, Sampled,
                          UtilityInduced)
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
# Problem-file parsing: each kind of a player block is read and written
# through one table, ``DECLARATIONS``
# ---------------------------------------------------------------------------

def _vec_text(values) -> str:
    return "[" + ", ".join(format_float(float(v)) for v in values) + "]"


def _match(points, p) -> Optional[int]:
    """The first of ``points`` within ``GRID_MATCH_TOL`` of ``p``."""
    return next((j for j, q in enumerate(points)
                 if max(abs(a - b) for a, b in zip(q, p)) <= GRID_MATCH_TOL), None)


def _read_table(cur: Cursor, b: dict, label: str) -> dict:
    """``zpoints`` vec {vec}, ``at`` rows, ``end``; a repeated or undeclared
    point, and a missing row, are refused at their own token."""
    def new_point(points: list, length: int, name: str, what: str) -> None:
        tok = cur.peek()
        p = cur.parse_const_vector(length, name)
        if _match(points, p) is not None:
            raise tok.error(f"sampled preference for player {b['player_index'] + 1} "
                            f"repeats the {what} {list(p)}")
        points.append(p)

    cur.expect_keyword("zpoints")
    zpoints, at_points, prefers = [], [], []
    while not zpoints or cur.peek().is_op("["):
        new_point(zpoints, b["own_dim"], "zpoint", "z-point")
    while cur.at_keyword("at"):
        cur.next()
        new_point(at_points, b["n_vars"], "at-point", "at-point")
        cur.expect_keyword("prefers")
        row = [False] * len(zpoints)
        while (tok := cur.peek()).is_op("["):
            zp = cur.parse_const_vector(b["own_dim"], "preferred point")
            if (j := _match(zpoints, zp)) is None:
                raise tok.error(f"preferred point {list(zp)} is not a declared zpoint")
            row[j] = True
        prefers.append(tuple(row))
    if not at_points:
        raise cur.peek().error("sampled preference needs at least one 'at' row")
    cur.expect_keyword("end")
    return {"zpoints": tuple(zpoints), "at_points": tuple(at_points), "prefers": tuple(prefers)}


def _write_table(t: Sampled) -> str:
    rows = [" ".join([f"at {_vec_text(ap)} prefers", *map(_vec_text, compress(t.zpoints, row))])
            for ap, row in zip(t.at_points, t.prefers)]
    return "\n".join(["", "zpoints " + " ".join(map(_vec_text, t.zpoints)), *rows, "end"])


def _read_affine(cur: Cursor, b: dict, label: str) -> AffineMap:
    """An affine vector; a row above degree 1 is refused at its '['."""
    opening = cur.peek()
    polys = cur.parse_expr_vector(b["own_dim"], label)
    try:
        return AffineMap.from_polynomials(polys)
    except InputError as err:
        raise opening.error(str(err)) from None


#: per field type: its reader, of the cursor, the player block (as
#: ``parse_problem`` builds it) and the kind's name for its vectors; its writer
_FIELD_TYPES = {
    "vec": (lambda cur, b, label: cur.parse_const_vector(b["own_dim"], label), _vec_text),
    "affine": (_read_affine, lambda m: f"[{', '.join(m.to_text_rows())}]"),
    "real": (lambda cur, b, label: cur.parse_real(), format_float),
    "poly": (lambda cur, b, label: cur.parse_expr(), Polynomial.to_text),
    "table": (_read_table, _write_table),
}

#: the declaration kinds of a player block, by role in block order: keyword
#: -> (class, fields in text order, the name its vectors are refused by).  A
#: field is ``name:type`` or a keyword; ``*`` reads several attributes and
#: writes from the declaration.  ``parse_problem`` reads every block and
#: ``serialize_instance`` writes every declaration through these entries.
DECLARATIONS = {
    "choice": {"box": (Box, "lower:vec upper:vec", "choice box"),
               "ball": (Ball, "center:vec radius:real", "ball center")},
    "constraint": {"kbox": (MovingBox, "lower:affine upper:affine", "constraint bounds")},
    "preference": {"utility": (UtilityInduced, "utility:poly", ""),
                   "direction": (DirectionField, "c:affine offset offset:real", "direction field"),
                   "sampled": (Sampled, "*:table", "")},
}

#: each role's refusal of a token naming none of its kinds: (a word, other)
_UNKNOWN_KIND = {
    "choice": ("expected 'box' or 'ball'",) * 2,
    "constraint": ("expected 'kbox', found {!r}",) * 2,
    "preference": ("unknown preference kind {!r}", "expected a preference declaration"),
}


def _read_declaration(cur: Cursor, b: dict, role: str):
    """The next declaration of ``role``, read through its kind's entry; a
    declaration its class refuses is refused at the kind's keyword."""
    tok = cur.next()
    if tok.kind != "ident" or tok.text not in DECLARATIONS[role]:
        word, other = _UNKNOWN_KIND[role]
        raise tok.error((word if tok.kind == "ident" else other).format(tok.text or tok.kind))
    cls, fields, label = DECLARATIONS[role][tok.text]
    values = {f.name: b[f.name] for f in dataclasses.fields(cls) if f.name in b}
    for name, _, typ in (word.partition(":") for word in fields.split()):
        if not typ:
            cur.expect_keyword(name)
            continue
        value = _FIELD_TYPES[typ][0](cur, b, label)
        values.update(value if name == "*" else {name: value})
    try:
        return cls(**values)
    except InputError as err:
        raise tok.error(str(err)) from None


def _write_declaration(role: str, decl) -> str:
    """``decl`` as the text of the kind whose class it is."""
    kind = next((kw for kw, entry in DECLARATIONS[role].items() if type(decl) is entry[0]), None)
    if kind is None:
        raise InputError(f"no .gnep {role} kind declares a {type(decl).__name__}")
    fields = [word.partition(":") for word in DECLARATIONS[role][kind][1].split()]
    for f in dataclasses.fields(decl):
        # a default the text leaves out must hold: dropping it would alias digests
        if f.default is not dataclasses.MISSING and f.name not in {w[0] for w in fields} \
                and getattr(decl, f.name) != f.default:
            raise InputError(f"{kind} {f.name}s are not serializable")
    pieces = [_FIELD_TYPES[typ][1](decl if name == "*" else getattr(decl, name)) if typ else name
              for name, _, typ in fields]            # a table's text starts its own lines
    return kind + "".join(p if p.startswith("\n") else " " + p for p in pieces)


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

    decls: dict[str, dict[int, object]] = {role: {} for role in DECLARATIONS}
    options: dict[str, float] = {}

    while cur.peek().kind != "eof":
        if cur.at_keyword("set"):
            cur.next()
            key_tok = cur.next()
            if key_tok.text not in OPTIONS:
                raise key_tok.error(f"unknown option {key_tok.text!r}")
            kind = OPTIONS[key_tok.text][1]
            options[key_tok.text] = cur.parse_int() if kind is int else cur.parse_real()
            continue
        cur.expect_keyword("player")
        idx_tok = cur.peek()
        idx = cur.parse_int() - 1
        if not 0 <= idx < n_players:
            raise idx_tok.error("player index out of range")
        if idx in decls["choice"]:
            raise idx_tok.error(f"player {idx + 1} declared twice")
        block = dict(player_index=idx, n_vars=n, own_start=sum(dims[:idx]), own_dim=dims[idx])
        for role, declared in decls.items():
            declared[idx] = _read_declaration(cur, block, role)

    missing = [i + 1 for i in range(n_players) if i not in decls["choice"]]
    if missing:
        raise ParseError(f"missing declarations for players {missing}")
    return build_instance(dims, *([d[i] for i in range(n_players)] for d in decls.values()),
                          options=options)


# ---------------------------------------------------------------------------
# Canonical serialization and digest
# ---------------------------------------------------------------------------

def serialize_instance(game: GameInstance) -> str:
    lines = [f"players {game.player_count} dims " + " ".join(str(d) for d in game.dims)]
    for key, val in sorted(game.options.items()):
        lines.append(f"set {key} {val if isinstance(val, int) else format_float(float(val))}")
    for i in range(game.player_count):
        lines.append(f"player {i + 1}")
        lines.extend(_write_declaration(role, decl) for role, decl in zip(
            DECLARATIONS, (game.choice_sets[i], game.constraint_maps[i], game.preference_maps[i])))
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

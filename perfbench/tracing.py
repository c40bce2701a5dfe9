"""Spans around projnash's module entry points, for the traced run.

The wrappers are installed from here by replacing module and class
attributes for the length of one pass; nothing inside projnash changes.
Every span records (name, start, end, parent span, operation id) in memory.
A span's self time is its duration minus the time its child spans cover
(spans nest strictly on one thread, so that is the sum of the children's
durations).  Counts are computed from argument and result shapes at the
same boundaries.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from projnash import cli, game, geometry, normal_op, preferences, solvers
from projnash.expressions import Polynomial


def _rows(a, width: int) -> int:
    return int(np.size(a)) // max(1, width)


def _eval_rows(t, args, result):
    t.counts["expressions.eval_many.rows"] += len(result)


def _gain_pairs(t, args, result):
    p = args[0]
    t.counts["preferences.strict_gain_outer.pairs"] += (
        _rows(args[1], p.n_vars) * _rows(args[2], p.own_dim))


def _cloud_points(t, args, result):
    t.counts["preferences.cloud_build.points"] += args[0].points.shape[0]


def _distance_pairs(t, args, result):
    t.counts["preferences.min_distance.pairs"] += args[1].shape[0] * args[0].points.shape[0]


def _normal_rows(t, args, result):
    # single-row calls made by the per-point fallback are not scanned rows
    if t.parent_name() != "normal_op.normal_operator":
        t.counts["normal_op.normal_directions_batch.rows"] += _rows(args[2], args[0].n)


def _points_scanned(t, args, result):
    t.counts["game.check_nep.points_scanned"] += sum(pc.points_scanned for pc in result)


def _dykstra_rows(t, args, result):
    t.counts["geometry.dykstra_many.rows"] += args[2].shape[0]


def _dykstra_fallback(t, args, result):
    if t.parent_name() == "geometry.dykstra_many":
        t.counts["geometry.dykstra_scalar_fallbacks"] += 1


def _feasible_rows(t, args, result):
    t.counts["feasibility.rows"] += args[1].shape[0]
    t.counts["feasibility.feasible"] += int(np.count_nonzero(result[0]))


def _witnessed_rows(t, args, result):
    t.counts["prefilter.rows"] += args[1].shape[0]
    t.counts["prefilter.witnessed"] += int(np.count_nonzero(result))


#: (span name, owner, attribute, counter).  Functions are replaced wherever a
#: projnash module holds them (``from .game import ...`` copies references);
#: methods are replaced on their class.
LAYERS = (
    ("cli.run", cli, "run", None),
    ("cli.parse_problem", cli, "parse_problem", None),
    ("game.build_instance", game, "build_instance", None),
    ("expressions.eval_many", Polynomial, "eval_many", _eval_rows),
    ("preferences.strict_gain_outer", preferences, "strict_gain_outer", _gain_pairs),
    ("preferences.graph_distance_many", preferences, "graph_distance_many", None),
    ("preferences.cloud_lookup", preferences, "_cloud_for", None),
    ("preferences.cloud_build", preferences._ComplementCloud, "__init__", _cloud_points),
    ("preferences.min_distance", preferences._ComplementCloud, "min_distance", _distance_pairs),
    ("normal_op.normal_directions_batch", normal_op, "normal_directions_batch", _normal_rows),
    ("normal_op.normal_operator", normal_op, "normal_operator", None),
    ("game.check_projected_solution", game, "check_projected_solution", None),
    ("game.check_nep", game, "check_nep", _points_scanned),
    ("game.seeded_rng", game, "seeded_rng", None),
    ("geometry.dykstra_many", geometry, "_dykstra_many", _dykstra_rows),
    ("geometry.dykstra", geometry, "_dykstra", _dykstra_fallback),
    ("geometry.face_polish", geometry, "_face_polish", None),
    ("solvers.oracle", solvers, "brute_force_oracle", None),
    ("solvers.qvi", solvers, "solve_qvi", None),
    ("solvers.fixed_point", solvers, "solve_fixed_point", None),
    ("solvers.feasibility", solvers, "_feasibility_mask", _feasible_rows),
    ("solvers.prefilter", solvers, "_witness_prefilter", _witnessed_rows),
    ("solvers.best_response", solvers, "best_response_distance", None),
    ("solvers.qvi_residual", solvers, "qvi_residual", None),
    ("solvers.cluster", solvers, "_cluster_certificates", None),
)

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == "projnash" or key.startswith("projnash.")]
        for name, owner, attr, counter in LAYERS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def run_op(self, op_id: int, name: str, fn):
        """Run one benchmark operation under a root span."""
        self.op = op_id
        return self._wrap(name, fn, None)()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[k]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass (see perfbench/README.md for
        the end-to-end metric each one should move)."""
        selfs, calls, c = self.self_times(), self.calls(), self.counts
        # every layer's self time, so no traced time drops out of the metrics
        m = {f"{name}.self_s": selfs.get(name, 0.0) for name, *_ in LAYERS}
        lookups = calls.get("preferences.cloud_lookup", 0)
        builds = calls.get("preferences.cloud_build", 0)
        normal_rows = c["normal_op.normal_directions_batch.rows"]
        m.update({
            "expressions.eval_many.rows": c["expressions.eval_many.rows"],
            "preferences.strict_gain_outer.pairs": c["preferences.strict_gain_outer.pairs"],
            "preferences.cloud_build.builds": builds,
            "preferences.cloud_build.points": c["preferences.cloud_build.points"],
            "preferences.min_distance.pairs": c["preferences.min_distance.pairs"],
            "preferences.cloud_hit_ratio": _ratio(lookups - builds, lookups),
            "normal_op.normal_directions_batch.rows": normal_rows,
            "normal_op.fallback_ratio": _ratio(calls.get("normal_op.normal_operator", 0),
                                               normal_rows),
            "game.check_projected_solution.calls": calls.get("game.check_projected_solution", 0),
            "game.check_nep.points_scanned": c["game.check_nep.points_scanned"],
            "geometry.dykstra_many.rows": c["geometry.dykstra_many.rows"],
            "geometry.face_polish.calls": calls.get("geometry.face_polish", 0),
            "geometry.dykstra_scalar_fallbacks": c["geometry.dykstra_scalar_fallbacks"],
            "solvers.prefilter.witness_ratio": _ratio(c["prefilter.witnessed"], c["prefilter.rows"]),
            "solvers.feasible_ratio": _ratio(c["feasibility.feasible"], c["feasibility.rows"]),
        })
        return m

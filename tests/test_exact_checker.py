"""Certificates against an exact rational checker.

Every float is an exact rational, so ``fractions.Fraction`` evaluates a
preference's strict gain at a scanned pair with no rounding at all: from
the utility's terms, or from the direction field's rows, sharing no code
with the library's gain kernels.  Over the random games of
``test_cross_validation``, hypothesis checks that

* every witness a certificate reports has an exact gain above 0;
* no passing certificate scanned a point (grid or seeded sample) whose
  exact gain is above ``2 GAIN_GUARD``: its computed gain there is at most
  ``GAIN_GUARD``, and at these magnitudes rounding stays far below another
  ``GAIN_GUARD``;
* ``serialize ∘ parse`` keeps ``instance_digest``.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, reject, strategies as st

from projnash.cli import instance_digest, parse_problem, serialize_instance
from projnash.errors import HypothesisError
from projnash.game import _scan_samples, check_projected_solution, constraint_set, seeded_rng
from projnash.geometry import lattice_axis, mesh_points, set_grid
from projnash.preferences import GAIN_GUARD, UtilityInduced
from projnash.solvers import SolverConfig, brute_force_oracle

from test_check_nep_many import with_margin
from test_cross_validation import (boundary_pinned_instance, interior_target_instance,
                                   random_direction_instance)

CFG = SolverConfig(h=0.05, random_budget=64)


def _exact_utility(terms, point) -> Fraction:
    total = Fraction(0)
    for e, c in terms:
        term = Fraction(c)
        for v, k in zip(point, e):
            term *= v ** k
        total += term
    return total


def exact_gain(p, y, z) -> Fraction:
    """The strict gain of own point ``z`` at joint ``y``, in rationals."""
    y = [Fraction(float(v)) for v in y]
    z = [Fraction(float(v)) for v in z]
    own = slice(p.own_start, p.own_start + p.own_dim)
    if isinstance(p, UtilityInduced):
        moved = y[:own.start] + z + y[own.stop:]
        return (_exact_utility(p.utility.terms, moved) - _exact_utility(p.utility.terms, y)
                - Fraction(p.margin))
    total = -Fraction(p.offset)
    for row, b, zj, yj in zip(p.c.matrix, p.c.offset, z, y[own]):
        c = Fraction(b) + sum((Fraction(a) * v for a, v in zip(row, y)), Fraction(0))
        total += c * (zj - yj)
    return total


def scanned_points(game, i, x, y, cfg):
    """Player ``i``'s scan at ``(x, y)``: the grid of ``K_i(x)``, then the
    row's seeded samples."""
    k_set = constraint_set(game, i, x)
    grid = set_grid(k_set, cfg.h)[0]
    samples = _scan_samples(k_set, cfg.random_budget, seeded_rng(cfg.seed, 11, i, arrays=(x, y)))
    return np.vstack([grid, samples])


@st.composite
def generated_games(draw):
    """A game of one of the cross-validation families."""
    family = draw(st.sampled_from(["interior", "pinned", "direction"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        if family == "direction":
            return random_direction_instance(rng)[0]
        make = interior_target_instance if family == "interior" else boundary_pinned_instance
        return make(rng, draw(st.integers(2, 3)))[0]
    except HypothesisError:
        reject()


def _candidates(game, cfg, count=12):
    """The oracle's certificates and ``count`` strided hull-lattice rows,
    each with ``x`` the nearest choice point."""
    lo, hi = game.hull_box._np
    ys = mesh_points([lattice_axis(lo[j], hi[j], cfg.h) for j in range(game.n)])
    ys = ys[np.linspace(0, ys.shape[0] - 1, min(count, ys.shape[0])).astype(int)]
    pairs = [(np.array(c.x), np.array(c.y)) for c in brute_force_oracle(game, cfg).certificates]
    return pairs + [(game.project_choice(y), y) for y in ys]


@given(generated_games(), st.sampled_from([0.0, 1e-3]))
def test_certificates_agree_with_exact_gains(game, margin):
    game = with_margin(game, margin)
    passed = witnesses = 0
    for x, y in _candidates(game, CFG):
        cert = check_projected_solution(game, x, y, CFG, eps=CFG.eps_grid)
        for i, (p, pc) in enumerate(zip(game.preference_maps, cert.players)):
            if pc.witness is not None:
                witnesses += 1
                assert exact_gain(p, y, pc.witness) > 0, (x, y, i)
        if cert.passed:
            passed += 1
            for i, p in enumerate(game.preference_maps):
                points = scanned_points(game, i, x, y, CFG)
                assert points.shape[0] == cert.players[i].points_scanned
                assert max(exact_gain(p, y, z) for z in points) <= 2 * GAIN_GUARD, (x, y, i)
    assert witnesses > 0 or passed > 0


@given(generated_games())
def test_serialize_then_parse_keeps_the_digest(game):
    again = parse_problem(serialize_instance(game))
    assert instance_digest(again) == instance_digest(game)
    assert serialize_instance(again) == serialize_instance(game)

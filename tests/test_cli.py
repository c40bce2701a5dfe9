import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from projnash import cli
from projnash.cli import (instance_digest, parse_problem, run,
                          serialize_instance)
from projnash.errors import HypothesisError, InputError, ParseError
from projnash.expressions import AffineMap, Polynomial
from projnash.fixtures import FIXTURE_NAMES, fixture_path, fixture_text
from projnash.game import MovingBox, build_instance, from_utilities
from projnash.geometry import Ball, Box
from projnash.preferences import DirectionField, Sampled, UtilityInduced, preferred

from test_check_nep_many import with_margin
from test_game import triangle_constraint

EXPAND = str(fixture_path("expand"))
SELFMAP = str(fixture_path("selfmap"))


def run_capture(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


# -- parsing -----------------------------------------------------------------------

def test_round_trip_digest_all_fixtures():
    for name in FIXTURE_NAMES:
        g = parse_problem(fixture_text(name))
        g2 = parse_problem(serialize_instance(g))
        assert instance_digest(g) == instance_digest(g2), name


def _seventeen_digits(v: float) -> float:
    """The first float from ``v`` up whose shortest text has 17 digits."""
    while float(f"{v:.16g}") == v:
        v = math.nextafter(v, math.inf)
    return v


#: floats of magnitude 1 to 4 whose text needs all 17 significant digits (in
#: [1, 4) a float is at most 4.4e-16 from the next, finer than 16 digits)
DIGITS17 = st.builds(lambda v, sign: sign * _seventeen_digits(v),
                     st.floats(1.0, 4.0, exclude_max=True), st.sampled_from([1.0, -1.0]))


@st.composite
def declared_games(draw, choice, preference):
    """A game of one to three players, the first declaring ``choice`` and
    ``preference``, the others drawing theirs: box or ball choice sets,
    affine ``kbox`` rows, and utility (own-linear or exactly concave),
    direction or sampled preferences."""
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    n = sum(dims)
    x = [Polynomial.variable(j, n) for j in range(n)]
    vec = lambda d: tuple(draw(DIGITS17) for _ in range(d))
    choices, constraints, preferences = [], [], []
    for i, d in enumerate(dims):
        start = sum(dims[:i])
        if (choice if i == 0 else draw(st.sampled_from(["box", "ball"]))) == "box":
            lo = vec(d)
            choices.append(Box(lo, tuple(v + abs(draw(DIGITS17)) for v in lo)))
        else:
            choices.append(Ball(vec(d), abs(draw(DIGITS17))))
        matrix = tuple(vec(n) for _ in range(d))
        offset = vec(d)
        # equal slopes and a wider upper offset: never empty
        constraints.append(MovingBox(i, AffineMap(matrix, offset), AffineMap(
            matrix, tuple(b + 1 + abs(draw(DIGITS17)) for b in offset))))
        block = dict(player_index=i, n_vars=n, own_start=start, own_dim=d)
        kind = preference if i == 0 else draw(st.sampled_from(["utility", "direction", "sampled"]))
        if kind == "utility":
            rival = ([x[j] for j in range(n) if not start <= j < start + d]
                     or [Polynomial.constant(1.0, n)])
            utility = Polynomial.constant(draw(DIGITS17), n)
            for j in range(start, start + d):
                utility = utility + Polynomial.constant(draw(DIGITS17), n) * x[j] * draw(
                    st.sampled_from(rival)).pow(draw(st.integers(0, 2)))
                if draw(st.booleans()):      # concave: a constant negative own square
                    utility = utility - Polynomial.constant(abs(draw(DIGITS17)), n) * x[j].pow(2)
            preferences.append(UtilityInduced(**block, utility=utility))
        elif kind == "direction":
            c = AffineMap(tuple(vec(n) for _ in range(d)), vec(d))
            preferences.append(DirectionField(**block, c=c, offset=abs(draw(DIGITS17))))
        else:
            # z-points at or above 1 and at-points below -1 in their first own
            # coordinate, a distinct integer part each: no repeat, and every
            # at-point's own block lies outside the hull of the z-points
            zpoints = [(k + 1 + abs(draw(DIGITS17)) / 8,) + tuple(1 + abs(v) for v in vec(d - 1))
                       for k in range(draw(st.integers(1, 3)))]
            at_points = []
            for r in range(draw(st.integers(1, 3))):
                point = list(vec(n))
                point[start] = -(r + 1) - abs(draw(DIGITS17)) / 8
                for j in range(start + 1, start + d):
                    point[j] = -1 - abs(point[j])
                at_points.append(tuple(point))
            prefers = tuple(tuple(draw(st.booleans()) for _ in zpoints) for _ in at_points)
            preferences.append(Sampled(**block, at_points=tuple(at_points),
                                       zpoints=tuple(zpoints), prefers=prefers))
    options = draw(st.fixed_dictionaries({}, optional={"h": DIGITS17.map(abs),
                                                       "seed": st.integers(0, 99)}))
    return build_instance(dims, choices, constraints, preferences, options=options)


@pytest.mark.parametrize("preference", ["utility", "direction", "sampled"])
@pytest.mark.parametrize("choice", ["box", "ball"])
@given(data=st.data())
def test_serialize_parse_serialize_is_the_identity(choice, preference, data):
    game = data.draw(declared_games(choice, preference))
    text = serialize_instance(game)
    again = parse_problem(text)
    assert serialize_instance(again) == text
    # and nothing was rounded on the way: the text reads back every bit
    for role in ("choice_sets", "constraint_maps", "preference_maps"):
        assert getattr(again, role) == getattr(game, role), role


def test_the_writer_refuses_what_the_language_cannot_state():
    # a utility margin has no .gnep form, and dropping it would alias digests
    with pytest.raises(InputError, match=r"^utility margins are not serializable$"):
        serialize_instance(with_margin(parse_problem(fixture_text("expand")), 1e-3))
    box = MovingBox(player_index=1, lower=AffineMap.constant([0.0], 3),
                    upper=AffineMap.constant([1.0], 3))
    game = from_utilities([2, 1], [Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,), (1.0,))],
                          [triangle_constraint(3), box], ["x1 + x2", "x3"])
    with pytest.raises(InputError, match=r"^no \.gnep constraint kind declares a MovingPolytope$"):
        serialize_instance(game)


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_problem("players 2 dims 1 1\nplayer 1\nbox [0] [1]\nkbox [0] [1]\nutility x1 $\n")
    assert err.value.line == 5


_ONE = "players 1 dims 1\nplayer 1\n"
_BODY = "box [0] [1]\nkbox [0] [1]\n"

#: (malformed text, message, line, col[, id]): one row per parser error
#: site.  A row's test id is its message, or its own ``id`` where the
#: message repeats: the location, then the message or what it refuses
MALFORMED = [
    ("plyers 1 dims 1\n", "expected 'players', found 'plyers'", 1, 1),
    ("players 1.5 dims 1\n", "expected an integer, found '1.5'", 1, 9),
    ("players\n", "expected an integer, found 'eof'", 2, 1),
    ("players 0 dims\n", "need at least one player", 1, 9),
    ("players 2 dims 1 0\n", "player dimensions must be positive", 1, 18),
    ("players 1 dims 1\nset h abc\n", "expected a number, found 'abc'", 2, 7),
    ("players 1 dims 1\nset speed 1\n", "unknown option 'speed'", 2, 5),
    ("players 1 dims 1\nset strictness 0\n", "unknown option 'strictness'", 2, 5),
    # the integer options take integer tokens, as their flags do
    ("players 1 dims 1\nset seed 1.25\n", "expected an integer, found '1.25'", 2, 10),
    ("players 1 dims 1\nset budget 2.7\n", "expected an integer, found '2.7'", 2, 12),
    ("players 1 dims 1\nset max_iter 2e3\n", "expected an integer, found '2e3'", 2, 14),
    ("players 1 dims 1\nset multistart 4.0\n", "expected an integer, found '4.0'", 2, 16),
    ("players 1 dims 1\nplayer 3\n", "player index out of range", 2, 8),
    (_ONE + _BODY + "utility x1\nplayer 1\n", "player 1 declared twice", 6, 8),
    (_ONE + "cube [0] [1]\n", "expected 'box' or 'ball'", 3, 1),
    (_ONE + "box 0 [1]\n", "expected '[', found '0'", 3, 5),
    (_ONE + "box [0\n] [1]\n", "expected ',' or ']', found '\\n'", 3, 7),
    (_ONE + "box [x1] [1]\n", "expected a constant vector entry", 3, 5),
    (_ONE + "box [0, 1] [1]\n", "choice box must have 1 entries", 3, 5),
    (_ONE + "box [0] [1, 1]\n", "choice box must have 1 entries", 3, 9,
     "3:9 choice box must have 1 entries"),
    # a literal or a product that overflows is refused, not loaded as infinity
    (_ONE + "box [0] [1e999]\n", "expression coefficient overflows the float range", 3, 10,
     "3:10 coefficient overflow in a box bound"),
    (_ONE + _BODY + "utility 1e999*x1\n", "expression coefficient overflows the float range", 5, 9,
     "5:9 coefficient overflow in a literal"),
    (_ONE + _BODY + "utility 1e200*1e200*x1\n",
     "expression coefficient overflows the float range", 5, 9,
     "5:9 coefficient overflow in a product"),
    (_ONE + _BODY + "utility x1 + 1e200*1e200 - 1e200*1e200\n",
     "expression coefficient overflows the float range", 5, 9,
     "5:9 coefficient overflow in cancelling products"),
    # a real that overflows is refused at its token: options, radii, offsets
    ("players 1 dims 1\nset h 1e999\n", "number 1e999 overflows the float range", 2, 7),
    (_ONE + "ball [0] 2e400\n", "number 2e400 overflows the float range", 3, 10),
    (_ONE + _BODY + "direction [1] offset -1e309\n",
     "number 1e309 overflows the float range", 5, 23),
    (_ONE + "ball [0, 0] 1\n", "ball center must have 1 entries", 3, 6),
    (_ONE + "box [0] [1]\nkbox [0, 0] [1]\n", "constraint bounds must have 1 entries", 4, 6),
    (_ONE + "box [0] [1]\nkbox [0] [1, 2]\n", "constraint bounds must have 1 entries", 4, 10,
     "4:10 constraint bounds must have 1 entries"),
    # a declaration its class refuses is refused at the kind's keyword, and
    # a row above degree 1 at the '[' of its affine vector
    (_ONE + "box [1] [0]\n", "empty box: lower (1.0,) exceeds upper (0.0,)", 3, 1),
    (_ONE + "ball [0] -1\n", "ball radius must be finite and nonnegative, its center finite",
     3, 1),
    (_ONE + _BODY + "direction [1] offset -1\n", "direction offset must be finite and nonnegative",
     5, 1),
    (_ONE + "box [0] [1]\nkbox [x1^2] [1]\n",
     "expression of degree 2 used where an affine expression is required", 4, 6,
     "4:6 degree 2 in constraint bounds"),
    (_ONE + _BODY + "direction [x1^2] offset 0\n",
     "expression of degree 2 used where an affine expression is required", 5, 11,
     "5:11 degree 2 in a direction field"),
    (_ONE + "box [0] [1]\n[0] [1]\n", "expected 'kbox', found '['", 4, 1),
    (_ONE + _BODY + "5\n", "expected a preference declaration", 5, 1),
    (_ONE + _BODY + "wants x1\n", "unknown preference kind 'wants'", 5, 1),
    (_ONE + _BODY + "utility x1 x1\n", "unexpected token 'x1' in expression", 5, 12),
    (_ONE + _BODY + "direction [1, 1] offset 0\n", "direction field must have 1 entries", 5, 11),
    (_ONE + _BODY + "direction [1] offset\n", "expected a number, found 'eof'", 6, 1),
    (_ONE + _BODY + "sampled\nzpoints [0, 1]\n", "zpoint must have 1 entries", 6, 9),
    (_ONE + _BODY + "sampled\nzpoints\nat [0] prefers\nend\n", "expected '[', found 'at'", 7, 1),
    (_ONE + _BODY + "sampled\nzpoints [0] [1] [1e-10]\n",
     "sampled preference for player 1 repeats the z-point [1e-10]", 6, 17),
    (_ONE + _BODY + "sampled\nzpoints [0] [1]\nat [0, 0] prefers [1]\nend\n",
     "at-point must have 1 entries", 7, 4),
    (_ONE + _BODY + "sampled\nzpoints [0] [1]\nat [0] prefers [1]\nat [1e-10] prefers\nend\n",
     "sampled preference for player 1 repeats the at-point [1e-10]", 8, 4),
    (_ONE + _BODY + "sampled\nzpoints [0] [1]\nat [0] prefers [0.5]\nend\n",
     "preferred point [0.5] is not a declared zpoint", 7, 16),
    (_ONE + _BODY + "sampled\nzpoints [0] [1]\nat [0] prefers [1, 0]\nend\n",
     "preferred point must have 1 entries", 7, 16),
    (_ONE + _BODY + "sampled\nzpoints [0] [1]\nend\n",
     "sampled preference needs at least one 'at' row", 7, 1),
    ("players 2 dims 1 1\nplayer 1\n" + _BODY + "utility x1\n",
     "missing declarations for players [2]", None, None),
]


MALFORMED_IDS = [row[4] if len(row) > 4 else row[1] for row in MALFORMED]


def test_malformed_rows_have_their_own_ids():
    # a repeated id would make pytest number every row that shares it
    assert len(set(MALFORMED_IDS)) == len(MALFORMED)


@pytest.mark.parametrize("text, message, line, col", [row[:4] for row in MALFORMED],
                         ids=MALFORMED_IDS)
def test_parse_errors_name_their_token(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (line, col)
    prefix = "" if line is None else f"line {line} col {col}: "
    assert str(err.value) == prefix + message


def test_parse_rejects_unknown_preference():
    with pytest.raises(ParseError):
        parse_problem("players 1 dims 1\nplayer 1\nbox [0] [1]\nkbox [0] [1]\nwants x1\n")


def test_parse_rejects_degree_five():
    text = "players 1 dims 1\nplayer 1\nbox [0] [1]\nkbox [0] [1]\nutility x1^5\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "exceeds" in str(err.value)


def test_parse_rejects_duplicate_player():
    text = ("players 2 dims 1 1\n"
            "player 1\nbox [0] [1]\nkbox [0] [1]\nutility x1\n"
            "player 1\nbox [0] [1]\nkbox [0] [1]\nutility x1\n")
    with pytest.raises(ParseError):
        parse_problem(text)


def test_parse_rejects_missing_player():
    text = "players 2 dims 1 1\nplayer 1\nbox [0] [1]\nkbox [0] [1]\nutility x1\n"
    with pytest.raises(ParseError):
        parse_problem(text)


def test_parse_empty_constraint_names_witness():
    text = ("players 2 dims 1 1\n"
            "player 1\nbox [0] [1]\nkbox [1] [x2 - 0.5]\nutility x1\n"
            "player 2\nbox [0] [1]\nkbox [0] [1]\nutility x2\n")
    with pytest.raises(HypothesisError) as err:
        parse_problem(text)
    assert err.value.witness is not None


def _disk_window_game(c):
    return ("players 2 dims 2 1\n"
            "player 1\nball [0, 0] 1\nkbox [-1, -1] [1, 1]\nutility x1 + x2\n"
            f"player 2\nbox [-1] [1]\nkbox [x1 + x2 - {c}] [0]\nutility x3\n")


def test_empty_constraint_on_a_ball_is_found_exactly():
    # x1 + x2 - c > 0 somewhere on the ball for c = 1, nowhere for c = 1.5;
    # the gap's minimum over the ball is decided exactly, at the maximizer
    # of x1 + x2 (player 2's zero weight takes its upper bound)
    with pytest.raises(HypothesisError) as err:
        parse_problem(_disk_window_game(1.0))
    assert "is empty at a choice point (component 1 has lower > upper)" in str(err.value)
    assert np.allclose(err.value.witness, [math.sqrt(0.5), math.sqrt(0.5), 1.0],
                       rtol=0.0, atol=1e-15)
    g = parse_problem(_disk_window_game(1.5))
    assert g.hypotheses.constraint_probes > 0


def test_empty_constraint_between_the_probes_of_a_ball_is_found():
    # the largest x1 + x2 on the 7-point probe grid inside the unit disk is
    # 4/3 < 1.38 < sqrt(2), so only the exact minimum finds the empty values
    text = ("players 2 dims 2 1\n"
            "player 1\nball [0, 0] 1\nkbox [x1 + x2 - 1.38, -1] [0, 1]\nutility x1 + x2\n"
            "player 2\nbox [-1] [1]\nkbox [-1] [1]\nutility x3\n")
    with pytest.raises(HypothesisError, match="player 1 is empty") as err:
        parse_problem(text)
    assert np.allclose(err.value.witness, [math.sqrt(0.5), math.sqrt(0.5), 1.0])


def test_parse_options_and_flag_to_utility_flag():
    text = ("players 1 dims 1\nset h 0.05\nset seed 3\n"
            "player 1\nbox [0] [1]\nkbox [0] [1]\nutility x1\n")
    g = parse_problem(text)
    assert g.options == {"h": 0.05, "seed": 3}
    assert g.utility_reducible


def test_parse_sampled_preference_table():
    g = parse_problem(fixture_text("table"))
    p = g.preference_maps[0]
    assert preferred(p, [0.0, 0.0], [0.5]) is True
    assert preferred(p, [1.0, 0.0], [0.5]) is False
    assert not g.utility_reducible


# -- CLI behaviour ---------------------------------------------------------------

def test_cli_oracle_exit_zero_and_certificate():
    code, out = run_capture(["oracle", EXPAND, "--h", "0.05"])
    assert code == 0
    assert "certificate[0].x = 1, 1" in out
    assert "certificate[0].y = 2, 2" in out
    assert "certificate[0].verdict = pass" in out


def test_cli_qvi_settles_scan_rows_past_the_domain(tmp_path):
    # the scan lattice snaps outward to 1.1, past the domain [0, 1.05], and
    # there the gradient of -(x1 - 1.1)^3 vanishes: the QVI route settles
    # the row by the fallback and certifies what the oracle certifies
    path = tmp_path / "outward.gnep"
    path.write_text("players 1 dims 1\nplayer 1\nbox [0] [1]\nkbox [0] [1.05]\n"
                    "utility -(x1 - 1.1)^3\n")
    certificates = {}
    for command in ("solve-qvi", "oracle"):
        code, out = run_capture([command, str(path), "--h", "0.1"])
        assert code == 0, out
        certificates[command] = [line for line in out.splitlines()
                                 if line.startswith("certificate")]
    assert certificates["solve-qvi"] == certificates["oracle"]
    assert certificates["oracle"][:3] == ["certificates = 1", "certificate[0].x = 0",
                                          "certificate[0].y = 0"]


def test_cli_verify_pass():
    code, out = run_capture(["verify", EXPAND, "--x", "1,1", "--y", "2,2"])
    assert code == 0
    assert "verdict = pass" in out


def test_cli_verify_fail_projection_reason():
    code, out = run_capture(["verify", EXPAND, "--x", "0.5,0.5", "--y", "1.5,1.5"])
    assert code == 1
    assert "verdict = fail" in out
    assert "reason = projection" in out


def test_cli_solver_clean_no_certificate_exit_one():
    code, out = run_capture(["solve-fp", EXPAND, "--max-iter", "0",
                             "--multistart", "1"])
    assert code == 1
    assert "advisory" in out


def test_cli_unknown_command_exit_two(capsys):
    assert run(["frobnicate", EXPAND]) == 2


def test_cli_unknown_flag_exit_two(capsys):
    assert run(["oracle", EXPAND, "--frobnicate", "1"]) == 2


def test_cli_missing_file_exit_two(capsys):
    assert run(["oracle", "/nonexistent/path.gnep"]) == 2


def test_cli_bad_candidate_vector_exit_two(capsys):
    assert run(["verify", EXPAND, "--x", "1", "--y", "2,2"]) == 2


@pytest.mark.parametrize("x, y", [("0.5,0.5", "nan,0.5"), ("nan,0.5", "0.5,0.5"),
                                  ("0.5,inf", "0.5,0.5")])
def test_cli_verify_non_finite_candidate_exit_two(capsys, x, y):
    # unchecked, a NaN y passes with NaN residuals
    assert run(["verify", SELFMAP, "--x", x, "--y", y]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--h", "nan"), ("--h", "inf"), ("--h-g", "nan"),
                                         ("--eps", "nan"), ("--h", "1e-300")])
def test_cli_verify_degenerate_config_exit_two(capsys, flag, value):
    assert run(["verify", SELFMAP, "--x", "0,0", "--y", "0,0", flag, value]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, message", [("--h", "grid resolution h"),
                                           ("--eps", "residual tolerance eps"),
                                           ("--h-g", "distance grid step")])
def test_cli_infinite_step_is_refused_as_not_finite(capsys, flag, message):
    # 1e999 parses as infinity; the message names both conditions
    assert run(["oracle", EXPAND, flag, "1e999"]) == 2
    assert f"{message} must be positive and finite" in capsys.readouterr().err


def test_cli_reuses_one_parser_across_calls(capsys):
    calls = [["oracle", EXPAND, "--h", "0.05"],
             ["verify", SELFMAP, "--x", "0.5,0.5", "--y", "0.5,0.5", "--seed", "3"],
             ["oracle", EXPAND, "--frobnicate", "1"],
             ["solve-fp", EXPAND, "--h", "0.05", "--multistart", "2", "--lambda", "0.5"],
             ["verify", EXPAND, "--x", "1,1"],
             ["solve-qvi", SELFMAP, "--h", "0.05"],
             ["oracle", EXPAND, "--h", "0.05"]]

    def fresh(argv):
        cli._build_parser.cache_clear()
        return run_capture(argv)

    want = [fresh(argv) for argv in calls]
    cli._build_parser.cache_clear()
    got = [run_capture(argv) for argv in calls]
    assert got == want
    assert [code for code, _ in got] == [0, 0, 2, 0, 2, 0, 0]
    assert cli._build_parser.cache_info().misses == 1
    # a parse that fails leaves the next call unchanged
    assert run_capture(["frobnicate", EXPAND]) == (2, "")
    assert run_capture(calls[0]) == want[0]


def test_cli_floats_printed_at_17_digits():
    code, out = run_capture(["oracle", EXPAND, "--h", "0.05"])
    assert "config.h = 0.050000000000000003" in out


def test_cli_file_options_and_flag_precedence(tmp_path):
    text = fixture_text("expand").replace(
        "players 2 dims 1 1", "players 2 dims 1 1\nset h 0.05")
    path = tmp_path / "expand_opts.gnep"
    path.write_text(text)
    code, out = run_capture(["oracle", str(path)])
    assert "config.h = 0.050000000000000003" in out
    code, out = run_capture(["oracle", str(path), "--h", "0.1"])
    assert "config.h = 0.10000000000000001" in out


#: a file value and a flag value per option, both off the solver defaults
OPTION_VALUES = {"h": ("0.05", "0.1"), "eps": ("0.001", "0.002"), "lambda": ("0.5", "0.25"),
                 "budget": ("16", "32"), "seed": ("3", "7"), "max_iter": ("10", "20"),
                 "multistart": ("2", "3"), "h_g": ("0.05", "0.1")}


@pytest.mark.parametrize("key", list(cli.OPTIONS))
def test_every_option_reaches_its_field_and_its_flag_wins(tmp_path, key):
    field, kind = cli.OPTIONS[key]
    in_file, in_flag = OPTION_VALUES[key]
    path = tmp_path / "expand_opts.gnep"
    path.write_text(fixture_text("expand").replace(
        "players 2 dims 1 1", f"players 2 dims 1 1\nset {key} {in_file}"))
    verify = ["verify", str(path), "--x", "1,1", "--y", "2,2"]
    with_flag = verify + ["--" + key.replace("_", "-"), in_flag]
    options = parse_problem(path.read_text()).options
    parse_args = cli._build_parser().parse_args
    assert getattr(cli._config_from(options, parse_args(verify)), field) == kind(in_file)
    assert getattr(cli._config_from(options, parse_args(with_flag)), field) == kind(in_flag)
    code, out = run_capture(with_flag)
    assert code == 0
    for name in {"eps": ("eps_analytic", "eps_grid")}.get(key, (key,)):
        assert f"config.{name} = {cli._fmt(kind(in_flag))}" in out.splitlines()


#: the grammar's symbol for each field type of ``cli.DECLARATIONS``
GRAMMAR_SYMBOLS = {"vec": "vec", "affine": "avec", "real": "REAL", "poly": "poly",
                   "table": "table"}


def test_grammar_declarations_match_the_declaration_table():
    # each alternative of the choice, constraint and preference rules is one
    # kind's entry: its keyword, then its fields in order
    grammar = (Path(cli.__file__).parent / "docs" / "problem_grammar.ebnf").read_text()
    for role, kinds in cli.DECLARATIONS.items():
        rule = re.search(rf"^{role}\s*=([^;]*);", grammar, re.MULTILINE).group(1)
        listed = [alt.replace('"', " ").replace(",", " ").split() for alt in rule.split("|")]
        assert listed == [[keyword] + [GRAMMAR_SYMBOLS.get(w.partition(":")[2], w)
                                       for w in fields.split()]
                          for keyword, (_, fields, _) in kinds.items()], role


def test_grammar_option_keys_match_the_option_table():
    grammar = (Path(cli.__file__).parent / "docs" / "problem_grammar.ebnf").read_text()
    for rule, kind in (("REALKEY", float), ("INTKEY", int)):
        listed = re.search(rf"^{rule}\s*=([^;]*);", grammar, re.MULTILINE).group(1)
        assert sorted(re.findall(r'"(\w+)"', listed)) == sorted(
            key for key, (_, k) in cli.OPTIONS.items() if k is kind)


def test_cli_solvers_agree_on_expand():
    xs = []
    for command in ("oracle", "solve-fp", "solve-qvi"):
        code, out = run_capture([command, EXPAND, "--h", "0.02"])
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("certificate[0].x ="))
        xs.append(np.array([float(v) for v in line.split("=")[1].split(",")]))
    for x in xs[1:]:
        assert np.all(np.abs(x - xs[0]) <= 0.04)


def test_cli_verify_on_sampled_table_fixture():
    # declared at-point: the scan uses the table's own z grid
    code, out = run_capture(["verify", str(fixture_path("table")),
                             "--x", "1,0", "--y", "1,0"])
    assert code == 1
    assert "reason = intersection[1]" in out


def test_cli_solvers_reject_misaligned_sampled_grid(capsys):
    # scan grids cannot be matched against the declared table: clean error
    assert run(["oracle", str(fixture_path("table")), "--h", "0.25"]) == 2


def test_cli_report_regeneration_is_byte_identical():
    _, first = run_capture(["solve-qvi", EXPAND, "--h", "0.05", "--seed", "7"])
    _, second = run_capture(["solve-qvi", EXPAND, "--h", "0.05", "--seed", "7"])
    assert first == second

import io

import numpy as np
import pytest

from projnash import cli
from projnash.cli import (instance_digest, parse_problem, run,
                          serialize_instance)
from projnash.errors import HypothesisError, ParseError
from projnash.fixtures import FIXTURE_NAMES, fixture_path, fixture_text
from projnash.preferences import preferred

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


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_problem("players 2 dims 1 1\nplayer 1\nbox [0] [1]\nkbox [0] [1]\nutility x1 $\n")
    assert err.value.line == 5


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

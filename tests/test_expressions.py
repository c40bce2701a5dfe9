import numpy as np
import pytest

from projnash.errors import InputError, ParseError
from projnash.expressions import (AffineMap, format_float,
                                  parse_polynomial_text, tokenize)


def test_parse_and_eval_basic():
    p = parse_polynomial_text("x1*x2 + 2", 2)
    assert p.eval([3.0, 4.0]) == 14.0
    assert p.degree() == 2


def test_parse_powers_and_unary_minus():
    p = parse_polynomial_text("-(x1 - 0.5)^2", 1)
    assert p.eval([0.5]) == 0.0
    assert p.eval([0.0]) == -0.25
    q = parse_polynomial_text("-x1^2", 1)
    assert q.eval([2.0]) == -4.0  # unary minus binds looser than the power


def test_parse_double_star_power():
    p = parse_polynomial_text("x1**3", 1)
    assert p.eval([2.0]) == 8.0


def test_degree_guard_reports_location():
    with pytest.raises(ParseError) as err:
        parse_polynomial_text("x1^3 * x2^2", 2)
    assert "degree" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial_text("x1^5", 1)


def test_unknown_identifier_and_range():
    with pytest.raises(ParseError):
        parse_polynomial_text("y1 + 1", 2)
    with pytest.raises(ParseError) as err:
        parse_polynomial_text("x3", 2)
    assert "x3" in str(err.value)


def test_tokenizer_rejects_garbage_with_location():
    with pytest.raises(ParseError) as err:
        tokenize("x1 + $")
    assert err.value.line == 1
    assert err.value.col == 6


def test_gradient_matches_finite_differences():
    p = parse_polynomial_text("x1^2*x2 - 3*x1 + 0.5*x2^3", 2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        for j in range(2):
            h = 1e-6
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            fd = (p.eval(xp) - p.eval(xm)) / (2 * h)
            assert abs(p.partial(j).eval(x) - fd) < 1e-5


def test_eval_many_matches_scalar_eval():
    p = parse_polynomial_text("2*x1^2 - x2 + 1", 2)
    pts = np.random.default_rng(2).uniform(-1, 1, (40, 2))
    batch = p.eval_many(pts)
    for row, val in zip(pts, batch):
        assert abs(p.eval(row) - val) < 1e-12


def test_to_text_round_trip():
    p = parse_polynomial_text("3*x1^2*x2 - 0.25 + x2", 2)
    q = parse_polynomial_text(p.to_text(), 2)
    assert p == q


def test_affine_from_polynomials_and_range():
    rows = [parse_polynomial_text("1 + x2", 2), parse_polynomial_text("2*x1 - x2", 2)]
    amap = AffineMap.from_polynomials(rows)
    assert np.allclose(amap.eval([1.0, 3.0]), [4.0, -1.0])
    lo, hi = amap.range_over_box([0, 0], [1, 1])
    # dense oracle over the box corners (affine extremes sit at corners)
    corners = np.array([[a, b] for a in (0, 1) for b in (1, 0)], dtype=float)
    vals = amap.eval_many(corners)
    assert np.allclose(lo, vals.min(axis=0))
    assert np.allclose(hi, vals.max(axis=0))


def test_affine_rows_do_not_depend_on_the_batch():
    # generic coefficients, where a matmul's rounding varies with the batch:
    # every row is the column-order sum, whether alone, in a batch or via eval
    rng = np.random.default_rng(5)
    for n, m in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        amap = AffineMap(tuple(map(tuple, rng.normal(size=(m, n)).tolist())),
                         tuple(rng.normal(size=m).tolist()))
        pts = rng.uniform(-2.0, 2.0, (500, n))
        a, b = amap._np
        want = np.zeros((500, m))
        for j in range(n):
            want = want + pts[:, j, None] * a[:, j]
        want = want + b
        assert np.array_equal(amap.eval_many(pts), want)
        assert np.array_equal(amap.eval_many(pts[::7]), want[::7])
        for r in range(0, 500, 25):
            assert np.array_equal(amap.eval(pts[r]), want[r])
            assert np.array_equal(amap.eval_many(pts[r:r + 1]), want[r:r + 1])


def test_affine_rejects_quadratic():
    with pytest.raises(InputError):
        AffineMap.from_polynomials([parse_polynomial_text("x1^2", 1)])


def test_format_float_17_digits():
    assert format_float(0.05) == "0.050000000000000003"
    assert format_float(1.0) == "1"

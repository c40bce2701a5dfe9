"""Polynomial and affine expressions over joint strategy vectors.

Problem files write utilities and constraint bounds as expressions in the
joint variables ``x1 .. xn`` using ``+ - * ^`` and parentheses.  This module
owns the tokenizer for that syntax, the one reader of problem text
(:class:`Cursor`), and the two value types everything downstream evaluates:

* :class:`Polynomial` -- a multivariate polynomial stored as a map from
  exponent tuples to coefficients; supports batched numpy evaluation and
  partial derivatives.
* :class:`AffineMap` -- a vector-valued affine map ``x -> A x + b`` with
  exact interval arithmetic over boxes.

Total degree is capped at :data:`MAX_DEGREE` at parse time, and every
coefficient of a parsed expression must be finite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, ParseError

MAX_DEGREE = 4

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # num | ident | op | newline | eof
    text: str
    line: int
    col: int

    def is_op(self, *texts: str) -> bool:
        return self.kind == "op" and self.text in texts

    def error(self, message: str) -> ParseError:
        """``message`` located at this token."""
        return ParseError(message, self.line, self.col)


_TOKEN_RE = re.compile(
    r"""
      (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>\*\*|[+\-*^\[\](),])
    | (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<newline>\n)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, keeping newline markers.

    Raises :class:`ParseError` on any character outside the grammar.
    """
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind in ("num", "ident", "op"):
            tokens.append(Token(kind, "^" if raw == "**" else raw, line, col))
        elif kind == "newline":
            tokens.append(Token("newline", "\n", line, col))
            line += 1
            col = 0
        # whitespace and comments are dropped
        col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------

def _canonical(terms: dict[tuple[int, ...], float]) -> tuple:
    items = [(e, c) for e, c in sorted(terms.items()) if c != 0.0]
    return tuple(items)


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial in ``n_vars`` variables.

    ``terms`` maps exponent tuples (length ``n_vars``) to coefficients and is
    kept canonical: sorted, with zero coefficients dropped.  Instances are
    immutable and hashable, so they can key caches.
    """

    n_vars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float, n_vars: int) -> "Polynomial":
        zero = (0,) * n_vars
        return Polynomial(n_vars, _canonical({zero: float(value)}))

    @staticmethod
    def variable(index: int, n_vars: int) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise InputError(f"variable index {index} out of range for {n_vars} variables")
        exps = tuple(1 if j == index else 0 for j in range(n_vars))
        return Polynomial(n_vars, _canonical({exps: 1.0}))

    # -- algebra ------------------------------------------------------------

    def _check_same(self, other: "Polynomial") -> None:
        if self.n_vars != other.n_vars:
            raise InputError("polynomial arity mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0.0) + c
        return Polynomial(self.n_vars, _canonical(acc))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n_vars, _canonical({e: -c for e, c in self.terms}))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same(other)
        acc: dict[tuple[int, ...], float] = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = tuple(a + b for a, b in zip(ea, eb))
                acc[e] = acc.get(e, 0.0) + ca * cb
        return Polynomial(self.n_vars, _canonical(acc))

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(self.n_vars, _canonical({e: c * factor for e, c in self.terms}))

    def pow(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise InputError("negative exponents are not supported")
        out = Polynomial.constant(1.0, self.n_vars)
        for _ in range(exponent):
            out = out * self
        return out

    # -- queries ------------------------------------------------------------

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def is_constant(self) -> bool:
        return self.degree() == 0

    def constant_value(self) -> float:
        return dict(self.terms).get((0,) * self.n_vars, 0.0)

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        acc: dict[tuple[int, ...], float] = {}
        for e, c in self.terms:
            k = e[index]
            if k == 0:
                continue
            de = tuple(v - 1 if j == index else v for j, v in enumerate(e))
            acc[de] = acc.get(de, 0.0) + c * k
        return Polynomial(self.n_vars, _canonical(acc))

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def _np_terms(self) -> tuple[np.ndarray, np.ndarray]:
        exps = np.array([e for e, _ in self.terms], dtype=np.int64).reshape(len(self.terms), self.n_vars)
        coeffs = np.array([c for _, c in self.terms], dtype=np.float64)
        return exps, coeffs

    def eval(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=np.float64).reshape(1, -1))[0])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at each row of ``points`` (shape ``(m, n_vars)``)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.n_vars:
            raise InputError(
                f"expected points of shape (m, {self.n_vars}), got {points.shape}")
        out = np.zeros(points.shape[0])
        exps, coeffs = self._np_terms
        for e, c in zip(exps, coeffs):
            term = c
            for j in np.nonzero(e)[0]:
                term = term * points[:, j] ** e[j]
            out += term
        return out

    # -- formatting ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical, re-parseable text form."""
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.terms:
            factors = [_FLOAT_FMT % c]
            for j, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{j + 1}")
                elif k > 1:
                    factors.append(f"x{j + 1}^{k}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"^x(\d+)$")


class Cursor:
    """The one reader of problem text: token access, integer and real
    literals, bracketed vectors, and the expression grammar, whose values
    are :class:`Polynomial` in ``n_vars`` variables.

    Expression grammar::

        expr   := term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := atom ('^' INT)?
        atom   := NUM | VAR | '(' expr ')' | '-' atom | '+' atom

    An expression ends at a newline, ``]``, ``,`` or end of input, so its
    reads skip no newline; the other reads skip newlines by default.
    """

    def __init__(self, text: str, n_vars: int = 0):
        self.tokens = tokenize(text)
        self.pos = 0
        self.n_vars = n_vars

    def _index(self, skip_newlines: bool) -> int:
        pos = self.pos
        while skip_newlines and self.tokens[pos].kind == "newline":
            pos += 1
        return pos

    def peek(self, skip_newlines: bool = True) -> Token:
        return self.tokens[self._index(skip_newlines)]

    def next(self, skip_newlines: bool = True) -> Token:
        self.pos = self._index(skip_newlines) + 1
        return self.tokens[self.pos - 1]

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            raise tok.error(f"expected {word!r}, found {tok.text or tok.kind!r}")

    def parse_int(self, message: str = "", skip_newlines: bool = True) -> int:
        """An integer token; ``message`` replaces the default error."""
        tok = self.next(skip_newlines)
        if tok.kind != "num" or not tok.text.isdigit():
            raise tok.error(message or f"expected an integer, found {tok.text or tok.kind!r}")
        return int(tok.text)

    def parse_count(self, message: str) -> int:
        """A positive integer; ``message`` names the error at its token."""
        tok = self.peek()
        value = self.parse_int()
        if value < 1:
            raise tok.error(message)
        return value

    def parse_real(self) -> float:
        tok = self.next()
        sign = -1.0 if tok.is_op("-") else 1.0
        if tok.is_op("-", "+"):
            tok = self.next(skip_newlines=False)
        if tok.kind != "num":
            raise tok.error(f"expected a number, found {tok.text or tok.kind!r}")
        value = float(tok.text)
        if not math.isfinite(value):
            raise tok.error(f"number {tok.text} overflows the float range")
        return sign * value

    def parse_expr(self) -> Polynomial:
        """One expression; its degree and coefficients are checked at its
        first token."""
        start = self.peek(False)
        poly = self._expr()
        if poly.degree() > MAX_DEGREE:
            raise start.error(f"polynomial degree {poly.degree()} exceeds the supported "
                              f"maximum {MAX_DEGREE}")
        if not all(math.isfinite(c) for _, c in poly.terms):
            raise start.error("expression coefficient overflows the float range")
        return poly

    def parse_expr_vector(self, length: int, name: str) -> list[Polynomial]:
        """``[`` expr (``,`` expr)* ``]`` on one line; a vector of other than
        ``length`` entries is an error at its '[' that ``name``s it."""
        opening = self.next()
        if not opening.is_op("["):
            raise opening.error(f"expected '[', found {opening.text or opening.kind!r}")
        out = [self.parse_expr()]
        while (tok := self.next(False)).is_op(","):
            out.append(self.parse_expr())
        if not tok.is_op("]"):
            raise tok.error(f"expected ',' or ']', found {tok.text or tok.kind!r}")
        if len(out) != length:
            raise opening.error(f"{name} must have {length} entries")
        return out

    def parse_const_vector(self, length: int, name: str) -> tuple[float, ...]:
        """A vector of constant expressions (see :meth:`parse_expr_vector`);
        a variable entry is an error at its '['."""
        opening = self.peek()
        polys = self.parse_expr_vector(length, name)
        if any(p.degree() > 0 for p in polys):
            raise opening.error("expected a constant vector entry")
        return tuple(p.constant_value() for p in polys)

    def _expr(self) -> Polynomial:
        value = self._term()
        while (tok := self.peek(False)).is_op("+", "-"):
            self.next(False)
            rhs = self._term()
            value = value + rhs if tok.text == "+" else value - rhs
        if not (tok.kind in ("newline", "eof") or tok.is_op("]", ",", ")")):
            raise tok.error(f"unexpected token {tok.text!r} in expression")
        return value

    def _term(self) -> Polynomial:
        value = self._factor()
        while self.peek(False).is_op("*"):
            self.next(False)
            value = value * self._factor()
        return value

    def _factor(self) -> Polynomial:
        # unary sign binds looser than '^': -x1^2 == -(x1^2)
        value = self._atom()
        if self.peek(False).is_op("^"):
            self.next(False)
            etok = self.peek(False)
            exponent = self.parse_int("exponent must be a nonnegative integer", skip_newlines=False)
            if exponent > MAX_DEGREE:
                raise etok.error(f"exponent {exponent} exceeds the supported maximum {MAX_DEGREE}")
            value = value.pow(exponent)
        return value

    def _atom(self) -> Polynomial:
        tok = self.next(False)
        if tok.kind == "num":
            return Polynomial.constant(float(tok.text), self.n_vars)
        if tok.kind == "ident":
            m = _VAR_RE.match(tok.text)
            if not m:
                raise tok.error(f"unknown identifier {tok.text!r}")
            index = int(m.group(1))
            if not 1 <= index <= self.n_vars:
                raise tok.error(
                    f"variable x{index} out of range (instance has {self.n_vars} variables)")
            return Polynomial.variable(index - 1, self.n_vars)
        if tok.is_op("("):
            inner = self._expr()
            closing = self.next(False)
            if not closing.is_op(")"):
                raise closing.error("expected ')'")
            return inner
        if tok.is_op("-"):
            return -self._factor()
        if tok.is_op("+"):
            return self._factor()
        raise tok.error(f"unexpected token {tok.text!r}")


def parse_polynomial_text(text: str, n_vars: int) -> Polynomial:
    """Parse a standalone polynomial expression like ``"x1*x2 - 0.5"``."""
    cur = Cursor(text, n_vars)
    poly = cur.parse_expr()
    tok = cur.peek(False)
    if tok.kind not in ("newline", "eof"):
        raise tok.error(f"trailing input {tok.text!r}")
    return poly


# ---------------------------------------------------------------------------
# Affine maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """Vector-valued affine map ``x -> A x + b`` from R^n to R^m."""

    matrix: tuple[tuple[float, ...], ...]  # (m, n)
    offset: tuple[float, ...]              # (m,)

    @property
    def out_dim(self) -> int:
        return len(self.offset)

    @property
    def in_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @staticmethod
    def from_polynomials(polys: list[Polynomial]) -> "AffineMap":
        """Build from degree-<=1 polynomials; errors on higher degree."""
        if not polys:
            raise InputError("affine map needs at least one row")
        n = polys[0].n_vars
        rows = []
        offs = []
        for p in polys:
            if p.n_vars != n:
                raise InputError("affine rows disagree on arity")
            if p.degree() > 1:
                raise InputError(
                    f"expression of degree {p.degree()} used where an affine expression is required")
            row = [0.0] * n
            off = 0.0
            for e, c in p.terms:
                if sum(e) == 0:
                    off = c
                else:
                    row[e.index(1)] = c
            rows.append(tuple(row))
            offs.append(off)
        return AffineMap(tuple(rows), tuple(offs))

    @staticmethod
    def constant(values, in_dim: int) -> "AffineMap":
        values = [float(v) for v in values]
        zero = tuple(0.0 for _ in range(in_dim))
        return AffineMap(tuple(zero for _ in values), tuple(values))

    @cached_property
    def _np(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array(self.matrix, dtype=np.float64).reshape(self.out_dim, self.in_dim),
            np.array(self.offset, dtype=np.float64),
        )

    def is_constant(self) -> bool:
        a, _ = self._np
        return bool(np.all(a == 0.0))

    def eval(self, x) -> np.ndarray:
        """One row of :meth:`eval_many`: the same products and sums in the
        same order, in Python floats, without the per-call array overhead."""
        x = np.asarray(x, dtype=np.float64).tolist()
        out = []
        for row, off in zip(self.matrix, self.offset):
            acc = 0.0
            for xj, aj in zip(x, row):
                acc += xj * aj
            out.append(acc + off)
        return np.array(out)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Rows of ``points`` (m, n) -> values (m, out_dim).

        Adds ``points[:, j] * a[:, j]`` in column order, then ``b``: one
        fixed order, so a row's value does not depend on its batch."""
        points = np.asarray(points, dtype=np.float64)
        if points.shape[0] == 1:        # the same sums in Python floats, faster
            return self.eval(points[0])[None, :]
        a, b = self._np
        out = np.zeros((points.shape[0], self.out_dim))
        for col, a_col in zip(points.T, a.T):
            out += col[:, None] * a_col
        return out + b

    def range_over_box(self, lower, upper) -> tuple[np.ndarray, np.ndarray]:
        """Exact componentwise range of the map over the box [lower, upper]."""
        a, b = self._np
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        pos = np.clip(a, 0.0, None)
        neg = np.clip(a, None, 0.0)
        lo = b + pos @ lower + neg @ upper
        hi = b + pos @ upper + neg @ lower
        return lo, hi

    def to_polynomials(self) -> list[Polynomial]:
        out = []
        for row, off in zip(self.matrix, self.offset):
            p = Polynomial.constant(off, self.in_dim)
            for j, c in enumerate(row):
                if c:
                    p = p + Polynomial.variable(j, self.in_dim).scale(c)
            out.append(p)
        return out

    def to_text_rows(self) -> list[str]:
        return [p.to_text() for p in self.to_polynomials()]


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (report convention)."""
    return _FLOAT_FMT % value

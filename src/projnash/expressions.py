"""Polynomial and affine expressions over joint strategy vectors.

Problem files write utilities and constraint bounds as expressions in the
joint variables ``x1 .. xn`` using ``+ - * ^`` and parentheses.  This module
owns the tokenizer for that syntax, the expression parser, and the two value
types everything downstream evaluates:

* :class:`Polynomial` -- a multivariate polynomial stored as a map from
  exponent tuples to coefficients; supports batched numpy evaluation,
  partial derivatives and variable remapping.
* :class:`AffineMap` -- a vector-valued affine map ``x -> A x + b`` with
  exact interval arithmetic over boxes.

Total degree is capped at :data:`MAX_DEGREE` at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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
        if kind == "num":
            tokens.append(Token("num", raw, line, col))
        elif kind == "ident":
            tokens.append(Token("ident", raw, line, col))
        elif kind == "op":
            op = "^" if raw == "**" else raw
            tokens.append(Token("op", op, line, col))
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
        zero = (0,) * self.n_vars
        for e, c in self.terms:
            if e == zero:
                return c
        return 0.0

    def uses_variable(self, index: int) -> bool:
        return any(e[index] for e, _ in self.terms)

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

    def remap(self, mapping: dict[int, int], new_n_vars: int) -> "Polynomial":
        """Return the same polynomial over ``new_n_vars`` variables with each
        old variable ``j`` renamed to ``mapping[j]``."""
        acc: dict[tuple[int, ...], float] = {}
        for e, c in self.terms:
            ne = [0] * new_n_vars
            for j, k in enumerate(e):
                if k:
                    ne[mapping[j]] += k
            key = tuple(ne)
            acc[key] = acc.get(key, 0.0) + c
        return Polynomial(new_n_vars, _canonical(acc))

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
        return self.eval_columns([points[:, j] for j in range(self.n_vars)], points.shape[:1])

    def eval_columns(self, cols, shape: tuple[int, ...],
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """Evaluate on per-variable arrays broadcast to ``shape``: point
        columns, or grid axes shaped along their own dimensions (``None``
        for a variable no term reads).  Terms multiply ``cols[j] ** e_j`` in
        variable order and add in order, so a grid point rounds as its row
        does under :meth:`eval_many`.  With ``out``, the terms are added on
        to it, in place, instead of to zeros."""
        out = np.zeros(shape) if out is None else out
        exps, coeffs = self._np_terms
        for e, c in zip(exps, coeffs):
            term = c
            for j in np.nonzero(e)[0]:
                term = term * cols[j] ** e[j]
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
# Expression parser
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"^x(\d+)$")

_EXPR_STOP = {"]", ",", ")"}  # handled by callers; ')' only closes '('


class ExpressionParser:
    """Recursive-descent parser producing :class:`Polynomial` values.

    Grammar::

        expr   := term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := atom ('^' INT)?
        atom   := NUM | VAR | '(' expr ')' | '-' atom | '+' atom

    An expression ends at a newline, ``]``, ``,`` or end of input.
    """

    def __init__(self, tokens: list[Token], pos: int, n_vars: int):
        self.tokens = tokens
        self.pos = pos
        self.n_vars = n_vars

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, tok.line, tok.col)

    def parse(self) -> Polynomial:
        start = self._peek()
        poly = self._expr()
        if poly.degree() > MAX_DEGREE:
            raise self._fail(
                f"polynomial degree {poly.degree()} exceeds the supported maximum {MAX_DEGREE}",
                start,
            )
        return poly

    def _at_stop(self) -> bool:
        tok = self._peek()
        if tok.kind in ("newline", "eof"):
            return True
        return tok.kind == "op" and tok.text in _EXPR_STOP

    def _expr(self) -> Polynomial:
        value = self._term()
        while not self._at_stop():
            tok = self._peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self._next()
                rhs = self._term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                raise self._fail(f"unexpected token {tok.text!r} in expression", tok)
        return value

    def _term(self) -> Polynomial:
        value = self._atom_with_power()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text == "*":
                self._next()
                value = value * self._atom_with_power()
            else:
                return value

    def _atom(self) -> Polynomial:
        tok = self._next()
        if tok.kind == "num":
            return Polynomial.constant(float(tok.text), self.n_vars)
        if tok.kind == "ident":
            m = _VAR_RE.match(tok.text)
            if not m:
                raise self._fail(f"unknown identifier {tok.text!r}", tok)
            index = int(m.group(1))
            if not 1 <= index <= self.n_vars:
                raise self._fail(
                    f"variable x{index} out of range (instance has {self.n_vars} variables)", tok)
            return Polynomial.variable(index - 1, self.n_vars)
        if tok.kind == "op" and tok.text == "(":
            inner = self._expr()
            closing = self._next()
            if not (closing.kind == "op" and closing.text == ")"):
                raise self._fail("expected ')'", closing)
            return inner
        if tok.kind == "op" and tok.text == "-":
            return -self._atom_with_power()
        if tok.kind == "op" and tok.text == "+":
            return self._atom_with_power()
        raise self._fail(f"unexpected token {tok.text!r}", tok)

    def _atom_with_power(self) -> Polynomial:
        # the grammar's factor; unary sign binds looser than '^': -x1^2 == -(x1^2)
        value = self._atom()
        tok = self._peek()
        if tok.kind == "op" and tok.text == "^":
            self._next()
            etok = self._next()
            if etok.kind != "num" or "." in etok.text or "e" in etok.text.lower():
                raise self._fail("exponent must be a nonnegative integer", etok)
            exponent = int(etok.text)
            if exponent > MAX_DEGREE:
                raise self._fail(
                    f"exponent {exponent} exceeds the supported maximum {MAX_DEGREE}", etok)
            value = value.pow(exponent)
        return value


def parse_polynomial_text(text: str, n_vars: int) -> Polynomial:
    """Parse a standalone polynomial expression like ``"x1*x2 - 0.5"``."""
    tokens = tokenize(text)
    parser = ExpressionParser(tokens, 0, n_vars)
    poly = parser.parse()
    tok = tokens[parser.pos]
    if tok.kind not in ("newline", "eof"):
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
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

    def argmin_over_box(self, row: int, lower, upper) -> np.ndarray:
        """A box vertex minimizing component ``row`` over [lower, upper]."""
        a, _ = self._np
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        return np.where(a[row] >= 0, lower, upper)

    def to_polynomials(self, n_vars: int | None = None) -> list[Polynomial]:
        n = self.in_dim if n_vars is None else n_vars
        out = []
        for row, off in zip(self.matrix, self.offset):
            p = Polynomial.constant(off, n)
            for j, c in enumerate(row):
                if c:
                    p = p + Polynomial.variable(j, n).scale(c)
            out.append(p)
        return out

    def to_text_rows(self) -> list[str]:
        return [p.to_text() for p in self.to_polynomials()]


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (report convention)."""
    return _FLOAT_FMT % value

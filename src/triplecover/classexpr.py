"""A small expression language for cohomology classes in x and theta.

Expressions are evaluated inside a caller-supplied ambient (g, d); the
built-in ``bn1(k)`` expands to the rank-1 locus class and requires k == d,
since an expression lives on a single symmetric product.

Grammar (whitespace between tokens is ignored)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*   # '/' needs an integer-literal
                                               # right operand (nonzero)
    factor   := ['-'] atom ('^' nat)?          # unary minus, so canonical
                                               # renderings re-parse
    atom     := rational | 'x' | 'theta' | 'bn1' '(' int ')' | '(' expr ')'
    rational := nat ('/' posnat)?

Errors carry a 1-based character position; syntax errors also carry the set
of token kinds that would have been accepted.

Limits: ``+``/``-`` and ``*``/``/`` chains of any length parse into flat
nodes that are evaluated without recursion.  Nesting -- parentheses plus unary
minus -- is capped at ``_MAX_NESTING`` (100) levels; a deeper expression
raises ``ClassExprError`` at the first token past the cap.
``parse_with_diagnostics`` lists dropped monomials only while the
expression's total degree is at most ``_DIAGNOSTIC_MAX_DEGREE`` (48); past
that it returns a single note saying the listing was omitted and naming the
degree bound, or saying that the bound has more than L digits when it is
past the limit L below.  Under the interpreter's int-to-str digit limit L
(``sys.get_int_max_str_digits()``, 0 meaning none), a number literal longer
than L digits is rejected, and so is a power ``base^N`` whose base has a
constant term p/q with max(|p|, q)^N certainly above L digits: that term of
the result could not be printed.  Powers of bases with constant term 0, 1 or
-1 grow polynomially in N and are never rejected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .brill_noether import bn1_terms
from .cohomology import CohomClass, monomial, monomial_text, mul_classes, unit_class

__all__ = [
    "ClassExprError",
    "ExprSyntaxError",
    "DivisionByZeroLiteral",
    "Bn1IndexMismatch",
    "parse",
    "parse_with_diagnostics",
]


# Deepest nesting of parentheses and unary minus; keeps the recursive
# parser and evaluator far inside the interpreter's recursion limit.
_MAX_NESTING = 100

# Largest total degree for which ``parse_with_diagnostics`` evaluates the
# expression untruncated to list the dropped monomials; the untruncated
# ring has (D+1)(D+2)/2 monomials at degree D, so the cost grows as D^4.
_DIAGNOSTIC_MAX_DEGREE = 48


class ClassExprError(ValueError):
    """Base class for expression errors; ``position`` is 1-based."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class ExprSyntaxError(ClassExprError):
    def __init__(self, position: int, found: str, expected: tuple[str, ...]):
        self.found = found
        self.expected = expected
        super().__init__(
            position, f"expected {' or '.join(expected)}, found {found}"
        )


class DivisionByZeroLiteral(ClassExprError):
    def __init__(self, position: int):
        super().__init__(position, "division by zero literal")


class Bn1IndexMismatch(ClassExprError):
    def __init__(self, position: int, index: int, sym_index: int):
        super().__init__(
            position,
            f"bn1({index}) does not live on the ambient symmetric product "
            f"(expected bn1({sym_index}))",
        )


# ----------------------------------------------------------------------
# tokens

_SYMBOLS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "name", one of the symbols, or "end"
    text: str
    position: int  # 1-based offset of the first character


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch.isdecimal():  # exactly the digits int() accepts, in any script
            while i < n and text[i].isdecimal():
                i += 1
            limit = sys.get_int_max_str_digits()
            if limit and i - start > limit:
                raise ClassExprError(
                    start + 1, f"number has more than {limit} digits, the interpreter's "
                    "limit for converting text to integers"
                )
            tokens.append(_Token("number", text[start:i], start + 1))
        elif ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], start + 1))
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, start + 1))
            i += 1
        else:
            raise ExprSyntaxError(start + 1, repr(ch), ("a token",))
    tokens.append(_Token("end", "", n + 1))
    return tokens


# ----------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class _Num:
    value: Fraction


@dataclass(frozen=True)
class _Sym:
    name: str  # "x" or "theta"


@dataclass(frozen=True)
class _Bn1:
    index: int
    position: int


@dataclass(frozen=True)
class _Neg:
    operand: object


@dataclass(frozen=True)
class _Chain:
    """``first`` followed by (op, operand) pairs.  A sum chain uses "+" and
    "-"; a product chain uses "*" and "/", where the operand of "/" is a
    nonzero integer divisor, and is folded left to right."""

    first: object
    rest: tuple


@dataclass(frozen=True)
class _Pow:
    base: object
    exponent: int
    position: int  # of the '^'


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def enter(self, token: _Token) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ClassExprError(
                token.position,
                f"expression nests parentheses and unary minus deeper than {_MAX_NESTING} levels",
            )

    def fail(self, expected: tuple[str, ...]):
        token = self.peek()
        found = "end of input" if token.kind == "end" else repr(token.text)
        raise ExprSyntaxError(token.position, found, expected)

    def parse(self):
        node = self.parse_expr()
        if self.peek().kind != "end":
            self.fail(("'+'", "'-'", "'*'", "'/'", "end of input"))
        return node

    def parse_expr(self):
        node = self.parse_term()
        rest = []
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rest.append((op, self.parse_term()))
        return _Chain(node, tuple(rest)) if rest else node

    def parse_term(self):
        node = self.parse_factor()
        rest = []
        while self.peek().kind in ("*", "/"):
            if self.advance().kind == "*":
                rest.append(("*", self.parse_factor()))
                continue
            token = self.peek()
            if token.kind != "number":
                self.fail(("an integer literal divisor",))
            self.advance()
            divisor = int(token.text)
            if divisor == 0:
                raise DivisionByZeroLiteral(token.position)
            rest.append(("/", divisor))
        return _Chain(node, tuple(rest)) if rest else node

    def parse_factor(self):
        if self.peek().kind == "-":
            self.enter(self.advance())
            node = _Neg(self.parse_factor())
            self.depth -= 1
            return node
        node = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            token = self.peek()
            if token.kind != "number":
                self.fail(("a nonnegative integer exponent",))
            self.advance()
            node = _Pow(node, int(token.text), caret.position)
        return node

    def parse_atom(self):
        token = self.peek()
        if token.kind == "number":
            self.advance()
            numerator = int(token.text)
            # Greedy rational literal: NUMBER '/' NUMBER.
            if self.peek().kind == "/" and self.tokens[self.pos + 1].kind == "number":
                self.advance()
                den_token = self.advance()
                denominator = int(den_token.text)
                if denominator == 0:
                    raise DivisionByZeroLiteral(den_token.position)
                return _Num(Fraction(numerator, denominator))
            return _Num(Fraction(numerator))
        if token.kind == "name":
            if token.text in ("x", "theta"):
                self.advance()
                return _Sym(token.text)
            if token.text == "bn1":
                self.advance()
                if self.peek().kind != "(":
                    self.fail(("'('",))
                self.advance()
                sign = 1
                if self.peek().kind == "-":
                    self.advance()
                    sign = -1
                index_token = self.peek()
                if index_token.kind != "number":
                    self.fail(("an integer bn1 index",))
                self.advance()
                if self.peek().kind != ")":
                    self.fail(("')'",))
                self.advance()
                return _Bn1(sign * int(index_token.text), token.position)
            self.fail(("'x'", "'theta'", "'bn1'"))
        if token.kind == "(":
            self.enter(self.advance())
            node = self.parse_expr()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.advance()
            self.depth -= 1
            return node
        self.fail(("a rational literal", "'x'", "'theta'", "'bn1'", "'('"))


# ----------------------------------------------------------------------
# evaluation

def _eval(node, g: int, d: int, ambient: tuple[int, int]) -> CohomClass:
    """Evaluate ``node`` for the curve data (g, d) in the ring of ``ambient``:
    (g, d) itself, or a ring large enough that no monomial vanishes."""
    if isinstance(node, _Num):
        return unit_class(*ambient).scale(node.value)
    if isinstance(node, _Sym):
        return monomial(*ambient, 1, 0) if node.name == "x" else monomial(*ambient, 0, 1)
    if isinstance(node, _Bn1):
        if node.index != d:
            raise Bn1IndexMismatch(node.position, node.index, d)
        return CohomClass(*ambient, bn1_terms(g, d))
    if isinstance(node, _Neg):
        return -_eval(node.operand, g, d, ambient)
    if isinstance(node, _Chain) and node.rest[0][0] in "+-":
        # One normalisation for the whole sum; folding binary additions
        # would copy the running sum once per term.
        signed = [("+", node.first), *node.rest]
        return CohomClass(*ambient, (
            (key, coeff if op == "+" else -coeff)
            for op, operand in signed
            for key, coeff in _eval(operand, g, d, ambient).terms.items()
        ))
    if isinstance(node, _Chain):
        result = _eval(node.first, g, d, ambient)
        for op, operand in node.rest:
            if op == "*":
                result = mul_classes(result, _eval(operand, g, d, ambient))
            else:
                result = result.scale(Fraction(1, operand))
        return result
    if isinstance(node, _Pow):
        base = _eval(node.base, g, d, ambient)
        # The constant term of base^N is c^N.  With m = max(|p|, q) for
        # c = p/q, m^N >= 2^(k*N) where k = bit_length(m) - 1, and 2^j has
        # more than L decimal digits once 3j >= 10L, since 2^10 > 10^3.
        limit = sys.get_int_max_str_digits()
        constant = base.terms.get((0, 0), Fraction(0))
        bits = max(abs(constant.numerator), constant.denominator).bit_length() - 1
        if limit and 3 * bits * node.exponent >= 10 * limit:
            raise ClassExprError(
                node.position,
                f"the power's constant term would have more than {limit} digits, "
                "the interpreter's limit for converting integers to text",
            )
        return base ** node.exponent
    raise TypeError(f"unknown AST node {node!r}")  # pragma: no cover


def _degree(node, g: int, d: int) -> int:
    """An upper bound on the total degree of ``node`` evaluated untruncated."""
    if isinstance(node, _Num):
        return 0
    if isinstance(node, _Sym):
        return 1
    if isinstance(node, _Bn1):
        return max(g - d + 1, 0)
    if isinstance(node, _Neg):
        return _degree(node.operand, g, d)
    if isinstance(node, _Chain):
        degree = _degree(node.first, g, d)
        for op, operand in node.rest:
            if op == "*":
                degree += _degree(operand, g, d)
            elif op != "/":
                degree = max(degree, _degree(operand, g, d))
        return degree
    if isinstance(node, _Pow):
        return node.exponent * _degree(node.base, g, d)
    raise TypeError(f"unknown AST node {node!r}")  # pragma: no cover


def parse(text: str, g: int, d: int) -> CohomClass:
    """Parse and evaluate ``text`` in the ambient (g, d)."""
    if g < 0 or d < 0:
        raise ValueError(f"ambient requires g >= 0 and d >= 0, got ({g}, {d})")
    return _eval(_Parser(text).parse(), g, d, (g, d))


def parse_with_diagnostics(text: str, g: int, d: int) -> tuple[CohomClass, list[str]]:
    """Like ``parse``, but also report the monomials that the ambient
    annihilated (total degree above d, or theta power above g).

    The dropped monomials come from evaluating the expression again in an
    ambient (D, D), D an upper bound on its total degree, where nothing
    vanishes.  Above degree ``_DIAGNOSTIC_MAX_DEGREE`` that evaluation is
    skipped and a single note says so.
    """
    if g < 0 or d < 0:
        raise ValueError(f"ambient requires g >= 0 and d >= 0, got ({g}, {d})")
    ast = _Parser(text).parse()
    result = _eval(ast, g, d, (g, d))
    degree = _degree(ast, g, d)
    if degree <= min(g, d):
        return result, []  # no monomial can vanish
    if degree > _DIAGNOSTIC_MAX_DEGREE:
        try:
            reach = str(degree)
        except ValueError:  # more digits than the interpreter's int-to-str limit
            reach = f"a number with more than {sys.get_int_max_str_digits()} digits"
        return result, [
            f"dropped-monomial listing omitted: the expression's degree can reach {reach}, "
            f"above the listing limit of {_DIAGNOSTIC_MAX_DEGREE}"
        ]
    kept = result.terms
    notes = []
    for (a, b), coeff in _eval(ast, g, d, (degree, degree)).sorted_terms():
        if (a, b) in kept:
            continue
        reason = f"theta power {b} exceeds g = {g}" if b > g else f"codimension {a + b} exceeds d = {d}"
        notes.append(f"dropped {monomial_text(a, b)} (coefficient {coeff}): {reason}")
    return result, notes


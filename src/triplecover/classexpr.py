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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brill_noether import bn1_class, bn1_terms
from .cohomology import CohomClass, monomial, monomial_text, mul_classes, render_class, unit_class

__all__ = [
    "ClassExprError",
    "ExprSyntaxError",
    "DivisionByZeroLiteral",
    "Bn1IndexMismatch",
    "parse",
    "parse_with_diagnostics",
    "format_class",
]


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
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
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
class _BinOp:
    op: str  # "+", "-", "*"
    left: object
    right: object


@dataclass(frozen=True)
class _DivInt:
    left: object
    divisor: int


@dataclass(frozen=True)
class _Pow:
    base: object
    exponent: int


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

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
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right = self.parse_term()
            node = _BinOp(op, node, right)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            if op == "*":
                node = _BinOp("*", node, self.parse_factor())
            else:
                token = self.peek()
                if token.kind != "number":
                    self.fail(("an integer literal divisor",))
                self.advance()
                divisor = int(token.text)
                if divisor == 0:
                    raise DivisionByZeroLiteral(token.position)
                node = _DivInt(node, divisor)
        return node

    def parse_factor(self):
        if self.peek().kind == "-":
            self.advance()
            return _Neg(self.parse_factor())
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            token = self.peek()
            if token.kind != "number":
                self.fail(("a nonnegative integer exponent",))
            self.advance()
            node = _Pow(node, int(token.text))
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
            self.advance()
            node = self.parse_expr()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.advance()
            return node
        self.fail(("a rational literal", "'x'", "'theta'", "'bn1'", "'('"))


# ----------------------------------------------------------------------
# evaluation

def _eval(node, g: int, d: int) -> CohomClass:
    if isinstance(node, _Num):
        return unit_class(g, d).scale(node.value)
    if isinstance(node, _Sym):
        return monomial(g, d, 1, 0) if node.name == "x" else monomial(g, d, 0, 1)
    if isinstance(node, _Bn1):
        if node.index != d:
            raise Bn1IndexMismatch(node.position, node.index, d)
        return bn1_class(g, d)
    if isinstance(node, _Neg):
        return -_eval(node.operand, g, d)
    if isinstance(node, _BinOp):
        left = _eval(node.left, g, d)
        right = _eval(node.right, g, d)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return mul_classes(left, right)
    if isinstance(node, _DivInt):
        return _eval(node.left, g, d).scale(Fraction(1, node.divisor))
    if isinstance(node, _Pow):
        return _eval(node.base, g, d) ** node.exponent
    raise TypeError(f"unknown AST node {node!r}")  # pragma: no cover


# Shadow evaluation in the free polynomial ring (no degree truncation),
# used only to tell the user which monomials the ambient annihilated.

_FreePoly = dict


def _free_scale(p: _FreePoly, scalar: Fraction) -> _FreePoly:
    return {key: coeff * scalar for key, coeff in p.items() if coeff * scalar != 0}


def _free_add(p: _FreePoly, q: _FreePoly) -> _FreePoly:
    out = dict(p)
    for key, coeff in q.items():
        acc = out.get(key, Fraction(0)) + coeff
        if acc == 0:
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def _free_mul(p: _FreePoly, q: _FreePoly) -> _FreePoly:
    out: _FreePoly = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            acc = out.get(key, Fraction(0)) + c1 * c2
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def _free_eval(node, g: int, d: int) -> _FreePoly:
    if isinstance(node, _Num):
        return {} if node.value == 0 else {(0, 0): node.value}
    if isinstance(node, _Sym):
        return {(1, 0): Fraction(1)} if node.name == "x" else {(0, 1): Fraction(1)}
    if isinstance(node, _Bn1):
        return bn1_terms(g, d)
    if isinstance(node, _Neg):
        return _free_scale(_free_eval(node.operand, g, d), Fraction(-1))
    if isinstance(node, _BinOp):
        left = _free_eval(node.left, g, d)
        right = _free_eval(node.right, g, d)
        if node.op == "+":
            return _free_add(left, right)
        if node.op == "-":
            return _free_add(left, _free_scale(right, Fraction(-1)))
        return _free_mul(left, right)
    if isinstance(node, _DivInt):
        return _free_scale(_free_eval(node.left, g, d), Fraction(1, node.divisor))
    if isinstance(node, _Pow):
        result: _FreePoly = {(0, 0): Fraction(1)}
        base = _free_eval(node.base, g, d)
        e = node.exponent
        while e:
            if e & 1:
                result = _free_mul(result, base)
            e >>= 1
            if e:
                base = _free_mul(base, base)
        return result
    raise TypeError(f"unknown AST node {node!r}")  # pragma: no cover


def parse(text: str, g: int, d: int) -> CohomClass:
    """Parse and evaluate ``text`` in the ambient (g, d)."""
    if g < 0 or d < 0:
        raise ValueError(f"ambient requires g >= 0 and d >= 0, got ({g}, {d})")
    return _eval(_Parser(text).parse(), g, d)


def parse_with_diagnostics(text: str, g: int, d: int) -> tuple[CohomClass, list[str]]:
    """Like ``parse``, but also report the monomials that the ambient
    annihilated (total degree above d, or theta power above g)."""
    if g < 0 or d < 0:
        raise ValueError(f"ambient requires g >= 0 and d >= 0, got ({g}, {d})")
    ast = _Parser(text).parse()
    result = _eval(ast, g, d)
    free = _free_eval(ast, g, d)
    kept = result.terms
    notes = []
    for (a, b) in sorted(free, key=lambda key: (-key[1], -key[0])):
        if (a, b) in kept:
            continue
        reason = f"theta power {b} exceeds g = {g}" if b > g else f"codimension {a + b} exceeds d = {d}"
        notes.append(f"dropped {monomial_text(a, b)} (coefficient {free[(a, b)]}): {reason}")
    return result, notes


def format_class(cls: CohomClass) -> str:
    """Canonical rendering; ``parse(format_class(c), c.genus, c.sym_index)``
    returns a class equal to ``c``."""
    return render_class(cls)

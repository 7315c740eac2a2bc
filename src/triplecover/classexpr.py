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

Each grammar rule's parse method returns the rule's degree bound and a
function that evaluates the rule in a given ring; there is no syntax tree.
The whole text is parsed before anything is evaluated, so every lexical and
syntax error comes before any evaluation error, and costs no evaluation.
Errors carry a 1-based character position; syntax errors also carry the set
of token kinds that would have been accepted.

Limits: ``+``/``-`` and ``*``/``/`` chains of any length evaluate in loops,
without recursion.  Nesting -- parentheses plus unary minus -- is capped at
``_MAX_NESTING`` (100) levels; a deeper expression raises ``ClassExprError``
at the first token past the cap.
``parse_with_diagnostics`` lists dropped monomials only while the
expression's total degree is at most ``_DIAGNOSTIC_MAX_DEGREE`` (48); past
that it returns a single note saying the listing was omitted and naming the
degree bound.  Under the interpreter's int-to-str digit limit L
(``sys.get_int_max_str_digits()``, 0 meaning none), a number literal longer
than L digits is rejected, and a note writes a longer number as "a number
with more than L digits".  Each power, product of two classes (``/ n``
multiplies by 1/n) and sum is sized before it is computed by bounds N and
D on its numerator and denominator bits (``cohomology._power_bits``,
``_product_bits``, ``_sum_bits``): an error at the ``^``, ``*``, ``/``,
``+`` or ``-`` where N + D first passes ``_MAX_POWER_BITS`` (2^23), or
N * D, the work of reducing it, ``_MAX_REDUCTION_WORK`` (2^38), refuses it.
``bn1(k)`` in a ring that keeps one of its monomials is refused at its
position when its denominator (g-k+1)! could have more than
``_MAX_POWER_BITS`` bits, bounded by (g-k+1)*bitlen(g-k+1); in a ring that
kills both monomials it is zero, and no factorial is computed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .brill_noether import _bn1
from .cohomology import CohomClass, monomial, monomial_text, mul_classes, sum_classes
from .cohomology import _power_bits, _product_bits, _sum_bits

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

# The most bits one power, product or sum, numerators and denominator
# together, or the denominator of one ``bn1(k)``, may have: 2^23.
# (x+theta+1)^400 in (120, 120) is bounded by 5.9 million bits, in
# (150, 150) by 9.2 million, and (x+theta+1)^800 in (400, 400) by 129
# million; Miller's recurrence computes them in 7 ms, 10 ms and 0.12 s.
# bn1 with the largest denominator allowed, 441505!, takes 2.6 s to build;
# math.factorial of 10^6 takes 8.2 s.  Products cost more: the square
# of (x+theta+1)^200 in (400, 400), bounded by 51 million bits, takes more
# than 20 s (2-CPU VM, CPython 3.11).
_MAX_POWER_BITS = 1 << 23

# The most work, numerator bits times denominator bits, that reducing one
# power, product or sum may take: 2^38 > 2^23 * 14,284, which spares any
# such result in the bit budget whose denominator fits 4,300 digits.  The
# gcd is quadratic: gcd(2^N, 3^N) takes 2.1 ps per product of bit lengths,
# 0.9 s at N = 2^19, and 2^38 of them 0.6 s (2-CPU VM, CPython 3.11.7).
_MAX_REDUCTION_WORK = 1 << 38


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


def _check_budget(position: int, what: str, numerator_bits: int, denominator_bits: int) -> None:
    """Refuse the ``what`` ("power", "product" or "sum") at ``position`` when
    the bounds N and D on its numerator and denominator bits have N + D
    past ``_MAX_POWER_BITS`` or N * D past ``_MAX_REDUCTION_WORK``."""
    if numerator_bits + denominator_bits > _MAX_POWER_BITS:
        raise ClassExprError(
            position, f"the {what} could have more than {_MAX_POWER_BITS} bits, the limit for one {what}"
        )
    if numerator_bits * denominator_bits > _MAX_REDUCTION_WORK:
        raise ClassExprError(
            position, f"reducing the {what} to lowest terms could take more than {_MAX_REDUCTION_WORK} "
            f"bit operations, the limit for one {what}"
        )


# ----------------------------------------------------------------------
# tokens

_SYMBOLS = set("+-*/^()")


class _Token(NamedTuple):
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
# parsing into evaluators

class _Parser:
    """Recursive descent for the curve data (g, d).  Each ``parse_*`` rule
    returns a pair (degree, evaluate): an upper bound on the total degree of
    the rule's value untruncated, and a function of a ring (genus, sym_index)
    that evaluates the rule there -- in (g, d) itself, or in a ring large
    enough that no monomial vanishes."""

    def __init__(self, text: str, g: int, d: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.g = g
        self.d = d

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

    def expect(self, kind: str, expected: str) -> _Token:
        """Consume and return the next token if it is of ``kind``; else fail,
        expecting ``expected``."""
        if self.peek().kind != kind:
            self.fail((expected,))
        return self.advance()

    def parse_expr(self):
        degree, first = self.parse_term()
        rest = []  # (the '+' or '-' token, a term's evaluate)
        while self.peek().kind in ("+", "-"):
            operator = self.advance()
            term_degree, term = self.parse_term()
            degree = max(degree, term_degree)
            rest.append((operator, term))
        if not rest:
            return degree, first

        def evaluate(*ring):
            values = [first(*ring)]
            values += [term(*ring) if operator.kind == "+" else -term(*ring) for operator, term in rest]
            for k, bits in _sum_bits(values):
                _check_budget(rest[k - 1][0].position, "sum", *bits)
            return sum_classes(*values)
        return degree, evaluate

    def parse_term(self):
        degree, first = self.parse_factor()
        steps = []  # (the '*' or '/' position, a factor's evaluate); '/ n' multiplies by 1/n
        while self.peek().kind in ("*", "/"):
            operator = self.advance()
            if operator.kind == "*":
                factor_degree, factor = self.parse_factor()
                degree += factor_degree
            else:
                token = self.expect("number", "an integer literal divisor")
                divisor = int(token.text)
                if divisor == 0:
                    raise DivisionByZeroLiteral(token.position)
                factor = lambda *ring, value=Fraction(1, divisor): monomial(*ring, 0, 0, value)
            steps.append((operator.position, factor))
        if not steps:
            return degree, first

        def evaluate(*ring):
            result = first(*ring)
            for position, factor in steps:
                value = factor(*ring)
                _check_budget(position, "product", *_product_bits(result, value))
                result = mul_classes(result, value)
            return result
        return degree, evaluate

    def parse_factor(self):
        if self.peek().kind == "-":
            self.enter(self.advance())
            degree, operand = self.parse_factor()
            self.depth -= 1
            return degree, lambda *ring: -operand(*ring)
        degree, base = self.parse_atom()
        if self.peek().kind != "^":
            return degree, base
        caret = self.advance()
        exponent = int(self.expect("number", "a nonnegative integer exponent").text)

        def evaluate(*ring):
            value = base(*ring)
            _check_budget(caret.position, "power", *_power_bits(value, exponent))
            return value ** exponent
        return exponent * degree, evaluate

    def parse_atom(self):
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value = Fraction(int(token.text))
            # Greedy rational literal: NUMBER '/' NUMBER.
            if self.peek().kind == "/" and self.tokens[self.pos + 1].kind == "number":
                self.advance()
                den_token = self.advance()
                denominator = int(den_token.text)
                if denominator == 0:
                    raise DivisionByZeroLiteral(den_token.position)
                value /= denominator
            return 0, lambda *ring: monomial(*ring, 0, 0, value)
        if token.kind == "name":
            if token.text in ("x", "theta"):
                self.advance()
                powers = (1, 0) if token.text == "x" else (0, 1)
                return 1, lambda *ring: monomial(*ring, *powers)
            if token.text == "bn1":
                self.advance()
                self.expect("(", "'('")
                sign = 1
                if self.peek().kind == "-":
                    self.advance()
                    sign = -1
                index_token = self.expect("number", "an integer bn1 index")
                self.expect(")", "')'")
                index, g, d = sign * int(index_token.text), self.g, self.d

                def evaluate(*ring):
                    if index != d:
                        raise Bn1IndexMismatch(token.position, index, d)
                    if d == 0:
                        raise ClassExprError(
                            token.position, "bn1(0) is undefined: the symmetric-product index must be at least 1"
                        )
                    try:
                        return _bn1(*ring, g, d, _MAX_POWER_BITS)
                    except OverflowError:
                        raise ClassExprError(
                            token.position,
                            f"bn1({d})'s denominator ({g - d + 1})! could have more than "
                            f"{_MAX_POWER_BITS} bits, the limit for one class",
                        ) from None
                return max(g - d + 1, 0), evaluate
            self.fail(("'x'", "'theta'", "'bn1'"))
        if token.kind == "(":
            self.enter(self.advance())
            rule = self.parse_expr()
            self.expect(")", "')'")
            self.depth -= 1
            return rule
        self.fail(("a rational literal", "'x'", "'theta'", "'bn1'", "'('"))


def _parse(text: str, g: int, d: int):
    """Parse all of ``text`` for the ambient (g, d) and return its (degree,
    evaluate) pair; nothing is evaluated yet."""
    if g < 0 or d < 0:
        raise ValueError(f"ambient requires g >= 0 and d >= 0, got ({g}, {d})")
    parser = _Parser(text, g, d)
    rule = parser.parse_expr()
    if parser.peek().kind != "end":
        parser.fail(("'+'", "'-'", "'*'", "'/'", "end of input"))
    return rule


def parse(text: str, g: int, d: int) -> CohomClass:
    """Parse and evaluate ``text`` in the ambient (g, d)."""
    return _parse(text, g, d)[1](g, d)


def parse_with_diagnostics(text: str, g: int, d: int) -> tuple[CohomClass, list[str]]:
    """Like ``parse``, but also report the monomials that the ambient
    annihilated (total degree above d, or theta power above g).

    The dropped monomials come from evaluating the expression again in an
    ambient (D, D), D an upper bound on its total degree, where nothing
    vanishes.  Above degree ``_DIAGNOSTIC_MAX_DEGREE`` that evaluation is
    skipped, and when it raises ``ClassExprError`` it is given up; either
    way a single note says so, and the result and its errors stay those of
    (g, d).
    """
    degree, evaluate = _parse(text, g, d)
    result = evaluate(g, d)
    if degree <= min(g, d):
        return result, []  # no monomial can vanish
    if degree > _DIAGNOSTIC_MAX_DEGREE:
        return result, [
            f"dropped-monomial listing omitted: the expression's degree can reach {_number_text(degree)}, "
            f"above the listing limit of {_DIAGNOSTIC_MAX_DEGREE}"
        ]
    try:
        untruncated = evaluate(degree, degree)
    except ClassExprError as error:
        return result, [f"dropped-monomial listing omitted: {error}"]
    kept = result.terms
    notes = []
    for (a, b), coeff in untruncated.sorted_terms():
        if (a, b) in kept:
            continue
        reason = f"theta power {b} exceeds g = {g}" if b > g else f"codimension {a + b} exceeds d = {d}"
        notes.append(f"dropped {monomial_text(a, b)} (coefficient {_number_text(coeff)}): {reason}")
    return result, notes


def _number_text(value: int | Fraction) -> str:
    """``str(value)``, or "a number with more than L digits" when it has more
    digits than the interpreter's int-to-str limit L."""
    try:
        return str(value)
    except ValueError:
        return f"a number with more than {sys.get_int_max_str_digits()} digits"


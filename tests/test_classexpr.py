from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from triplecover.brill_noether import bn1_class
from triplecover.classexpr import (
    _DIAGNOSTIC_MAX_DEGREE,
    _MAX_NESTING,
    Bn1IndexMismatch,
    ClassExprError,
    DivisionByZeroLiteral,
    ExprSyntaxError,
    format_class,
    parse,
    parse_with_diagnostics,
)
from triplecover.cohomology import CohomClass, monomial, unit_class, zero_class


@st.composite
def classes(draw):
    g = draw(st.integers(min_value=0, max_value=6))
    d = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        a = draw(st.integers(min_value=0, max_value=d))
        b = draw(st.integers(min_value=0, max_value=min(d, g)))
        coeff = draw(st.fractions(min_value=-20, max_value=20, max_denominator=24))
        terms[(a, b)] = terms.get((a, b), Fraction(0)) + coeff
    return CohomClass(g, d, terms)


def test_parse_matches_bn1_class():
    assert parse("theta^2/2 - x*theta", 4, 3) == bn1_class(4, 3)


def test_parse_plain_monomial():
    assert parse("x^3", 4, 3) == monomial(4, 3, 3, 0)


def test_parse_builtin_bn1():
    assert parse("bn1(3)", 4, 3) == bn1_class(4, 3)
    assert parse("bn1(3)*x - bn1(3)*x", 4, 3) == zero_class(4, 3)


def test_parse_rational_literals():
    assert parse("3/4", 2, 2) == unit_class(2, 2).scale(Fraction(3, 4))
    assert parse("6/2", 2, 2) == unit_class(2, 2).scale(3)
    assert parse("2", 2, 2) == unit_class(2, 2).scale(2)


def test_precedence_and_associativity():
    g, d = 5, 5
    x = monomial(g, d, 1, 0)
    theta = monomial(g, d, 0, 1)
    assert parse("x+theta*x", g, d) == x + theta * x
    assert parse("2*x^2", g, d) == monomial(g, d, 2, 0, 2)
    assert parse("(2*x)^2", g, d) == monomial(g, d, 2, 0, 4)
    assert parse("x - x - x", g, d) == -x
    assert parse("x*6/2", g, d) == monomial(g, d, 1, 0, 3)
    assert parse("theta^2/2", g, d) == monomial(g, d, 0, 2, Fraction(1, 2))


def test_unary_minus():
    g, d = 4, 3
    assert parse("-x*theta", g, d) == monomial(g, d, 1, 1, -1)
    assert parse("-x*theta", g, d) == parse("0 - x*theta", g, d)
    assert parse("x * -2", g, d) == monomial(g, d, 1, 0, -2)
    assert parse("-x^2", g, d) == monomial(g, d, 2, 0, -1)


def test_division_by_zero_literal():
    with pytest.raises(DivisionByZeroLiteral) as info:
        parse("1/0", 4, 3)
    assert info.value.position == 3
    with pytest.raises(DivisionByZeroLiteral):
        parse("x/0", 4, 3)


def test_division_requires_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse("x/theta", 4, 3)
    with pytest.raises(ExprSyntaxError):
        parse("x/(2)", 4, 3)


def test_bn1_index_mismatch():
    with pytest.raises(Bn1IndexMismatch):
        parse("bn1(2)", 4, 3)
    with pytest.raises(Bn1IndexMismatch):
        parse("bn1(-1)", 4, 3)


def test_exponent_must_be_nonnegative_literal():
    with pytest.raises(ExprSyntaxError):
        parse("x^-1", 4, 3)
    with pytest.raises(ExprSyntaxError):
        parse("x^(2)", 4, 3)


def test_syntax_error_positions_and_expectations():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x + ", 4, 3)
    assert info.value.position == 5
    assert "end of input" in str(info.value)

    with pytest.raises(ExprSyntaxError) as info:
        parse("(x", 4, 3)
    assert info.value.position == 3
    assert "')'" in info.value.expected

    with pytest.raises(ExprSyntaxError) as info:
        parse("x theta", 4, 3)
    assert info.value.position == 3

    with pytest.raises(ExprSyntaxError) as info:
        parse("y + 1", 4, 3)
    assert info.value.position == 1

    with pytest.raises(ExprSyntaxError):
        parse("", 4, 3)

    with pytest.raises(ExprSyntaxError) as info:
        parse("x + $", 4, 3)
    assert info.value.position == 5


def test_ambient_validation():
    with pytest.raises(ValueError):
        parse("x", -1, 3)
    with pytest.raises(ValueError):
        parse("x", 3, -1)


def test_format_examples():
    assert format_class(bn1_class(4, 3)) == "1/2*theta^2 - x*theta"
    assert format_class(zero_class(4, 3)) == "0"
    assert format_class(monomial(4, 3, 3, 0)) == "x^3"


def test_whitespace_insensitivity():
    samples = ["1/2*theta^2 - x*theta", "bn1(3)*x", "x^2*theta - 7/3", "-x + 2*theta"]
    for text in samples:
        reference = parse(text, 4, 3)
        tokens = re.findall(r"[a-zA-Z_][a-zA-Z_0-9]*|\d+|\S", text)
        assert parse(" ".join(tokens), 4, 3) == reference
        assert parse("  " + "   ".join(tokens) + " ", 4, 3) == reference
        assert parse("".join(tokens), 4, 3) == reference


@given(classes())
def test_round_trip(cls):
    assert parse(format_class(cls), cls.genus, cls.sym_index) == cls


@given(classes())
def test_format_is_idempotent(cls):
    text = format_class(cls)
    assert format_class(parse(text, cls.genus, cls.sym_index)) == text


def test_diagnostics_report_annihilated_monomials():
    result, notes = parse_with_diagnostics("theta^5 + x", 4, 8)
    assert result == monomial(4, 8, 1, 0)
    assert len(notes) == 1
    assert "theta^5" in notes[0] and "exceeds g = 4" in notes[0]

    result, notes = parse_with_diagnostics("x^4", 4, 3)
    assert not result
    assert len(notes) == 1
    assert "x^4" in notes[0] and "exceeds d = 3" in notes[0]

    result, notes = parse_with_diagnostics("x^2", 4, 3)
    assert notes == []


def test_diagnostics_track_bn1_collapse():
    # In a small ambient the whole rank-1 class dies; both monomials are
    # reported.
    result, notes = parse_with_diagnostics("bn1(3)", 10, 3)
    assert not result
    assert len(notes) == 2


def test_nesting_is_capped_with_a_position():
    # Parentheses and unary minus share one budget; the first token past it
    # is reported, never a RecursionError.
    assert parse("(" * _MAX_NESTING + "x" + ")" * _MAX_NESTING, 4, 3) == monomial(4, 3, 1, 0)
    assert parse("-(" * (_MAX_NESTING // 2) + "x" + ")" * (_MAX_NESTING // 2), 4, 3) == monomial(4, 3, 1, 0)
    for text in ("(" * 2000 + "x" + ")" * 2000, "-" * 2000 + "x", "(-" * 51 + "x" + ")" * 51):
        with pytest.raises(ClassExprError) as info:
            parse(text, 4, 3)
        assert info.value.position == _MAX_NESTING + 1
        assert "deeper than" in str(info.value)


def test_long_chains_parse_flat():
    g, d = 4, 3
    assert parse("+".join(["x"] * 5000), g, d) == monomial(g, d, 1, 0, 5000)
    assert parse("x" + "-x" * 3000, g, d) == monomial(g, d, 1, 0, -2999)
    assert parse("*".join(["x"] * 3000), g, d) == zero_class(g, d)
    assert parse("theta" + "*2/3" * 2000, g, d) == monomial(g, d, 0, 1, Fraction(2, 3) ** 2000)


def test_dense_round_trip_on_a_large_ambient():
    rng = random.Random(60)
    terms = {
        (a, b): Fraction(rng.randint(1, 99) * rng.choice((-1, 1)), rng.randint(1, 9))
        for a in range(61)
        for b in range(61 - a)
    }
    cls = CohomClass(60, 60, terms)
    assert len(cls.terms) == 1891
    assert parse(format_class(cls), 60, 60) == cls


def test_diagnostics_omitted_past_the_degree_limit():
    # At the limit every dropped monomial is listed; past it, one note.
    limit = _DIAGNOSTIC_MAX_DEGREE
    result, notes = parse_with_diagnostics(f"(x+theta+1)^{limit}", 4, 3)
    assert result == parse(f"(x+theta+1)^{limit}", 4, 3)
    assert len(notes) == (limit + 1) * (limit + 2) // 2 - 10
    result, notes = parse_with_diagnostics("(x+theta+1)^300", 4, 3)
    assert result == parse("(x+theta+1)^300", 4, 3)
    assert notes == [
        "dropped-monomial listing omitted: the expression's degree can reach 300, "
        f"above the listing limit of {limit}"
    ]
    # Nothing can vanish when the degree fits the ambient, however large.
    assert parse_with_diagnostics("(x+1)^60", 80, 70)[1] == []

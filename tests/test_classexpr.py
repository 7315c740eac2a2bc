from __future__ import annotations

import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from triplecover import brill_noether, classexpr
from triplecover.arith import binomial
from triplecover.brill_noether import bn1_class
from triplecover.classexpr import (
    _DIAGNOSTIC_MAX_DEGREE,
    _MAX_NESTING,
    _MAX_POWER_BITS,
    _MAX_REDUCTION_WORK,
    Bn1IndexMismatch,
    ClassExprError,
    DivisionByZeroLiteral,
    ExprSyntaxError,
    parse,
    parse_with_diagnostics,
)
from triplecover.cohomology import (
    CohomClass,
    _draws,
    _log2_bound,
    _power_bits,
    _product_bits,
    _sum_bits,
    evaluate_top,
    monomial,
    mul_classes,
    render_class,
    sum_classes,
    unit_class,
    zero_class,
)


@st.composite
def classes(draw, g=None, d=None):
    g = draw(st.integers(min_value=0, max_value=6)) if g is None else g
    d = draw(st.integers(min_value=0, max_value=6)) if d is None else d
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


def test_bn1_that_the_ring_kills_computes_no_factorial():
    # bn1(1) at g = 10^7 needs (10^7)!, which takes minutes; the ambient
    # (10^7, 1) kills both of its monomials, so the class is zero at once.
    start = time.perf_counter()
    assert parse("bn1(1)", 10**7, 1) == zero_class(10**7, 1)
    assert parse("x + bn1(1)", 10**6, 1) == monomial(10**6, 1, 1, 0)
    assert time.perf_counter() - start < 1


def test_bn1_with_an_oversized_denominator_is_refused_before_it_is_computed():
    # (9000001)! could have 9000001 * 24 bits, past the bit budget; the
    # refusal is at bn1's own position.
    start = time.perf_counter()
    with pytest.raises(ClassExprError) as info:
        parse("x + bn1(10000000)", 19 * 10**6, 10**7)
    assert time.perf_counter() - start < 1
    assert info.value.position == 5
    assert str(info.value) == (
        f"at position 5: bn1(10000000)'s denominator (9000001)! could have more than "
        f"{_MAX_POWER_BITS} bits, the limit for one class"
    )
    # The bound on (k+1)! is (k+1) * bitlen(k+1) bits: 10 * 4 at (19, 10).
    assert brill_noether._bn1(19, 10, 19, 10, 40) == bn1_class(19, 10) != zero_class(19, 10)
    with pytest.raises(OverflowError):
        brill_noether._bn1(19, 10, 19, 10, 39)


def test_bn1_index_mismatch():
    with pytest.raises(Bn1IndexMismatch):
        parse("bn1(2)", 4, 3)
    with pytest.raises(Bn1IndexMismatch):
        parse("bn1(-1)", 4, 3)


def test_bn1_on_the_zeroth_symmetric_product_is_a_positioned_error():
    # bn1(0) matches the ambient d = 0, but the rank-1 locus needs d >= 1.
    for text, position in (("bn1(0)", 1), ("x + 2*bn1(0)", 7)):
        with pytest.raises(ClassExprError) as info:
            parse(text, 3, 0)
        assert info.value.position == position
        assert not isinstance(info.value, Bn1IndexMismatch)
        assert "bn1(0)" in str(info.value)
        with pytest.raises(ClassExprError):
            parse_with_diagnostics(text, 3, 0)


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


def test_only_decimal_digits_are_numbers():
    # Superscripts and circled digits are digits to str.isdigit but not
    # numbers to int(); they are positioned syntax errors.
    for text, position in (("x^\u00b2", 3), ("\u00b3*x", 1), ("x+\u2460", 3)):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text, 4, 3)
        assert info.value.position == position, text
        assert "expected a token" in str(info.value)
    # Decimal digits of other scripts are numbers.
    assert parse("x+\u0661", 4, 3) == parse("x+1", 4, 3)
    assert parse("\u0663*theta", 4, 3) == parse("3*theta", 4, 3)


def test_ambient_validation():
    with pytest.raises(ValueError):
        parse("x", -1, 3)
    with pytest.raises(ValueError):
        parse("x", 3, -1)


def test_format_examples():
    assert render_class(bn1_class(4, 3)) == "1/2*theta^2 - x*theta"
    assert render_class(zero_class(4, 3)) == "0"
    assert render_class(monomial(4, 3, 3, 0)) == "x^3"


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
    assert parse(render_class(cls), cls.genus, cls.sym_index) == cls


@given(classes())
def test_format_is_idempotent(cls):
    text = render_class(cls)
    assert render_class(parse(text, cls.genus, cls.sym_index)) == text


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
    assert parse(render_class(cls), 60, 60) == cls


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


def test_oversized_number_literals_are_positioned_errors(digit_limit):
    assert parse("x + " + "0" * (digit_limit - 1) + "7", 4, 3) == parse("x + 7", 4, 3)
    for text, position in (("x + " + "7" * (digit_limit + 1), 5), ("x^" + "9" * 5000, 3)):
        with pytest.raises(ClassExprError) as info:
            parse(text, 4, 3)
        assert info.value.position == position
        assert f"more than {digit_limit} digits" in str(info.value)


def test_constant_powers_are_bounded_before_they_are_computed(digit_limit):
    # 2^n has more than 4300 digits for certain once 3n >= 43000; it is
    # small for the bit budget, so it parses, and only printing it fails.
    first = -(-10 * digit_limit // 3)
    assert parse(f"2^{first}", 4, 3) == unit_class(4, 3).scale(2**first)
    for text, position in (("(2*x+2)^100000000", 8), ("x + (1/3*theta+1/2)^1000000000", 20)):
        with pytest.raises(ClassExprError) as info:
            parse(text, 4, 3)
        assert info.value.position == position
        assert str(info.value).endswith(f"the power could have more than {_MAX_POWER_BITS} bits, the limit for one power")
    with pytest.raises(ClassExprError):
        parse_with_diagnostics("(2*x+2)^100000000", 4, 3)
    # Constant term 0 or +-1: coefficients grow polynomially, no bound.
    assert parse("(x+theta)^1000000000", 4, 3) == zero_class(4, 3)
    assert parse("(-1)^1000000001", 4, 3) == unit_class(4, 3).scale(-1)
    assert parse("(x-1)^1000000000", 4, 3) == CohomClass(
        4, 3, {(k, 0): (-1) ** k * binomial(10**9, k) for k in range(4)}
    )


def test_unit_sum_powers_have_one_bit_numerators():
    # A one-term base with numerator +-1 keeps numerator +-1 in every power;
    # (x/3)^n adds its denominator 3^n, bounded by 2n bits.
    for text, denominator_bits in (("x", 0), ("theta", 0), ("x/3", 2), ("-x", 0)):
        base = parse(text, 10**9, 10**9)
        for n in (_MAX_POWER_BITS + 1, 10**9):
            assert _power_bits(base, n) == (1, denominator_bits * n), (text, n)
    n = _MAX_POWER_BITS + 1
    assert parse(f"x^{n}", 0, n) == monomial(0, n, n, 0)
    assert parse(render_class(monomial(0, n, n, 0)), 0, n) == monomial(0, n, n, 0)


def _parse_error(child_env, text: str, g: int, d: int, digit_limit: int) -> str:
    """The last stderr line of ``parse(text, g, d)`` in a child process under
    the digit limit ``digit_limit``; a child that runs past 5 s fails the
    test instead of stalling it, and one whose ``parse`` succeeds fails it
    with an assertion naming the input."""
    code = f"import sys; from triplecover.classexpr import parse; sys.set_int_max_str_digits({digit_limit}); " \
        f"parse({text!r}, {g}, {d})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=5)
    shown = text if len(text) <= 80 else text[:80] + "..."
    assert proc.returncode != 0 and proc.stderr.strip(), (
        f"parse({shown!r}, {g}, {d}) raised no error (exit {proc.returncode})"
    )
    return proc.stderr.strip().splitlines()[-1]


def test_powers_with_a_large_denominator_are_positioned_errors(child_env):
    # Their numerators are +-1, but their denominators are past the budget:
    # (x/1000001)^8388608 ran past 20 s, and (1/3)^1000000000 would build
    # 3^1000000000.  (x/3)^4194304 is past it with its one numerator bit.
    for text, g, d, position in (
        ("(x/1000001)^8388608", 0, 8388608, 12), ("(1/3)^1000000000", 4, 3, 6), ("(x/3)^8388608", 0, 8388608, 6),
        ("(x/3)^4194304", 0, 10**9, 6),
    ):
        assert _parse_error(child_env, text, g, d, 0) == (
            f"triplecover.classexpr.ClassExprError: at position {position}: "
            f"the power could have more than {_MAX_POWER_BITS} bits, the limit for one power"
        )
    # These fit the budget, 2^22 numerator bits over 2^22 denominator bits,
    # but the gcd of 2^2097152 with 3^2097152 took 10-15 s.
    for text, g, d, position in (("(2*x/3)^2097152", 0, 2097152, 8), ("(2/3)^2097152", 4, 3, 6)):
        assert _parse_error(child_env, text, g, d, 0) == (
            f"triplecover.classexpr.ClassExprError: at position {position}: "
            f"reducing the power to lowest terms could take more than {_MAX_REDUCTION_WORK} bit operations, "
            "the limit for one power"
        )
    # A truncating ambient keeps one cheap: six monomials of at most
    # 5*bitlen(2*10^12) + bitlen(6) bits each, over a divisor of 2^5.
    assert _power_bits(parse("x/2+1", 5, 5), 10**12) == (6 * (5 * 41 + 3), 5 * 2)
    assert parse("(x/3)^1000000000", 4, 3) == zero_class(4, 3)


def test_products_and_sums_with_a_large_denominator_are_positioned_errors(child_env, monkeypatch):
    # Each power's denominator is within the budget, 3^3000000 having 4.8
    # million bits, but two of them are not: unchecked, four factors of
    # (1/3)^4194304 ran for 20 s, and a sum reaches math.lcm of two such
    # numbers.  (1/3)^4194304 itself, with its 1-bit numerator over a
    # bound of 2 bits per factor, is past the budget.  The lcm of 3^2000000
    # and 5^1300000 fits the budget but took 84 s to take, and the 201
    # numerators of (1+x)^200 scaled by 3^4000000 peaked at 180 MB.  Each
    # '/' by the 4,295-digit 3^9000 adds 14,265 denominator bits to a
    # 4,000,001-bit numerator, so the fifth is refused for its work; the
    # chain of 29 spent 3.5 s in its gcds before the renderer refused it.
    for text, g, d, limit, message in (
        ("*".join(["(1/3)^4194304"] * 4), 4, 3, 4300, "at position 6: the power could have more than"),
        ("*".join(["(1/3)^3000000"] * 4), 4, 3, 0, "at position 14: the product could have more than"),
        ("(1/3)^3000000+(1/5)^2000000", 4, 3, 0, "at position 14: the sum could have more than"),
        ("(x/3)^2000000+(x/5)^1300000", 0, 2000000, 0, "at position 14: reducing the sum to lowest terms"),
        ("(x/3)^4000000+(1+x)^200", 0, 4000000, 0, "at position 14: the sum could have more than"),
        ("(2*x)^4000000" + f"/{3**9000}" * 6, 0, 4000000, 0, "at position 17198: reducing the product to lowest terms"),
    ):
        assert message in _parse_error(child_env, text, g, d, limit), (text, limit)
    # A canonical rendering sums 861 terms whose denominators divide 30^40:
    # scaled to their lcm, its numerators stay far inside the budget.
    cls = parse("(x/2+theta/3+1/5)^40", 40, 40)
    assert parse(render_class(cls), 40, 40) == cls
    # The bounds are checked at the operator where they first pass the
    # budget: a product counts its numerator bits, 2 here, and both
    # denominators; a sum counts its numerators scaled to the lcm of its
    # denominators, 7 bits here, and the lcm's 7 bits.  A '/' is a product
    # by a constant class, so x/64/64 is refused at its second '/'.
    monkeypatch.setattr(classexpr, "_MAX_POWER_BITS", 14)
    assert parse("(x/64)*(x/8)", 9, 9) == monomial(9, 9, 2, 0, Fraction(1, 512))
    assert parse("1/64 + x/64 + x/8", 9, 9) == parse("(1 + 9*x)/64", 9, 9)
    for text, position, what in (
        ("x/8 * (x/64) * (x/64)", 14, "product could have more than 14 bits, the limit for one product"),
        ("x/64/64", 5, "product could have more than 14 bits, the limit for one product"),
        ("1/64 + x/64 + theta/729", 13, "sum could have more than 14 bits, the limit for one sum"),
        ("1/64 + x/64 + theta/64 + x/8", 24, "sum could have more than 14 bits, the limit for one sum"),
    ):
        with pytest.raises(ClassExprError) as info:
            parse(text, 9, 9)
        assert info.value.position == position, text
        assert str(info.value).endswith(what)


def test_reductions_past_the_work_limit_are_positioned_errors(monkeypatch):
    # The work limit is checked at the operator where N * D first passes
    # it.  A product with a one-term factor is a shift: (x/64)*(x/8) bounds
    # 2 numerator bits over 11 denominator bits, and (1 + x)/64, a product
    # by the constant class 1/64, bounds 2 + 2 * 1 over 7, the limit.
    monkeypatch.setattr(classexpr, "_MAX_REDUCTION_WORK", 2 * 14)
    assert parse("(x/64)*(x/8)", 9, 9) == monomial(9, 9, 2, 0, Fraction(1, 512))
    assert parse("1/64 + x/64", 9, 9) == parse("(1 + x)/64", 9, 9)
    for text, position, what in (
        ("(2*x/3)^3", 8, "power"),  # 6 * 6
        ("x/8 * (x/64) * (x/16)", 14, "product"),  # 2 * 15
        ("1/64 + x/64 + x/8", 13, "sum"),  # 7 * 7
    ):
        with pytest.raises(ClassExprError) as info:
            parse(text, 9, 9)
        assert info.value.position == position, text
        assert str(info.value).endswith(
            f"reducing the {what} to lowest terms could take more than 28 bit operations, the limit for one {what}"
        )


@given(st.data())
def test_sum_bits_bound_every_sum(data):
    # The last bound yielded for a prefix of a sum is D, the bits of the
    # prefix's lcm, and N, the sum of bitlen(n) + bitlen(lcm/L) over its
    # terms n/L.  So it bounds the bits of the sum before and after
    # reduction, and the work N * D of the gcd that reduces it.  A new
    # denominator first yields the bits of the lcm so far and its own.
    first = data.draw(classes())
    terms = [first] + data.draw(st.lists(classes(first.genus, first.sym_index), max_size=4))
    bounds = {}
    for k, bits in _sum_bits(terms):
        denominators = [t._denominator for t in terms[:k]]
        if k not in bounds and terms[k]._denominator not in denominators:
            assert bits == (_log2_bound(math.lcm(*denominators)), _log2_bound(terms[k]._denominator))
        bounds[k] = bits
    assert sorted(bounds) == list(range(1, len(terms)))
    for k, (numerator_bits, denominator_bits) in bounds.items():
        lcm = math.lcm(*(t._denominator for t in terms[: k + 1]))
        prefix = [(key, n, lcm // t._denominator) for t in terms[: k + 1] for key, n in t._numerators.items()]
        assert (sum(n.bit_length() + _log2_bound(m) for _, n, m in prefix), _log2_bound(lcm)) == bounds[k]
        unreduced = {}
        for key, n, m in prefix:
            unreduced[key] = unreduced.get(key, 0) + n * m
        assert sum(n.bit_length() for n in unreduced.values()) <= numerator_bits
        assert _within(_stored_bits(sum_classes(*terms[: k + 1])), bounds[k])


def _stored_bits(cls: CohomClass) -> tuple[int, int]:
    """The bits of a class as stored: its numerators' bit lengths in all,
    and its denominator's, a denominator of 1 counting none."""
    return sum(n.bit_length() for n in cls._numerators.values()), _log2_bound(cls._denominator)


def _within(bits: tuple[int, int], bound: tuple[int, int]) -> bool:
    """Whether numerator and denominator bits are each within a bound's."""
    return bits[0] <= bound[0] and bits[1] <= bound[1]


@given(classes(), st.integers(min_value=0, max_value=12))
def test_power_bits_bound_every_power(cls, n):
    # Every power cls^k with k <= n, such as those that repeated squaring
    # builds on the way to cls^n, is within the bound for cls^n.
    for k in range(n + 1):
        assert _within(_stored_bits(cls**k), _power_bits(cls, k))
        assert k == 0 or _within(_power_bits(cls, k), _power_bits(cls, n))


@given(classes(), st.integers(min_value=0, max_value=12))
def test_power_denominator_bits_bound_every_power(cls, n):
    # The denominator share of _power_bits rests on cls^k's denominator
    # dividing q^k * t^min(k, d), q the constant term's denominator and
    # t = L/q, L the base's denominator.
    q = cls.coefficient(0, 0).denominator
    t = cls._denominator // q
    for k in range(n + 1):
        denominator = (cls**k)._denominator
        assert (q**k * t ** min(k, cls.sym_index)) % denominator == 0
        assert denominator <= 2 ** _power_bits(cls, k)[1]


def test_power_bits_count_the_surviving_monomials():
    # (x+theta+1)^n and (x+1)^n have every monomial the count T allows,
    # nothing cancels, and for 1 <= n <= d each numerator is bounded by
    # 3^n < 2^(2n) and 2^n < 2^(2n).
    for g in range(7):
        for d in range(7):
            for text in ("x+theta+1", "x+1"):
                base = parse(text, g, d)
                for n in range(1, d + 1):
                    assert _power_bits(base, n) == (2 * n * len((base**n)._numerators), 0), (text, g, d, n)


def test_powers_past_the_bit_budget_are_positioned_errors():
    # (x+theta+1)^400 in (120, 120) stays inside the budget; in (150, 150)
    # and ^800 in (400, 400) it does not, and is refused before it is
    # computed (that power alone ran past 60 s).
    assert sum(_power_bits(parse("x+theta+1", 120, 120), 400)) <= _MAX_POWER_BITS
    assert sum(_power_bits(parse("x+theta+1", 150, 150), 400)) > _MAX_POWER_BITS
    start = time.perf_counter()
    for text, g, d, position in (("x + (x+theta+1)^800", 400, 400, 16), ("(x+theta+1)^400", 150, 150, 12)):
        with pytest.raises(ClassExprError) as info:
            parse(text, g, d)
        assert info.value.position == position
        assert str(info.value).endswith(f"power could have more than {_MAX_POWER_BITS} bits, the limit for one power")
    assert time.perf_counter() - start < 1
    # The monomial count is a closed form: a huge ambient and exponent cost nothing.
    huge = 10**30
    assert sum(_power_bits(parse("x+theta+1", huge, huge), huge)) > _MAX_POWER_BITS
    assert sum(_power_bits(parse("x+theta+1", 10**7, 10**7), 16)) < 10**4
    # A huge exponent that the ambient truncates stays cheap to bound and to compute.
    assert sum(_power_bits(parse("x-1", 4, 3), 10**9)) < 10**3


@given(st.data())
def test_product_bits_bound_every_product(data):
    lhs = data.draw(classes())
    rhs = data.draw(classes(lhs.genus, lhs.sym_index))
    assert _within(_stored_bits(mul_classes(lhs, rhs)), _product_bits(lhs, rhs))
    # A one-term factor n0 * m shifts the other's T terms: sum(bitlen(n))
    # + T * bitlen(n0) numerator bits, over both denominators.
    for single, other in ((lhs, rhs), (rhs, lhs)):
        if len(single._numerators) == 1 and other:
            [n0] = single._numerators.values()
            numerator_bits = sum(n.bit_length() for n in other._numerators.values())
            assert _product_bits(single, other) == (
                numerator_bits + len(other._numerators) * n0.bit_length(),
                _log2_bound(single._denominator) + _log2_bound(other._denominator),
            )


def test_products_past_the_bit_budget_are_positioned_errors(monkeypatch):
    # The budget is checked at each '*' of a chain, against the product so
    # far and the next factor, before they are multiplied.
    base = parse("x+theta+1", 9, 9)
    bits = _product_bits(base, base)
    assert bits == (6 * (1 + 1 + 2), 0)  # monomials of degree <= 2, times 1 + 1 + bitlen(3) bits
    square = sum(bits)
    monkeypatch.setattr(classexpr, "_MAX_POWER_BITS", square)
    assert parse("(x+theta+1)*(x+theta+1)", 9, 9) == base**2
    for text, position in (("(x+theta+1)*(x+theta+1)*(x+theta+1)", 24), ("2 + (x+theta+1) * (x+theta+1)^2", 17)):
        with pytest.raises(ClassExprError) as info:
            parse(text, 9, 9)
        assert info.value.position == position, text
        assert str(info.value).endswith(f"the product could have more than {square} bits, the limit for one product")
    # A product with a zero factor has no numerators at all.
    assert _product_bits(zero_class(9, 9), base) == (0, 0)


def test_sparse_products_and_powers_in_a_large_ambient_are_within_the_budget():
    # The rank-1 pairing bn1(d) * x^(2d-g-1) at (g, d) = (2200, 1500): bn1
    # reaches degree 701, so the monomials under the factors' combined reach
    # number 807,651, but the product has only 2 term pairs.
    g, d = 2200, 1500
    bn1, power = bn1_class(g, d), monomial(g, d, 2 * d - g - 1, 0)
    assert sum(_product_bits(bn1, power)) <= _MAX_POWER_BITS
    product = parse(f"bn1({d})*x^{2 * d - g - 1}", g, d)
    assert product == mul_classes(bn1, power)
    assert len(product._numerators) == 2
    assert evaluate_top(product) == binomial(g, d - 1) - binomial(g, d)
    # A power of a sparse base has at most one monomial per multiset of its
    # terms: 3 for a square of two terms, 1 for any power of one term.
    assert parse("(x^400*theta^300+1)^2", g, d) == parse("x^800*theta^600 + 2*x^400*theta^300 + 1", g, d)
    assert parse("(x^700*theta^700)^2", g, d) == zero_class(g, d)
    assert _draws(2, 2, 10**6) == 3 and _draws(10**4300, 1, 10**6) == 1
    assert _draws(10**4300, 3, 10**6) == 10**6
    assert all(_draws(n, k, 10**9) == math.comb(n + k - 1, k - 1) for n in range(9) for k in range(1, 9))


def test_bn1_syntax_errors():
    for text, position, expected in (
        ("bn1 x", 5, ("'('",)),
        ("bn1(x)", 5, ("an integer bn1 index",)),
        ("bn1(3", 6, ("')'",)),
    ):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text, 4, 3)
        assert info.value.position == position, text
        assert info.value.expected == expected, text


def test_diagnostics_of_a_negated_power():
    result, notes = parse_with_diagnostics("-(x+theta)^5", 4, 3)
    assert result == zero_class(4, 3)
    assert notes == [
        "dropped theta^5 (coefficient -1): theta power 5 exceeds g = 4",
        "dropped x*theta^4 (coefficient -5): codimension 5 exceeds d = 3",
        "dropped x^2*theta^3 (coefficient -10): codimension 5 exceeds d = 3",
        "dropped x^3*theta^2 (coefficient -10): codimension 5 exceeds d = 3",
        "dropped x^4*theta (coefficient -5): codimension 5 exceeds d = 3",
        "dropped x^5 (coefficient -1): codimension 5 exceeds d = 3",
    ]


def test_syntax_errors_come_before_evaluation_errors():
    # bn1(2) mismatches the ambient and the power's constant term is over
    # the digit limit, but the whole text is parsed first.
    for text, position in (("bn1(2) + x+*theta", 12), ("(2*x+2)^100000000 )", 19)):
        for call in (parse, parse_with_diagnostics):
            with pytest.raises(ExprSyntaxError) as info:
                call(text, 4, 3)
            assert info.value.position == position, text


def test_nothing_is_evaluated_before_the_parse_succeeds():
    # Evaluating the power alone takes about a minute in (120, 120).
    for call in (parse, parse_with_diagnostics):
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError) as info:
            call("(x+theta+1)^1000 )", 120, 120)
        assert time.perf_counter() - start < 1
        assert info.value.position == 18

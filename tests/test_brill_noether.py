from __future__ import annotations

from fractions import Fraction

import math

import pytest
from hypothesis import given, strategies as st

from triplecover.arith import factorial
from triplecover.brill_noether import (
    _bn1,
    bn1_class,
    castelnuovo_count,
    castelnuovo_count_bits,
    cs_max_degree,
    pencil_dimension_hypothesis,
    rho,
)
from triplecover.cohomology import CohomClass, evaluate_top, mul_classes, unit_class, x_class


def test_rho_examples():
    assert rho(2, 1, 2) == 0
    assert rho(3, 1, 3) == 1
    assert rho(4, 1, 3) == 0


def test_rho_pencil_shortcut():
    for g in range(0, 12):
        for d in range(0, 12):
            assert rho(g, 1, d) == 2 * d - 2 - g


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=30),
)
def test_rho_is_linear_in_degree_with_slope_rank_plus_one(g, r, d):
    assert rho(g, r, d + 1) - rho(g, r, d) == r + 1


def test_rho_validates_inputs():
    with pytest.raises(ValueError):
        rho(-1, 1, 2)
    with pytest.raises(ValueError):
        rho(2, 0, 2)
    with pytest.raises(ValueError):
        rho(2, 1, -1)


def test_castelnuovo_count_examples():
    assert castelnuovo_count(2, 1, 2) == 1
    assert castelnuovo_count(4, 1, 3) == 2
    assert castelnuovo_count(6, 1, 4) == 5


def test_castelnuovo_count_requires_rho_zero():
    with pytest.raises(ValueError):
        castelnuovo_count(3, 1, 3)


def test_castelnuovo_count_rank_two():
    # rho(g, 2, d) = 0 forces g = 3(g - d + 2), e.g. (g, d) = (3, 4).
    assert rho(3, 2, 4) == 0
    expected = Fraction(
        factorial(3) * factorial(0) * factorial(1) * factorial(2),
        factorial(1) * factorial(2) * factorial(3),
    )
    assert castelnuovo_count(3, 2, 4) == expected == 1


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=60))
def test_castelnuovo_count_bits_bounds_the_count(r, k):
    # rho(g, r, d) = 0 exactly when g = (r+1)(g-d+r); k = g-d+r.
    g = (r + 1) * k
    d = g - k + r
    assert rho(g, r, d) == 0
    count = castelnuovo_count(g, r, d)
    bits = castelnuovo_count_bits(g, r, d)
    assert bits < count.bit_length()
    assert count >= 2**bits if bits >= 0 else True


def test_castelnuovo_count_matches_the_factorial_formula():
    # g! * prod_{i<=r} i!/(g-d+r+i)!, the documented formula, computed
    # directly; the library takes binomials over the shorter side.
    for r in range(1, 6):
        for k in range(0, 12):
            g = (r + 1) * k
            d = g - k + r
            expected = Fraction(factorial(g))
            for i in range(r + 1):
                expected *= Fraction(factorial(i), factorial(k + i))
            assert castelnuovo_count(g, r, d) == expected


def test_castelnuovo_count_of_a_one_column_rectangle_is_one_at_any_rank():
    r = 10**12
    assert castelnuovo_count(r + 1, r, 2 * r) == 1


def test_bn1_class_examples():
    assert bn1_class(4, 3) == CohomClass(4, 3, {(0, 2): Fraction(1, 2), (1, 1): -1})
    assert bn1_class(3, 3) == CohomClass(3, 3, {(0, 1): 1, (1, 0): -1})


def test_bn1_class_matches_double_factorial_scaling():
    # At (g, d) = (28, 24) the class equals
    # ((3e+1)! theta^(3e+2) - (3e+2)! x theta^(3e+1)) / ((3e+1)!(3e+2)!)
    # with e = 1.
    e = 1
    scale = Fraction(1, factorial(3 * e + 1) * factorial(3 * e + 2))
    raw = CohomClass(
        28,
        24,
        {
            (0, 3 * e + 2): factorial(3 * e + 1),
            (1, 3 * e + 1): -factorial(3 * e + 2),
        },
    )
    assert bn1_class(28, 24) == raw.scale(scale)


def test_bn1_class_degenerate_indices():
    # d = g + 1: the correction term carries 1/(-1)! = 0, leaving the unit.
    assert bn1_class(1, 2) == unit_class(1, 2)
    assert bn1_class(3, 4) == unit_class(3, 4)
    # d > g + 1: both coefficients vanish.
    assert not bn1_class(2, 5)


def _bn1_reference_terms(g, d):
    # theta^(k+1)/(k+1)! - x*theta^k/k! with k = g - d; a term whose
    # factorial argument is negative is absent.
    k = g - d
    terms = {}
    if k + 1 >= 0:
        terms[(0, k + 1)] = Fraction(1, math.factorial(k + 1))
    if k >= 0:
        terms[(1, k)] = Fraction(-1, math.factorial(k))
    return terms


def test_bn1_class_equals_its_terms_placed_through_the_constructor():
    # Truncated ambients (d < (g+1)/2 kills the lead term or both), d = g,
    # d = g + 1 (the unit class) and d > g + 1 (zero).
    for g in range(0, 13):
        for d in range(1, g + 5):
            cls = bn1_class(g, d)
            reference = CohomClass(g, d, _bn1_reference_terms(g, d))
            assert cls == reference
            assert hash(cls) == hash(reference)
            assert all(type(n) is int for n in cls._numerators.values())
            assert math.gcd(cls._denominator, *cls._numerators.values()) == 1
            if not cls:
                assert cls._denominator == 1
    assert bn1_class(5, 6) == unit_class(5, 6)
    assert not bn1_class(5, 7) and bn1_class(5, 7)._denominator == 1
    assert not bn1_class(9, 2) and bn1_class(9, 2)._denominator == 1


def test_bn1_placed_where_only_the_x_term_survives():
    # k = g - d = 3 is the ring's genus, so theta^(k+1) vanishes there and
    # -(k+1)*x*theta^k/(k+1)! = -x*theta^3/6 is left.
    assert _bn1(3, 5, 7, 4) == CohomClass(3, 5, {(1, 3): Fraction(-1, 6)})


def test_bn1_class_validates_inputs():
    with pytest.raises(ValueError):
        bn1_class(4, 0)
    with pytest.raises(ValueError):
        bn1_class(-1, 1)


def test_count_class_duality():
    # evaluate_top(bn1 * x) equals the Castelnuovo count whenever rho = 0.
    # Worked anchor at (4, 3): (theta^2/2 - x theta) * x pairs to 6 - 4 = 2.
    anchor = mul_classes(bn1_class(4, 3), x_class(4, 3))
    assert evaluate_top(anchor) == 2 == castelnuovo_count(4, 1, 3)
    for d in range(2, 9):
        g = 2 * d - 2
        assert rho(g, 1, d) == 0
        pairing = evaluate_top(mul_classes(bn1_class(g, d), x_class(g, d)))
        assert pairing == castelnuovo_count(g, 1, d)


def test_cs_max_degree_examples():
    assert cs_max_degree(28, 2) == 11
    assert cs_max_degree(6, 2) == 0
    assert cs_max_degree(15, 1) == 6


def test_cs_max_degree_domain():
    with pytest.raises(ValueError):
        cs_max_degree(5, 2)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=80))
def test_cs_max_degree_shifts_by_one_per_two_genus(h, extra):
    g = 3 * h + extra
    assert cs_max_degree(g + 2, h) == cs_max_degree(g, h) + 1


def test_pencil_dimension_hypothesis_examples():
    assert pencil_dimension_hypothesis(28, 5) is True
    assert pencil_dimension_hypothesis(27, 5) is False
    assert pencil_dimension_hypothesis(3, 2) is True
    assert pencil_dimension_hypothesis(2, 2) is False
    with pytest.raises(ValueError):
        pencil_dimension_hypothesis(5, 0)


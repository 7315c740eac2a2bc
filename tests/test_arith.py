from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from triplecover.arith import binomial, binomial_bits, exceeds_str_digits, factorial


def repeated_multiplication(n: int) -> int:
    """Independent factorial oracle."""
    out = 1
    for m in range(2, n + 1):
        out *= m
    return out


def pascal(n: int, k: int) -> int:
    """Independent binomial oracle via Pascal's triangle."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def test_factorial_small_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(5) == 120


def test_factorial_matches_repeated_multiplication():
    for n in (10, 37, 100, 250):
        assert factorial(n) == repeated_multiplication(n)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_examples():
    assert binomial(6, 2) == 15 == pascal(6, 2)
    assert binomial(4, 4) == 1
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(-2, 0) == 0
    assert binomial(-2, -3) == 0


def test_binomial_matches_pascal_triangle():
    for n in range(0, 14):
        for k in range(-2, n + 3):
            assert binomial(n, k) == pascal(n, k)


@given(st.integers(min_value=0, max_value=300))
def test_factorial_recurrence(n):
    assert factorial(n + 1) == (n + 1) * factorial(n)


@given(st.integers(min_value=0, max_value=120), st.integers(min_value=-5, max_value=125))
def test_binomial_symmetry(n, k):
    if 0 <= k <= n:
        assert binomial(n, k) == binomial(n, n - k)


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=400))
def test_binomial_bits_bounds_the_binomial(n, k):
    if k > n:
        with pytest.raises(ValueError):
            binomial_bits(n, k)
        return
    bits = binomial_bits(n, k)
    assert 0 <= bits <= binomial(n, k).bit_length()
    assert binomial(n, k) >= 2**bits


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@given(_rationals, _rationals, _rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(_rationals)
def test_rationals_stay_reduced_with_positive_denominator(q):
    assert q.denominator > 0
    from math import gcd

    assert gcd(q.numerator, q.denominator) == 1


def test_factorial_cache_safe_under_concurrent_extension():
    # Many threads extending the shared cache must agree with the oracle.
    targets = [311, 402, 355, 377, 490, 311, 402, 444] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(factorial, targets))
    for n, value in zip(targets, results):
        assert value == factorial(n)
    assert factorial(490) == repeated_multiplication(490)


def test_exceeds_str_digits_only_past_the_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter has no int-to-str digit limit")
    first = -(-10 * limit // 3)  # the fewest bits with 3 * bits >= 10 * limit
    assert exceeds_str_digits(first) and not exceeds_str_digits(first - 1)
    assert 2**first > 10**limit  # so 2**first has more than `limit` digits
    sys.set_int_max_str_digits(0)
    try:
        assert not exceeds_str_digits(10**9)
    finally:
        sys.set_int_max_str_digits(limit)

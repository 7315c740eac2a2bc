"""Exact integer and rational arithmetic shared by every other module.

Integers are plain Python ints (arbitrary precision); rationals are
``fractions.Fraction`` values, which are always reduced, carry a positive
denominator and compare by value.  The integer kernels delegate to the
standard library's ``math.factorial`` and ``math.comb`` and keep no state
between calls, so memory stays bounded by the size of the current answer.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "factorial",
    "binomial",
    "binomial_bits",
    "exceeds_str_digits",
]


def factorial(n: int) -> int:
    """Return n! for n >= 0.  Negative arguments are a contract violation."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with value 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_bits(n: int, k: int) -> int:
    """An integer j with C(n, k) >= 2**j for 0 <= k <= n, found without
    computing C(n, k): C(n, k) >= (n/k)^k >= (n//k)^k, and any positive
    integer q is at least 2**(q.bit_length() - 1)."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial_bits requires 0 <= k <= n, got n={n}, k={k}")
    return k * ((n // k).bit_length() - 1) if k else 0


def exceeds_str_digits(bits: int) -> bool:
    """Whether every integer of magnitude at least 2**bits has more decimal
    digits than the interpreter's int-to-str limit L
    (``sys.get_int_max_str_digits()``, 0 meaning none).  Since 2^10 > 10^3,
    2^bits has more than L digits once 3*bits >= 10*L."""
    limit = sys.get_int_max_str_digits()
    return limit > 0 and 3 * bits >= 10 * limit

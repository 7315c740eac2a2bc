"""Brill-Noether numerology for pencils.

Covers the Brill-Noether number rho, Castelnuovo's count of linear series
when rho vanishes, the fundamental class of the rank-1 special-divisor locus
inside a symmetric product, the Castelnuovo-Severi degree bound for triple
covers, and the genus hypothesis under which the pencil loci are
equi-dimensional of minimal dimension.

The rank-1 locus class theta^(g-d+1)/(g-d+1)! - x*theta^(g-d)/(g-d)! is
built from its integer numerators 1 and -(g-d+1) over (g-d+1)!, the form in
which ``CohomClass`` stores a class.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import binomial, factorial
from .cohomology import CohomClass, _class

__all__ = [
    "rho",
    "castelnuovo_count",
    "castelnuovo_count_bits",
    "bn1_class",
    "cs_max_degree",
    "pencil_dimension_genus",
    "pencil_dimension_hypothesis",
]


def _validate_query(g: int, r: int, d: int) -> None:
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")


def rho(g: int, r: int, d: int) -> int:
    """The Brill-Noether number g - (r+1)(g - d + r); for pencils, 2d - 2 - g."""
    _validate_query(g, r, d)
    return g - (r + 1) * (g - d + r)


def _rectangle(g: int, r: int, d: int) -> tuple[int, int]:
    """The sides a <= b of the (r+1) x (g-d+r) rectangle.  At rho == 0 the
    Castelnuovo count is the number of standard tableaux of this shape,
    g! / prod_{i<a} (b+i)!/i! by the hook length formula, which the
    transposed rectangle shares."""
    a, b = sorted((r + 1, g - d + r))
    return a, b


def castelnuovo_count(g: int, r: int, d: int) -> int:
    """Castelnuovo's count of g^r_d's on a general curve when rho == 0:

        g! * prod_{i=0..r} i! / (g - d + r + i)!

    For pencils this is g! / ((g-d+1)! (g-d+2)!).  With a <= b the sides of
    the rectangle (``_rectangle``), it is computed as

        prod_{j=1..a} C(j*b, b) / prod_{i<a} C(b+i, i),

    a binomials over a binomials, so the count of a one-column rectangle
    (a = 1) costs nothing however large g is.
    """
    rho_value = rho(g, r, d)
    if rho_value != 0:
        raise ValueError(f"Castelnuovo count requires rho == 0, got rho = {rho_value}")
    a, b = _rectangle(g, r, d)
    numerator = denominator = 1
    for i in range(a):
        numerator *= binomial((i + 1) * b, b)
        denominator *= binomial(b + i, i)
    count, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"Castelnuovo count came out non-integral: {Fraction(numerator, denominator)}"
        )
    return count


def castelnuovo_count_bits(g: int, r: int, d: int) -> int:
    """An integer j with castelnuovo_count(g, r, d) >= 2**j, found without
    computing the count; (g, r, d) must have rho == 0.

    With a <= b the sides of the rectangle (``_rectangle``, g = ab), the
    count is g!/(b!)^a divided by prod_{i<a} C(b+i, i).  The multinomial
    g!/(b!)^a is the largest of the C(g+a-1, a-1) <= (g+1)^(a-1) terms that
    sum to a^g, and C(b+i, i) <= (b+1)^i, so

        count >= a^g / ((g+1)^(a-1) * (b+1)^(a(a-1)/2)),

    and n.bit_length() bounds log2(n+1) from above.
    """
    a, b = _rectangle(g, r, d)
    return g * (a.bit_length() - 1) - (a - 1) * g.bit_length() - a * (a - 1) // 2 * b.bit_length()


def _bn1(genus: int, sym_index: int, g: int, d: int, max_bits: int | None = None) -> CohomClass:
    """The rank-1 locus class of the curve data (g, d) placed in the ring
    (genus, sym_index), without the monomials the ring kills.  With k = g - d,

        theta^(k+1)/(k+1)! - x*theta^k/k! = (theta^(k+1) - (k+1)*x*theta^k) / (k+1)!

    in lowest terms.  A term whose factorial argument would be negative is
    absent, so k = -1 leaves the unit class and k < -1 the zero class.  When
    the ring kills both monomials (k+1 > sym_index or k > genus) the zero
    class comes back before any factorial is computed; otherwise only
    theta^(k+1) can vanish, when k = genus.  With ``max_bits`` given, a
    (k+1)! that could have more bits, bounded by (k+1)*bitlen(k+1), raises
    ``OverflowError`` before it is computed.
    """
    if d < 1:
        raise ValueError(f"symmetric-product index must be at least 1, got {d}")
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    k = g - d
    if k < -1 or k + 1 > sym_index or k > genus:
        return _class(genus, sym_index, {}, 1)
    if k == -1:
        return _class(genus, sym_index, {(0, 0): 1}, 1)
    if max_bits is not None and (k + 1) * (k + 1).bit_length() > max_bits:
        raise OverflowError(f"({k + 1})! could have more than {max_bits} bits")
    if k == genus:
        return _class(genus, sym_index, {(1, k): -(k + 1)}, factorial(k + 1))
    # theta^(k+1)'s numerator 1 makes the two-term class lowest terms as built.
    return _class(genus, sym_index, {(0, k + 1): 1, (1, k): -(k + 1)}, factorial(k + 1), 1)


def bn1_class(g: int, d: int) -> CohomClass:
    """Fundamental class of the rank-1 special-divisor locus in the ambient
    (g, d), built from the integer numerators 1 and -(g-d+1) over (g-d+1)!
    straight into the stored form, without the monomials the ambient kills.

    Meaningful for 1 <= d <= g; d == g + 1 yields the unit class (every
    divisor moves) and larger d yields zero.
    """
    return _bn1(g, d, g, d)


def _cs_window(g: int, h: int) -> Fraction:
    """The Castelnuovo-Severi window (g - 3h)/2, unchecked: ``cs_max_degree``
    floors it, and the audit prints it at any (h, g)."""
    return Fraction(g - 3 * h, 2)


def cs_max_degree(g: int, h: int) -> int:
    """Largest pencil degree forced to factor through a triple cover of a
    genus-h curve by the Castelnuovo-Severi inequality: ``_cs_window`` floored.
    """
    if h < 0:
        raise ValueError(f"base genus must be nonnegative, got {h}")
    if g < 3 * h:
        raise ValueError(
            f"Castelnuovo-Severi window needs g >= 3h, got g = {g}, h = {h}"
        )
    return math.floor(_cs_window(g, h))


def pencil_dimension_genus(n: int) -> int:
    """The least genus satisfying the bound that makes the pencil loci W^1_d
    equi-dimensional of the minimal dimension 2d - 2 - g in the top degree
    window: (2n-3)(n-1), with the small-n branch 2n-1 for n <= 2.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return 2 * n - 1 if n <= 2 else (2 * n - 3) * (n - 1)


def pencil_dimension_hypothesis(g: int, n: int) -> bool:
    """Whether genus g is at least ``pencil_dimension_genus(n)``."""
    return g >= pencil_dimension_genus(n)


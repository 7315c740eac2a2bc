"""The x/theta subring of the rational cohomology of a symmetric product.

A ``CohomClass`` is a polynomial in two generators attached to the d-th
symmetric product of a genus-g curve:

* ``x``     -- the divisor class obtained by adding a fixed point,
* ``theta`` -- the pullback of the theta divisor under the abelian sum map.

The ``CohomClass`` constructor is the ring's only normaliser: it sums repeated
monomials exactly and drops zero sums and the vanishing monomials x^a * theta^b
with a + b > d or b > g.  Products, sums, scalings and push-forwards hand it
raw terms, so equality of classes is structural equality of the stored term
maps.  Top-degree evaluation uses Poincare's formula

    (x^(d-b) * theta^b) = g! / (g-b)!

extended linearly over the exact rational coefficients.

A product of at least 36 term pairs whose support is compact is one
big-integer multiplication by Kronecker substitution (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J. Symbolic
Comput. 2009), with slots as wide as the product's own theta support, so its
cost follows the factors and not the ambient (g, d).  Smaller or sparser
products multiply term pairs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .arith import binomial, format_rat

__all__ = [
    "AmbientMismatchError",
    "MixedMonomialError",
    "CohomClass",
    "monomial",
    "unit_class",
    "zero_class",
    "x_class",
    "theta_class",
    "mul_classes",
    "evaluate_top",
    "pushforward_B",
    "pair_via_pushforward",
    "monomial_text",
    "render_class",
]


class AmbientMismatchError(ValueError):
    """Raised when combining classes living on different symmetric products."""


class MixedMonomialError(ValueError):
    """Raised when a push-forward is applied to a class that is not a pure
    polynomial in x.  The operator is only modelled through its adjoint
    pairing role, and that role only ever meets x-powers."""


class CohomClass:
    """An exact-rational polynomial in x and theta on a fixed ambient (g, d).

    Instances are immutable.  ``terms`` maps or lists ((x power, theta power),
    coefficient) pairs; coefficients must be ``int`` or ``Fraction``.
    """

    __slots__ = ("genus", "sym_index", "_terms")

    def __init__(
        self,
        genus: int,
        sym_index: int,
        terms: Mapping[tuple[int, int], Fraction | int] | Iterable[tuple[tuple[int, int], Fraction | int]] = (),
    ):
        if genus < 0 or sym_index < 0:
            raise ValueError(f"ambient requires genus >= 0 and sym_index >= 0, got ({genus}, {sym_index})")
        sums: dict[tuple[int, int], Fraction | int] = {}
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            a, b = key
            if a < 0 or b < 0:
                raise ValueError(f"monomial exponents must be nonnegative, got x^{a}*theta^{b}")
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"coefficients must be int or Fraction, got {type(coeff).__name__}")
            if a + b > sym_index or b > genus:
                continue  # vanishing monomial
            if key in sums:
                sums[key] += coeff
            else:
                sums[key] = coeff
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "sym_index", sym_index)
        object.__setattr__(self, "_terms", {
            key: coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            for key, coeff in sums.items() if coeff
        })

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CohomClass is immutable")

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """A copy of the normalised term map, keyed by (x power, theta power)."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms in canonical order: descending theta power, then descending x power."""
        return sorted(self._terms.items(), key=lambda kv: (-kv[0][1], -kv[0][0]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohomClass):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.sym_index == other.sym_index
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.genus, self.sym_index, frozenset(self._terms.items())))

    def __add__(self, other: "CohomClass") -> "CohomClass":
        if not isinstance(other, CohomClass):
            return NotImplemented
        _check_ambient(self, other)
        return CohomClass(self.genus, self.sym_index, [*self._terms.items(), *other._terms.items()])

    def __sub__(self, other: "CohomClass") -> "CohomClass":
        if not isinstance(other, CohomClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CohomClass":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, CohomClass):
            return mul_classes(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CohomClass":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"class exponent must be a nonnegative integer, got {exponent!r}")
        result = unit_class(self.genus, self.sym_index)
        base, e = self, exponent
        while e:
            if e & 1:
                result = mul_classes(result, base)
            e >>= 1
            if e:
                base = mul_classes(base, base)
        return result

    def scale(self, scalar: Fraction | int) -> "CohomClass":
        return CohomClass(
            self.genus, self.sym_index, ((key, coeff * scalar) for key, coeff in self._terms.items())
        )

    def __repr__(self) -> str:
        return f"CohomClass(g={self.genus}, d={self.sym_index}, {render_class(self)!r})"

    def __str__(self) -> str:
        return render_class(self)


def _check_ambient(lhs: CohomClass, rhs: CohomClass) -> None:
    if lhs.genus != rhs.genus or lhs.sym_index != rhs.sym_index:
        raise AmbientMismatchError(
            f"classes live on different ambients: (g={lhs.genus}, d={lhs.sym_index}) "
            f"vs (g={rhs.genus}, d={rhs.sym_index})"
        )


def monomial(genus: int, sym_index: int, x_power: int, theta_power: int, coeff: Fraction | int = 1) -> CohomClass:
    """The single monomial coeff * x^a * theta^b in the given ambient."""
    return CohomClass(genus, sym_index, {(x_power, theta_power): coeff})


def unit_class(genus: int, sym_index: int) -> CohomClass:
    return monomial(genus, sym_index, 0, 0)


def zero_class(genus: int, sym_index: int) -> CohomClass:
    return CohomClass(genus, sym_index)


def x_class(genus: int, sym_index: int) -> CohomClass:
    return monomial(genus, sym_index, 1, 0)


def theta_class(genus: int, sym_index: int) -> CohomClass:
    return monomial(genus, sym_index, 0, 1)


# A product is packed into integers when it has at least _DENSE_TERMS ** 2
# term pairs (as two 6-term factors do) and its support box has at most
# _SLOTS_PER_PAIR slots per pair.  Below the first bound the term pairs are
# cheaper (CPython 3.11); the second keeps the packed integers, and the slots
# read back from them, proportional to the term-pair work, so a sparse factor
# with a long x span, such as x^N + 1, stays on term pairs.  The verifier's
# bn1 times a one-term x power has 2 pairs.
_DENSE_TERMS = 6
_SLOTS_PER_PAIR = 4


def mul_classes(lhs: CohomClass, rhs: CohomClass) -> CohomClass:
    """Product in the truncated ring; both factors must share the ambient.

    A product of at least ``_DENSE_TERMS ** 2`` (36) term pairs whose
    support box has at most ``_SLOTS_PER_PAIR`` (4) slots per pair is one
    big-integer multiplication by Kronecker substitution (``_dense_product``;
    Harvey, J. Symbolic Comput. 2009).  Other products, such as the
    verifier's bn1 times a one-term x power, take the schoolbook product of
    term pairs.
    """
    _check_ambient(lhs, rhs)
    pairs = len(lhs._terms) * len(rhs._terms)
    if pairs >= _DENSE_TERMS**2:
        box = tuple(map(sum, zip(_box(lhs), _box(rhs))))
        low_a, high_a, low_b, high_b, _ = box
        if (high_a - low_a + 1) * (high_b - low_b + 1) <= _SLOTS_PER_PAIR * pairs:
            return CohomClass(lhs.genus, lhs.sym_index, _dense_product(lhs, rhs, box))
    return CohomClass(lhs.genus, lhs.sym_index, (
        ((a1 + a2, b1 + b2), c1 * c2)
        for (a1, b1), c1 in lhs._terms.items()
        for (a2, b2), c2 in rhs._terms.items()
    ))


def _box(cls: CohomClass) -> tuple[int, int, int, int, int]:
    """Least and largest x power, least and largest theta power, and largest
    total degree of a nonzero class.  Summed over two factors, these bound
    the support of their product."""
    xs = [a for a, _ in cls._terms]
    thetas = [b for _, b in cls._terms]
    return min(xs), max(xs), min(thetas), max(thetas), max(map(sum, cls._terms))


def _integer_form(cls: CohomClass) -> tuple[dict[tuple[int, int], int], int]:
    """Integer numerators over the least common denominator of ``cls``."""
    denominator = math.lcm(*(coeff.denominator for coeff in cls._terms.values()))
    return {
        key: coeff.numerator * (denominator // coeff.denominator) for key, coeff in cls._terms.items()
    }, denominator


def _pack(numerators: dict[tuple[int, int], int], stride: int, kb: int) -> int:
    """The signed integer sum of n * 2^(8*kb*((a - a0)*stride + b - b0))
    over the terms, where a0 and b0 are their least x and theta powers."""
    low_a = min(a for a, _ in numerators)
    low_b = min(b for _, b in numerators)
    slots = {(a - low_a) * stride + b - low_b: n for (a, b), n in numerators.items()}
    length = kb * (max(slots) + 1)
    positive, negative = bytearray(length), bytearray(length)
    for slot, n in slots.items():
        start = kb * slot
        if n > 0:
            positive[start:start + kb] = n.to_bytes(kb, "little")
        else:
            negative[start:start + kb] = (-n).to_bytes(kb, "little")
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _dense_product(
    lhs: CohomClass, rhs: CohomClass, box: tuple[int, int, int, int, int]
) -> list[tuple[tuple[int, int], Fraction]]:
    """The surviving terms of lhs * rhs by Kronecker substitution.

    ``box`` bounds the product's support: x powers in [low_a, high_a], theta
    powers in [low_b, high_b], total degree at most ``top``.  Each factor is
    scaled to integer numerators, and monomial x^a * theta^b becomes slot
    (a - low_a)*S + b - low_b of a kb-byte digit, S = high_b - low_b + 1, so
    theta powers of the product never carry into the next x power.  S comes
    from the product's theta support, not the genus: theta powers above g
    get slots of their own and are skipped on read-back.  No product digit
    exceeds max|n_l| * max|n_r| * min(T_l, T_r) in absolute value, which
    8*kb - 1 bits hold; adding 2^(8*kb - 1) to every digit then leaves each
    one in [0, 2^(8*kb)), so the digits are read off one ``to_bytes`` buffer
    without borrows.
    """
    low_a, high_a, low_b, high_b, top = box
    stride = high_b - low_b + 1
    # Read only monomials that survive: a + b <= top <= d and b <= g.
    top = min(lhs.sym_index, top)
    high_a = min(high_a, top - low_b)
    high_b = min(high_b, lhs.genus, top - low_a)
    if high_a < low_a or high_b < low_b:
        return []
    left, left_den = _integer_form(lhs)
    right, right_den = (left, left_den) if rhs is lhs else _integer_form(rhs)
    bound = max(map(abs, left.values())) * max(map(abs, right.values())) * min(len(left), len(right))
    kb = bound.bit_length() // 8 + 1
    packed = _pack(left, stride, kb)
    # A square multiplies one int object by itself, which CPython squares.
    product = packed * (packed if rhs is lhs else _pack(right, stride, kb))
    count = (high_a - low_a) * stride + min(high_b, top - high_a) - low_b + 1
    half = 1 << (8 * kb - 1)
    offset = int.from_bytes(half.to_bytes(kb, "little") * count, "little")
    digits = ((product + offset) & ((1 << (8 * kb * count)) - 1)).to_bytes(kb * count, "little")
    denominator = left_den * right_den
    terms = []
    for a in range(low_a, high_a + 1):
        row = (a - low_a) * stride - low_b
        for b in range(low_b, min(high_b, top - a) + 1):
            start = kb * (row + b)
            value = int.from_bytes(digits[start:start + kb], "little") - half
            if value:
                terms.append(((a, b), Fraction(value, denominator)))
    return terms


def evaluate_top(cls: CohomClass) -> Fraction:
    """Evaluate the top-degree part of a class against the fundamental class.

    Only monomials with a + b == d contribute; each contributes its
    coefficient times g!/(g-b)! by Poincare's formula.  Stored monomials
    already satisfy b <= g, so the falling factorial is well defined.
    """
    g, d = cls.genus, cls.sym_index
    return sum((coeff * math.perm(g, b) for (a, b), coeff in cls._terms.items() if a + b == d), Fraction(0))


def pushforward_B(k: int, cls: CohomClass) -> CohomClass:
    """Push a pure x-polynomial k symmetric-product steps down.

    Acts on monomials by x^a -> C(a, k) * x^(a-k), extended linearly; the
    result lives on (genus, sym_index - k).  Classes containing theta are
    rejected: this operator is only modelled on the x-powers that arise as
    pairing partners.
    """
    if k < 0:
        raise ValueError(f"push-forward index must be nonnegative, got {k}")
    if k > cls.sym_index:
        raise ValueError(
            f"push-forward index {k} exceeds the symmetric-product index {cls.sym_index}"
        )
    for a, b in cls._terms:
        if b != 0:
            raise MixedMonomialError(
                f"push-forward is only defined on polynomials in x; found x^{a}*theta^{b}"
            )
    return CohomClass(cls.genus, cls.sym_index - k, (
        ((a - k, 0), coeff * binomial(a, k)) for (a, _), coeff in cls._terms.items() if a >= k
    ))


def pair_via_pushforward(small: CohomClass, k: int, x_power: int) -> Fraction:
    """Pair ``small`` against x^x_power pulled down from k steps above.

    The x-power lives on (genus, small.sym_index + k); it is pushed down to
    the ambient of ``small`` and the product is evaluated in top degree.
    This computes the same number as pairing the k-step pull-up of ``small``
    against the x-power upstairs, which is never materialised.
    """
    if x_power < 0:
        raise ValueError(f"x_power must be nonnegative, got {x_power}")
    upstairs = monomial(small.genus, small.sym_index + k, x_power, 0)
    return evaluate_top(mul_classes(small, pushforward_B(k, upstairs)))


def monomial_text(x_power: int, theta_power: int) -> str:
    """Canonical text of x^a * theta^b, unit exponents suppressed: e.g.
    ``x*theta^2``, ``theta``, and ``1`` for the unit monomial."""
    factors: list[str] = []
    if x_power:
        factors.append("x" if x_power == 1 else f"x^{x_power}")
    if theta_power:
        factors.append("theta" if theta_power == 1 else f"theta^{theta_power}")
    return "*".join(factors) or "1"


def render_class(cls: CohomClass) -> str:
    """Canonical text form, re-parseable by the expression parser.

    Terms are ordered by descending theta power then descending x power;
    coefficients are reduced fractions with unit coefficients suppressed.
    """
    parts: list[str] = []
    for (a, b), coeff in cls.sorted_terms():
        magnitude = format_rat(coeff).lstrip("-")
        if a == b == 0:
            piece = magnitude
        elif magnitude == "1":
            piece = monomial_text(a, b)
        else:
            piece = magnitude + "*" + monomial_text(a, b)
        if not parts:
            parts.append("-" + piece if coeff.numerator < 0 else piece)
        else:
            parts.append((" - " if coeff.numerator < 0 else " + ") + piece)
    return "".join(parts) or "0"

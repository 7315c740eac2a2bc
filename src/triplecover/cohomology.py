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


def mul_classes(lhs: CohomClass, rhs: CohomClass) -> CohomClass:
    """Product in the truncated ring; both factors must share the ambient."""
    _check_ambient(lhs, rhs)
    return CohomClass(lhs.genus, lhs.sym_index, (
        ((a1 + a2, b1 + b2), c1 * c2)
        for (a1, b1), c1 in lhs._terms.items()
        for (a2, b2), c2 in rhs._terms.items()
    ))


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
        magnitude = abs(coeff)
        if a == b == 0:
            piece = format_rat(magnitude)
        elif magnitude == 1:
            piece = monomial_text(a, b)
        else:
            piece = format_rat(magnitude) + "*" + monomial_text(a, b)
        if not parts:
            parts.append(piece if coeff > 0 else "-" + piece)
        else:
            parts.append((" + " if coeff > 0 else " - ") + piece)
    return "".join(parts) or "0"

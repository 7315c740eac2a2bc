"""The x/theta subring of the rational cohomology of a symmetric product.

A ``CohomClass`` is a polynomial in two generators attached to the d-th
symmetric product of a genus-g curve:

* ``x``     -- the divisor class obtained by adding a fixed point,
* ``theta`` -- the pullback of the theta divisor under the abelian sum map.

A class is stored as integer numerators over one positive denominator in
lowest terms, without zero numerators or the vanishing monomials
x^a * theta^b with a + b > d or b > g.  The form is canonical, so equal
classes have equal stored maps, and the ring works on plain integers; a
``Fraction`` is built only at the public surface.  Top-degree evaluation
uses Poincare's formula

    (x^(d-b) * theta^b) = g! / (g-b)!

extended linearly over the exact rational coefficients; ``top_numerators``
steps it along the ambients (G, d + G - g) from the class's own genus g on.

A product with many term pairs per packed slot is one big-integer
multiplication by Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
2009), packed degree-major: the terms that survive truncation are a prefix
of the product, and its cost follows the factors, not the ambient (g, d).
A product with a one-term factor shifts the other factor's monomials by that
monomial.  Other products multiply term pairs.

A power of a base with a term of least total degree and least theta power,
such as 1 in x + theta + 1 or x in x + theta, follows J. C. P. Miller's
power-series recurrence (Knuth, TAOCP vol. 2, section 4.7), one row at a
time, computing only the surviving monomials and no intermediate product;
a power of any other base, such as x^2 + theta, is squared repeatedly.
The module also sizes its powers, products and sums without computing
them, so that a caller can refuse one first: ``_power_bits``,
``_product_bits`` and ``_sum_bits`` bound a result's numerator bits N
and denominator bits D apart; N + D bounds its size, and N * D the work
of the quadratic gcd that puts it in lowest terms.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction

from .arith import binomial, binomial_bits

__all__ = [
    "AmbientMismatchError",
    "MixedMonomialError",
    "CohomClass",
    "monomial",
    "unit_class",
    "zero_class",
    "x_class",
    "theta_class",
    "sum_classes",
    "mul_classes",
    "top_numerators",
    "evaluate_top",
    "evaluate_top_bits",
    "pushforward_B",
    "pushforward_bits",
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
    coefficient) pairs; coefficients must be ``int`` or ``Fraction``.  Each
    term, once checked, is a ``monomial``, and the class is their
    ``sum_classes``: repeated monomials summed, zero sums and vanishing
    monomials dropped.
    """

    __slots__ = ("genus", "sym_index", "_numerators", "_denominator")

    def __init__(
        self,
        genus: int,
        sym_index: int,
        terms: Mapping[tuple[int, int], Fraction | int] | Iterable[tuple[tuple[int, int], Fraction | int]] = (),
    ):
        if genus < 0 or sym_index < 0:
            raise ValueError(f"ambient requires genus >= 0 and sym_index >= 0, got ({genus}, {sym_index})")
        summands = [_class(genus, sym_index, {}, 1)]
        for (a, b), coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if a < 0 or b < 0:
                raise ValueError(f"monomial exponents must be nonnegative, got x^{a}*theta^{b}")
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"coefficients must be int or Fraction, got {type(coeff).__name__}")
            summands.append(monomial(genus, sym_index, a, b, coeff))
        total = sum_classes(*summands)
        _store(self, genus, sym_index, total._numerators, total._denominator, 1)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CohomClass is immutable")

    def __delattr__(self, name):
        raise AttributeError("CohomClass is immutable")

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """A new dict of reduced ``Fraction`` coefficients, keyed by (x power, theta power)."""
        denominator = self._denominator
        return {key: Fraction(n, denominator) for key, n in self._numerators.items()}

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms in canonical order: descending theta power, then descending x power."""
        denominator = self._denominator
        return [((a, b), Fraction(n, denominator)) for a, b, n in _canonical_terms(self)]

    def coefficient(self, x_power: int, theta_power: int) -> Fraction:
        """The coefficient of x^x_power * theta^theta_power, 0 when absent."""
        return Fraction(self._numerators.get((x_power, theta_power), 0), self._denominator)

    def __bool__(self) -> bool:
        return bool(self._numerators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohomClass):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.sym_index == other.sym_index
            and self._denominator == other._denominator
            and self._numerators == other._numerators
        )

    def __hash__(self) -> int:
        return hash((self.genus, self.sym_index, self._denominator, frozenset(self._numerators.items())))

    def __add__(self, other: "CohomClass") -> "CohomClass":
        if not isinstance(other, CohomClass):
            return NotImplemented
        return sum_classes(self, other)

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
        """The class raised to a nonnegative integer power.  A base with a
        term of least total degree and least theta power (any base with a
        constant term, any one-term base, x + theta) takes Miller's
        recurrence (``_series_power``); any other base is squared repeatedly."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"class exponent must be a nonnegative integer, got {exponent!r}")
        numerators = self._numerators
        if numerators:
            low_theta = min(b for _, b in numerators)
            lowest = (min(a + b for a, b in numerators) - low_theta, low_theta)
            if lowest in numerators:
                return _series_power(self, exponent, lowest)
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
        """The class times a rational: its product with that constant class."""
        return mul_classes(monomial(self.genus, self.sym_index, 0, 0, scalar), self)

    def __repr__(self) -> str:
        return f"CohomClass(g={self.genus}, d={self.sym_index}, {render_class(self)!r})"

    def __str__(self) -> str:
        return render_class(self)


# The slots' own descriptor setters.  ``__setattr__`` refuses every write,
# and calling a setter bound once here skips the attribute lookup that
# ``object.__setattr__`` makes on each of the four writes per class built.
_set_genus = CohomClass.genus.__set__
_set_sym_index = CohomClass.sym_index.__set__
_set_numerators = CohomClass._numerators.__set__
_set_denominator = CohomClass._denominator.__set__


def _store(cls: CohomClass, genus: int, sym_index: int, numerators: dict[tuple[int, int], int],
           denominator: int, common: int | None = None) -> CohomClass:
    """Set ``cls`` to sum(n * x^a * theta^b) / denominator in lowest terms,
    ``common`` = gcd(denominator, *numerators) if known; the numerators are
    nonzero and their monomials survive."""
    if common is None:
        common = 1 if denominator == 1 else math.gcd(denominator, *numerators.values())
    if common != 1:
        numerators = {key: n // common for key, n in numerators.items()}
        denominator //= common
    _set_genus(cls, genus)
    _set_sym_index(cls, sym_index)
    _set_numerators(cls, numerators)
    _set_denominator(cls, denominator)
    return cls


def _class(genus: int, sym_index: int, numerators: dict[tuple[int, int], int], denominator: int,
           common: int | None = None) -> CohomClass:
    """A new class, from arguments as ``_store`` takes them."""
    return _store(object.__new__(CohomClass), genus, sym_index, numerators, denominator, common)


def _canonical_terms(cls: CohomClass) -> list[tuple[int, int, int]]:
    """The stored (x power, theta power, numerator) triples in canonical order:
    descending theta power, then descending x power.  A stored monomial has
    a <= d, so b*(d+1) + a is one integer per term that sorts them so."""
    base = cls.sym_index + 1
    terms = {b * base + a: (a, b, n) for (a, b), n in cls._numerators.items()}
    return [terms[key] for key in sorted(terms, reverse=True)]


def _check_ambient(lhs: CohomClass, rhs: CohomClass) -> None:
    if lhs.genus != rhs.genus or lhs.sym_index != rhs.sym_index:
        raise AmbientMismatchError(
            f"classes live on different ambients: (g={lhs.genus}, d={lhs.sym_index}) "
            f"vs (g={rhs.genus}, d={rhs.sym_index})"
        )


def monomial(genus: int, sym_index: int, x_power: int, theta_power: int, coeff: Fraction | int = 1) -> CohomClass:
    """The single monomial coeff * x^a * theta^b in the given ambient.

    Valid input is built directly in the stored form, without the
    constructor's validating pass; a zero coefficient, or a monomial that
    vanishes in the ambient (a + b > d or b > g), gives the zero class over 1.
    Invalid input raises the constructor's errors.
    """
    if min(genus, sym_index, x_power, theta_power) < 0 or not isinstance(coeff, (int, Fraction)):
        return CohomClass(genus, sym_index, {(x_power, theta_power): coeff})
    if not coeff or x_power + theta_power > sym_index or theta_power > genus:
        return _class(genus, sym_index, {}, 1)
    return _class(genus, sym_index, {(x_power, theta_power): coeff.numerator}, coeff.denominator)


def unit_class(genus: int, sym_index: int) -> CohomClass:
    return monomial(genus, sym_index, 0, 0)


def zero_class(genus: int, sym_index: int) -> CohomClass:
    return CohomClass(genus, sym_index)


def x_class(genus: int, sym_index: int) -> CohomClass:
    return monomial(genus, sym_index, 1, 0)


def theta_class(genus: int, sym_index: int) -> CohomClass:
    return monomial(genus, sym_index, 0, 1)


def sum_classes(first: CohomClass, *rest: CohomClass) -> CohomClass:
    """The sum of classes on one ambient, normalised once rather than once per term."""
    for other in rest:
        _check_ambient(first, other)
    denominator = math.lcm(first._denominator, *(other._denominator for other in rest))
    factor = denominator // first._denominator
    sums = {key: n * factor for key, n in first._numerators.items()}
    for other in rest:
        factor = denominator // other._denominator
        for key, n in other._numerators.items():
            sums[key] = sums.get(key, 0) + n * factor
    return _class(first.genus, first.sym_index, {key: n for key, n in sums.items() if n}, denominator)


def _series_power(base: CohomClass, exponent: int, lowest: tuple[int, int]) -> CohomClass:
    """base ** exponent by Miller's power-series recurrence (Knuth, TAOCP
    vol. 2, 4.7); c*m, at ``lowest``, has the base's least degree and theta.

    The base is m*(c + Q)/L, with c/L = u/v in lowest terms, c = u*t and
    L = v*t.  Q's monomials x^a * theta^b (a may be negative) raise neither
    degree nor theta power, so base^N vanishes with m^N, and rows may be
    truncated as they are built.  q_k is Q's part of weight a + b = k, or
    a + 2b = k when another term shares m's degree (as in x + theta).  A
    surviving monomial takes M = min(N, d) or fewer factors from Q (each of
    degree 1 or more if m = 1, and N <= d otherwise), so the rows s_n of
    weight n of c^M * (1 + Q/c)^N are integral, s_0 = c^M, and

        n*c*s_n = sum over k of ((N+1)*k - n) * q_k * s_(n-k),

    the division by n*c exact as s_n is integral.  Rows, dicts keyed by
    theta power, are built in increasing order at the weights that nonzero
    rows plus some k reach, and dropped once no later row reads them.
    base^N = m^N * u^(N-M) * s_n over v^N * t^M, a divisor of L^N and of
    v^N * L^min(N, d), over which ``_power_bits`` bounds the numerators: no
    numerator, and so no row, passes that bound.  It bounds v^N * t^M too.
    """
    genus, sym_index = base.genus, base.sym_index
    a0, b0 = lowest
    genus_left, degree_left = genus - exponent * b0, sym_index - exponent * (a0 + b0)
    if genus_left < 0 or degree_left < 0:
        return _class(genus, sym_index, {}, 1)
    others = [(a - a0, b - b0, n) for (a, b), n in base._numerators.items() if (a, b) != lowest]
    stride = 1 + any(a + b == 0 for a, b, _ in others)
    parts: dict[int, list[tuple[int, int]]] = {}
    for a, b, n in others:
        parts.setdefault(a + stride * b, []).append((b, n))
    reach = max(parts, default=0)
    top = min(exponent * reach, degree_left + (stride - 1) * genus_left)
    constant, scale = base._numerators[lowest], min(exponent, sym_index)
    common = math.gcd(constant, base._denominator)
    lead = (constant // common) ** (exponent - scale)
    a0, b0 = exponent * a0, exponent * b0
    rows = {0: {0: constant**scale}}
    numerators = {(a0, b0): lead * constant**scale}
    queue, last = sorted(k for k in parts if k <= top), 0
    while queue:
        n = queue.pop(0)
        if n == last:
            continue  # reached from two rows
        last, low, divisor = n, n - degree_left, n * constant
        sums: dict[int, int] = {}
        for k, terms in parts.items():
            previous = rows.get(n - k)
            if previous is None:
                continue
            weight = (exponent + 1) * k - n
            for db, p in terms:
                factor = weight * p
                for b, r in previous.items():
                    b += db
                    if low <= b <= genus_left:
                        sums[b] = sums.get(b, 0) + factor * r
        row = {}
        for b, s in sums.items():
            if s:
                row[b] = r = s // divisor
                numerators[a0 + n - stride * b, b0 + b] = r if lead == 1 else lead * r
        if row:
            rows[n] = row
            for k in parts:
                if n + k <= top:
                    insort(queue, n + k)
        rows.pop(n - reach, None)  # no later row reads it
    return _class(genus, sym_index, numerators, (base._denominator // common) ** exponent * common**scale)


# A product is packed when it has at least _DENSE_TERMS ** 2 term pairs and
# _PAIRS_PER_SLOT pairs per packed slot.  On CPython 3.11, reading back a slot
# costs about as much as one integer term pair, and below 100 pairs the
# packing's fixed cost outweighs the pairs.  The second bound also keeps a
# sparse factor with a long degree span, such as x^N + 1, on term pairs.
_DENSE_TERMS = 10
_PAIRS_PER_SLOT = 3


def mul_classes(lhs: CohomClass, rhs: CohomClass) -> CohomClass:
    """Product in the truncated ring; both factors must share the ambient.

    A product with a one-term factor n0 * x^a0 * theta^b0 shifts the other
    factor's monomials by (a0, b0) and scales its numerators by n0: distinct
    monomials stay distinct, so nothing cancels and no term pair is summed;
    when none vanishes, Henrici's rule reduces it, as ``Fraction`` does.
    Other products within the bounds above are packed (``_dense_product``);
    the rest, such as bn1 times x + theta in a class expression, multiply
    term pairs.
    """
    _check_ambient(lhs, rhs)
    genus, sym_index = lhs.genus, lhs.sym_index
    denominator = lhs._denominator * rhs._denominator
    if len(lhs._numerators) == 1 or len(rhs._numerators) == 1:
        single, other = (lhs, rhs) if len(lhs._numerators) == 1 else (rhs, lhs)
        [((a0, b0), n0)] = single._numerators.items()
        # x^(a + a0) * theta^(b + b0) survives in (g, d) exactly when
        # x^a * theta^b survives in (g - b0, d - a0 - b0).
        genus_left, degree_left = genus - b0, sym_index - a0 - b0
        shifted = {
            (a + a0, b + b0): n * n0
            for (a, b), n in other._numerators.items() if a + b <= degree_left and b <= genus_left
        }
        # Henrici's rule: gcd(n0, L) * gcd(L0, *n) for n/L and n0/L0 in lowest
        # terms, unless some n vanished and the rest share a factor with L.
        common = (math.gcd(n0, other._denominator) * math.gcd(single._denominator, *other._numerators.values())
                  if len(shifted) == len(other._numerators) else None)
        return _class(genus, sym_index, shifted, denominator, common)
    pairs = len(lhs._numerators) * len(rhs._numerators)
    if pairs >= _DENSE_TERMS**2:
        left, right = _extent(lhs), _extent(rhs)
        low_degree, low_theta = left[0] + right[0], left[2] + right[2]
        top = min(sym_index, left[1] + right[1])
        if top < low_degree or low_theta > genus:
            return _class(genus, sym_index, {}, 1)  # every term pair vanishes
        stride = min(left[3] + right[3], top) - low_theta + 1
        if _PAIRS_PER_SLOT * (top - low_degree + 1) * stride <= pairs:
            return _class(genus, sym_index, _dense_product(lhs, rhs, (left, right, top, stride)), denominator)
    sums: dict[tuple[int, int], int] = {}
    for (a1, b1), n1 in lhs._numerators.items():
        for (a2, b2), n2 in rhs._numerators.items():
            a, b = a1 + a2, b1 + b2
            if a + b <= sym_index and b <= genus:
                sums[a, b] = sums.get((a, b), 0) + n1 * n2
    return _class(genus, sym_index, {key: n for key, n in sums.items() if n}, denominator)


def _extent(cls: CohomClass) -> tuple[int, int, int, int]:
    """Least and largest total degree, and least and largest theta power, of
    a nonzero class.  Summed over two factors, these bound the support of
    their product."""
    degrees = [a + b for a, b in cls._numerators]
    thetas = [b for _, b in cls._numerators]
    return min(degrees), max(degrees), min(thetas), max(thetas)


def _monomials(cls: CohomClass, degree: int, theta: int) -> int:
    """How many monomials x^a * theta^b with a + b <= degree and b <= theta
    survive in the ambient of ``cls``: a closed form, with no loop over degrees."""
    top = min(cls.sym_index, degree)
    thetas = min(cls.genus, theta, top)
    return (thetas + 1) * (top + 1) - thetas * (thetas + 1) // 2


def _draws(n: int, k: int, cap: int) -> int:
    """min(C(n + k - 1, k - 1), cap): the multisets of n terms drawn from k,
    counted only as far as cap, so a huge n costs a step or two."""
    count = 1
    for i in range(1, k):
        count = count * (n + i) // i  # C(n + i, i)
        if count >= cap:
            return cap
    return min(count, cap)


def _power_bits(base: CohomClass, n: int) -> tuple[int, int]:
    """Upper bounds on the bits of base^n as stored, a pair: on its
    numerators' bit lengths in all, and on its denominator's, 1 counting
    none; for n >= 1 they bound every base^k, 1 <= k <= n, too.

    base^n has at most T monomials: those with a + b <= min(d, n*D) and
    b <= min(g, n*B), D and B the base's largest degree and theta power,
    and at most C(n + k - 1, k - 1), one for each way of drawing its n
    factors from the base's k terms, whichever is fewer.
    Each numerator is bounded twice, and the smaller bound counts:

    * by S^n, S the sum of the base's |numerators|, which has one bit when
      S = 1 (a one-term base with numerator +-1);
    * by (K+1) * m^n * (n*L*s)^K, where the base is c + P over the
      denominator L, c = p/q its constant term, m = max(|p|, q), and s the
      sum of P's |numerators|.  P's terms have degree 1 or more, so at most
      K = min(n, d) of the n factors of a surviving term come from P.

    The first is the tighter for a dense base; the second keeps a huge n
    cheap when the ambient truncates the power.

    With q = 1 when the base has no constant term, and t = L/q, the
    denominator divides q^n * t^min(n, d), as ``_series_power`` builds it:
    without a constant term every factor has degree 1 or more, so no power
    past n = d survives."""
    numerators = base._numerators
    if not n:
        return 1, 0  # the unit class
    if not numerators:
        return 0, 0
    _, degree, _, theta = _extent(base)
    monomials = _draws(n, len(numerators), _monomials(base, n * degree, n * theta))
    total = sum(map(abs, numerators.values()))
    rest = total - abs(numerators.get((0, 0), 0))
    constant = base.coefficient(0, 0)
    m = max(abs(constant.numerator), constant.denominator)
    k = min(n, base.sym_index) if rest else 0
    truncated = n * _log2_bound(m) + k * (n * base._denominator * rest).bit_length()
    q = constant.denominator
    return (
        monomials * min(n * total.bit_length() if total > 1 else 1, truncated + (k + 1).bit_length()),
        n * _log2_bound(q) + min(n, base.sym_index) * _log2_bound(base._denominator // q),
    )


def _log2_bound(value: int) -> int:
    """An upper bound on log2 of a positive integer: its bit length, or 0 for 1."""
    return value.bit_length() if value > 1 else 0


def _product_bits(lhs: CohomClass, rhs: CohomClass) -> tuple[int, int]:
    """Upper bounds on the bits of lhs * rhs as stored, a pair counted as
    ``_power_bits`` counts them, over the product of the factors'
    denominators, which the product's denominator divides.  A one-term
    factor n0 * m shifts the other's T terms, as ``mul_classes`` does, to
    numerators n * n0 of at most sum(bitlen(n)) + T * bitlen(n0) bits.
    Any other product has at most T_l * T_r monomials, or those counted as
    ``_power_bits`` counts them from the sums of the factors' largest
    degrees and theta powers, if fewer; each numerator, a sum of at most
    min(T_l, T_r) term pairs, is at most max|n_l| * max|n_r| * min(T_l, T_r)."""
    left, right = lhs._numerators, rhs._numerators
    if not left or not right:
        return 0, 0
    denominator_bits = _log2_bound(lhs._denominator) + _log2_bound(rhs._denominator)
    if len(left) == 1 or len(right) == 1:
        [n0], other = (left.values(), right) if len(left) == 1 else (right.values(), left)
        return sum(n.bit_length() for n in other.values()) + len(other) * n0.bit_length(), denominator_bits
    (_, left_degree, _, left_theta), (_, right_degree, _, right_theta) = _extent(lhs), _extent(rhs)
    monomials = min(len(left) * len(right), _monomials(lhs, left_degree + right_degree, left_theta + right_theta))
    bits = (
        max(map(abs, left.values())).bit_length() + max(map(abs, right.values())).bit_length()
        + min(len(left), len(right)).bit_length()
    )
    return monomials * bits, denominator_bits


def _sum_bits(classes: list[CohomClass]) -> Iterator[tuple[int, tuple[int, int]]]:
    """Pairs (k, (N, D)) that bound the sum of the first k + 1 classes, for
    k = 1, 2, ..., each yielded before the work it bounds is done.

    A class whose denominator L_k is new first yields the bits of L, the
    lcm so far, and of L_k: lcm(L, L_k) is L_k times the numerator of L/L_k
    in lowest terms.  Then each class yields D, the new lcm's bits, and N,
    the sum of bitlen(n) + bitlen(lcm/L_i) over the terms n/L_i so far."""
    # counts: the numerators over each distinct denominator L so far, and
    # scale_bits: the sum over them of count * bitlen(lcm/L).
    lcm, counts, numerator_bits, scale_bits = 1, {}, 0, 0
    for k, cls in enumerate(classes):
        denominator, count = cls._denominator, len(cls._numerators)
        if denominator not in counts:
            if k:
                yield k, (_log2_bound(lcm), _log2_bound(denominator))
            previous, lcm = lcm, math.lcm(lcm, denominator)
            if lcm != previous:
                scale_bits = sum(c * _log2_bound(lcm // L) for L, c in counts.items())
        counts[denominator] = counts.get(denominator, 0) + count
        scale_bits += count * _log2_bound(lcm // denominator)
        numerator_bits += sum(n.bit_length() for n in cls._numerators.values())
        if k:
            yield k, (numerator_bits + scale_bits, _log2_bound(lcm))


def _pack(numerators: dict[tuple[int, int], int], low: tuple[int, int], cap: int, stride: int, kb: int) -> int:
    """The sum of n * 2^(8*kb*((a + b - k0)*stride + b - b0)) over the terms
    n * x^a * theta^b of degree at most ``cap``, (k0, b0) = ``low``."""
    low_degree, low_theta = low
    length = kb * (cap - low_degree + 1) * stride
    positive, negative = bytearray(length), bytearray(length)
    for (a, b), n in numerators.items():
        if a + b <= cap:
            start = kb * ((a + b - low_degree) * stride + b - low_theta)
            if n > 0:
                positive[start:start + kb] = n.to_bytes(kb, "little")
            else:
                negative[start:start + kb] = (-n).to_bytes(kb, "little")
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _dense_product(
    lhs: CohomClass, rhs: CohomClass, box: tuple[tuple[int, ...], tuple[int, ...], int, int]
) -> dict[tuple[int, int], int]:
    """Numerators, over the product of the factors' denominators, of the
    surviving terms of lhs * rhs by Kronecker substitution.

    ``box`` holds the factors' ``_extent``s, the largest surviving degree
    ``top`` and the row width S = min(high_b, top) - b0 + 1, where k0, b0
    and high_b bound the product's degrees and theta powers.  x^a * theta^b
    is slot (a + b - k0)*S + b - b0 of kb-byte digits, each factor packed
    from its own least degree and theta power, so slots add.  Each row of
    degree at most ``top`` has a slot for every theta power (those above g
    are skipped on read-back), so rows never carry into each other, and the
    surviving terms are the first (top - k0 + 1)*S slots; a factor packs
    only the terms that reach them.  No digit exceeds max|n_l| * max|n_r| *
    min(T_l, T_r) in absolute value, which 8*kb - 1 bits hold, so adding
    2^(8*kb - 1) to each makes the digits readable off one ``to_bytes``
    buffer without borrows.
    """
    (lk0, lk1, lb0, _), (rk0, rk1, rb0, _), top, stride = box
    low_degree, low_theta = lk0 + rk0, lb0 + rb0
    left, right = lhs._numerators, rhs._numerators
    bound = max(map(abs, left.values())) * max(map(abs, right.values())) * min(len(left), len(right))
    kb = bound.bit_length() // 8 + 1
    packed = _pack(left, (lk0, lb0), min(lk1, top - rk0), stride, kb)
    # A square multiplies one int object by itself, which CPython squares.
    product = packed * (packed if rhs is lhs else _pack(right, (rk0, rb0), min(rk1, top - lk0), stride, kb))
    count = (top - low_degree + 1) * stride
    half = 1 << (8 * kb - 1)
    offset = int.from_bytes(half.to_bytes(kb, "little") * count, "little")
    digits = ((product + offset) & ((1 << (8 * kb * count)) - 1)).to_bytes(kb * count, "little")
    high_theta = min(low_theta + stride - 1, lhs.genus)
    from_bytes = int.from_bytes
    numerators: dict[tuple[int, int], int] = {}
    for k in range(low_degree, top + 1):
        start = kb * (k - low_degree) * stride
        stop = start + kb * (min(high_theta, k) - low_theta + 1)
        row = (from_bytes(digits[i:i + kb], "little") for i in range(start, stop, kb))
        numerators.update({(k - b, b): raw - half for b, raw in enumerate(row, low_theta) if raw != half})
    return numerators


def top_numerators(cls: CohomClass, x_power: int, count: int) -> list[int]:
    """The top-degree values of cls * x^x_power times cls's denominator,
    integers, without building the product, with cls's stored form placed on
    (G, d + G - g) and paired with x^(x_power + G - g), at the ``count``
    genera G from cls's genus g on, (g, d) being cls's ambient.  By
    Poincare's formula each stored monomial x^a * theta^b with
    a + b == d - x_power adds its numerator times G!/(G-b)!; with
    x_power > d none does.  Every stored monomial survives at each G
    (b <= g <= G and a + b <= d <= d + G - g), and the paired degree
    d - x_power is the same at every G, so its terms are selected once, with
    the falling factorial g!/(g-b)! of each.  Each later G steps each term's
    value by one multiplication and one exact division by small ints,

        G!/(G-b)! = (G-1)!/(G-1-b)! * G / (G-b),

    where G - b >= G - g >= 1.  At G = g the product's truncation drops no
    such monomial, so the first value is the top numerator of
    ``mul_classes(cls, monomial(g, d, x_power, 0))`` over cls's denominator
    rather than the product's."""
    if x_power < 0:
        raise ValueError(f"x_power must be nonnegative, got {x_power}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    genus = cls.genus
    # Plain loops, not comprehensions: on CPython 3.11 each comprehension
    # costs a function call, which doubles the one-genus call's time or the
    # time per genus of a run.
    degree, perm = cls.sym_index - x_power, math.perm
    terms = []
    total = 0
    for (a, b), n in cls._numerators.items():
        if a + b == degree:
            falling = perm(genus, b)
            terms.append((b, n, falling))
            total += n * falling
    numerators = [total]
    for G in range(genus + 1, genus + count):
        total = 0
        stepped = []
        for b, n, falling in terms:
            falling = falling * G // (G - b)
            stepped.append((b, n, falling))
            total += n * falling
        terms = stepped
        numerators.append(total)
    return numerators


def evaluate_top(cls: CohomClass) -> Fraction:
    """Evaluate the top-degree part of a class against the fundamental class
    (``top_numerators`` over the class's denominator)."""
    return Fraction(top_numerators(cls, 0, 1)[0], cls._denominator)


def _require_pushable(k: int, cls: CohomClass) -> None:
    if k < 0:
        raise ValueError(f"push-forward index must be nonnegative, got {k}")
    if k > cls.sym_index:
        raise ValueError(
            f"push-forward index {k} exceeds the symmetric-product index {cls.sym_index}"
        )
    for a, b in cls._numerators:
        if b != 0:
            raise MixedMonomialError(
                f"push-forward is only defined on polynomials in x; found x^{a}*theta^{b}"
            )


def pushforward_B(k: int, cls: CohomClass) -> CohomClass:
    """Push a pure x-polynomial k symmetric-product steps down.

    Acts on monomials by x^a -> C(a, k) * x^(a-k), extended linearly; the
    result lives on (genus, sym_index - k).  Classes containing theta are
    rejected: this operator is only modelled on the x-powers that arise as
    pairing partners.
    """
    _require_pushable(k, cls)
    return _class(cls.genus, cls.sym_index - k, {
        (a - k, 0): n * binomial(a, k) for (a, _), n in cls._numerators.items() if a >= k
    }, cls._denominator)


def pushforward_bits(k: int, cls: CohomClass) -> int:
    """An integer j such that pushforward_B(k, cls), in lowest terms, has a
    numerator of magnitude at least 2**j when j > 0, found without computing
    a binomial; invalid arguments raise pushforward_B's errors.  A term
    n*x^a/L with a >= k pushes to n*C(a, k)/L * x^(a-k), whose reduced
    numerator is at least C(a, k)/L, and L < 2**L.bit_length()."""
    _require_pushable(k, cls)
    bits = max((binomial_bits(a, min(k, a - k)) for a, _ in cls._numerators if a >= k), default=0)
    return bits - cls._denominator.bit_length()


def evaluate_top_bits(cls: CohomClass) -> int:
    """An integer j such that evaluate_top(cls) has magnitude at least 2**j
    when j > 0, found without a factorial.  Let n_b be the numerators of the
    top-degree terms x^(d-b) * theta^b, b* the largest such b, r = g-b*+1,
    S the sum of |n_b| over b < b* and P = g!/(g-b*)!.  Each g!/(g-b)! with
    b < b* is at most P/r, so when |n_b*|*r > S the value is at least
    P/(r*L), L the denominator; otherwise j is 0.  P is a product of b*
    factors from r to g, so P >= r^b* and P >= (g-c+1)^c, c = b*//2."""
    g, d = cls.genus, cls.sym_index
    top = {b: n for (a, b), n in cls._numerators.items() if a + b == d}
    if not top:
        return 0
    b_top = max(top)
    r = g - b_top + 1
    if abs(top[b_top]) * r <= sum(abs(n) for b, n in top.items() if b != b_top):
        return 0
    c = b_top // 2
    bits = max(b_top * (r.bit_length() - 1), c * ((g - c + 1).bit_length() - 1))
    return bits - r.bit_length() - cls._denominator.bit_length()


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
    denominator = cls._denominator
    reduced = denominator == 1 or len(cls._numerators) == 1  # a one-term class is in lowest terms
    parts: list[str] = []
    theta_power = None
    for a, b, n in _canonical_terms(cls):
        if b != theta_power:  # the theta factor, built once per theta power
            theta_power, theta = b, ("" if not b else "theta" if b == 1 else f"theta^{b}")
        x = "" if not a else "x" if a == 1 else f"x^{a}"
        factors = x + "*" + theta if x and theta else x or theta
        p = -n if n < 0 else n
        common = 1 if reduced else math.gcd(p, denominator)
        q = denominator // common
        magnitude = str(p // common) if q == 1 else f"{p // common}/{q}"
        piece = magnitude if not factors else factors if magnitude == "1" else magnitude + "*" + factors
        sign = (" - " if n < 0 else " + ") if parts else ("-" if n < 0 else "")
        parts.append(sign + piece)
    return "".join(parts) or "0"

from __future__ import annotations

import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triplecover import cohomology
from triplecover.arith import binomial
from triplecover.brill_noether import bn1_class
from triplecover.classexpr import parse
from triplecover.cohomology import (
    _DENSE_TERMS,
    AmbientMismatchError,
    CohomClass,
    MixedMonomialError,
    evaluate_top,
    evaluate_top_bits,
    monomial,
    mul_classes,
    pair_via_pushforward,
    pushforward_B,
    render_class,
    theta_class,
    top_numerators,
    unit_class,
    x_class,
    zero_class,
)
from triplecover.existence import critical_degree, genus_bound


def falling(g: int, b: int) -> int:
    """Independent oracle for g!/(g-b)!: explicit product of b factors."""
    out = 1
    for i in range(b):
        out *= g - i
    return out


@st.composite
def classes(draw, g=None, d=None):
    g = draw(st.integers(min_value=0, max_value=6)) if g is None else g
    d = draw(st.integers(min_value=0, max_value=6)) if d is None else d
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        a = draw(st.integers(min_value=0, max_value=d))
        b = draw(st.integers(min_value=0, max_value=d))
        coeff = draw(st.fractions(min_value=-9, max_value=9, max_denominator=12))
        terms[(a, b)] = terms.get((a, b), Fraction(0)) + coeff
    return CohomClass(g, d, terms)


def schoolbook(lhs: CohomClass, rhs: CohomClass) -> dict[tuple[int, int], Fraction]:
    """Independent oracle for the truncated product: every term pair, summed
    in a plain dict, without the ``CohomClass`` constructor."""
    g, d = lhs.genus, lhs.sym_index
    out: dict[tuple[int, int], Fraction] = {}
    for (a1, b1), c1 in lhs.terms.items():
        for (a2, b2), c2 in rhs.terms.items():
            a, b = a1 + a2, b1 + b2
            if a + b <= d and b <= g:
                out[(a, b)] = out.get((a, b), Fraction(0)) + c1 * c2
    return {key: coeff for key, coeff in out.items() if coeff}


# Nonzero coefficients of mixed sign, numerators up to 2^200, denominators up to 30.
_dense_coeffs = st.builds(
    Fraction,
    st.integers(min_value=-(2**200), max_value=2**200).filter(bool),
    st.integers(min_value=1, max_value=30),
)


def monomials(g: int, d: int) -> list[tuple[int, int]]:
    """The keys (a, b) with a + b <= d and b <= g."""
    return [(a, b) for a in range(d + 1) for b in range(min(g, d - a) + 1)]


@st.composite
def dense_pairs(draw):
    """Two classes on one ambient (g, d in [0, 12]).  Each factor has 16-60
    terms of total degree at most its own cap in [0, d], or every monomial
    below the cap when there are fewer than 16."""
    g = draw(st.integers(min_value=0, max_value=12))
    d = draw(st.integers(min_value=0, max_value=12))
    factors, caps = [], []
    for _ in range(2):
        caps.append(draw(st.integers(min_value=0, max_value=d)))
        keys = monomials(g, caps[-1])
        size = st.lists(st.sampled_from(keys), min_size=min(16, len(keys)), max_size=min(60, len(keys)), unique=True)
        factors.append(CohomClass(g, d, {key: draw(_dense_coeffs) for key in draw(size)}))
    return (*factors, caps)


@settings(max_examples=150, deadline=None)
@given(dense_pairs())
def test_dense_product_matches_schoolbook_oracle(drawn):
    lhs, rhs, caps = drawn
    # The dense path is taken whenever the factors' degree caps leave room.
    if all(len(monomials(lhs.genus, cap)) >= _DENSE_TERMS for cap in caps):
        assert min(len(lhs.terms), len(rhs.terms)) >= _DENSE_TERMS
    product = mul_classes(lhs, rhs)
    assert product.terms == schoolbook(lhs, rhs)
    assert mul_classes(rhs, lhs) == product


@st.composite
def low_genus_pairs(draw):
    """Two classes of 1-60 terms each on an ambient with g in [0, 4] and d in
    [6, 16]: theta powers stay low while x powers spread, so the theta
    support of a product often passes g, and one- and two-term factors meet
    dense ones."""
    g = draw(st.integers(min_value=0, max_value=4))
    d = draw(st.integers(min_value=6, max_value=16))
    keys = monomials(g, d)
    factors = []
    for _ in range(2):
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=min(60, len(keys)), unique=True))
        factors.append(CohomClass(g, d, {key: draw(_dense_coeffs) for key in chosen}))
    return factors


@settings(max_examples=200, deadline=None)
@given(low_genus_pairs())
def test_products_of_any_size_match_schoolbook_oracle(drawn):
    lhs, rhs = drawn
    product = mul_classes(lhs, rhs)
    assert product.terms == schoolbook(lhs, rhs)
    assert mul_classes(rhs, lhs) == product


@st.composite
def truncated_pairs(draw):
    """Two classes on one ambient (g in [0, 12], d in [2, 12]) whose terms
    sit in a degree band [low, high] of [0, d], chosen per factor; a band of
    one degree makes the factor homogeneous.  The product's degree reaches
    up to twice d, so the truncation at d usually cuts through it."""
    g = draw(st.integers(min_value=0, max_value=12))
    d = draw(st.integers(min_value=2, max_value=12))
    factors = []
    for _ in range(2):
        high = draw(st.integers(min_value=d // 2, max_value=d))
        low = high if draw(st.booleans()) else draw(st.integers(min_value=0, max_value=high))
        keys = [(a, b) for a, b in monomials(g, high) if a + b >= low]
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys), unique=True))
        factors.append(CohomClass(g, d, {key: draw(_dense_coeffs) for key in chosen}))
    return factors


@settings(max_examples=200, deadline=None)
@given(truncated_pairs())
def test_truncated_and_homogeneous_products_match_schoolbook_oracle(drawn):
    lhs, rhs = drawn
    product = mul_classes(lhs, rhs)
    assert product.terms == schoolbook(lhs, rhs)
    assert mul_classes(rhs, lhs) == product
    assert mul_classes(lhs, lhs).terms == schoolbook(lhs, lhs)


def test_truncated_homogeneous_powers_match_schoolbook_oracle():
    # Homogeneous and inhomogeneous squares whose degree runs far past d.
    for g, d in ((10, 10), (4, 12), (12, 7)):
        x, theta, one = x_class(g, d), theta_class(g, d), unit_class(g, d)
        for base in ((x + theta) ** 3, (x + theta + one) ** 4, (x.scale(2) - theta.scale(Fraction(1, 3))) ** 5):
            assert mul_classes(base, base).terms == schoolbook(base, base)
            assert (base ** 3).terms == schoolbook(mul_classes(base, base), base)


def test_dense_product_skips_theta_powers_above_the_genus(monkeypatch):
    # Factors with theta powers 0-2 in (2, 20): their product has theta
    # powers up to 4 > g.  With one slot per theta power up to g, x^a *
    # theta^4 would land on x^(a+1) * theta^1; every theta power up to 4 needs
    # its own slot, read back only for b <= 2.
    packed = []
    dense_product = cohomology._dense_product

    def spy(lhs, rhs, box):
        packed.append(box)
        return dense_product(lhs, rhs, box)

    monkeypatch.setattr(cohomology, "_dense_product", spy)
    keys = monomials(2, 7)
    lhs = CohomClass(2, 20, {(a, b): Fraction(a + 1, b + 1) for a, b in keys})
    rhs = CohomClass(2, 20, {(a, b): Fraction(-1) ** (a + b) * (a + 2 * b + 1) for a, b in keys})
    product = mul_classes(lhs, rhs)
    assert packed and max(b for _, b in lhs.terms) + max(b for _, b in rhs.terms) == 4
    assert product.terms == schoolbook(lhs, rhs)
    assert mul_classes(rhs, lhs) == product


def test_dense_products_pack_degree_major(monkeypatch):
    # (x+theta+1)^8 squared in (10, 10): the product's degrees 0-16 are cut
    # at 10, so its surviving terms fill rows of degree k0 = 0 to top = 10,
    # each of S = min(16, 10) + 1 = 11 theta slots.  A degree-major operand
    # packs only terms that reach those rows: at most 121 kb-byte slots.
    # Times x^3*(x+theta+1)^5, of degrees 3-8, the rows run from k0 = 3 to
    # 10, at most 88 slots, so (x+theta+1)^8 packs only its degrees 0-7.
    packed = []
    pack = cohomology._pack

    def spy(*args):
        value = pack(*args)
        packed.append((value, args[-1]))
        return value

    g = d = 10
    x, theta, one = x_class(g, d), theta_class(g, d), unit_class(g, d)
    base = (x + theta + one) ** 8
    shifted = monomial(g, d, 3, 0) * (x + theta + one) ** 5
    monkeypatch.setattr(cohomology, "_pack", spy)
    for rhs, slots in ((base, (10 - 0 + 1) * 11), (-base, (10 - 0 + 1) * 11), (shifted, (10 - 3 + 1) * 11)):
        packed.clear()
        product = mul_classes(base, rhs)
        assert packed
        for value, kb in packed:
            assert abs(value).bit_length() <= kb * 8 * slots
        assert product.terms == schoolbook(base, rhs)


def test_dense_product_where_nothing_survives():
    # 8-term factors, 64 term pairs: in (4, 20) every pair lands on theta^6
    # or above, past g; in (8, 10) every pair has degree 12 or more, past d.
    for g, d, keys in ((4, 20, [(a, b) for a in range(4) for b in (3, 4)]),
                       (8, 10, [(a, b) for a in range(3, 7) for b in (3, 4)])):
        factor = CohomClass(g, d, {key: sum(key) for key in keys})
        assert len(factor.terms) == 8
        assert mul_classes(factor, factor) == zero_class(g, d)
        assert mul_classes(factor, factor.scale(-1)) == zero_class(g, d)


def test_packed_products_where_nothing_survives(monkeypatch):
    # 10- and 12-term factors, 100 or more term pairs: in (4, 30) every pair
    # lands on theta^6 or above, past g; in (10, 12) every pair has degree 14
    # or more, past d.  Neither reaches the packed product.
    monkeypatch.setattr(cohomology, "_dense_product", None)
    for g, d, keys in ((4, 30, [(a, b) for a in range(5) for b in (3, 4)]),
                       (10, 12, [(a, b) for a in range(4, 10) for b in (3, 4)])):
        factor = CohomClass(g, d, {key: sum(key) for key in keys})
        assert len(factor.terms) ** 2 >= _DENSE_TERMS**2
        assert mul_classes(factor, factor) == zero_class(g, d)
        assert mul_classes(factor, factor.scale(Fraction(-1, 3))) == zero_class(g, d)


def test_sparse_factors_with_a_long_x_span_multiply_term_pairs():
    # (x^(10^5) + 1) * (x+theta+1)^8 in (10^7, 10^7) has 90 term pairs but a
    # support box of 900,000 slots.  Packing would allocate megabytes and
    # read every slot back; the term pairs need neither.
    g = d = 10**7
    sparse = monomial(g, d, 10**5, 0) + unit_class(g, d)
    dense = (x_class(g, d) + theta_class(g, d) + unit_class(g, d)) ** 8
    tracemalloc.start()
    try:
        product = mul_classes(sparse, dense)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert product.terms == schoolbook(sparse, dense)
    assert len(product.terms) == 2 * len(dense.terms) == 90


def test_one_term_products_match_schoolbook_oracle():
    # Every surviving monomial, with int, negative and Fraction
    # coefficients, times a full class, a two-term class, a one-term class,
    # the unit and zero, on either side.  The shifted keys land on a + b = d
    # and b = g and one step past each; the results are in canonical form.
    landed = set()
    for g, d in ((4, 7), (7, 4), (3, 3), (0, 5), (2, 0)):
        keys = monomials(g, d)
        others = [
            CohomClass(g, d, {(a, b): Fraction((-1) ** (a + b) * (a + 2 * b + 1), b + 2) for a, b in keys}),
            CohomClass(g, d, {(0, min(g, d)): Fraction(1, 6), (1, 0): Fraction(-5, 4)}),
            monomial(g, d, d // 2, min(g, d // 2), Fraction(9, 10)),
            unit_class(g, d),
            zero_class(g, d),
        ]
        for a, b in keys:
            for c in (1, -3, Fraction(-4, 6), Fraction(5, 7)):
                single = monomial(g, d, a, b, c)
                for other in others:
                    for lhs, rhs in ((single, other), (other, single)):
                        product = mul_classes(lhs, rhs)
                        expected = schoolbook(lhs, rhs)
                        assert product.terms == expected
                        assert all(type(n) is int for n in product._numerators.values())
                        assert math.gcd(product._denominator, *product._numerators.values()) == 1
                        if not product:
                            assert product._denominator == 1
                        assert product == CohomClass(g, d, expected)
                        assert hash(product) == hash(CohomClass(g, d, expected))
                    for a2, b2 in other.terms:
                        k, t = a + a2, b + b2
                        landed.update(
                            edge for edge, hit in (("a+b=d", k + t == d), ("a+b=d+1", k + t == d + 1),
                                                   ("b=g", t == g), ("b=g+1", t == g + 1)) if hit
                        )
    assert landed == {"a+b=d", "a+b=d+1", "b=g", "b=g+1"}


def test_dense_product_below_the_top_degree():
    # Degree-5 factors in (12, 12): the product's support ends at degree 10,
    # below the ambient's, and nothing is truncated.
    base = CohomClass(12, 12, {(a, b): Fraction((-1) ** a * (a + 1), b + 2) for a, b in monomials(12, 5)})
    assert len(base.terms) >= _DENSE_TERMS
    square = mul_classes(base, base)
    assert square.terms == schoolbook(base, base)
    assert max(a + b for a, b in square.terms) == 10


def test_dense_product_coefficients_at_the_slot_width_boundary():
    # 31 term pairs of 7 * 151 land on x^30: 31 * 7 * 151 = 2^15 - 1, the
    # largest digit that two-byte signed slots hold.  32 pairs of 32 * 32
    # give 2^15, which needs three-byte slots.
    for count, left, right in ((31, 7, 151), (32, 32, 32)):
        lhs = CohomClass(0, 40, {(a, 0): left for a in range(count)})
        rhs = CohomClass(0, 40, {(a, 0): right for a in range(count)})
        for sign in (1, -1):
            product = mul_classes(lhs.scale(sign), rhs)
            assert product.terms[(count - 1, 0)] == sign * count * left * right
            assert product.terms == schoolbook(lhs.scale(sign), rhs)
    assert 31 * 7 * 151 == 2**15 - 1


def test_normalization_drops_vanishing_monomials():
    cls = CohomClass(4, 3, {(2, 2): 1, (0, 5): 7, (1, 1): Fraction(1, 2), (0, 0): 0})
    assert cls.terms == {(1, 1): Fraction(1, 2)}


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        CohomClass(4, 3, {(-1, 0): 1})


def test_repeated_monomials_sum_exactly_and_cancel():
    pairs = [((1, 0), Fraction(1, 3)), ((0, 1), 2), ((1, 0), Fraction(2, 3)), ((0, 1), -2), ((4, 0), 9)]
    cls = CohomClass(4, 3, pairs)
    assert cls.terms == {(1, 0): Fraction(1)}
    assert all(type(coeff) is Fraction for coeff in cls.terms.values())
    assert cls == CohomClass(4, 3, {(1, 0): 1})


def test_only_int_and_fraction_coefficients_accepted():
    for bad in (0.5, 1.0, "1", complex(1, 0)):
        with pytest.raises(TypeError):
            CohomClass(4, 3, {(1, 0): bad})
        with pytest.raises(TypeError):
            x_class(4, 3).scale(bad)
    # Rejected even where the monomial vanishes or the sum would cancel.
    with pytest.raises(TypeError):
        CohomClass(4, 3, [((0, 9), 0.25)])
    with pytest.raises(TypeError):
        CohomClass(4, 3, [((1, 0), 0.5), ((1, 0), -0.5)])


def test_monomial_equals_the_constructor_built_class():
    for g in range(0, 4):
        for d in range(0, 4):
            for a in range(0, 5):
                for b in range(0, 5):
                    for c in (0, 1, -3, Fraction(-4, 6), True):
                        cls = monomial(g, d, a, b, c)
                        expected = CohomClass(g, d, {(a, b): c})
                        assert cls == expected
                        assert hash(cls) == hash(expected)
                        assert all(type(n) is int for n in cls._numerators.values())
                        assert math.gcd(cls._denominator, *cls._numerators.values()) == 1
                        if not cls:
                            assert cls._denominator == 1
    assert monomial(3, 3, 1, 1, Fraction(-4, 6)).terms == {(1, 1): Fraction(-2, 3)}
    assert not monomial(3, 3, 2, 2, Fraction(1, 7)) and monomial(3, 3, 2, 2, Fraction(1, 7))._denominator == 1


def test_monomial_keeps_the_constructor_errors():
    cases = [
        ((-1, 3, 0, 0, 1), ValueError, "ambient requires genus >= 0 and sym_index >= 0, got (-1, 3)"),
        ((2, -1, 0, 0, 1), ValueError, "ambient requires genus >= 0 and sym_index >= 0, got (2, -1)"),
        ((4, 3, -1, 0, 1), ValueError, "monomial exponents must be nonnegative, got x^-1*theta^0"),
        ((4, 3, 0, -2, 1), ValueError, "monomial exponents must be nonnegative, got x^0*theta^-2"),
        ((4, 3, 1, 0, 0.5), TypeError, "coefficients must be int or Fraction, got float"),
        # Rejected even where the monomial vanishes.
        ((4, 3, 0, 9, 0.25), TypeError, "coefficients must be int or Fraction, got float"),
    ]
    for args, error, message in cases:
        with pytest.raises(error) as raised:
            monomial(*args)
        assert str(raised.value) == message
        with pytest.raises(error) as raised:
            CohomClass(args[0], args[1], {(args[2], args[3]): args[4]})
        assert str(raised.value) == message


def test_equality_is_structural_on_normalized_maps():
    lhs = CohomClass(4, 3, {(1, 1): Fraction(2, 4), (3, 3): 5})
    rhs = CohomClass(4, 3, {(1, 1): Fraction(1, 2)})
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)
    assert lhs != CohomClass(5, 3, {(1, 1): Fraction(1, 2)})


def test_equal_values_reached_by_different_routes_are_equal_and_hash_alike():
    g, d = 6, 6
    x, theta = x_class(g, d), theta_class(g, d)
    pairs = [
        (CohomClass(g, d, {(1, 1): Fraction(1, 2)}), CohomClass(g, d, {(1, 1): Fraction(2, 4)})),
        # Mixed denominators and signs, summed in a different grouping.
        (CohomClass(g, d, [((1, 0), Fraction(-1, 3)), ((1, 0), Fraction(1, 6)), ((0, 1), Fraction(3, 4))]),
         CohomClass(g, d, {(1, 0): Fraction(-2, 12), (0, 1): Fraction(9, 12)})),
        (x.scale(Fraction(1, 6)) + x.scale(Fraction(1, 3)), x.scale(Fraction(1, 2))),
        # A cancelled term leaves a smaller common denominator behind.
        (x.scale(Fraction(1, 6)) + theta.scale(Fraction(1, 4)) - theta.scale(Fraction(1, 4)), x.scale(Fraction(1, 6))),
        (x.scale(Fraction(-5, 3)) - x.scale(Fraction(-5, 3)), zero_class(g, d)),
        (mul_classes(x.scale(Fraction(1, 2)), theta.scale(2)), mul_classes(x, theta)),
        (x.scale(Fraction(7, 9)).scale(Fraction(9, 7)), x),
        (pushforward_B(2, monomial(g, d, 4, 0, Fraction(1, 6))), monomial(g, d - 2, 2, 0)),
    ]
    for lhs, rhs in pairs:
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
        assert lhs.terms == rhs.terms
        assert render_class(lhs) == render_class(rhs)


@settings(max_examples=100, deadline=None)
@given(classes(), classes(), st.fractions(min_value=-50, max_value=50, max_denominator=40).filter(bool))
def test_scaling_and_adding_back_restore_the_class(a, b, q):
    b = CohomClass(a.genus, a.sym_index, b.terms)
    for other in (a.scale(q).scale(1 / q), (a + b) - b, (a - b) + b):
        assert other == a
        assert hash(other) == hash(a)


# Signed coefficients whose numerators and denominators share the primes 2,
# 3 and 5, so that the gcds that reduce a scaled class are often not 1.
_smooth_coeffs = st.builds(
    Fraction, st.integers(min_value=-720, max_value=720), st.sampled_from([1, 2, 3, 4, 6, 9, 10, 12, 36, 720])
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scaled_classes_and_one_term_products_match_the_classes_built_from_fractions(data):
    # A scaled class, and a product by one term that drops no monomial, are
    # reduced by Henrici's two cross gcds rather than a gcd of the whole
    # result; either must equal, in its stored form, the class that the
    # constructor builds and reduces from the Fraction terms.
    g = data.draw(st.integers(min_value=0, max_value=6))
    d = data.draw(st.integers(min_value=0, max_value=6))
    keys = monomials(g, d)
    cls = CohomClass(g, d, {key: data.draw(_smooth_coeffs) for key in data.draw(st.lists(st.sampled_from(keys)))})
    scalar = data.draw(_smooth_coeffs)
    assert cls.scale(scalar) == CohomClass(g, d, {key: c * scalar for key, c in cls.terms.items()})
    (a, b), coeff = data.draw(st.sampled_from(keys)), data.draw(_smooth_coeffs.filter(bool))
    expected = CohomClass(g, d, {(a + a2, b + b2): coeff * c for (a2, b2), c in cls.terms.items()})
    single = monomial(g, d, a, b, coeff)
    assert mul_classes(single, cls) == expected == mul_classes(cls, single)


def test_terms_are_reduced_fractions():
    cls = CohomClass(5, 5, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3), (0, 0): Fraction(5, 6), (2, 2): 4})
    expected = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3), (0, 0): Fraction(5, 6), (2, 2): Fraction(4)}
    assert cls.terms == expected
    assert [key for key, _ in cls.sorted_terms()] == [(2, 2), (0, 1), (1, 0), (0, 0)]
    for source in (cls.terms.items(), cls.sorted_terms(), parse("(x+theta+1)^6*bn1(5)/7", 6, 5).terms.items()):
        for _, coeff in source:
            assert type(coeff) is Fraction
            assert coeff.denominator > 0 and math.gcd(coeff.numerator, coeff.denominator) == 1
    assert dict(cls.sorted_terms()) == cls.terms


def test_render_of_a_class_with_a_large_common_denominator():
    # 525 terms whose denominators divide 12!; each is printed reduced.
    cls = parse("(x+theta+1)^30*bn1(67)", 78, 67)
    text = render_class(cls)
    assert len(cls.terms) == 525
    assert text == reference_render(cls)
    assert text.startswith("1/479001600*theta^42 + 1/26611200*x*theta^41 + 1/15966720*theta^41 + ")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "615cce1af4408e645d73020caf2bbd9a069b9151b4e58e5f24e550028b751b3e"
    )
    assert parse(text, 78, 67) == cls


def test_mul_example_bn1_times_x():
    lhs = CohomClass(4, 3, {(0, 2): Fraction(1, 2), (1, 1): -1})
    out = mul_classes(lhs, x_class(4, 3))
    assert out == CohomClass(4, 3, {(1, 2): Fraction(1, 2), (2, 1): -1})


def test_mul_kills_codimension_overflow():
    x2 = monomial(4, 3, 2, 0)
    assert mul_classes(x2, x2) == zero_class(4, 3)


def test_mul_kills_theta_power_overflow():
    out = mul_classes(monomial(4, 8, 0, 2), monomial(4, 8, 0, 3))
    assert out == zero_class(4, 8)


def test_mul_requires_matching_ambient():
    with pytest.raises(AmbientMismatchError):
        mul_classes(x_class(4, 3), x_class(4, 4))
    with pytest.raises(AmbientMismatchError):
        mul_classes(x_class(4, 3), x_class(5, 3))


def test_evaluate_top_x_power_is_one():
    for g in (1, 3, 7):
        for d in (1, 2, 5):
            assert evaluate_top(monomial(g, d, d, 0)) == 1


def test_evaluate_top_examples():
    assert evaluate_top(mul_classes(x_class(3, 2), theta_class(3, 2))) == 3
    assert evaluate_top(monomial(4, 3, 0, 3)) == 24
    # non-top monomials contribute nothing
    assert evaluate_top(theta_class(3, 2)) == 0


def test_poincare_grid_against_falling_product():
    for g in range(1, 9):
        for d in range(0, 9):
            for alpha in range(0, min(d, g) + 1):
                value = evaluate_top(monomial(g, d, d - alpha, alpha))
                assert value == falling(g, alpha)


@settings(max_examples=200, deadline=None)
@given(classes())
def test_evaluate_top_is_the_top_numerator_over_the_denominator(cls):
    # The strategy's monomials reach past d and past g, so some ambients
    # truncate them, and some draws are the zero class.
    numerator = top_numerators(cls, 0, 1)[0]
    assert type(numerator) is int
    assert evaluate_top(cls) == Fraction(numerator, cls._denominator)
    g, d = cls.genus, cls.sym_index
    assert evaluate_top(cls) == sum(
        (coeff * falling(g, b) for (a, b), coeff in cls.terms.items() if a + b == d), Fraction(0)
    )


def test_top_numerator_of_the_zero_class_and_of_a_scaled_class():
    assert top_numerators(zero_class(3, 2), 0, 1)[0] == 0
    # x and theta are below the top degree 2, and x^5 vanishes.
    assert top_numerators(CohomClass(3, 2, {(1, 0): 1, (0, 1): 1, (5, 0): 7}), 0, 1)[0] == 0
    half = CohomClass(4, 3, {(0, 3): Fraction(1, 2), (1, 2): Fraction(1, 3)})
    # (1/2)*24 + (1/3)*12 = 16, stored as (3*24 + 2*12)/6.
    assert (top_numerators(half, 0, 1)[0], half._denominator) == (96, 6)
    assert evaluate_top(half) == 16


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluate_top_bits_bounds_the_value(data):
    # The bound's contract: |evaluate_top(cls)| >= 2**j whenever j > 0.  A
    # few top-degree terms are added to each class, so that the bound is
    # often positive and the leading term sometimes cancels.
    g = data.draw(st.integers(min_value=0, max_value=40))
    d = data.draw(st.integers(min_value=0, max_value=40))
    top = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=min(g, d)),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        max_size=3,
    ))
    cls = data.draw(classes(g, d)) + CohomClass(g, d, {(d - b, b): coeff for b, coeff in top.items()})
    bits = evaluate_top_bits(cls)
    assert type(bits) is int
    if bits > 0:
        assert abs(evaluate_top(cls)) >= 2**bits


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluate_top_bits_bounds_a_nearly_cancelled_value(data):
    # n*theta^b - (n*r - k)*x*theta^(b-1), r = g-b+1, pairs to k*g!/(g-b)!/r,
    # which meets the bound's P/(r*L) at k = 1 over L = 1.
    g = data.draw(st.integers(min_value=1, max_value=60))
    b = data.draw(st.integers(min_value=1, max_value=g))
    n = data.draw(st.integers(min_value=1, max_value=9))
    k = data.draw(st.integers(min_value=1, max_value=3))
    scale = data.draw(st.fractions(min_value=Fraction(1, 12), max_value=9, max_denominator=12))
    r = g - b + 1
    cls = CohomClass(g, b, {(0, b): n * scale, (1, b - 1): -(n * r - k) * scale})
    bits = evaluate_top_bits(cls)
    if bits > 0:
        assert abs(evaluate_top(cls)) >= 2**bits


def test_evaluate_top_bits_examples():
    # theta^b* in (10^7, b*): r = 10^7 - b* + 1, and r^b* sets the bound.
    assert evaluate_top_bits(monomial(10**7, 3 * 10**6, 0, 3 * 10**6)) == 3 * 10**6 * 22 - 23 - 1
    assert evaluate_top_bits(monomial(10**7, 10**6, 0, 10**6)) == 10**6 * 23 - 24 - 1
    # No top-degree term, or a leading term that the others may cancel:
    # theta^3 - x*theta^2 in (3, 3) is 6 - 6.
    assert evaluate_top_bits(zero_class(5, 4)) == 0
    assert evaluate_top_bits(x_class(5, 4)) == 0
    cancelling = CohomClass(3, 3, {(0, 3): 1, (1, 2): -1})
    assert evaluate_top_bits(cancelling) == 0 == evaluate_top(cancelling)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairing_with_an_x_power_is_the_top_value_of_the_product(data):
    # Poincare's pairing with x^j, over the class's own denominator, is the
    # top-degree value of the product class; past j = d both read 0.
    cls = data.draw(classes())
    g, d = cls.genus, cls.sym_index
    j = data.draw(st.integers(min_value=0, max_value=d + 2))
    numerator = top_numerators(cls, j, 1)[0]
    assert type(numerator) is int
    assert Fraction(numerator, cls._denominator) == evaluate_top(mul_classes(cls, monomial(g, d, j, 0)))
    if j > d:
        assert numerator == 0


def test_pairing_matches_the_product_on_the_verifiers_shapes():
    # The rank-1 locus class at the critical degree d = g-m-1, paired with
    # x^(g-2m-3), at the first and last genus of each base genus of the
    # acceptance sweep (h in [1, 8], margin 300).
    for h in range(1, 9):
        m = (3 * h + 1) // 2
        for g in (genus_bound(h), genus_bound(h) + 300):
            d, j = critical_degree(h, g), g - 2 * m - 3
            cls = bn1_class(g, d)
            pairing = Fraction(top_numerators(cls, j, 1)[0], cls._denominator)
            assert pairing == evaluate_top(mul_classes(cls, monomial(g, d, j, 0)))
            assert pairing == binomial(g, d - 1) - binomial(g, d)


def test_pairing_with_a_negative_x_power_is_refused():
    with pytest.raises(ValueError, match="x_power must be nonnegative, got -1"):
        top_numerators(monomial(3, 2, 1, 0), -1, 1)[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_pairings_place_the_class_on_each_larger_ambient(data):
    # Entry i pairs the class's terms, placed on (g+i, d+i), with x^(j+i):
    # every stored monomial survives there, and the paired degree d - j
    # stays fixed.
    cls = data.draw(classes())
    g, d = cls.genus, cls.sym_index
    j = data.draw(st.integers(min_value=0, max_value=d + 2))
    numerators = top_numerators(cls, j, 4)
    assert len(numerators) == 4
    for i, numerator in enumerate(numerators):
        placed = CohomClass(g + i, d + i, cls.terms)
        assert placed._denominator == cls._denominator
        assert numerator == top_numerators(placed, j + i, 1)[0]
    assert numerators[0] == top_numerators(cls, j, 1)[0]


def test_batched_pairings_refuse_what_the_one_genus_call_refuses():
    cls = monomial(3, 2, 1, 0)
    with pytest.raises(ValueError, match="x_power must be nonnegative, got -1"):
        top_numerators(cls, -1, 3)
    # A run starts at the class's genus, so its length is all there is to
    # check: an empty run is refused, not returned as one value.
    for count in (0, -1):
        with pytest.raises(ValueError, match=f"count must be at least 1, got {count}"):
            top_numerators(cls, 1, count)
    assert top_numerators(cls, 1, 2) == [1, 1]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stepped_pairings_equal_the_class_rebuilt_at_each_genus(data):
    # top_numerators takes falling factorials at the class's genus g only
    # and steps them along G; each entry must still be the pairing of the
    # class rebuilt on (G, d + G - g), whatever the run's length.
    cls = data.draw(classes())
    g, d = cls.genus, cls.sym_index
    j = data.draw(st.integers(min_value=0, max_value=d + 2))

    def rebuilt(G: int) -> int:
        placed = CohomClass(G, d + G - g, cls.terms)
        assert placed._denominator == cls._denominator
        return top_numerators(placed, j + G - g, 1)[0]

    for count in (1, 2, 50):
        assert top_numerators(cls, j, count) == [rebuilt(G) for G in range(g, g + count)], count


def test_theta_power_beyond_genus_evaluates_to_zero():
    assert evaluate_top(monomial(2, 5, 2, 3)) == 0
    assert monomial(2, 5, 2, 3) == zero_class(2, 5)


def test_pushforward_examples():
    assert pushforward_B(1, x_class(28, 1)) == unit_class(28, 0)
    nineteen_x = pushforward_B(18, monomial(28, 19, 19, 0))
    assert nineteen_x == monomial(28, 1, 1, 0, 19)
    assert pushforward_B(2, monomial(10, 4, 4, 0)) == monomial(10, 2, 2, 0, 6)


def test_pushforward_drops_small_powers():
    # C(2, 3) = 0, so x^2 dies three steps down.
    assert pushforward_B(3, monomial(9, 5, 2, 0)) == zero_class(9, 2)


def test_pushforward_rejects_theta_monomials():
    with pytest.raises(MixedMonomialError):
        pushforward_B(1, theta_class(4, 3))
    with pytest.raises(MixedMonomialError):
        pushforward_B(1, CohomClass(4, 3, {(1, 0): 1, (1, 1): 1}))


def test_pushforward_index_bounds():
    with pytest.raises(ValueError):
        pushforward_B(4, x_class(4, 3))
    with pytest.raises(ValueError):
        pushforward_B(-1, x_class(4, 3))


def test_pair_with_k_zero_is_plain_top_evaluation():
    small = CohomClass(4, 3, {(0, 2): Fraction(1, 2), (1, 1): -1})
    assert pair_via_pushforward(small, 0, 3) == evaluate_top(
        mul_classes(small, monomial(4, 3, 3, 0))
    )


def test_pair_unit_class_gives_binomial():
    for g, d, k in ((5, 2, 3), (4, 0, 4), (7, 3, 2)):
        assert pair_via_pushforward(unit_class(g, d), k, d + k) == binomial(d + k, k)


def test_pair_reproduces_base_curve_count():
    # Rank-1 locus on a genus-2 curve paired through an 18-step push-down
    # of x^19: the push gives 19*x and the pairing contributes the unique
    # pencil once, so the total is 19.
    small = CohomClass(2, 2, {(0, 1): 1, (1, 0): -1})
    assert pair_via_pushforward(small, 18, 19) == 19


@given(classes(), classes())
def test_mul_commutative(a, b):
    b = CohomClass(a.genus, a.sym_index, b.terms)
    assert mul_classes(a, b) == mul_classes(b, a)


@given(classes(), classes(), classes())
def test_mul_associative(a, b, c):
    b = CohomClass(a.genus, a.sym_index, b.terms)
    c = CohomClass(a.genus, a.sym_index, c.terms)
    assert mul_classes(mul_classes(a, b), c) == mul_classes(a, mul_classes(b, c))


@given(classes())
def test_zero_class_is_absorbing(a):
    zero = zero_class(a.genus, a.sym_index)
    assert mul_classes(a, zero) == zero


@given(classes(), classes())
def test_mul_distributes_over_add(a, b):
    b = CohomClass(a.genus, a.sym_index, b.terms)
    c = monomial(a.genus, a.sym_index, 1, 0, Fraction(3, 2)) + unit_class(a.genus, a.sym_index)
    assert mul_classes(a + b, c) == mul_classes(a, c) + mul_classes(b, c)


@given(classes(), classes())
def test_truncation_never_resurrects(a, b):
    b = CohomClass(a.genus, a.sym_index, b.terms)
    product = mul_classes(a, b)
    for (xa, xb) in product.terms:
        assert xa + xb <= product.sym_index
        assert xb <= product.genus


@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_pushforward_composition_identity(a, k, j):
    # B_j(B_k(x^a)) carries coefficient C(a,k)C(a-k,j) = C(a,k+j)C(k+j,k).
    d = a + k + j + 1  # roomy enough for both steps
    twice = pushforward_B(j, pushforward_B(k, monomial(5, d, a, 0)))
    once = pushforward_B(k + j, monomial(5, d, a, 0))
    assert twice == once.scale(binomial(k + j, k))
    assert binomial(a, k) * binomial(a - k, j) == binomial(a, k + j) * binomial(k + j, k)


def test_render_examples():
    assert render_class(CohomClass(4, 3, {(0, 2): Fraction(1, 2), (1, 1): -1})) == "1/2*theta^2 - x*theta"
    assert render_class(zero_class(3, 3)) == "0"
    assert render_class(monomial(5, 4, 3, 0)) == "x^3"
    assert render_class(unit_class(2, 2)) == "1"
    assert render_class(monomial(5, 4, 1, 0, -1)) == "-x"
    assert render_class(monomial(5, 4, 0, 0, Fraction(-3, 7)) + monomial(5, 4, 2, 2)) == "x^2*theta^2 - 3/7"


def reference_render(cls: CohomClass) -> str:
    """The Fraction-based formatter, restated: abs, comparisons against 0
    and 1, and ``p`` or ``p/q`` from the magnitude, term by term."""
    parts = []
    for (a, b), coeff in cls.sorted_terms():
        magnitude = abs(coeff)
        number = str(magnitude.numerator) if magnitude.denominator == 1 else f"{magnitude.numerator}/{magnitude.denominator}"
        factors = []
        if a:
            factors.append("x" if a == 1 else f"x^{a}")
        if b:
            factors.append("theta" if b == 1 else f"theta^{b}")
        if a == b == 0:
            piece = number
        elif magnitude == 1:
            piece = "*".join(factors)
        else:
            piece = number + "*" + "*".join(factors)
        if not parts:
            parts.append(piece if coeff > 0 else "-" + piece)
        else:
            parts.append((" + " if coeff > 0 else " - ") + piece)
    return "".join(parts) or "0"


# Signs, unit magnitudes, integers and p/q, with the constant term often present.
_render_coeffs = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6).filter(bool),
)


@st.composite
def render_cases(draw):
    g = draw(st.integers(min_value=0, max_value=8))
    d = draw(st.integers(min_value=0, max_value=8))
    keys = draw(st.lists(st.sampled_from(monomials(g, d)), max_size=12, unique=True))
    return CohomClass(g, d, {key: draw(_render_coeffs) for key in keys})


@settings(max_examples=300, deadline=None)
@given(render_cases())
def test_render_matches_the_fraction_formatter_and_reparses(cls):
    text = render_class(cls)
    assert text == reference_render(cls)
    assert parse(text, cls.genus, cls.sym_index) == cls


def monomial_text(x_power: int, theta_power: int) -> str:
    """Canonical text of x^a * theta^b, unit exponents suppressed: e.g.
    ``x*theta^2``, ``theta``, and ``1`` for the unit monomial."""
    factors: list[str] = []
    if x_power:
        factors.append("x" if x_power == 1 else f"x^{x_power}")
    if theta_power:
        factors.append("theta" if theta_power == 1 else f"theta^{theta_power}")
    return "*".join(factors) or "1"


def pre_change_render(cls: CohomClass) -> str:
    """``render_class`` before its one-integer sort key: a (-b, -a) key call
    and a ``monomial_text`` call per term, and a gcd per coefficient."""
    denominator = cls._denominator
    parts: list[str] = []
    for (a, b), n in sorted(cls._numerators.items(), key=lambda item: (-item[0][1], -item[0][0])):
        common = math.gcd(n, denominator)
        p, q = abs(n) // common, denominator // common
        magnitude = str(p) if q == 1 else f"{p}/{q}"
        if a == b == 0:
            piece = magnitude
        elif magnitude == "1":
            piece = monomial_text(a, b)
        else:
            piece = magnitude + "*" + monomial_text(a, b)
        if not parts:
            parts.append("-" + piece if n < 0 else piece)
        else:
            parts.append((" - " if n < 0 else " + ") + piece)
    return "".join(parts) or "0"


@st.composite
def wide_render_cases(draw):
    """Classes in small ambients and in ambients up to 10^9, where the sort
    key b*(d+1) + a is large: x-only, theta-only and constant terms, unit
    and negative coefficients, and half of them with integer coefficients,
    so that the denominator is 1."""
    small = st.integers(min_value=0, max_value=8)
    g = draw(st.one_of(small, st.integers(min_value=0, max_value=10**9)))
    d = draw(st.one_of(small, st.integers(min_value=0, max_value=10**9)))
    coeffs = (
        st.integers(min_value=-(10**30), max_value=10**30) | st.sampled_from([1, -1])
        if draw(st.booleans()) else _render_coeffs
    )
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        a = draw(st.sampled_from([0, min(1, d), d]) | st.integers(min_value=0, max_value=d))
        top = min(g, d - a)
        b = draw(st.sampled_from([0, min(1, top), top]) | st.integers(min_value=0, max_value=top))
        terms[(a, b)] = draw(coeffs)
    return CohomClass(g, d, terms)


@settings(max_examples=300, deadline=None)
@given(wide_render_cases())
def test_render_matches_the_pre_change_formatter_and_reparses(cls):
    text = render_class(cls)
    assert text == pre_change_render(cls)
    assert parse(text, cls.genus, cls.sym_index) == cls


def test_class_power_matches_repeated_mul():
    base = CohomClass(6, 6, {(1, 0): 1, (0, 1): Fraction(1, 3)})
    assert base**0 == unit_class(6, 6)
    assert base**3 == mul_classes(base, mul_classes(base, base))


@st.composite
def small_bases(draw):
    """A base of 0-7 terms, with or without a constant term, with signed
    rational coefficients, in an ambient small enough that b > g or
    a + b > d truncates most powers."""
    g = draw(st.integers(min_value=0, max_value=7))
    d = draw(st.integers(min_value=0, max_value=7))
    size = draw(st.integers(min_value=0, max_value=7))
    constant = size and draw(st.booleans())
    nonconstant = [(a, b) for a in range(4) for b in range(4) if a or b]
    keys = draw(st.lists(st.sampled_from(nonconstant), min_size=size - constant, max_size=size - constant, unique=True))
    coeffs = st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(bool)
    return CohomClass(g, d, {key: draw(coeffs) for key in [(0, 0)] * constant + keys})


@settings(max_examples=300, deadline=None)
@given(small_bases())
def test_powers_of_small_bases_match_repeated_mul(base):
    # Both power kernels (the recurrence, squaring) against a left fold of
    # products, N in 0..12.
    assert len(base.terms) <= 7
    power = unit_class(base.genus, base.sym_index)
    for n in range(13):
        assert base**n == power, n
        power = mul_classes(power, base)


def test_powers_dispatch_on_a_lowest_term(monkeypatch):
    # A base with a term of least total degree and least theta power
    # multiplies no classes: any base with a constant term, whatever its term
    # count, a one-term base, and constant-free bases such as x + theta^2 and
    # x - theta + x*theta.  A base without one, such as x^2 + theta, is
    # squared.
    x, theta, one = x_class(9, 9), theta_class(9, 9), unit_class(9, 9)
    with_constant = [one, x + one, x + theta + one, x + theta + x * theta + one]
    with_constant.append(with_constant[-1] + x * x + theta * theta + x * x * theta)
    single = 2 * x * theta
    lowest = [*with_constant, single, x + theta * theta, x - theta + x * theta]
    pair = x * x + theta
    expected = {}
    for base in [*lowest, pair]:
        power = one
        for _ in range(8):
            power = mul_classes(power, base)
        expected[base] = power
    squares = []

    def spy(lhs, rhs):
        squares.append(lhs is rhs)
        return mul_classes(lhs, rhs)

    monkeypatch.setattr(cohomology, "mul_classes", spy)
    assert [len(base.terms) for base in with_constant] == [1, 2, 3, 4, 7]
    for base in lowest:
        assert base**8 == expected[base]
    assert len((with_constant[3] ** 8).terms) == 53  # (1+x)^8 * (1+theta)^8
    assert single**4 == monomial(9, 9, 4, 4, 16) and single**8 == expected[single] == zero_class(9, 9)
    assert squares == []
    assert pair**8 == expected[pair]
    assert squares == [True, True, True, False]


def test_powers_of_four_terms_and_more_are_quick():
    # (x+theta+x*theta+1)^240 = (1+x)^240 * (1+theta)^240 in (120, 120), and
    # a seven-term power there: the recurrence computes rows of total degree
    # up to 120, not the 240-fold product.
    n, g = 240, 120
    seven = "(x+theta+x*theta+x^2+theta^2+x^2*theta+1)"
    start = time.perf_counter()
    power = parse(f"(x+theta+x*theta+1)^{n}", g, g)
    assert len(parse(f"{seven}^{n}", g, g).terms) == (g + 1) * (g + 2) // 2
    assert time.perf_counter() - start < 2
    assert power == CohomClass(g, g, {
        (a, b): math.comb(n, a) * math.comb(n, b) for a in range(g + 1) for b in range(g + 1 - a)
    })
    assert parse(f"{seven}^{n}", 30, 30) == parse(f"{seven}^{n - 100}*{seven}^100", 30, 30)


def test_a_sparse_power_in_a_huge_ambient_visits_only_the_degrees_it_reaches():
    # (x^400+3)^16 in (10^7, 10^7): 17 rows, of degrees 400*j, rather than a
    # row for every degree up to 6,400 or a slot for every theta power.  The
    # rows of (x^5000000+x+1)^2 are those of degrees 0, 1, 2, 5000000,
    # 5000001 and 10^7, though every degree up to 10^7 is a sum of 1s; the
    # rows of degrees 3 and 5000002, reached but zero, reach no further.
    g = d = 10**7
    base = monomial(g, d, 400, 0) + 3 * unit_class(g, d)
    wide = monomial(g, d, 5 * 10**6, 0) + x_class(g, d) + unit_class(g, d)
    tracemalloc.start()
    try:
        power, square = base**16, wide**2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert power == CohomClass(g, d, {(400 * j, 0): math.comb(16, j) * 3 ** (16 - j) for j in range(17)})
    assert square == mul_classes(wide, wide)


def test_constant_free_powers_with_a_lowest_term_are_quick():
    # x is the lowest term of x + theta and of x + theta + x*theta, so their
    # powers take the recurrence, graded by a + 2b, in (10^7, 10^7): these
    # took 0.5 s and 2.7 s by squaring.
    g = d = 10**7
    start = time.perf_counter()
    power = parse("(x+theta)^2000", g, d)
    triple = parse("(x+theta+x*theta)^200", g, d)
    assert time.perf_counter() - start < 0.5
    assert power == CohomClass(g, d, {(2000 - j, j): math.comb(2000, j) for j in range(2001)})
    # x^(200-i-j) * theta^i * (x*theta)^j over every i + j <= 200.
    assert triple == CohomClass(g, d, {
        (200 - i, i + j): math.comb(200, i + j) * math.comb(i + j, j) for i in range(201) for j in range(201 - i)
    })


def test_huge_powers_in_a_small_ambient_are_quick():
    # Neither c^N nor L^N is computed: (x/2+1)^N in (5, 5) is six terms
    # C(N, j)/2^j, and (x/2)^N and (x/2+theta/3)^N vanish there.
    n = 10**12
    start = time.perf_counter()
    assert parse(f"(x/2+1)^{n}", 5, 5) == CohomClass(5, 5, {(j, 0): Fraction(math.comb(n, j), 2**j) for j in range(6)})
    assert parse(f"(x/2)^{n}", 5, 5) == zero_class(5, 5)
    assert parse(f"(x/2+theta/3)^{n // 10}", 5, 5) == zero_class(5, 5)
    assert time.perf_counter() - start < 1


def test_products_of_powers_still_pack(monkeypatch):
    # A power of x + theta + 1 takes the recurrence; the product of two such
    # powers is packed, in a large ambient and in a huge one.
    packed = []
    dense_product = cohomology._dense_product

    def spy(*args):
        packed.append(args[0].sym_index)
        return dense_product(*args)

    monkeypatch.setattr(cohomology, "_dense_product", spy)
    for n, ambient in ((200, 60), (16, 10**7)):
        power = parse(f"(x+theta+1)^{n}", ambient, ambient)
        assert packed == []
        assert parse(f"(x+theta+1)^{n // 2}*(x+theta+1)^{n // 2}", ambient, ambient) == power
        assert packed == [ambient]
        packed.clear()


def test_a_huge_power_that_the_ambient_truncates_is_quick():
    # (x+theta+1)^100000 in (10, 10): the recurrence stops at degree 10, so
    # it computes 11 rows, 66 coefficients N!/(a! b! (N-a-b)!) in all.
    n = 100000
    start = time.perf_counter()
    power = parse(f"(x+theta+1)^{n}", 10, 10)
    assert time.perf_counter() - start < 1
    assert power == CohomClass(10, 10, {
        (a, b): math.comb(n, a + b) * math.comb(a + b, b) for a in range(11) for b in range(11 - a)
    })


def test_classes_are_immutable():
    cls = x_class(3, 2)
    for name in ("genus", "sym_index", "_numerators", "_denominator"):
        with pytest.raises(AttributeError):
            setattr(cls, name, 5)
        with pytest.raises(AttributeError):
            delattr(cls, name)
    assert (cls.genus, cls.sym_index, cls._numerators, cls._denominator) == (3, 2, {(1, 0): 1}, 1)
    snapshot = cls.terms
    snapshot[(0, 0)] = Fraction(1)
    assert cls == x_class(3, 2)


def test_class_operators_and_their_rejections():
    a = CohomClass(4, 3, {(1, 0): 2, (0, 1): Fraction(1, 3)})
    b = monomial(4, 3, 1, 0)
    assert a - b == CohomClass(4, 3, {(1, 0): 1, (0, 1): Fraction(1, 3)})
    assert 2 * a == a.scale(2) == a * 2
    assert a * Fraction(1, 2) == CohomClass(4, 3, {(1, 0): 1, (0, 1): Fraction(1, 6)})
    with pytest.raises(TypeError):
        a + 3
    with pytest.raises(TypeError):
        a * "a"
    assert (a == 3) is False
    for exponent in (-1, 1.5):
        with pytest.raises(ValueError):
            a ** exponent
    assert repr(a) == "CohomClass(g=4, d=3, '1/3*theta + 2*x')"


def test_constructor_and_pairing_reject_negative_indices():
    for genus, sym_index in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            CohomClass(genus, sym_index)
    with pytest.raises(ValueError):
        pair_via_pushforward(unit_class(4, 3), 1, -1)

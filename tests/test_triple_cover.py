from __future__ import annotations

import time
from fractions import Fraction

import pytest

from triplecover.triple_cover import (
    DeltaParityError,
    DeltaWindowError,
    admissible_deltas,
    derive_geometry,
    reducedness_genus_bounds,
    section_vanishing_margins,
    twisted_degrees,
)


def test_derive_geometry_example():
    geom = derive_geometry(28, 2, 0)
    assert geom.det_e_degree == -24
    assert geom.n == geom.deg_m == -12
    assert geom.deg_l == -12
    assert geom.fx_fiber_coeff == 12


def test_derive_geometry_parity_error():
    with pytest.raises(DeltaParityError):
        derive_geometry(28, 2, 1)


def test_derive_geometry_window_errors():
    with pytest.raises(DeltaWindowError):
        derive_geometry(28, 2, 10)  # above (g-3h+2)/3 = 8
    with pytest.raises(DeltaWindowError):
        derive_geometry(28, 2, -4)  # below -h


def test_derive_geometry_accepts_exactly_the_admissible_deltas():
    # The parity test first, then the window as admissible_deltas states it,
    # each with its own error type and message.
    for h in range(1, 6):
        for g in range(3 * h, 3 * h + 25):
            admissible = set(admissible_deltas(g, h))
            for delta in range(-h - 3, g):
                try:
                    derive_geometry(g, h, delta)
                except DeltaParityError as exc:
                    assert (delta - (g - 3 * h)) % 2
                    assert str(exc) == f"delta = {delta} must have the parity of g - 3h = {g - 3 * h}"
                except DeltaWindowError as exc:
                    assert delta not in admissible and not (delta - (g - 3 * h)) % 2
                    assert str(exc) == (
                        f"delta = {delta} outside the window [-h, (g-3h+2)/3] = [{-h}, {Fraction(g - 3 * h + 2, 3)}]"
                    )
                else:
                    assert delta in admissible


def test_derive_geometry_decides_the_window_at_once_for_an_integral_fraction():
    # A range tests a non-int for membership by scanning it; the window is
    # decided from the ends of admissible_deltas instead.
    g = 10**8
    started = time.perf_counter()
    with pytest.raises(DeltaWindowError):
        derive_geometry(g, 1, Fraction(g - 3))
    assert time.perf_counter() - started < 0.5


def test_derive_geometry_domain():
    with pytest.raises(ValueError):
        derive_geometry(5, 2, 0)
    with pytest.raises(ValueError):
        derive_geometry(10, 0, 0)


def test_admissible_deltas_examples():
    assert list(admissible_deltas(28, 2)) == [-2, 0, 2, 4, 6, 8]
    # g = 3h: window is [-h, 2/3], so the even values down from 0.
    assert list(admissible_deltas(6, 2)) == [-2, 0]
    assert list(admissible_deltas(9, 3)) == [-2, 0]
    # odd parity of g - 3h
    assert list(admissible_deltas(7, 2)) == [-1, 1]
    assert list(admissible_deltas(10, 3)) == [-3, -1, 1]
    # A range: its ends are known past sys.maxsize elements.
    huge = admissible_deltas(10**30, 1)
    assert (huge[0], huge[1], huge[-1]) == (-1, 1, (10**30 - 1) // 3)


def test_admissible_deltas_match_window_and_parity_filter():
    # Reference grid: h in [-1, 13], g in [-3, 12h + 40); the window is
    # [-h, (g-3h+2)/3] and delta has the parity of g - 3h.
    for h in range(-1, 14):
        for g in range(-3, 12 * h + 40):
            if h < 1:
                with pytest.raises(ValueError, match="base genus must be at least 1"):
                    admissible_deltas(g, h)
                continue
            if g < 3 * h:
                with pytest.raises(ValueError, match="needs g >= 3h,"):
                    admissible_deltas(g, h)
                continue
            window = range(-h, (g - 3 * h + 2) // 3 + 1)
            expected = [delta for delta in window if (delta - (g - 3 * h)) % 2 == 0]
            assert list(admissible_deltas(g, h)) == expected, (g, h)
            margins = section_vanishing_margins(g, h)
            rows = twisted_degrees(g, h)
            assert [row.delta for row in rows] == expected
            for row in rows:
                shared = (row.g, row.h, row.twist_degree_2d, row.bound_m, row.bound_l)
                assert shared == (margins.g, margins.h, margins.twist_degree_2d, margins.bound_m, margins.bound_l)


def test_admissible_deltas_never_empty_in_domain():
    # 0 or -1 always sits in the window with the right parity.
    for h in range(1, 8):
        for g in range(3 * h, 3 * h + 40):
            assert admissible_deltas(g, h)


def test_ledger_invariants_across_sweep():
    for h in range(1, 11):
        for g in range(3 * h, 3 * h + 201):
            for delta in admissible_deltas(g, h):
                geom = derive_geometry(g, h, delta)
                assert geom.deg_m + geom.deg_l == geom.det_e_degree == 3 * h - g - 2
                assert geom.deg_m - geom.deg_l == delta
                if delta >= 0:
                    assert geom.deg_m >= geom.deg_l
                    # irreducibility of the embedded curve
                    assert geom.fx_fiber_coeff >= 3 * delta
                assert geom.deg_m <= Fraction(-g + 3 * h - 2, 3)
                assert geom.deg_l <= Fraction(-g + 4 * h - 2, 2)
                assert geom.fx_fiber_coeff == Fraction(3 * delta + g - 3 * h + 2, 2)
                assert (delta - (g - 3 * h)) % 2 == 0


def test_margins_even_example():
    margins = section_vanishing_margins(28, 2)
    assert margins.twist_degree_2d == 4
    assert margins.bound_m == -4
    assert margins.bound_l == -7
    assert margins.vanishing_guaranteed is True


def test_margins_even_boundary_not_guaranteed():
    margins = section_vanishing_margins(16, 2)
    assert margins.vanishing_guaranteed is False  # 16 = 6h + 4, not strict


def test_margins_odd_example():
    margins = section_vanishing_margins(26, 3)
    assert margins.parity == "odd"
    assert margins.twist_degree_2d == 6
    assert margins.bound_m == Fraction(-4, 3)
    assert margins.bound_l == -3
    assert margins.vanishing_guaranteed is True


def test_margins_negative_whenever_guaranteed():
    for h in range(1, 9):
        for g in range(3 * h, 3 * h + 80):
            margins = section_vanishing_margins(g, h)
            if margins.vanishing_guaranteed:
                assert margins.bound_m < 0
                assert margins.bound_l < 0


def test_margins_need_the_riemann_hurwitz_genus():
    # 2g - 2 >= 3(2h - 2) for a triple cover, so g >= 3h - 2; the per-delta
    # ledger needs g >= 3h.
    for h in range(1, 9):
        section_vanishing_margins(3 * h - 2, h)
        for g in range(3 * h - 6, 3 * h - 2):
            with pytest.raises(ValueError, match=r"needs g >= 3h - 2 \(Riemann-Hurwitz\)"):
                section_vanishing_margins(g, h)
        for g in range(3 * h - 6, 3 * h):
            with pytest.raises(ValueError, match="triple-cover numerology needs g >= 3h,"):
                twisted_degrees(g, h)


def test_twisted_degrees_negative_whenever_guaranteed():
    # The per-delta twisted degrees stay below the parity-exact rational
    # margins, hence strictly negative in the guaranteed regime.  For even
    # h those margins coincide with the reported bounds; for odd h they sit
    # one twist-unit higher: (-g+6h+7)/3 and (-g+6h+4)/2.
    for h in range(1, 9):
        for g in range(3 * h, 3 * h + 80):
            margins = section_vanishing_margins(g, h)
            if h % 2 == 0:
                cap_m, cap_l = margins.bound_m, margins.bound_l
            else:
                cap_m = Fraction(-g + 6 * h + 7, 3)
                cap_l = Fraction(-g + 6 * h + 4, 2)
            for entry in twisted_degrees(g, h):
                assert entry.deg_m_twisted <= cap_m
                assert entry.deg_l_twisted <= cap_l
                if margins.vanishing_guaranteed:
                    assert entry.deg_m_twisted < 0
                    assert entry.deg_l_twisted < 0


def test_reducedness_bounds_examples():
    assert reducedness_genus_bounds(3) == reducedness_genus_bounds(3).__class__(
        h=3, parity="odd", direct=26, alternative=39
    )
    bounds = reducedness_genus_bounds(2)
    assert (bounds.direct, bounds.alternative) == (17, 24)
    bounds = reducedness_genus_bounds(5)
    assert (bounds.direct, bounds.alternative) == (38, 57)
    bounds = reducedness_genus_bounds(1)
    assert (bounds.direct, bounds.alternative) == (14, 21)


def test_reducedness_direct_bound_rewrites_in_h():
    # 12e+5 = 6h+5 for h = 2e and 12e+14 = 6h+8 for h = 2e+1, i.e. the
    # direct bound is the smallest genus satisfying the strict vanishing
    # hypothesis.
    for h in range(1, 12):
        bounds = reducedness_genus_bounds(h)
        if h % 2 == 0:
            assert bounds.direct == 6 * h + 5
            assert section_vanishing_margins(bounds.direct, h).vanishing_guaranteed
            assert not section_vanishing_margins(bounds.direct - 1, h).vanishing_guaranteed
        else:
            assert bounds.direct == 6 * h + 8
            assert section_vanishing_margins(bounds.direct, h).vanishing_guaranteed
            assert not section_vanishing_margins(bounds.direct - 1, h).vanishing_guaranteed

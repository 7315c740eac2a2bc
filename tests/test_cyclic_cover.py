from __future__ import annotations

import math
from fractions import Fraction

import pytest

from triplecover.brill_noether import cs_max_degree
from triplecover.cyclic_cover import (
    BranchRangeError,
    CongruenceError,
    construction_feasible,
    derive_profile,
    normalize_t,
    pencil_gap_report,
)
from triplecover.existence import critical_degree


def valid_ts(g: int, h: int) -> list[int]:
    branch = g - 3 * h + 2
    return [t for t in range(0, branch + 1) if (t - (2 * g - 2)) % 3 == 0]


def test_derive_profile_example():
    profile = derive_profile(15, 1, 10)
    assert profile.branch_count == 14
    assert (profile.k1, profile.k2) == (6, 8)
    assert (profile.dim_h0, profile.dim_h1, profile.dim_h2) == (1, 6, 8)
    assert profile.dim_h0 + profile.dim_h1 + profile.dim_h2 == 15
    assert (profile.n1_lower, profile.n2_lower) == (24, 18)


def test_derive_profile_congruence_error():
    with pytest.raises(CongruenceError):
        derive_profile(15, 1, 9)


def test_derive_profile_range_error():
    with pytest.raises(BranchRangeError):
        derive_profile(15, 1, 20)
    with pytest.raises(BranchRangeError):
        derive_profile(15, 1, -2)


def test_derive_profile_domain():
    with pytest.raises(ValueError):
        derive_profile(15, 0, 1)
    with pytest.raises(ValueError):
        derive_profile(4, 2, 0)  # needs g >= 3h - 1


def test_normalize_examples():
    assert normalize_t(15, 1, 4) == 10
    assert normalize_t(15, 1, 10) == 10
    assert normalize_t(15, 1, 7) == 7  # 2t equals the branch count exactly


def test_normalize_is_idempotent_and_keeps_congruence():
    for h in range(1, 6):
        for g in range(3 * h - 1, 3 * h + 50):
            for t in valid_ts(g, h):
                normalized = normalize_t(g, h, t)
                assert normalize_t(g, h, normalized) == normalized
                assert (normalized - (2 * g - 2)) % 3 == 0
                assert 2 * normalized >= g - 3 * h + 2


def test_gap_report_examples():
    report = pencil_gap_report(15, 1, 10)
    assert (
        report.cs_bound,
        report.composed_below,
        report.exists_at_most,
        report.theorem_a_degree,
    ) == (6, 8, 10, 12)
    report = pencil_gap_report(15, 1, 13)
    assert (
        report.cs_bound,
        report.composed_below,
        report.exists_at_most,
        report.theorem_a_degree,
    ) == (6, 9, 13, 12)
    report = pencil_gap_report(15, 1, 7)
    assert (
        report.cs_bound,
        report.composed_below,
        report.exists_at_most,
        report.theorem_a_degree,
    ) == (6, 7, 10, 12)


def test_gap_report_requires_normalized_t():
    with pytest.raises(ValueError):
        pencil_gap_report(15, 1, 4)


def test_gap_report_names_the_normalized_split():
    with pytest.raises(ValueError, match=r"needs 2t >= 14\); the same cover has t = 10$"):
        pencil_gap_report(15, 1, 4)


def test_feasibility_examples():
    result = construction_feasible(15, 1, 10)
    assert (result.feasible, result.ell) == (True, 2)
    result = construction_feasible(15, 1, 7)
    assert (result.feasible, result.ell) == (True, 0)
    result = construction_feasible(15, 1, 5)
    assert (result.feasible, result.ell) == (False, None)


def test_feasibility_is_a_result_not_an_error():
    # Wrong congruence, out-of-window t, and too-small genus all report
    # infeasible instead of raising.
    assert construction_feasible(15, 1, 9).feasible is False
    assert construction_feasible(15, 1, 20).feasible is False
    assert construction_feasible(10, 3, 3).feasible is False  # g < 7h - 4 = 17


def test_profile_invariants_across_sweep():
    for h in range(1, 9):
        for g in range(3 * h - 1, 3 * h + 151):
            branch = g - 3 * h + 2
            for t in valid_ts(g, h):
                profile = derive_profile(g, h, t)
                assert t + 3 * profile.k1 == 2 * g - 2
                assert (branch - t) + 3 * profile.k2 == 2 * g - 2
                assert 3 * profile.k1 >= g + 3 * h - 4
                assert 3 * profile.k2 >= g + 3 * h - 4
                if profile.dim_h1 is not None and profile.dim_h2 is not None:
                    assert profile.dim_h0 + profile.dim_h1 + profile.dim_h2 == g
                assert profile.n1_lower + profile.n2_lower == 3 * branch


def test_thresholds_order_for_normalized_t():
    # The composed-pencil threshold always clears the Castelnuovo-Severi
    # bound once t is normalized.
    for h in range(1, 9):
        for g in range(3 * h, 3 * h + 151):
            for t in valid_ts(g, h):
                normalized = normalize_t(g, h, t)
                report = pencil_gap_report(g, h, normalized)
                assert Fraction(report.cs_bound) <= report.composed_below
                assert report.cs_bound == cs_max_degree(g, h)


def test_feasible_ell_matches_congruence_window():
    for h in range(1, 5):
        for g in range(7 * h - 4, 7 * h + 40):
            branch = g - 3 * h + 2
            for t in valid_ts(g, h):
                result = construction_feasible(g, h, t)
                if 2 * t >= branch:
                    assert result.feasible
                    assert result.ell == (2 * t - g + 3 * h - 2) // 3
                    assert result.ell >= 0
                else:
                    assert not result.feasible


# The reference grid: every (h, g, t) with h in [-1, 13], g in [-3, 12h + 40)
# and t in [-3, g + 5), across the domain errors and both window edges.
GRID = [
    (h, g, t) for h in range(-1, 14) for g in range(-3, 12 * h + 40) for t in range(-3, g + 5)
]


def reference_gap(g: int, h: int, t: int) -> tuple:
    """pencil_gap_report restated: its checks in order, then its fields."""
    if h < 1:
        raise ValueError("base genus must be at least 1")
    branch = g - 3 * h + 2
    if g < 3 * h - 1:
        raise ValueError("cyclic-cover numerology needs g >= 3h - 1")
    if not 0 <= t <= branch:
        raise BranchRangeError(f"t = {t} outside")
    if (t - (2 * g - 2)) % 3 != 0:
        raise CongruenceError(f"t = {t} is not congruent")
    if 2 * t < branch:
        raise ValueError(f"t = {t} is not normalized")
    return (g, h, t, cs_max_degree(g, h), Fraction(branch + t, 3), max(t, g + 2 - t), critical_degree(h, g))


def test_gap_report_matches_its_formulas_on_the_grid():
    for h, g, t in GRID:
        try:
            expected = reference_gap(g, h, t)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)) as info:
                pencil_gap_report(g, h, t)
            assert type(info.value) is type(exc), (g, h, t)
            continue
        report = pencil_gap_report(g, h, t)
        assert (
            report.g,
            report.h,
            report.t,
            report.cs_bound,
            report.composed_below,
            report.exists_at_most,
            report.theorem_a_degree,
        ) == expected, (g, h, t)
        assert report.largest_excluded == math.ceil(report.composed_below) - 1, (g, h, t)


def test_feasibility_matches_its_four_conditions_on_the_grid():
    for h, g, t in GRID:
        if h < 1:
            with pytest.raises(ValueError, match="base genus must be at least 1"):
                construction_feasible(g, h, t)
            continue
        branch = g - 3 * h + 2
        feasible = g >= 7 * h - 4 and 2 * t >= branch and t <= branch and (t - (2 * g - 2)) % 3 == 0
        result = construction_feasible(g, h, t)
        assert (result.g, result.h, result.t, result.feasible) == (g, h, t, feasible), (g, h, t)
        if feasible:
            assert (2 * t - g + 3 * h - 2) % 3 == 0
            assert result.ell == (2 * t - g + 3 * h - 2) // 3 >= 0, (g, h, t)
        else:
            assert result.ell is None, (g, h, t)

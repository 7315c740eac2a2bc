from __future__ import annotations

import operator
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from triplecover import cohomology, existence
from triplecover.arith import binomial, factorial
from triplecover.brill_noether import bn1_class, castelnuovo_count, pencil_dimension_hypothesis, rho
from triplecover.cohomology import evaluate_top, monomial, mul_classes, pair_via_pushforward
from triplecover.existence import (
    InequalityReport,
    audit_proof_chain,
    critical_degree,
    genus_bound,
    sweep,
    verify_inequality,
)
from triplecover.triple_cover import VanishingMargins, section_vanishing_margins

_RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def test_genus_bound_examples():
    assert genus_bound(1) == 15
    assert genus_bound(2) == 28
    assert genus_bound(3) == 66
    assert genus_bound(4) == 91
    with pytest.raises(ValueError):
        genus_bound(0)


def test_critical_degree_examples():
    assert critical_degree(2, 28) == 24
    assert critical_degree(1, 15) == 12
    assert critical_degree(3, 66) == 60


def test_verify_even_smallest_instance():
    report = verify_inequality(2, 28)
    # Oracle: C(28,5) - C(28,4) = 98280 - 20475.
    assert report.lhs == binomial(28, 5) - binomial(28, 4) == 77805
    assert report.rhs == 19
    assert report.lhs_via_expansion == report.lhs
    assert report.strict is True
    assert (report.e, report.parity, report.critical_degree) == (1, "even", 24)


def test_verify_even_next_genus():
    report = verify_inequality(2, 29)
    assert report.lhs == binomial(29, 5) - binomial(29, 4) == 95004
    assert report.rhs == 20
    assert report.strict is True


def test_verify_odd_smallest_instance():
    report = verify_inequality(1, 15)
    # Oracle: 15 * 14 * 13 * 8 / 4! = 910; the pulled-back side is C(8,2)
    # times the degenerate base pairing 1 - 0, where the 0 comes from the
    # reciprocal-factorial convention at the edge index.
    assert report.lhs == Fraction(15 * 14 * 13 * 8, 24) == 910
    assert report.rhs == binomial(8, 2) == 28
    assert report.lhs_via_expansion == 910
    assert report.strict is True
    assert (report.e, report.parity, report.critical_degree) == (0, "odd", 12)


def test_verify_preconditions():
    with pytest.raises(ValueError):
        verify_inequality(0, 30)
    with pytest.raises(ValueError):
        verify_inequality(2, 9)  # even case needs g >= 6e + 4 = 10
    with pytest.raises(ValueError):
        verify_inequality(1, 7)  # odd case needs g >= 6e + 8 = 8


def test_verify_large_genus_memory_stays_bounded():
    # The closed form needs only binomials of size ~g choose 3e; nothing
    # may keep factorials up to g alive.
    tracemalloc.start()
    try:
        report = verify_inequality(60, 16471)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.strict is True
    assert report.lhs.numerator.bit_length() == 817
    assert peak < 16 * 2**20


def test_verify_route_disagreement_is_fatal(monkeypatch):
    # The kernel compares Poincare's top-degree numerator with the closed
    # form times the class's denominator; -denominator reads as -1.
    monkeypatch.setattr(
        existence, "top_numerators", lambda cls, x_power, count: [-cls._denominator] * count
    )
    with pytest.raises(ArithmeticError) as raised:
        verify_inequality(2, 28)
    assert str(raised.value) == "internal consistency failure at (h=2, g=28): closed form 77805 != expansion -1"


def test_report_sides_are_ints_and_the_verdict_a_bool(monkeypatch):
    grid = [(1, 15), (2, 28), (2, 29), (3, 66), (4, 91), (5, 200), (60, 16471)]
    for h, g in grid:
        report = verify_inequality(h, g)
        assert type(report.lhs) is int
        assert type(report.rhs) is int
        assert report.lhs_via_expansion is report.lhs
        assert type(report.strict) is bool
        assert report.strict is (report.lhs > report.rhs)
        # The audit's final step carries the sides of the report it
        # computed, handed here this report: its int objects themselves.
        monkeypatch.setattr(existence, "verify_inequality", lambda *case: {(h, g): report}[case])
        final = audit_proof_chain(h, g).steps[-1]
        assert final.name.startswith("final_strict")
        assert final.lhs is report.lhs and final.rhs is report.rhs
    assert verify_inequality(60, 16471).lhs.bit_length() == 817


def test_verify_closed_form_disagreement_is_fatal(monkeypatch):
    # The sweep's stepped closed form seeds from _bn1_closed_form, so the
    # patch reaches every run of a sweep too.
    monkeypatch.setattr(existence, "_bn1_closed_form", lambda genus, d: -1)
    with pytest.raises(ArithmeticError):
        verify_inequality(2, 28)
    with pytest.raises(ArithmeticError):
        sweep((2, 3), 5, workers=1)


def test_stepped_closed_forms_equal_the_closed_form_at_each_genus():
    # _bn1_closed_forms takes binomials at the run's first genus only and
    # steps along G; every entry must be the closed form at its own genus,
    # from genus_bound(h) and from the least admissible genus 2m+4 on.
    def runs():
        for h in range(1, 61):
            m = (3 * h + 1) // 2
            yield h, genus_bound(h), 301
            yield h, 2 * m + 4, 40
        yield 700, genus_bound(700), 301

    for h, g0, count in runs():
        d = critical_degree(h, g0)
        expected = [existence._bn1_closed_form(G, d + G - g0) for G in range(g0, g0 + count)]
        assert existence._bn1_closed_forms(g0, d, count) == expected, (h, g0)
        assert existence._bn1_closed_forms(g0, d, 1) == expected[:1], (h, g0)


def test_expansion_route_needs_no_binomials(monkeypatch):
    # The two routes of the left side stay independent: the expansion
    # route reaches the closed form's values without any binomial.
    grid = [(g, d) for g in range(0, 14) for d in range((g + 2) // 2, g + 4) if d >= 1]
    grid += [(g, critical_degree(h, g)) for h in range(1, 9) for g in range(genus_bound(h), genus_bound(h) + 5)]
    expected = {(g, d): existence._bn1_closed_form(g, d) for g, d in grid}
    # The sweep's form: one class per acceptance run (h in [1, 8], margin
    # 300), paired at every genus of the run.
    runs = {h: range(genus_bound(h), genus_bound(h) + 301) for h in range(1, 9)}
    run_values = {h: [existence._bn1_closed_form(g, critical_degree(h, g)) for g in run] for h, run in runs.items()}

    def refuse(*args):
        raise AssertionError("the expansion route used a binomial")

    monkeypatch.setattr(existence, "binomial", refuse)
    monkeypatch.setattr(cohomology, "binomial", refuse)
    for (g, d), value in expected.items():
        (numerator,), denominator = existence._bn1_expansions(g, d, 1)
        assert Fraction(numerator, denominator) == value
    for h, run in runs.items():
        g0, m = run[0], (3 * h + 1) // 2
        cls = bn1_class(g0, critical_degree(h, g0))
        numerators = cohomology.top_numerators(cls, g0 - 2 * m - 3, len(run))
        assert numerators == [value * cls._denominator for value in run_values[h]], h


def test_last_case_of_a_sweep_has_its_largest_left_side():
    # theorem-a --h-range refuses an unprintable sweep from the left side of
    # its last case alone, before it sweeps.  That case has the largest left
    # side: at margins 0, 1 and 300 the left side at (h, genus_bound(h) + M)
    # strictly increases with h, and for each h it increases with g.
    reports = sweep((1, 40), 300, workers=1)
    lhs = {(r.h, r.g): r.lhs for r in reports}
    for margin in (0, 1, 300):
        sides = [lhs[h, genus_bound(h) + margin] for h in range(1, 41)]
        assert all(a < b for a, b in zip(sides, sides[1:])), margin
    for h in range(1, 41):
        base = genus_bound(h)
        sides = [lhs[h, g] for g in range(base, base + 301)]
        assert all(a < b for a, b in zip(sides, sides[1:])), h


def test_verifier_multiplies_term_pairs(monkeypatch):
    # The expansion route and the audit stay on the schoolbook product: the
    # packed product never runs inside them.
    def refuse(*args):
        raise AssertionError("the verifier took the packed product")

    monkeypatch.setattr(cohomology, "_dense_product", refuse)
    for h, g in [*((h, genus_bound(h)) for h in range(1, 41)), (60, 16471)]:
        assert verify_inequality(h, g).strict is True
        audit_proof_chain(h, g)


def test_routes_agree_across_small_sweep():
    for h in range(1, 6):
        base = genus_bound(h)
        for g in range(base, base + 8):
            report = verify_inequality(h, g)
            assert report.lhs == report.lhs_via_expansion
            assert report.strict is True


def test_even_rhs_factorization_is_catalan():
    # The pulled-back side for h = 2e factors as (g - 6e - 3) times the
    # Castelnuovo count (2e)!/(e!(e+1)!), the e-th Catalan number.
    for e in range(1, 11):
        count = castelnuovo_count(2 * e, 1, e + 1)
        assert count == factorial(2 * e) // (factorial(e) * factorial(e + 1))
        assert count == binomial(2 * e, e) // (e + 1)
        g = genus_bound(2 * e)
        report = verify_inequality(2 * e, g)
        assert report.rhs == (g - 6 * e - 3) * count


def test_rhs_matches_pushforward_pairing_route():
    # The pulled-back contribution can also be computed by pushing the
    # complementary x-power down to the base-curve ambient and pairing
    # there: the push contributes C(2d-g-1, k) and the pairing the base
    # count, reproducing the verifier's right side for both parities.
    for h in range(1, 7):
        base = genus_bound(h)
        for g in range(base, base + 6):
            report = verify_inequality(h, g)
            e = report.e
            if report.parity == "even":
                small = bn1_class(h, e + 1)
                k = g - 6 * e - 4
                x_power = g - 6 * e - 3
            else:
                small = bn1_class(h, e + 2)
                k = g - 6 * e - 9
                x_power = g - 6 * e - 7
            assert pair_via_pushforward(small, k, x_power) == report.rhs


def test_odd_rhs_class_route_matches_closed_form():
    for e in range(0, 11):
        h = 2 * e + 1
        pairing = evaluate_top(
            mul_classes(bn1_class(h, e + 2), monomial(h, e + 2, 2, 0))
        )
        closed = Fraction(factorial(2 * e + 1), factorial(e) * factorial(e + 1))
        if e >= 1:
            closed -= Fraction(factorial(2 * e + 1), factorial(e - 1) * factorial(e + 2))
        assert pairing == closed
        for g in (6 * e + 8, 6 * e + 20):
            report = verify_inequality(h, g)
            assert report.rhs == binomial(g - 6 * e - 7, 2) * closed


# Hand arithmetic for the audit fixtures at (h, g) = (2, 28), e = 1:
#   cs_window            6 <= (28-6)/2 = 11          holds
#   pullback_rho         rho(2,1,2) = 0 >= 0          holds
#   composed_dim         0 < 1                        holds
#   equidim_genus        28 >= (2*5-3)(5-1) = 28      holds
#   bpfpt_chain          3 >= 3                       holds
#   residual_case        12 < 21                      holds
#   martens_mumford      2(13-3)-5 = 15 <= 13+3-1     holds
#   mm_vs_cs             13 <= 11                     FAILS
#   castelnuovo_pairing  1 == 1                       holds
#   final_strict         77805 > 19                   holds
# Sides are ints, except the window (g-3h)/2 and the expanded pairing.
EXPECTED_2_28 = {
    "cs_window": (6, "<=", Fraction(11), True),
    "pullback_rho": (0, ">=", 0, True),
    "composed_dim": (0, "<", 1, True),
    "equidim_genus": (28, ">=", 28, True),
    "bpfpt_chain": (3, ">=", 3, True),
    "residual_case": (12, "<", 21, True),
    "martens_mumford": (15, "<=", 15, True),
    "mm_vs_cs": (13, "<=", Fraction(11), False),
    "castelnuovo_pairing": (Fraction(1), "==", 1, True),
    "final_strict": (77805, ">", 19, True),
}


def test_audit_2_28_flags_exactly_the_window_step():
    audit = audit_proof_chain(2, 28)
    assert [step.name for step in audit.steps] == list(EXPECTED_2_28)
    for step in audit.steps:
        lhs, relation, rhs, holds = EXPECTED_2_28[step.name]
        assert (step.lhs, step.relation, step.rhs, step.holds) == (lhs, relation, rhs, holds)
        assert (type(step.lhs), type(step.rhs), type(step.holds)) == (type(lhs), type(rhs), bool), step.name
    assert [step.name for step in audit.failures()] == ["mm_vs_cs"]
    assert audit.all_hold is False


def test_audit_4_91_all_steps_hold():
    audit = audit_proof_chain(4, 91)
    assert audit.all_hold is True
    # Spot checks: 9e+4 = 22 fits under (91-12)/2 = 79/2, and the genus
    # hypothesis is tight: 91 = (2*8-3)(8-1).
    by_name = {step.name: step for step in audit.steps}
    assert by_name["mm_vs_cs"].lhs == 22
    assert by_name["mm_vs_cs"].rhs == Fraction(79, 2)
    assert by_name["equidim_genus"].rhs == 91


def test_audit_1_15_reports_both_boundary_failures():
    audit = audit_proof_chain(1, 15)
    by_name = {step.name: step for step in audit.steps}
    assert by_name["mm_vs_cs_odd"].lhs == 10
    assert by_name["mm_vs_cs_odd"].rhs == 6
    assert by_name["mm_vs_cs_odd"].holds is False
    # At the smallest odd-case genus the residual-series case is not
    # contradicted either: 12e = 0 is not strictly below g - 15 = 0.
    assert by_name["residual_case_odd"].holds is False
    assert {step.name for step in audit.failures()} == {"mm_vs_cs_odd", "residual_case_odd"}
    assert by_name["final_strict_odd"].lhs == 910


def test_audit_holds_matches_relation_on_exact_sides():
    for h, g in ((1, 15), (2, 28), (2, 40), (3, 66), (4, 91), (5, 120)):
        for step in audit_proof_chain(h, g).steps:
            assert step.holds == _RELATIONS[step.relation](step.lhs, step.rhs)


def test_audit_odd_steps_carry_suffix():
    names = [step.name for step in audit_proof_chain(3, 66).steps]
    assert all(name.endswith("_odd") for name in names)
    assert "mm_vs_cs_odd" in names


def test_sweep_single_pair_matches_verify():
    assert sweep((2, 2), 0) == [verify_inequality(2, 28)]


def test_sweep_empty_interval():
    assert sweep((5, 4), 10) == []


def test_sweep_order_and_worker_independence():
    serial = sweep((1, 3), 4, workers=1)
    parallel = sweep((1, 3), 4, workers=2)
    assert serial == parallel
    expected_pairs = [
        (h, g)
        for h in range(1, 4)
        for g in range(genus_bound(h), genus_bound(h) + 5)
    ]
    assert [(r.h, r.g) for r in serial] == expected_pairs


def test_sweep_rejects_negative_margin():
    with pytest.raises(ValueError):
        sweep((1, 2), -1)


def test_sweep_validates_before_it_allocates():
    # One task per base genus: a range of 10^30 genera starting at 0 must
    # be refused before any task is built.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^base genus must be at least 1, got 0$"):
        sweep((0, 10**30), workers=1)
    with pytest.raises(ValueError, match="^g_margin must be nonnegative, got -1$"):
        sweep((0, 10**30), -1)
    assert time.perf_counter() - start < 1
    assert sweep((0, -1)) == []


class _Sentinel(Exception):
    """Raised by a patched kernel; module-level so that a child can pickle it."""


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_over_more_base_genera_than_sys_maxsize(monkeypatch, workers):
    # 10^30 base genera are more than len() can count: the process count is
    # taken from a slice, and the first task's error arrives, not an
    # OverflowError, with no child left behind.
    def fail(h, g0, count):
        raise _Sentinel(h)

    monkeypatch.setattr(existence, "_genus_sides", fail)
    with pytest.raises(_Sentinel):
        sweep((1, 10**30), 0, workers=workers)
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_pooled_sweep_equals_serial(workers):
    # (1, 5) with margin 3 is 5 tasks, split unevenly between the caller
    # (every W-th) and the pool for W = 2 and 3; (4, 4) never starts a pool.
    for h_range, cases in (((1, 5), 20), ((4, 4), 4), ((5, 4), 0)):
        serial = sweep(h_range, 3, workers=1)
        pooled = sweep(h_range, 3, workers=workers)
        assert len(serial) == cases
        assert pooled == serial
        for report in pooled:
            assert type(report.lhs) is type(report.rhs) is int
            assert report.lhs_via_expansion is report.lhs
            assert type(report.strict) is bool


def test_pool_worker_task_returns_integer_sides():
    pairs = existence._genus_sides(3, genus_bound(3), 5)
    assert type(pairs) is list
    assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs)
    assert all(type(side) is int for pair in pairs for side in pair)
    assert pairs == [(int(r.lhs), int(r.rhs)) for r in sweep((3, 3), 4, workers=1)]


def test_sweep_kernel_equals_the_one_genus_call():
    # The per-base-genus kernel derives m, p and the base-curve closed form
    # once; every genus of its run must get the sides the one-genus call
    # derives from scratch.
    for h in range(1, 25):
        base = genus_bound(h)
        one_genus = [existence._genus_sides(h, g, 1)[0] for g in range(base, base + 21)]
        assert existence._genus_sides(h, base, 21) == one_genus, h


def test_rank1_class_is_the_same_stored_form_at_every_genus_of_a_run():
    # The kernel builds the critical rank-1 class once per base genus, at the
    # run's least genus: with k = g - d = m + 1 at every g, the stored
    # numerators and denominator cannot depend on g.  Every acceptance and
    # wide-sweep run (h in [1, 24], margin 300) ...
    def same_form(h, genera):
        first = bn1_class(genera[0], critical_degree(h, genera[0]))
        for g in genera:
            cls = bn1_class(g, critical_degree(h, g))
            assert (cls._numerators, cls._denominator) == (first._numerators, first._denominator), (h, g)

    for h in range(1, 25):
        same_form(h, range(genus_bound(h), genus_bound(h) + 301))
    # ... and, from the least admissible genus 2m+4 on, every run up to
    # h = 40 (margin 100).
    for h in range(1, 41):
        same_form(h, range(2 * ((3 * h + 1) // 2) + 4, genus_bound(h) + 101))


def test_each_batched_pairing_is_the_one_genus_pairing_of_its_own_class():
    for h in range(1, 25):
        m, g0 = (3 * h + 1) // 2, genus_bound(h)
        run = range(g0, g0 + 301)
        batched = cohomology.top_numerators(bn1_class(g0, g0 - m - 1), g0 - 2 * m - 3, len(run))
        assert batched == [cohomology.top_numerators(bn1_class(g, g - m - 1), g - 2 * m - 3, 1)[0] for g in run], h


def test_sweep_reports_equal_single_verifications_field_by_field():
    for report in sweep((1, 6), 12, workers=1):
        single = verify_inequality(report.h, report.g)
        for field in InequalityReport._fields:
            value, expected = getattr(report, field), getattr(single, field)
            assert type(value) is type(expected), field
            assert value == expected, field
        assert type(report.lhs) is type(report.rhs) is int
        assert report.lhs_via_expansion is report.lhs
        assert type(report.strict) is bool


def test_serial_sweep_expands_one_class_per_base_genus_and_pairs_it_per_case(monkeypatch):
    # The two-route rule: the rank-1 locus class is expanded in the x/theta
    # ring once per base genus, at the run's least genus, and paired with
    # x^(g-2m-3) by Poincare's formula at every genus of the run.
    expansions, pairings, numerators = [], [], []
    real_bn1, real_tops = existence.bn1_class, existence.top_numerators

    def count_bn1(g, d):
        expansions.append((g, d))
        return real_bn1(g, d)

    def count_tops(cls, x_power, count):
        pairings.append((cls.genus, cls.sym_index, x_power, count))
        values = real_tops(cls, x_power, count)
        numerators.extend(values)
        return values

    monkeypatch.setattr(existence, "bn1_class", count_bn1)
    monkeypatch.setattr(existence, "top_numerators", count_tops)
    reports = sweep((1, 8), 300, workers=1)
    assert len(reports) == len(numerators) == 2408
    bases = {h: genus_bound(h) for h in range(1, 9)}
    assert expansions == [(g0, critical_degree(h, g0)) for h, g0 in bases.items()]
    assert pairings == [
        (g0, critical_degree(h, g0), g0 - 2 * ((3 * h + 1) // 2) - 3, 301) for h, g0 in bases.items()
    ]
    # Report order, each numerator the closed form times the class's denominator.
    denominators = {h: real_bn1(g0, critical_degree(h, g0))._denominator for h, g0 in bases.items()}
    assert numerators == [r.lhs.numerator * denominators[r.h] for r in reports]


def _assert_no_child_left():
    # waitpid(-1) raises ChildProcessError only when no child, running or
    # a zombie, is left to reap.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks only where os.fork exists")


@_needs_fork
def test_pool_starts_no_idle_process(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(existence.os, "fork", counting_fork)
    counts = []
    for h_range, workers in (
        ((2, 3), 8),  # the caller takes h = 2, one child h = 3
        ((1, 5), 3),  # the caller takes h = 1, 4; two children the rest
        ((1, 5), 2),  # the caller takes h = 1, 3, 5; one child h = 2, 4
        ((1, 1), 8),  # one task: no child
    ):
        before = len(forks)
        sweep(h_range, 0, workers=workers)
        counts.append(len(forks) - before)
    assert counts == [1, 2, 1, 0]
    _assert_no_child_left()


@_needs_fork
def test_each_child_takes_every_wth_base_genus(monkeypatch):
    # The caller verifies h_lo, h_lo + W, ...; child i takes the base genera
    # i, i + W, ... places after it, and no child is forked without one.
    shares = []
    real = existence._fork_share

    def spy(share, count):
        shares.append(list(share))
        return real(share, count)

    monkeypatch.setattr(existence, "_fork_share", spy)
    expected = {
        ((1, 5), 2): [[2, 4]],
        ((1, 5), 3): [[2, 5], [3]],
        ((2, 3), 8): [[3]],
        ((1, 9), 4): [[2, 6], [3, 7], [4, 8]],
    }
    for (h_range, workers), children in expected.items():
        shares.clear()
        assert sweep(h_range, 1, workers=workers) == sweep(h_range, 1, workers=1)
        assert shares == children, (h_range, workers)
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_counts_below_one_sweep_in_the_caller(monkeypatch, workers):
    # The serial sweep is the forked path with no child: W < 1 forks nothing.
    shares = []
    real = existence._fork_share

    def spy(share, count):
        shares.append(share)
        return real(share, count)

    monkeypatch.setattr(existence, "_fork_share", spy)
    assert sweep((1, 8), 5, workers=workers) == sweep((1, 8), 5, workers=1)
    assert shares == []
    _assert_no_child_left()


@_needs_fork
def test_default_worker_count_follows_cpu_affinity(monkeypatch):
    # One CPU the process may run on, on a machine with four: no child.
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(existence.os, "fork", counting_fork)
    monkeypatch.setattr(existence.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(existence.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert sweep((1, 5), 0) == sweep((1, 5), 0, workers=1)
    assert forks == []


@_needs_fork
@pytest.mark.parametrize("h", [3, 2], ids=["caller-share", "worker-share"])
def test_pooled_route_disagreement_surfaces_the_serial_error(monkeypatch, h):
    # With 2 workers over h in [1, 5] the caller verifies h = 1, 3, 5 and one
    # child h = 2, 4.  The patch is in place before the child forks.
    bad_g = genus_bound(h) + 1
    real = existence.top_numerators

    def disagree(cls, x_power, count):
        values = real(cls, x_power, count)
        return [-cls._denominator if g == bad_g else n for g, n in enumerate(values, cls.genus)]

    monkeypatch.setattr(existence, "top_numerators", disagree)
    with pytest.raises(ArithmeticError) as serial:
        sweep((1, 5), 3, workers=1)
    with pytest.raises(ArithmeticError) as pooled:
        sweep((1, 5), 3, workers=2)
    assert type(pooled.value) is type(serial.value)
    assert str(pooled.value) == str(serial.value)
    assert str(serial.value).startswith(f"internal consistency failure at (h={h}, g={bad_g}): closed form ")
    _assert_no_child_left()


@_needs_fork
def test_killed_child_raises_child_process_error_naming_its_base_genera(monkeypatch):
    # With 3 workers over h in [1, 5] the caller verifies h = 1, 4, the first
    # child h = 2, 5 and the second h = 3.  The first child kills itself.
    real = existence._genus_sides

    def die_at_h5(h, g0, count):
        if h == 5:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(h, g0, count)

    monkeypatch.setattr(existence, "_genus_sides", die_at_h5)
    with pytest.raises(ChildProcessError) as killed:
        sweep((1, 5), 2, workers=3)
    message = str(killed.value)
    assert "base genera 2, 5 " in message
    assert f"wait status {int(signal.SIGKILL)})" in message
    _assert_no_child_left()


@_needs_fork
def test_caller_error_kills_a_stuck_child_at_once(monkeypatch):
    # The caller verifies h = 1 and fails; the child (h = 2) would sleep for
    # a minute, and is killed and reaped instead of awaited.
    caller = os.getpid()

    def stuck_or_fail(h, g0, count):
        if os.getpid() == caller:
            raise ArithmeticError("the caller's share failed")
        time.sleep(60)

    monkeypatch.setattr(existence, "_genus_sides", stuck_or_fail)
    start = time.monotonic()
    with pytest.raises(ArithmeticError, match="the caller's share failed"):
        sweep((1, 2), 0, workers=2)
    assert time.monotonic() - start < 5
    _assert_no_child_left()


@_needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to list open descriptors")
def test_forked_sweeps_leave_no_descriptor_open(monkeypatch):
    # Every pipe end the sweep opens is closed again, whether the sweep
    # succeeds, a child raises, a child is killed or the caller's share
    # raises.
    real_tops, real_sides = existence.top_numerators, existence._genus_sides
    caller = os.getpid()

    def child_disagrees(cls, x_power, count):
        # With 2 workers over h in [1, 5] the child takes h = 2, 4.
        return [-cls._denominator] * count if cls.genus == genus_bound(2) else real_tops(cls, x_power, count)

    def die_at_h5(h, g0, count):
        if h == 5:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_sides(h, g0, count)

    def stuck_or_fail(h, g0, count):
        if os.getpid() == caller:
            raise ArithmeticError("the caller's share failed")
        time.sleep(60)

    def open_fds():
        return sorted(os.listdir("/proc/self/fd"))

    for workers in (2, 3, 8):
        before = open_fds()
        assert len(sweep((1, 8), 5, workers=workers)) == 48
        assert open_fds() == before, workers
    for name, patch, error, workers in (
        ("top_numerators", child_disagrees, ArithmeticError, 2),
        ("_genus_sides", die_at_h5, ChildProcessError, 3),
        ("_genus_sides", stuck_or_fail, ArithmeticError, 2),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(existence, name, patch)
            before = open_fds()
            with pytest.raises(error):
                sweep((1, 5), 2, workers=workers)
            assert open_fds() == before, patch.__name__
    _assert_no_child_left()


@_needs_fork
def test_children_never_flush_the_callers_stdout(child_env):
    # stdout is a pipe here, so the marker waits in the caller's buffer while
    # two children fork; only the caller may write it.
    script = (
        "from triplecover.existence import sweep\n"
        "print('marker')\n"
        "assert len(sweep((1, 5), 0, workers=3)) == 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "marker\n"


def test_importing_the_cli_loads_no_process_pool(child_env):
    script = (
        "import sys, triplecover.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sweep_without_fork_runs_serially(monkeypatch):
    monkeypatch.delattr(existence.os, "fork", raising=False)
    assert sweep((1, 5), 2, workers=3) == sweep((1, 5), 2, workers=1)


def test_lhs_bits_bounds_the_left_side():
    for h in range(1, 7):
        m = (3 * h + 1) // 2
        for g in range(2 * m + 4, 2 * m + 120, 7):
            lhs = verify_inequality(h, g).lhs
            bits = existence.lhs_bits(h, g)
            assert lhs >= 2**bits if bits >= 0 else True
            assert bits < lhs.numerator.bit_length()
    with pytest.raises(ValueError, match="too small"):
        existence.lhs_bits(2, 9)


# ----------------------------------------------------------------------
# Per-parity reference.  The formulas below are written separately for
# h = 2e and h = 2e + 1, in e, as the argument is usually stated; the
# library may compute the same quantities any other way, but every report,
# audit step (sides and detail text) and vanishing margin must match them.


def _base_pairing(h: int, m: int, x_power: int) -> Fraction:
    return evaluate_top(mul_classes(bn1_class(h, m), monomial(h, m, x_power, 0)))


def _recip_factorial(n: int) -> Fraction:
    """1/n! for n >= 0, and 0 for n < 0, where the term is absent."""
    return Fraction(1, factorial(n)) if n >= 0 else Fraction(0)


def _reference_odd_count(e: int) -> Fraction:
    return factorial(2 * e + 1) * (
        _recip_factorial(e) * _recip_factorial(e + 1) - _recip_factorial(e - 1) * _recip_factorial(e + 2)
    )


def _reference_min_genus(h: int) -> int:
    e = h // 2
    return 6 * e + 4 if h % 2 == 0 else 6 * e + 8


def _reference_report(h: int, g: int) -> InequalityReport:
    e = h // 2
    if h % 2 == 0:
        lhs = Fraction(binomial(g, 3 * e + 2) - binomial(g, 3 * e + 1))
        rhs = Fraction((g - 6 * e - 3) * castelnuovo_count(h, 1, e + 1))
        d = g - 3 * e - 1
    else:
        lhs = Fraction(binomial(g, 3 * e + 3) * (g - 6 * e - 7), 3 * e + 4)
        rhs = binomial(g - 6 * e - 7, 2) * _reference_odd_count(e)
        d = g - 3 * e - 3
    parity = "even" if h % 2 == 0 else "odd"
    return InequalityReport(
        h=h, g=g, e=e, parity=parity, critical_degree=d, lhs=lhs, rhs=rhs, lhs_via_expansion=lhs, strict=lhs > rhs
    )


def _reference_steps(h: int, g: int) -> list[tuple]:
    e = h // 2
    even = h % 2 == 0
    sfx = "" if even else "_odd"
    n = 3 * e + 2 if even else 3 * e + 4
    m_pull = e + 1 if even else e + 2
    m_lo = -(-(h + 2) // 2)
    composed_dim = n - m_lo - h - 1 if m_lo <= (n + 1) // 3 else -1
    beta_min = 3 * e + 3 if even else 3 * e + 5
    slack = beta_min - 3 * e if even else beta_min - 3 * e - 2
    residual_cap = g - 7 if even else g - 15
    beta_cap = 9 * e + 4 if even else 9 * e + 10
    if even:
        doubling_lower, mm_upper = 2 * (beta_cap - 3 * e) - 5, beta_cap + 3 * e - 1
        pairing, expected = _base_pairing(h, e + 1, 1), castelnuovo_count(h, 1, e + 1)
    else:
        doubling_lower, mm_upper = 2 * (beta_cap - 3 * e) - 9, beta_cap + 3 * e + 1
        pairing, expected = _base_pairing(h, e + 2, 2), _reference_odd_count(e)
    report = _reference_report(h, g)
    window = Fraction(g - 3 * h, 2)
    steps = [
        ("cs_window", f"pencils of degree n+1 = {n + 1} fall inside the Castelnuovo-Severi "
         "window: n+1 <= (g-3h)/2", n + 1, "<=", window),
        ("pullback_rho", f"pulled-back pencils of base degree {m_pull} move in a family of "
         f"nonnegative dimension: rho({h}, 1, {m_pull}) >= 0", rho(h, 1, m_pull), ">=", 0),
        ("composed_dim", "the locus of degree-(n+1) pencils composed with the cover has "
         "dimension < 1 (empty locus reported as -1)", composed_dim, "<", 1),
        ("equidim_genus", "genus hypothesis for equi-dimensionality of the pencil loci: "
         f"g >= (2n-3)(n-1) at n = {n}", g, ">=", (2 * n - 3) * (n - 1)),
        ("bpfpt_chain", "base-point-free pencil trick at the minimal base-free degree "
         f"beta = {beta_min}: h0(L^2) >= {slack} >= 3", slack, ">=", 3),
        ("residual_case", "the residual-series case is ruled out by the genus hypothesis: "
         f"12e < {'g-7' if even else 'g-15'}", 12 * e, "<", residual_cap),
        ("martens_mumford", "the doubling dimension bound meets the Martens-Mumford cap "
         f"exactly at beta = {beta_cap}", doubling_lower, "<=", mm_upper),
        ("mm_vs_cs", "the Martens-Mumford cap fits inside the Castelnuovo-Severi "
         f"window: {beta_cap} <= (g-3h)/2", beta_cap, "<=", window),
        ("castelnuovo_pairing", "pairing the rank-1 locus class on the base curve reproduces the "
         "Castelnuovo count", pairing, "==", expected),
        ("final_strict", "the rank-1 locus pairs strictly above the pulled-back pencil "
         "contribution at the critical degree", report.lhs, ">", report.rhs),
    ]
    return [
        (name + sfx, detail, Fraction(lhs), relation, Fraction(rhs), _RELATIONS[relation](lhs, rhs))
        for name, detail, lhs, relation, rhs in steps
    ]


def test_verifier_and_audit_match_the_per_parity_reference():
    for h in range(1, 41):
        low, bound = _reference_min_genus(h), genus_bound(h)
        parity = "even" if h % 2 == 0 else "odd"
        for g in sorted({*range(low - 3, low + 4), *range(bound - 2, bound + 3)}):
            if g < low:
                message = f"genus {g} too small for the {parity}-case arithmetic (needs g >= {low})"
                for check in (verify_inequality, audit_proof_chain):
                    with pytest.raises(ValueError) as info:
                        check(h, g)
                    assert str(info.value) == message
                continue
            assert verify_inequality(h, g) == _reference_report(h, g)
            audit = audit_proof_chain(h, g)
            assert (audit.h, audit.g, audit.e, audit.parity) == (h, g, h // 2, parity)
            assert [
                (s.name, s.detail, s.lhs, s.relation, s.rhs, s.holds) for s in audit.steps
            ] == _reference_steps(h, g)


def test_vanishing_margins_match_the_per_parity_reference():
    for h in range(1, 41):
        e, even = h // 2, h % 2 == 0
        for g in range(3 * h - 2, 12 * h + 60):
            assert section_vanishing_margins(g, h) == VanishingMargins(
                g=g,
                h=h,
                parity="even" if even else "odd",
                twist_degree_2d=2 * (e + 1 if even else e + 2),
                bound_m=Fraction(-g + 6 * h + 4, 3),
                bound_l=Fraction(-g + 6 * h + 2, 2),
                vanishing_guaranteed=g > 6 * h + 4 if even else g > 6 * h + 7,
            )


def test_genus_bound_is_the_equidimensionality_bound_at_n_equal_m_plus_2():
    for h in range(1, 61):
        n = (3 * h + 1) // 2 + 2
        bound = genus_bound(h)
        for g in range(bound - 3, bound + 4):
            assert pencil_dimension_hypothesis(g, n) is (g >= bound), (h, g)


def test_bn1_pairing_closed_form_for_every_genus():
    # On the d-th symmetric product of a genus-G curve, the rank-1 locus
    # class paired against the complementary power x^(2d-G-1) is
    # C(G, d-1) - C(G, d): the left side at (g, g-m-1) and, at the
    # pull-back degree, the base-curve count on the right side.
    cases = 0
    for genus in range(61):
        for d in range(max(1, (genus + 2) // 2), genus + 4):
            x_power = 2 * d - genus - 1
            pairing = evaluate_top(mul_classes(bn1_class(genus, d), monomial(genus, d, x_power, 0)))
            assert pairing == binomial(genus, d - 1) - binomial(genus, d), (genus, d)
            cases += 1
    assert cases == 1113


def test_castelnuovo_pairing_holds_at_the_genus_bound():
    for h in range(1, 201):
        audit = audit_proof_chain(h, genus_bound(h))
        (step,) = [s for s in audit.steps if s.name.startswith("castelnuovo_pairing")]
        assert step.holds and step.lhs == step.rhs > 0, h

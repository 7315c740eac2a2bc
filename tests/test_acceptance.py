"""Acceptance suite: every criterion runs at exact (zero) tolerance and
prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they happen."""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from triplecover.arith import binomial
from triplecover.brill_noether import bn1_class, castelnuovo_count, rho
from triplecover.classexpr import parse
from triplecover.cli import main
from triplecover.cohomology import CohomClass, evaluate_top, monomial, mul_classes, render_class, x_class
from triplecover.cyclic_cover import derive_profile, normalize_t, pencil_gap_report
from triplecover.existence import audit_proof_chain, genus_bound, sweep, verify_inequality
from triplecover.triple_cover import admissible_deltas, derive_geometry, section_vanishing_margins


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {label}")
        raise
    else:
        print(f"[acceptance] criterion {number:2d} PASS  {label}")


def falling(g: int, b: int) -> int:
    out = 1
    for i in range(b):
        out *= g - i
    return out


def test_criterion_01_even_case_smallest_instance():
    with criterion(1, "even-case comparison at (h, g) = (2, 28): 77805 > 19"):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            report = verify_inequality(2, 28)
            best = min(best, time.perf_counter() - start)
        assert report.lhs == 77805
        assert report.rhs == 19
        assert report.lhs_via_expansion == 77805
        assert report.strict is True
        assert best < 0.010, f"runtime {best * 1000:.3f} ms exceeds 10 ms"


def test_criterion_02_odd_case_instance():
    with criterion(2, "odd-case comparison at (h, g) = (1, 15): 910 > 28"):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            report = verify_inequality(1, 15)
            best = min(best, time.perf_counter() - start)
        assert report.lhs == 910
        assert report.rhs == 28
        assert report.lhs_via_expansion == 910
        assert report.strict is True
        assert best < 0.010, f"runtime {best * 1000:.3f} ms exceeds 10 ms"


def test_criterion_03_hypothesis_region_sweep():
    with criterion(3, "sweep h in [1,8], g in [bound, bound+300]: all strict, < 60 s"):
        start = time.perf_counter()
        reports = sweep((1, 8), 300)
        elapsed = time.perf_counter() - start
        assert len(reports) == 8 * 301
        for report in reports:
            assert report.strict is True
            assert report.lhs == report.lhs_via_expansion
        assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"


def test_criterion_04_count_class_duality():
    with criterion(4, "evaluate_top(bn1 * x) equals the Castelnuovo count for rho = 0"):
        seen = {}
        for d in range(2, 9):
            g = 2 * d - 2
            assert rho(g, 1, d) == 0
            pairing = evaluate_top(mul_classes(bn1_class(g, d), x_class(g, d)))
            count = castelnuovo_count(g, 1, d)
            assert pairing == count
            seen[(g, d)] = count
        assert seen[(4, 3)] == 2
        assert seen[(6, 4)] == 5


def test_criterion_05_poincare_grid():
    with criterion(5, "top pairing of x^(d-a)*theta^a equals g!/(g-a)! on the grid"):
        for g in range(1, 11):
            for d in range(0, 11):
                for alpha in range(0, d + 1):
                    value = evaluate_top(monomial(g, d, d - alpha, alpha))
                    if alpha <= g:
                        assert value == falling(g, alpha)
                    else:
                        assert value == 0


def test_criterion_06_audit_findings():
    with criterion(6, "audit verdicts at (2, 28) and (4, 91) match hand arithmetic"):
        # Hand arithmetic for (2, 28), e = 1: the window step compares
        # 9e+4 = 13 against (28-6)/2 = 11 and fails; everything else holds,
        # e.g. genus 28 = (2*5-3)(5-1), residual case 12 < 21, cap crossing
        # 15 <= 15, final comparison 77805 > 19.
        audit = audit_proof_chain(2, 28)
        failing = audit.failures()
        assert [step.name for step in failing] == ["mm_vs_cs"]
        assert failing[0].lhs == 13
        assert failing[0].rhs == 11
        held = {step.name for step in audit.steps if step.holds}
        assert held == {
            "cs_window",
            "pullback_rho",
            "composed_dim",
            "equidim_genus",
            "bpfpt_chain",
            "residual_case",
            "martens_mumford",
            "castelnuovo_pairing",
            "final_strict",
        }
        # Hand arithmetic for (4, 91), e = 2: 9e+4 = 22 <= (91-12)/2 = 39.5,
        # genus 91 = (2*8-3)(8-1), 12e = 24 < 84; every step holds.
        assert audit_proof_chain(4, 91).all_hold is True


def test_criterion_07_miranda_ledger_sweep():
    with criterion(7, "ruled-surface ledger and vanishing margins over h <= 10, g <= 3h+200"):
        for h in range(1, 11):
            guaranteed_from = 6 * h + 4 if h % 2 == 0 else 6 * h + 7
            for g in range(3 * h, 3 * h + 201):
                margins = section_vanishing_margins(g, h)
                for delta in admissible_deltas(g, h):
                    geom = derive_geometry(g, h, delta)
                    assert geom.deg_m + geom.deg_l == 3 * h - g - 2
                    assert geom.deg_m <= Fraction(-g + 3 * h - 2, 3)
                    assert geom.deg_l <= Fraction(-g + 4 * h - 2, 2)
                if g > guaranteed_from:
                    assert margins.vanishing_guaranteed
                    assert margins.bound_m < 0
                    assert margins.bound_l < 0
                else:
                    assert not margins.vanishing_guaranteed


def test_criterion_08_cyclic_ledger():
    with criterion(8, "cyclic-cover ledger over h <= 8, g <= 3h+150, all congruent t"):
        for h in range(1, 9):
            for g in range(3 * h - 1, 3 * h + 151):
                branch = g - 3 * h + 2
                for t in range(0, branch + 1):
                    if (t - (2 * g - 2)) % 3 != 0:
                        continue
                    profile = derive_profile(g, h, t)
                    assert t + 3 * profile.k1 == 2 * g - 2
                    if profile.dim_h1 is not None and profile.dim_h2 is not None:
                        assert profile.dim_h0 + profile.dim_h1 + profile.dim_h2 == g
                    normalized = normalize_t(g, h, t)
                    assert normalize_t(g, h, normalized) == normalized
        report = pencil_gap_report(15, 1, 10)
        assert (
            report.cs_bound,
            report.composed_below,
            report.exists_at_most,
            report.theorem_a_degree,
        ) == (6, Fraction(8), 10, 12)


def test_criterion_09_parser_round_trip_and_error_exits(capsys):
    with criterion(9, "1000 random round trips; bn1 anchor; three error classes exit 2"):
        rng = random.Random(77805)
        for _ in range(1000):
            g = rng.randint(0, 8)
            d = rng.randint(0, 8)
            terms = {}
            for _ in range(rng.randint(0, 5)):
                a = rng.randint(0, d)
                b = rng.randint(0, min(d, g))
                coeff = Fraction(rng.randint(-30, 30), rng.randint(1, 16))
                terms[(a, b)] = terms.get((a, b), Fraction(0)) + coeff
            cls = CohomClass(g, d, terms)
            assert parse(render_class(cls), g, d) == cls
        assert parse("theta^2/2 - x*theta", 4, 3) == bn1_class(4, 3)
        for expr in ("x + * theta", "1/0", "bn1(2)"):
            code = main(["eval", "--g", "4", "--d", "3", "--expr", expr])
            capsys.readouterr()
            assert code == 2, f"expected exit 2 for {expr!r}"


def test_criterion_10_cli_sweep_determinism(tmp_path, monkeypatch, capsys):
    with criterion(10, "theorem-a sweep JSON is byte-identical with 1 and 8 workers"):
        outputs = []
        for workers in ("1", "8"):
            target = tmp_path / f"sweep_{workers}.json"
            monkeypatch.setenv("TRIPLECOVER_WORKERS", workers)
            code = main(
                [
                    "theorem-a",
                    "--h-range", "1", "4",
                    "--g-margin", "25",
                    "--format", "json",
                    "--out", str(target),
                ]
            )
            capsys.readouterr()
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]
        rows = json.loads(outputs[0])
        assert len(rows) == 4 * 26
        assert all(row["strict"] is True for row in rows)
        expected = [
            (str(h), str(g))
            for h in range(1, 5)
            for g in range(genus_bound(h), genus_bound(h) + 26)
        ]
        assert [(row["h"], row["g"]) for row in rows] == expected


def test_criterion_binomial_anchor_for_lhs():
    # Supporting oracle shared by criteria 1 and 2: the closed forms reduce
    # to binomial differences, checked here against the multiplicative
    # binomial route.
    assert binomial(28, 5) - binomial(28, 4) == 77805
    assert binomial(29, 5) - binomial(29, 4) == 95004
    assert Fraction(15 * 14 * 13 * 8, 24) == 910

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from triplecover import (
    AuditStep,
    CyclicCoverProfile,
    Feasibility,
    InequalityReport,
    PencilGapReport,
    ProofAudit,
    ReducednessBounds,
    TripleCoverGeometry,
    TwistedDegrees,
    VanishingMargins,
    cli,
)
from triplecover.arith import exceeds_str_digits
from triplecover.classexpr import _Token
from triplecover.cli import main
from triplecover.cohomology import CohomClass
from triplecover.existence import genus_bound, lhs_bits, sweep

def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho_table(capsys):
    code, out, _ = run(capsys, "rho", "--g", "4", "--r", "1", "--d", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["g", "r", "d", "rho"]
    assert lines[1].split() == ["4", "1", "3", "0"]


def test_count_happy_path(capsys):
    code, out, _ = run(capsys, "count", "--g", "6", "--r", "1", "--d", "4", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row == {"g": "6", "r": "1", "d": "4", "rho": "0", "count": "5"}


def test_count_requires_rho_zero(capsys):
    code, _, err = run(capsys, "count", "--g", "3", "--r", "1", "--d", "3")
    assert code == 2
    assert "rho" in err


def test_theorem_a_single_pair(capsys):
    code, out, _ = run(capsys, "theorem-a", "--h", "2", "--g", "28", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row["lhs"] == "77805"
    assert row["rhs"] == "19"
    assert row["lhs_via_expansion"] == "77805"
    assert row["strict"] is True
    assert row["critical_degree"] == "24"


def test_theorem_a_sweep_empty(capsys):
    code, out, _ = run(capsys, "theorem-a", "--h-range", "5", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == []


def test_theorem_a_flag_conflicts(capsys):
    code, _, err = run(capsys, "theorem-a", "--h", "2", "--g", "28", "--h-range", "1", "2")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "theorem-a", "--h", "2")
    assert code == 2


def test_audit_reports_violation_with_exit_one(capsys):
    code, out, _ = run(capsys, "audit", "--h", "2", "--g", "28", "--format", "json")
    assert code == 1
    rows = json.loads(out)
    assert len(rows) == 10
    assert all(set(rows[0]) == set(row) for row in rows)
    failing = [row for row in rows if row["holds"] is False]
    assert [row["step"] for row in failing] == ["mm_vs_cs"]
    assert failing[0]["lhs"] == "13"
    assert failing[0]["rhs"] == "11"


def test_audit_all_holding_exits_zero(capsys):
    code, _, _ = run(capsys, "audit", "--h", "4", "--g", "91")
    assert code == 0


def test_audit_half_integer_rationals_in_csv(capsys):
    code, out, _ = run(capsys, "audit", "--h", "1", "--g", "16", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["h", "g", "e", "parity", "step", "lhs", "relation", "rhs", "holds", "detail"]
    window = next(row for row in rows[1:] if row[4] == "cs_window_odd")
    assert window[7] == "13/2"


def test_eval_counts_trigonal_pencils(capsys):
    code, out, _ = run(capsys, "eval", "--g", "4", "--d", "3", "--expr", "bn1(3)*x")
    assert code == 0
    row = out.strip().splitlines()[1].split()
    assert row[-1] == "2"


def test_eval_negative_canonical_cell_round_trips_through_expr_equals(capsys):
    # argparse reads "-x*theta" after a space as a flag, so an expression
    # that starts with '-', such as a one-term negative class's canonical
    # cell, is passed as --expr=...
    code, _, err = run(capsys, "eval", "--g", "4", "--d", "3", "--expr", "-x*theta")
    assert code == 2
    assert "argument --expr: expected one argument" in err
    code, out, _ = run(capsys, "eval", "--g", "4", "--d", "3", "--expr=-x*theta", "--format", "csv")
    assert code == 0
    [row] = list(csv.DictReader(io.StringIO(out)))
    assert row["canonical"] == "-x*theta"
    assert run(capsys, "eval", "--g", "4", "--d", "3", f"--expr={row['canonical']}", "--format", "csv") == (0, out, "")


def test_eval_verbose_notes_on_stderr(capsys):
    code, out, err = run(
        capsys, "eval", "--g", "4", "--d", "3", "--expr", "x^4 + x", "--verbose",
        "--format", "json",
    )
    assert code == 0
    assert "dropped x^4" in err
    [row] = json.loads(out)
    assert row["canonical"] == "x"


def test_eval_error_classes_exit_two(capsys):
    for expr in ("x +", "1/0", "bn1(2)"):
        code, _, err = run(capsys, "eval", "--g", "4", "--d", "3", "--expr", expr)
        assert code == 2, expr
        assert err.startswith("error:")


def test_eval_bn1_on_the_zeroth_symmetric_product_exits_two(capsys):
    code, out, err = run(capsys, "eval", "--g", "3", "--d", "0", "--expr", "bn1(0)")
    assert (code, out) == (2, "")
    assert err == "error: at position 1: bn1(0) is undefined: the symmetric-product index must be at least 1\n"


def test_eval_non_decimal_digit_is_a_positioned_error(capsys):
    code, _, err = run(capsys, "eval", "--g", "4", "--d", "3", "--expr", "x^\u00b2")
    assert code == 2
    assert err == "error: at position 3: expected a token, found '\u00b2'\n"
    assert "invalid literal" not in err


def test_pushpull(capsys):
    code, out, _ = run(
        capsys,
        "pushpull", "--g", "28", "--d", "19", "--k", "18", "--expr", "x^19",
        "--format", "json",
    )
    assert code == 0
    [row] = json.loads(out)
    assert row["result"] == "19*x"
    assert row["result_sym_index"] == "1"


def test_pushpull_rejects_theta(capsys):
    code, _, err = run(capsys, "pushpull", "--g", "4", "--d", "3", "--k", "1", "--expr", "theta")
    assert code == 2
    assert "polynomials in x" in err


def test_pushpull_refuses_an_unprintable_result_before_its_binomials(capsys):
    # C(2000000, 1000000) alone took 11 s, and rendering then refused the
    # result; the bound refuses it first, with the renderer's message.
    start = time.perf_counter()
    code, out, err = run(capsys, "pushpull", "--g", "5", "--d", "2000000", "--k", "1000000", "--expr", "x^2000000")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == (
        f"error: column 'result' holds an integer of more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for converting integers to text\n"
    )
    # pushforward_B's own checks come first and keep their messages.
    code, _, err = run(capsys, "pushpull", "--g", "5", "--d", "2000000", "--k", "-1", "--expr", "x^2000000")
    assert (code, err) == (2, "error: push-forward index must be nonnegative, got -1\n")
    code, _, err = run(capsys, "pushpull", "--g", "5", "--d", "2000000", "--k", "1000000", "--expr", "x^2000000+theta")
    assert code == 2
    assert "polynomials in x" in err


def test_cs_bound_and_lemma11(capsys):
    code, out, _ = run(capsys, "cs-bound", "--g", "28", "--h", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["max_degree"] == "11"
    code, out, _ = run(capsys, "lemma11", "--g", "28", "--n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["satisfied"] is True


def test_miranda_all(capsys):
    code, out, _ = run(capsys, "miranda", "--g", "28", "--h", "2", "--all", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["delta"] for row in rows] == ["-2", "0", "2", "4", "6", "8"]
    zero = next(row for row in rows if row["delta"] == "0")
    assert zero["det_e_degree"] == "-24"
    assert zero["fx_fiber_coeff"] == "12"


def test_miranda_single_delta_and_errors(capsys):
    code, out, _ = run(capsys, "miranda", "--g", "28", "--h", "2", "--delta", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["n"] == "-11"
    code, _, err = run(capsys, "miranda", "--g", "28", "--h", "2", "--delta", "1")
    assert code == 2 and "parity" in err
    code, _, err = run(capsys, "miranda", "--g", "28", "--h", "2")
    assert code == 2
    code, _, err = run(capsys, "miranda", "--g", "28", "--h", "2", "--delta", "0", "--all")
    assert code == 2


def test_lemma21_record_and_per_delta(capsys):
    code, out, _ = run(capsys, "lemma21", "--g", "28", "--h", "2", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row["bound_m"] == "-4"
    assert row["bound_l"] == "-7"
    assert row["vanishing_guaranteed"] is True
    code, out, _ = run(capsys, "lemma21", "--g", "28", "--h", "2", "--per-delta", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(int(row["deg_m_twisted"]) < 0 for row in rows)


def test_lemma21_rejects_genera_below_riemann_hurwitz(capsys):
    code, _, err = run(capsys, "lemma21", "--g", "-5", "--h", "1")
    assert code == 2
    assert "needs g >= 3h - 2 (Riemann-Hurwitz)" in err
    code, _, err = run(capsys, "lemma21", "--g", "-5", "--h", "1", "--per-delta")
    assert code == 2
    assert "triple-cover numerology needs g >= 3h," in err
    # g = 3h - 2 is a genus a triple cover can have; its per-delta ledger is not.
    code, _, _ = run(capsys, "lemma21", "--g", "1", "--h", "1")
    assert code == 0
    code, _, err = run(capsys, "lemma21", "--g", "1", "--h", "1", "--per-delta")
    assert code == 2
    assert "triple-cover numerology needs g >= 3h," in err


def test_reducedness(capsys):
    code, out, _ = run(capsys, "reducedness", "--h", "3", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert (row["direct"], row["alternative"]) == ("26", "39")


def test_cyclic_profile_none_renders_empty(capsys):
    code, out, _ = run(capsys, "cyclic", "--g", "15", "--h", "1", "--t", "10", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert (row["k1"], row["k2"]) == ("6", "8")
    code, out, _ = run(capsys, "cyclic", "--g", "15", "--h", "1", "--t", "9")
    assert code == 2


def test_gap_report(capsys):
    code, out, _ = run(capsys, "gap", "--g", "15", "--h", "1", "--t", "10", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row["cs_bound"] == "6"
    assert row["composed_below"] == "8"
    assert row["largest_excluded"] == "7"
    assert row["exists_at_most"] == "10"
    assert row["theorem_a_degree"] == "12"


def test_gap_names_the_normalized_split(capsys):
    code, out, err = run(capsys, "gap", "--g", "15", "--h", "1", "--t", "4")
    assert (code, out) == (2, "")
    assert err.rstrip().endswith("the same cover has t = 10")
    assert "normalize_t" not in err


def test_feasible(capsys):
    code, out, _ = run(capsys, "feasible", "--g", "15", "--h", "1", "--t", "10", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row["feasible"] is True and row["ell"] == "2"
    code, out, _ = run(capsys, "feasible", "--g", "15", "--h", "1", "--t", "5", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row["feasible"] is False and row["ell"] is None


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "theorem-a", "--h", "1", "--g", "15", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["lhs"] == "910"


def test_unknown_subcommand_shows_usage(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "usage" in err.lower()


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "rho", "--g", "4")
    assert code == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_repeated_calls_in_one_process_share_no_state(capsys):
    # The parser is built once per process; a call's output must not depend
    # on the calls made before it.
    probes = [
        ["theorem-a", "--h", "2", "--g", "28", "--format", "csv"],
        ["miranda", "--g", "30", "--h", "2", "--all"],
        ["lemma21", "--g", "30", "--h", "2", "--per-delta", "--format", "json"],
        ["eval", "--g", "4", "--d", "3", "--expr", "x^4 + x"],
    ]
    before = [run(capsys, *argv) for argv in probes]
    for disturbance in (
        ["rho", "--g", "4"],
        ["frobnicate"],
        ["rho", "--g", "4", "--r", "1", "--d", "3", "--format", "xml"],
        ["--help"],
        ["eval", "--help"],
        ["eval", "--verbose", "--g", "4", "--d", "3", "--expr", "x^4 + x", "--format", "json"],
    ):
        run(capsys, *disturbance)
        assert [run(capsys, *argv) for argv in probes] == before, disturbance


def test_eval_after_a_verbose_eval_prints_no_notes(capsys):
    argv = ["eval", "--g", "4", "--d", "3", "--expr", "x^4 + x"]
    code, _, err = run(capsys, *argv, "--verbose")
    assert code == 0
    assert "note: dropped x^4" in err
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "note:" not in err


# A valid call of every subcommand, then usage errors, argparse's edge cases
# and the argv that go through the whole parser tree.
_DISPATCH_ARGVS = [
    ["rho", "--g", "4", "--r", "1", "--d", "3"],
    ["count", "--g", "6", "--r", "1", "--d", "4", "--format", "json"],
    ["eval", "--g", "4", "--d", "3", "--expr=bn1(3)*x", "--verbose"],
    ["pushpull", "--g", "28", "--d", "19", "--k", "18", "--expr", "x^19", "--format", "csv"],
    ["cs-bound", "--g", "30", "--h", "2"],
    ["lemma11", "--g", "10", "--n", "3"],
    ["theorem-a", "--h", "2", "--g", "28"],
    ["theorem-a", "--h-range", "1", "2", "--g-margin", "1", "--format", "csv"],
    ["audit", "--h", "2", "--g", "28"],
    ["miranda", "--g", "28", "--h", "2", "--all"],
    ["lemma21", "--g", "30", "--h", "2", "--per-delta"],
    ["reducedness", "--h", "3"],
    ["cyclic", "--g", "10", "--h", "1", "--t", "3"],
    ["gap", "--g", "30", "--h", "2", "--t", "2"],
    ["feasible", "--g", "10", "--h", "1", "--t", "3"],
    ["rho", "--g", "4"],
    ["rho", "--g", "x", "--r", "1", "--d", "2"],
    ["rho", "--g", "4", "--r", "1", "--d", "3", "--format", "xml"],
    ["rho", "--g", "4", "--r", "1", "--d", "3", "extra"],
    ["rho", "--g", "4", "--r", "1", "--d", "3", "--bogus", "1"],
    ["rho", "--", "--g", "5"],
    ["rho", "--g", "4", "--r", "1", "--d", "3", "--form", "json"],
    ["rho", "--g", "4", "--g", "5", "--r", "1", "--d", "3"],
    ["miranda", "--g", "28", "--h", "2", "--all", "--delta", "0"],
    ["rho", "-h"],
    ["-h"],
    ["--help", "rho"],
    [],
    ["frobnicate", "--g", "5"],
    ["--format", "json", "rho", "--g", "4", "--r", "1", "--d", "3"],
]


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=" ".join)
def test_one_pass_dispatch_matches_the_whole_tree(argv, capsys, monkeypatch):
    # main parses a call that names a subcommand with that subcommand's
    # parser alone; exit code, stdout and stderr must be those of
    # parse_args on the whole tree.
    monkeypatch.setenv("TRIPLECOVER_WORKERS", "1")
    got = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser()[0].parse_args(argv))
    assert got == run(capsys, *argv)


def test_a_call_naming_a_subcommand_skips_the_top_level_parser(capsys, monkeypatch):
    parser, _ = cli._build_parser()
    monkeypatch.setattr(parser, "parse_known_args", mock.Mock(side_effect=AssertionError))
    assert run(capsys, "rho", "--g", "4", "--r", "1", "--d", "3")[0] == 0
    code, out, err = run(capsys, "rho", "--g", "4", "--r", "1", "--d", "3", "extra")
    assert (code, out) == (2, "")
    assert err.endswith("triplecover: error: unrecognized arguments: extra\n")
    parser.parse_known_args.assert_not_called()


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["triplecover", "rho", "--g", "4", "--r", "1", "--d", "3"])
    assert main() == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["4", "1", "3", "0"]


def test_dense_power_in_a_large_ambient_is_quick(child_env):
    # (x+theta+1)^200 in (60, 60) is expanded by Miller's recurrence;
    # the product of two 1,891-term halves is packed by Kronecker
    # substitution.  Its top degree is
    # sum_b n!/((d-b)! b! (n-d)!) * g!/(g-b)! with n = 200.
    g = d = 60
    n = 200
    expected = sum(
        math.factorial(n) // (math.factorial(d - b) * math.factorial(b) * math.factorial(n - d)) * math.perm(g, b)
        for b in range(min(g, d) + 1)
    )
    for expr in (f"(x+theta+1)^{n}", f"(x+theta+1)^{n // 2}*(x+theta+1)^{n // 2}"):
        proc = subprocess.run(
            [sys.executable, "-m", "triplecover", "eval", "--g", str(g), "--d", str(d),
             "--expr", expr, "--format", "json"],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        [row] = json.loads(proc.stdout)
        assert row["value"] == str(expected), expr


def test_dense_power_in_a_huge_ambient_stays_small(capsys, child_env):
    # The recurrence stops at degree 16, and the packed slots of the
    # product follow the factors' theta support, not the genus, so
    # (x+theta+1)^16 and (x+theta+1)^8 squared cost the same in
    # (10^7, 10^7) as in (16, 16).  The child runs under a 1 GiB
    # address-space cap, so a regression fails with a MemoryError there
    # instead of exhausting the machine.
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    code = main(["eval", "--g", "16", "--d", "16", "--expr", "(x+theta+1)^16", "--format", "json"])
    assert code == 0
    canonical = json.loads(capsys.readouterr().out)[0]["canonical"]
    for expr in ("(x+theta+1)^16", "(x+theta+1)^8*(x+theta+1)^8"):
        proc = subprocess.run(
            [sys.executable, "-m", "triplecover", "eval", "--g", "10000000", "--d", "10000000",
             "--expr", expr, "--format", "json"],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=10,
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        [row] = json.loads(proc.stdout)
        assert row["canonical"] == canonical, expr


def test_csv_header_present_even_for_empty_sweep(capsys):
    code, out, _ = run(capsys, "theorem-a", "--h-range", "5", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "h,g,e,parity,critical_degree,lhs,rhs,lhs_via_expansion,strict"


def test_workers_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("TRIPLECOVER_WORKERS", "zero")
    code, _, err = run(capsys, "theorem-a", "--h-range", "1", "1")
    assert code == 2
    assert "TRIPLECOVER_WORKERS" in err
    monkeypatch.setenv("TRIPLECOVER_WORKERS", "0")
    code, _, _ = run(capsys, "theorem-a", "--h-range", "1", "1")
    assert code == 2


def test_module_entry_point_subprocess(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "triplecover", "rho", "--g", "4", "--r", "1", "--d", "3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[1].split() == ["4", "1", "3", "0"]


def test_oversized_integer_and_unwritable_out_exit_two(tmp_path, child_env):
    # A 6,000-digit count exceeds the interpreter's int-to-str limit, which
    # stays in force; a missing --out directory is an I/O fault.  Both are
    # input errors, never a traceback.
    for argv in (
        ["count", "--g", "20000", "--r", "1", "--d", "10001"],
        ["rho", "--g", "4", "--r", "1", "--d", "3", "--out", str(tmp_path / "missing" / "x")],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "triplecover", *argv],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


def test_oversized_integer_message_names_column_and_limit(capsys):
    limit = sys.get_int_max_str_digits()
    for fmt in ("table", "csv", "json"):
        code, out, err = run(capsys, "count", "--g", "20000", "--r", "1", "--d", "10001", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: column 'count' holds an integer of more than {limit} digits, "
            "the interpreter's limit for converting integers to text\n"
        )
        assert "set_int_max_str_digits" not in err


def test_count_is_bounded_before_it_is_computed(child_env):
    # The 600,000-digit count ran for minutes and the 60,000-digit one for
    # seconds before the renderer refused them; the bound refuses both first.
    # A one-column rectangle's count is 1 at any rank; it took over 8 s to
    # compute through factorials at g = 2001.
    limit = sys.get_int_max_str_digits()
    refused = (
        f"error: column 'count' holds an integer of more than {limit} digits, "
        "the interpreter's limit for converting integers to text\n"
    )
    cases = [
        (("2000000", "1", "1000001"), 2, "", refused),
        (("200000", "1", "100001"), 2, "", refused),
        (("20001", "20000", "40000"), 0, "g,r,d,rho,count\n20001,20000,40000,0,1\n", ""),
    ]
    for (g, r, d), code, out, err in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "triplecover", "count", "--g", g, "--r", r, "--d", d, "--format", "csv"],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=5,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), g


def test_unprintable_left_side_is_refused_before_it_is_computed(child_env):
    # theorem-a spent 1.8 s on the 156,381-digit left side at (20000,
    # 1800090001) and audit had not finished after 15 s at (200000,
    # 180000900001) before the renderer refused them; the bound refuses
    # both first.  A sweep is refused at its last case before it runs:
    # --h-range 20000 20000 took 1.3 s and 1 3000 had not finished after
    # 15 s.  The smallest cases still print.
    limit = sys.get_int_max_str_digits()
    refused = (
        f"error: column 'lhs' holds an integer of more than {limit} digits, "
        "the interpreter's limit for converting integers to text\n"
    )
    for argv, code, err in (
        (["theorem-a", "--h", "20000", "--g", "1800090001"], 2, refused),
        (["audit", "--h", "200000", "--g", "180000900001"], 2, refused),
        (["theorem-a", "--h-range", "20000", "20000"], 2, refused),
        (["theorem-a", "--h-range", "1", "3000"], 2, refused),
        (["theorem-a", "--h", "2", "--g", "28"], 0, ""),
        (["audit", "--h", "4", "--g", "91"], 0, ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "triplecover", *argv, "--format", "csv"],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=5,
        )
        assert (proc.returncode, proc.stderr) == (code, err), argv
        assert proc.stdout.startswith("h,g,") if code == 0 else proc.stdout == "", argv


def test_sweep_past_the_digit_limit_is_refused_before_it_sweeps(child_env):
    # lhs_bits gives 14,322 bits for this sweep's last case, too few for the
    # early check to refuse, but that left side has 16,671 bits and 5,019
    # digits: the sweep ran for 78 s before the renderer refused it.  Its
    # last case is now computed alone and refused before the sweep.
    limit = sys.get_int_max_str_digits()
    proc = subprocess.run(
        [sys.executable, "-m", "triplecover", "theorem-a", "--h-range", "770", "868", "--g-margin", "1000",
         "--format", "csv"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=5,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        f"error: column 'lhs' holds an integer of more than {limit} digits, "
        "the interpreter's limit for converting integers to text\n",
    )


def test_sweep_refusal_is_exact_at_the_digit_limit(capsys, monkeypatch, digit_limit):
    # At margin 0 the left side has 4,304 digits at h = 756 and 4,299 at
    # h = 755, and lhs_bits lets both through; the renderer's own digit
    # check on the last case refuses the first without sweeping and passes
    # the second.
    assert not exceeds_str_digits(lhs_bits(756, genus_bound(756)))
    real = cli.sweep

    def refuse(*args, **kwargs):
        raise AssertionError("an unprintable sweep was run")

    monkeypatch.setattr(cli, "sweep", refuse)
    assert run(capsys, "theorem-a", "--h-range", "756", "756", "--format", "csv") == (
        2,
        "",
        f"error: column 'lhs' holds an integer of more than {digit_limit} digits, "
        "the interpreter's limit for converting integers to text\n",
    )
    monkeypatch.setattr(cli, "sweep", real)
    code, out, err = run(capsys, "theorem-a", "--h-range", "755", "755", "--format", "csv")
    assert (code, err, len(out.splitlines())) == (0, "", 2)


def test_outputs_past_the_row_limit_are_refused_before_a_row_is_built(child_env):
    # At g = 10^30, miranda --all and lemma21 --per-delta ended in an
    # OverflowError traceback, and the sweep had not finished after 10 s.
    huge = str(10**30)
    refused = "error: the output would have more than 100000 rows, the limit for one run\n"
    for argv in (
        ["miranda", "--g", huge, "--h", "1", "--all"],
        ["lemma21", "--g", huge, "--h", "1", "--per-delta"],
        ["theorem-a", "--h-range", "1", "2", "--g-margin", huge],
        ["theorem-a", "--h-range", "0", huge],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "triplecover", *argv, "--format", "csv"],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=5,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", refused), argv


def test_row_limit_boundary(capsys, monkeypatch):
    # Six rows print under a limit of six; seven are refused.
    monkeypatch.setattr(cli, "_MAX_ROWS", 6)
    refused = "error: the output would have more than 6 rows, the limit for one run\n"
    for at_limit, past_limit in (
        (["miranda", "--g", "28", "--h", "2", "--all"], ["miranda", "--g", "34", "--h", "2", "--all"]),
        (["lemma21", "--g", "28", "--h", "2", "--per-delta"], ["lemma21", "--g", "34", "--h", "2", "--per-delta"]),
        (["theorem-a", "--h-range", "1", "3", "--g-margin", "1"], ["theorem-a", "--h-range", "1", "1", "--g-margin", "6"]),
    ):
        code, out, err = run(capsys, *at_limit, "--format", "csv")
        assert (code, err, len(out.splitlines())) == (0, "", 7), at_limit
        assert run(capsys, *past_limit, "--format", "csv") == (2, "", refused), past_limit


def test_memory_error_exits_two_without_a_traceback(capsys, monkeypatch):
    # Exit 1 is kept for a failed inequality; running out of memory is an
    # input error.
    def exhausted(args):
        raise MemoryError

    summary, flags, _ = cli._COMMANDS["miranda"]
    monkeypatch.setitem(cli._COMMANDS, "miranda", (summary, flags, exhausted))
    code, out, err = run(capsys, "miranda", "--g", "3000000000", "--h", "1", "--all")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_deep_or_long_expressions_never_crash(child_env):
    # Over-deep nesting is an input error; long flat chains evaluate; the
    # --verbose listing is skipped for a high-degree expression.
    cases = [
        (["--expr", "(" * 2000 + "x" + ")" * 2000], 2),
        (["--expr=" + "-" * 2000 + "x"], 2),
        (["--expr", "+".join(["x"] * 2000)], 0),
        (["--verbose", "--expr", "(x+theta+1)^300"], 0),
    ]
    for extra, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "triplecover", "eval", "--g", "4", "--d", "3", *extra],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=60,
        )
        assert proc.returncode == expected, extra[-1][:20]
        assert "Traceback" not in proc.stderr
        if expected == 2:
            assert proc.stdout == ""
            assert "deeper than 100 levels" in proc.stderr


def test_a_power_past_the_bit_budget_exits_two_at_once(child_env):
    # (x+theta+1)^800 in (400, 400) ran past 60 s before it was sized.
    proc = subprocess.run(
        [sys.executable, "-m", "triplecover", "eval", "--g", "400", "--d", "400", "--expr", "(x+theta+1)^800"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: at position 12: the power could have more than")


def test_a_product_past_the_bit_budget_exits_two_at_once(child_env):
    # Each power is inside the budget and takes about 0.1 s; their product
    # ran past 20 s before products were sized.
    proc = subprocess.run(
        [sys.executable, "-m", "triplecover", "eval", "--g", "400", "--d", "400",
         "--expr", "(x+theta+1)^200*(x+theta+1)^200"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: at position 16: the product could have more than")


def test_unprintable_value_is_refused_before_it_is_computed(child_env, digit_limit):
    # theta^3000000 in (10^7, 3*10^6) spent 81 s in Poincare's formula
    # before the renderer refused its value; the bound refuses it first.
    proc = subprocess.run(
        [sys.executable, "-m", "triplecover", "eval", "--g", "10000000", "--d", "3000000",
         "--expr", "theta^3000000"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=5,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        f"error: column 'value' holds an integer of more than {digit_limit} digits, "
        "the interpreter's limit for converting integers to text\n",
    )


def test_oversized_class_coefficient_names_the_canonical_column(capsys, digit_limit):
    # 2^28000 has about 8,400 digits, and 2^14334 has 4,315; the class is
    # printed before it is evaluated, so the refusal names column
    # 'canonical' and evaluate_top is never called.
    with mock.patch.object(cli, "evaluate_top", wraps=cli.evaluate_top) as spy:
        for expr in ("2^14000*2^14000", "2^14334"):
            for fmt in ("table", "csv", "json"):
                code, out, err = run(capsys, "eval", "--g", "4", "--d", "3", "--expr", expr, "--format", fmt)
                assert code == 2
                assert out == ""
                assert err == (
                    f"error: column 'canonical' holds an integer of more than {digit_limit} digits, "
                    "the interpreter's limit for converting integers to text\n"
                )
        spy.assert_not_called()
        assert run(capsys, "eval", "--g", "4", "--d", "3", "--expr", "2^14000")[0] == 0
        spy.assert_called_once()


def test_cell_text_of_ints_and_rationals():
    # A Fraction's own str() is p or p/q in lowest terms.
    assert cli._cell("c", 5) == "5"
    assert cli._cell("c", Fraction(3, 6)) == "1/2"
    assert cli._cell("c", Fraction(-7, 2)) == "-7/2"
    assert cli._cell("c", Fraction(-4, 2)) == "-2"


def format_rat(value: Fraction | int) -> str:
    """Render a rational as ``p`` or ``p/q`` in lowest terms, never a float."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _reference_cell(key: str, value) -> str:
    """The cell formatter before the one-pass renderer, by isinstance checks."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    try:
        return format_rat(value) if isinstance(value, Fraction) else str(value)
    except ValueError:
        raise cli._too_many_digits(key) from None


def _reference_render(keys: list[str], rows: list[dict], fmt: str) -> str:
    """The renderer before the one-pass rewrite: json.dumps for JSON, a
    csv.writer row per row, and isinstance checks for table alignment."""
    if fmt == "json":
        payload = [
            {key: row[key] if row[key] is None or isinstance(row[key], bool) else _reference_cell(key, row[key])
             for key in keys}
            for row in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_reference_cell(key, row[key]) for key in keys])
        return buffer.getvalue()
    cells = [[_reference_cell(key, row[key]) for key in keys] for row in rows]
    widths = [max([len(key), *(len(line[i]) for line in cells)]) for i, key in enumerate(keys)]
    numeric = [
        bool(rows) and all(isinstance(row[key], (int, Fraction)) and not isinstance(row[key], bool) for row in rows)
        for key in keys
    ]
    lines = ["  ".join(key.ljust(width) for key, width in zip(keys, widths)).rstrip()]
    for line in cells:
        lines.append("  ".join(
            cell.rjust(width) if right else cell.ljust(width) for cell, width, right in zip(line, widths, numeric)
        ).rstrip())
    return "\n".join(lines) + "\n"


def _render(keys: list[str], rows: list[dict], fmt: str) -> str:
    """``cli._render`` of the reference renderer's dict rows, each passed as
    the tuple of its values aligned with ``keys``, the objects themselves."""
    return cli._render(keys, [tuple(row[key] for key in keys) for row in rows], fmt)


def _rendered(render, keys, rows, fmt) -> str:
    """The renderer's text, or its refusal as ``error: <message>``."""
    try:
        return render(keys, rows, fmt)
    except ValueError as exc:
        return f"error: {exc}"


_LIMIT_DIGITS = 10 ** (sys.get_int_max_str_digits() - 1)
_cell_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.sampled_from([_LIMIT_DIGITS, -_LIMIT_DIGITS, 10 * _LIMIT_DIGITS]),
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6),
    st.builds(
        lambda terms: CohomClass(3, 3, terms),
        st.dictionaries(
            st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=1)),
            st.fractions(min_value=-20, max_value=20, max_denominator=9),
            max_size=4,
        ),
    ),
    # Quotes, backslashes, control characters and non-ASCII text, all of
    # which JSON escapes and CSV may quote.
    st.text(alphabet=st.sampled_from('ab ,"\\\n\r\t\x00\x1f\x7f\u00e9\u03b8\u2028\U0001f600'), max_size=8),
    st.text(max_size=6),
)


@st.composite
def _tables(draw):
    keys = draw(st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({key: _cell_values for key in keys}), max_size=5))
    return keys, rows


@settings(max_examples=400, deadline=None)
@given(_tables(), st.sampled_from(["table", "csv", "json"]))
def test_renderer_matches_the_reference(table, fmt):
    keys, rows = table
    assert _rendered(_render, keys, rows, fmt) == _rendered(_reference_render, keys, rows, fmt)


def test_renderer_edge_shapes_match_the_reference():
    mixed = [{"n": 7, "s": "x"}, {"n": "seven", "s": -3}, {"n": Fraction(-1, 3), "s": None}]
    numbers = [{"n": -12, "s": Fraction(5, 2)}, {"n": 3, "s": 10**30}]
    one = [{"n": True, "s": 'a "b" \\ \u00e9\n'}]
    for rows in ([], one, mixed, numbers):
        for fmt in ("table", "csv", "json"):
            assert _render(["n", "s"], rows, fmt) == _reference_render(["n", "s"], rows, fmt)
    assert _render(["n", "s"], [], "json") == "[]\n"
    assert json.loads(_render(["n", "s"], one, "json")) == [{"n": True, "s": 'a "b" \\ \u00e9\n'}]
    # A column that mixes ints and strings is left-aligned; one of ints and
    # Fractions only is right-aligned.
    assert _render(["n", "s"], mixed, "table").splitlines()[1] == "7      x"
    assert _render(["n", "s"], numbers, "table").splitlines()[1:] == [
        "-12  " + "5/2".rjust(31),
        "  3  1" + "0" * 30,
    ]


def test_renderer_names_the_first_unprintable_column_in_row_order():
    # Row 1 fails in column 'b'; row 2 would fail earlier, in column 'a'.
    big = 10 ** sys.get_int_max_str_digits()
    rows = [{"a": 1, "b": 2, "c": 3}, {"a": 4, "b": big, "c": big}, {"a": -big, "b": 5, "c": 6}]
    expected = (
        f"error: column 'b' holds an integer of more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for converting integers to text"
    )
    for fmt in ("table", "csv", "json"):
        assert _rendered(_render, ["a", "b", "c"], rows, fmt) == expected
        assert _rendered(_reference_render, ["a", "b", "c"], rows, fmt) == expected


def test_renderer_converts_each_shared_object_once(monkeypatch):
    # A sweep report's lhs_via_expansion is its lhs, one int converted to
    # text once.  A cell holding the object of the cell above it, like the
    # one Fraction a lemma21 --per-delta column repeats, reuses that text
    # too.  Equal but distinct objects are converted apart.  The bytes are
    # the reference renderer's.
    shared, equal, fraction = 7**500, 7**500, Fraction(7**500, 3)
    keys = ["a", "b", "c", "d"]
    rows = [
        {"a": shared, "b": 1, "c": shared, "d": equal},
        {"a": shared, "b": fraction, "c": 2, "d": equal},
        {"a": 3, "b": fraction, "c": 4, "d": None},
    ]
    report_keys, reports, _ = cli._records(InequalityReport, sweep((1, 2), 3, workers=1))
    report_rows = [report._asdict() for report in reports]
    formats = ("table", "csv", "json")
    expected = {
        fmt: (_reference_render(keys, rows, fmt), _reference_render(report_keys, report_rows, fmt)) for fmt in formats
    }
    converted = []
    real = cli._cell

    def counting(key, value):
        converted.append(value)
        return real(key, value)

    monkeypatch.setattr(cli, "_cell", counting)
    for fmt in formats:
        converted.clear()
        assert _render(keys, rows, fmt) == expected[fmt][0], fmt
        assert [sum(value is obj for value in converted) for obj in (shared, equal, fraction)] == [1, 1, 1], fmt
        converted.clear()
        # The records themselves are the rows, as the CLI passes them.
        assert cli._render(report_keys, reports, fmt) == expected[fmt][1], fmt
        for report in reports:
            assert type(report.lhs) is int and report.lhs_via_expansion is report.lhs
            assert sum(value is report.lhs for value in converted) == 1, fmt
        assert len(reports) == 8


def test_oversized_literals_and_constant_powers_exit_two_quickly(capsys):
    for expr in ("x + " + "7" * 5000, "x^" + "9" * 5000, "(2*x+2)^100000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--g", "4", "--d", "3", "--expr", expr)
        assert time.perf_counter() - start < 2, expr[:12]
        assert code == 2, expr[:12]
        assert out == ""
        assert err.startswith("error: at position ")
        assert "set_int_max_str_digits" not in err


def test_verbose_degree_note_past_the_digit_limit(capsys, digit_limit):
    # x^N*x^N with N = 10^L - 1 has the degree bound 2N, one digit past the
    # limit L; the listing-omitted note must not try to print it.
    nines = "9" * digit_limit
    argv = ["eval", "--g", "4", "--d", "3", "--expr", f"x^{nines}*x^{nines}"]
    code, out, err = run(capsys, *argv, "--verbose")
    assert code == 0
    assert out == run(capsys, *argv)[1]
    assert err == (
        "note: dropped-monomial listing omitted: the expression's degree can reach a number "
        f"with more than {digit_limit} digits, above the listing limit of 48\n"
    )
    assert "set_int_max_str_digits" not in err


def test_verbose_coefficient_note_past_the_digit_limit(capsys, digit_limit):
    # x^48 is dropped with a 28,001-bit coefficient; --verbose used to turn
    # the exit 0 of the zero class into exit 2 trying to print it.
    argv = ["eval", "--g", "4", "--d", "3", "--expr", "2^14000*2^14000*x^48"]
    code, out, err = run(capsys, *argv, "--verbose")
    assert (code, out) == run(capsys, *argv)[:2]
    assert code == 0
    assert err == (
        f"note: dropped x^48 (coefficient a number with more than {digit_limit} digits): "
        "codimension 48 exceeds d = 3\n"
    )


def test_verbose_note_when_the_untruncated_listing_passes_the_bit_budget(capsys):
    # In (4, 3) the power keeps ten monomials; the untruncated listing
    # evaluates it again in (48, 48), where it passes the bit budget.
    # --verbose used to turn the plain call's exit 0 into exit 2 there.
    argv = ["eval", "--g", "4", "--d", "3", "--expr", "(2^4000*x+2^4000*theta+1)^48", "--format", "csv"]
    code, out, err = run(capsys, *argv, "--verbose")
    assert (code, out) == run(capsys, *argv)[:2]
    assert code == 0
    assert err == (
        "note: dropped-monomial listing omitted: at position 26: the power could have more than 8388608 bits, "
        "the limit for one power\n"
    )


# Flags per subcommand for the fuzz test.
_FUZZ_FLAGS = {
    "rho": ("--g", "--r", "--d"),
    "count": ("--g", "--r", "--d"),
    "eval": ("--g", "--d", "--expr", "--verbose"),
    "pushpull": ("--g", "--d", "--k", "--expr"),
    "cs-bound": ("--g", "--h"),
    "lemma11": ("--g", "--n"),
    "theorem-a": ("--h", "--g"),
    "audit": ("--h", "--g"),
    "miranda": ("--g", "--h", "--delta", "--all"),
    "lemma21": ("--g", "--h", "--per-delta"),
    "reducedness": ("--h",),
    "cyclic": ("--g", "--h", "--t"),
    "gap": ("--g", "--h", "--t"),
    "feasible": ("--g", "--h", "--t"),
}
_SWITCHES = {"--verbose", "--all", "--per-delta"}
_FUZZ_EXPRS = (
    "bn1(3)*x", "x^4 + x", "(x+theta+1)^5 - 3/2*theta^5", "2^14000*2^14000", "1" * 5000,
    "x^" + "9" * 5000, "(2*x+2)^100000000", "(1/2*x-1)^100000", "(x-1)^1000000", "(x+theta+1)^300",
    "(" * 200 + "x" + ")" * 200, "x/0", "x/theta", "bn1(-1)", "theta^", "", ")", "3/4*theta - 7",
)
# Small or negative ints: the ambients stay small, so every call is quick.
_ints = st.integers(min_value=-3, max_value=12).map(str)
_exprs = st.one_of(
    st.sampled_from(_FUZZ_EXPRS),
    st.lists(st.sampled_from(_FUZZ_EXPRS[:3] + ("x", "theta", "2", "-", "^3", "*", "(", ")")), max_size=6).map("".join),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag in _FUZZ_FLAGS[command]:
        if flag in _SWITCHES:
            if draw(st.booleans()):
                argv.append(flag)
        elif draw(st.integers(0, 9)):  # occasionally leave a flag out
            argv += [flag, draw(_exprs if flag == "--expr" else _ints)]
    if command == "theorem-a" and draw(st.booleans()):
        argv += ["--h-range", draw(_ints), draw(_ints), "--g-margin", draw(_ints)]
    return argv + ["--format", draw(st.sampled_from(("table", "csv", "json")))]


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"TRIPLECOVER_WORKERS": "1"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
    assert "set_int_max_str_digits" not in err.getvalue()


# Each result record with its fields, which are the CLI's columns in order
# (audit prints ProofAudit's scalar fields, then AuditStep's).
_RECORDS = [
    (InequalityReport, ("h", "g", "e", "parity", "critical_degree", "lhs", "rhs", "lhs_via_expansion", "strict")),
    (AuditStep, ("name", "lhs", "relation", "rhs", "holds", "detail")),
    (ProofAudit, ("h", "g", "e", "parity", "steps")),
    (CyclicCoverProfile, ("g", "h", "t", "branch_count", "k1", "k2", "dim_h0", "dim_h1", "dim_h2", "n1_lower", "n2_lower")),
    (PencilGapReport, ("g", "h", "t", "cs_bound", "composed_below", "largest_excluded", "exists_at_most", "theorem_a_degree")),
    (Feasibility, ("g", "h", "t", "feasible", "ell")),
    (TripleCoverGeometry, ("g", "h", "delta", "det_e_degree", "n", "deg_m", "deg_l", "fx_fiber_coeff")),
    (VanishingMargins, ("g", "h", "parity", "twist_degree_2d", "bound_m", "bound_l", "vanishing_guaranteed")),
    (TwistedDegrees, ("g", "h", "delta", "twist_degree_2d", "deg_m_twisted", "deg_l_twisted", "bound_m", "bound_l")),
    (ReducednessBounds, ("h", "parity", "direct", "alternative")),
    (_Token, ("kind", "text", "position")),
]


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_result_record_contract(cls, fields):
    assert cls._fields == fields
    values = [Fraction(i, 2) if i % 2 else i for i in range(len(fields))]
    record = cls(*values)
    same = cls(**dict(zip(fields, values)))
    assert record == same and hash(record) == hash(same)
    assert [getattr(record, field) for field in fields] == values
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


def test_importing_the_cli_loads_no_dataclasses(child_env):
    # dataclasses and the inspect, ast, dis and tokenize modules it pulls
    # in were most of the CLI's import time.  -S keeps site hooks out.
    script = (
        "import sys, triplecover.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _grid_calls():
    """The argument lists of the byte-pinned grid: the audit near each base
    genus's bound, and every ledger subcommand at small (h, g), with every
    branch split t, valid or not, in [0, g - 3h + 2]."""
    for h in range(1, 9):
        for g in range(genus_bound(h) - 2, genus_bound(h) + 3):
            yield ["audit", "--h", str(h), "--g", str(g), "--format", "csv"]
    for h in range(1, 5):
        for g in range(3 * h, 3 * h + 10):
            flags = ["--g", str(g), "--h", str(h)]
            yield ["cs-bound", *flags]
            yield ["miranda", *flags, "--all"]
            yield ["lemma21", *flags, "--per-delta"]
            for t in range(g - 3 * h + 3):
                yield ["cyclic", *flags, "--t", str(t)]
                yield ["gap", *flags, "--t", str(t)]


def test_grid_of_calls_keeps_its_bytes():
    # One sha256 over the argv, exit code, stdout and stderr of every call:
    # a change to how a formula is stated must leave all of them as they were.
    digest = hashlib.sha256()
    calls = 0
    for argv in _grid_calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(f"$ {' '.join(argv)}\n[exit {code}]\n{out.getvalue()}[stderr]\n{err.getvalue()}".encode())
        calls += 1
    assert calls == 760
    assert digest.hexdigest() == "0ba96b6ab01a71e2710c7f3eeaca2ae402e9a4677cef29055a537553367bfcf2"

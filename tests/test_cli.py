from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

from triplecover.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "triplecover", "rho", "--g", "4", "--r", "1", "--d", "3"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[1].split() == ["4", "1", "3", "0"]


def test_oversized_integer_and_unwritable_out_exit_two(tmp_path):
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
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
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


def test_deep_or_long_expressions_never_crash():
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
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert proc.returncode == expected, extra[-1][:20]
        assert "Traceback" not in proc.stderr
        if expected == 2:
            assert proc.stdout == ""
            assert "deeper than 100 levels" in proc.stderr

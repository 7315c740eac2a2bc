"""Golden-output guard for the command line.

Every subcommand runs in all three formats; stdout, the exit code and (where
it is part of the contract) stderr are compared byte for byte with the
transcripts committed under ``tests/golden/``.  argparse usage text is left
out: it varies across Python versions and wraps to the terminal width.

To rewrite the transcripts after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from triplecover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("table", "csv", "json")

# name -> (argv without --format, whether stderr is part of the contract)
CASES = {
    "rho": (["rho", "--g", "4", "--r", "1", "--d", "3"], True),
    "rho-missing-flag": (["rho", "--g", "4"], False),
    "count": (["count", "--g", "6", "--r", "1", "--d", "4"], True),
    "count-rho-nonzero": (["count", "--g", "3", "--r", "1", "--d", "3"], True),
    "eval": (["eval", "--g", "4", "--d", "3", "--expr", "bn1(3)*x"], True),
    "eval-verbose-truncated": (["eval", "--verbose", "--g", "4", "--d", "3", "--expr", "x^4 + x"], True),
    "eval-verbose-bn1": (["eval", "--verbose", "--g", "10", "--d", "3", "--expr", "bn1(3)"], True),
    "eval-verbose-power": (
        ["eval", "--verbose", "--g", "4", "--d", "3", "--expr", "(x+theta+1)^5 - 3/2*theta^5"],
        True,
    ),
    "eval-verbose-clean": (["eval", "--verbose", "--g", "6", "--d", "4", "--expr", "(x-theta)^2"], True),
    "eval-bn1-mismatch": (["eval", "--g", "4", "--d", "3", "--expr", "bn1(2)"], True),
    "eval-syntax": (["eval", "--g", "4", "--d", "3", "--expr", "x+*theta"], True),
    "eval-division-by-zero": (["eval", "--g", "4", "--d", "3", "--expr", "x/0"], True),
    "pushpull": (["pushpull", "--g", "28", "--d", "19", "--k", "18", "--expr", "x^19"], True),
    "pushpull-theta": (["pushpull", "--g", "4", "--d", "3", "--k", "1", "--expr", "theta"], True),
    "cs-bound": (["cs-bound", "--g", "28", "--h", "2"], True),
    "lemma11": (["lemma11", "--g", "28", "--n", "5"], True),
    "theorem-a": (["theorem-a", "--h", "2", "--g", "28"], True),
    "theorem-a-sweep": (["theorem-a", "--h-range", "1", "3", "--g-margin", "2"], True),
    "theorem-a-empty-sweep": (["theorem-a", "--h-range", "5", "4"], True),
    "theorem-a-conflict": (["theorem-a", "--h", "2", "--g", "28", "--h-range", "1", "2"], True),
    "audit-violated": (["audit", "--h", "1", "--g", "15"], True),
    "audit-holds": (["audit", "--h", "4", "--g", "91"], True),
    "miranda-all": (["miranda", "--g", "28", "--h", "2", "--all"], True),
    "miranda-delta": (["miranda", "--g", "28", "--h", "2", "--delta", "2"], True),
    "miranda-parity": (["miranda", "--g", "28", "--h", "2", "--delta", "1"], True),
    "lemma21": (["lemma21", "--g", "28", "--h", "2"], True),
    "lemma21-per-delta": (["lemma21", "--g", "28", "--h", "2", "--per-delta"], True),
    "lemma21-odd": (["lemma21", "--g", "15", "--h", "1"], True),
    "reducedness": (["reducedness", "--h", "3"], True),
    "cyclic": (["cyclic", "--g", "15", "--h", "1", "--t", "10"], True),
    "cyclic-congruence": (["cyclic", "--g", "15", "--h", "1", "--t", "9"], True),
    "gap": (["gap", "--g", "15", "--h", "1", "--t", "10"], True),
    "feasible": (["feasible", "--g", "15", "--h", "1", "--t", "10"], True),
    "feasible-none": (["feasible", "--g", "15", "--h", "1", "--t", "5"], True),
}


def transcript(argv: list[str], with_stderr: bool) -> str:
    """Run ``argv`` once per format and return the combined transcript."""
    parts = []
    for fmt in FORMATS:
        full = [*argv, "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(full)
        parts.append(f"$ triplecover {' '.join(full)}\n[exit {code}]\n{out.getvalue()}")
        if with_stderr:
            parts.append(f"[stderr]\n{err.getvalue()}")
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.setenv("TRIPLECOVER_WORKERS", "1")
    argv, with_stderr = CASES[name]
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")  # CSV rows end in \r\n
    assert transcript(argv, with_stderr) == expected


def test_every_subcommand_has_a_golden_case():
    from triplecover.cli import _build_parser

    subparsers = next(
        action for action in _build_parser()._actions if action.dest == "command"
    )
    covered = {argv[0] for argv, _ in CASES.values()}
    assert covered == set(subparsers.choices)


if __name__ == "__main__":
    os.environ["TRIPLECOVER_WORKERS"] = "1"
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, with_stderr) in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(transcript(argv, with_stderr), encoding="utf-8", newline="")
    sys.exit(0)

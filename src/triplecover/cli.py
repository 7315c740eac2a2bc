"""Command-line front end.

Every subcommand prints a flat record stream in one of three formats
(``--format table|csv|json``, default table) to standard output or to a
file given with ``--out``.  JSON output is a single array of objects with
identical key sets; rationals are rendered as ``p/q`` strings and big
integers as decimal strings, never as floats.  CSV carries a mandatory
header row.

Exit codes: 0 on success, 1 when a verification subcommand (theorem-a,
audit) finds a violated inequality, 2 on usage or input errors.  Integers
longer than the interpreter's int-to-str digit limit and ``--out`` targets
that cannot be written are input errors.

The sweep subcommand parallelises across base genera; the worker count is
taken from the ``TRIPLECOVER_WORKERS`` environment variable and defaults
to the number of available processors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Sequence

from .arith import format_rat
from .brill_noether import bn_query, cs_max_degree, pencil_dimension_hypothesis, rho
from .classexpr import format_class, parse, parse_with_diagnostics
from .cohomology import evaluate_top, pushforward_B
from .cyclic_cover import (
    CyclicCoverProfile,
    Feasibility,
    PencilGapReport,
    construction_feasible,
    derive_profile,
    pencil_gap_report,
)
from .existence import InequalityReport, audit_proof_chain, sweep, verify_inequality
from .triple_cover import (
    ReducednessBounds,
    TripleCoverGeometry,
    VanishingMargins,
    admissible_deltas,
    derive_geometry,
    reducedness_genus_bounds,
    section_vanishing_margins,
    twisted_degrees,
)

__all__ = ["main"]

WORKERS_ENV = "TRIPLECOVER_WORKERS"


def _workers_from_env() -> int | None:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be at least 1, got {workers}")
    return workers


# ----------------------------------------------------------------------
# rendering

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rat(value)
    return str(value)


def _json_value(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, int):
        return str(value)
    return value


def _render(keys: list[str], rows: list[dict], fmt: str) -> str:
    try:
        return _format(keys, rows, fmt)
    except ValueError:
        # The int-to-str digit limit (CVE-2020-10735) stays in force; name
        # the column instead of repeating CPython's advice to raise it.
        for key in keys:
            for row in rows:
                try:
                    _cell(row[key])
                except ValueError:
                    raise ValueError(
                        f"column {key!r} holds an integer of more than "
                        f"{sys.get_int_max_str_digits()} digits, the interpreter's "
                        "limit for converting integers to text"
                    ) from None
        raise


def _format(keys: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        payload = [{key: _json_value(row[key]) for key in keys} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_cell(row[key]) for key in keys])
        return buffer.getvalue()
    # table
    cells = [[_cell(row[key]) for key in keys] for row in rows]
    widths = [
        max(len(keys[i]), *(len(line[i]) for line in cells)) if cells else len(keys[i])
        for i in range(len(keys))
    ]
    numeric = [
        all(isinstance(row[key], (int, Fraction)) and not isinstance(row[key], bool) for row in rows)
        if rows
        else False
        for key in keys
    ]
    lines = ["  ".join(key.ljust(widths[i]) for i, key in enumerate(keys)).rstrip()]
    for line in cells:
        lines.append(
            "  ".join(
                (line[i].rjust(widths[i]) if numeric[i] else line[i].ljust(widths[i]))
                for i in range(len(keys))
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ----------------------------------------------------------------------
# handlers: each returns (keys, rows, violated)

def _records(cls, records, violated: bool = False) -> tuple[list[str], list[dict], bool]:
    """Rows whose columns are the fields of the dataclass ``cls``, in field order."""
    keys = [field.name for field in dataclasses.fields(cls)]
    return keys, [{key: getattr(record, key) for key in keys} for record in records], violated


def _echo(args, **computed) -> tuple[list[str], list[dict], bool]:
    """One row: the subcommand's required flags in declaration order, then ``computed``."""
    flags = _COMMANDS[args.command][1]
    row = {flag[2:]: getattr(args, flag[2:]) for flag, _, kwargs in flags if kwargs.get("required")}
    row.update(computed)
    return list(row), [row], False


def _cmd_count(args):
    query = bn_query(args.g, args.r, args.d)
    if query.count is None:
        raise ValueError(f"Castelnuovo count requires rho == 0, got rho = {query.rho}")
    return _echo(args, rho=query.rho, count=query.count)


def _cmd_eval(args):
    if args.verbose:
        cls, notes = parse_with_diagnostics(args.expr, args.g, args.d)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    else:
        cls = parse(args.expr, args.g, args.d)
    return _echo(args, canonical=format_class(cls), value=evaluate_top(cls))


def _cmd_pushpull(args):
    pushed = pushforward_B(args.k, parse(args.expr, args.g, args.d))
    return _echo(args, result=format_class(pushed), result_sym_index=pushed.sym_index)


def _cmd_theorem_a(args):
    if args.h_range is not None:
        if args.h is not None or args.g is not None:
            raise ValueError("--h-range cannot be combined with --h/--g")
        reports = sweep(tuple(args.h_range), args.g_margin, workers=_workers_from_env())
    else:
        if args.h is None or args.g is None:
            raise ValueError("theorem-a needs either --h and --g, or --h-range")
        reports = [verify_inequality(args.h, args.g)]
    return _records(InequalityReport, reports, any(not report.strict for report in reports))


def _cmd_audit(args):
    # AuditStep puts detail second; the CLI prints it last.
    audit = audit_proof_chain(args.h, args.g)
    keys = ["h", "g", "e", "parity", "step", "lhs", "relation", "rhs", "holds", "detail"]
    head = {"h": audit.h, "g": audit.g, "e": audit.e, "parity": audit.parity}
    rows = [
        {**head, "step": step.name, "lhs": step.lhs, "relation": step.relation,
         "rhs": step.rhs, "holds": step.holds, "detail": step.detail}
        for step in audit.steps
    ]
    return keys, rows, not audit.all_hold


def _cmd_miranda(args):
    if args.all == (args.delta is not None):
        raise ValueError("miranda needs exactly one of --delta or --all")
    deltas = admissible_deltas(args.g, args.h) if args.all else [args.delta]
    return _records(TripleCoverGeometry, [derive_geometry(args.g, args.h, delta) for delta in deltas])


def _cmd_lemma21(args):
    margins = section_vanishing_margins(args.g, args.h)
    if not args.per_delta:
        return _records(VanishingMargins, [margins])
    # One row per admissible delta, interleaving its twisted degrees with
    # the shared margins.
    keys = ["g", "h", "delta", "twist_degree_2d", "deg_m_twisted", "deg_l_twisted", "bound_m", "bound_l"]
    shared = {"g": args.g, "h": args.h, "twist_degree_2d": margins.twist_degree_2d,
              "bound_m": margins.bound_m, "bound_l": margins.bound_l}
    rows = [
        {**shared, "delta": entry.delta, "deg_m_twisted": entry.deg_m_twisted,
         "deg_l_twisted": entry.deg_l_twisted}
        for entry in twisted_degrees(args.g, args.h)
    ]
    return keys, rows, False


def _cmd_gap(args):
    report = pencil_gap_report(args.g, args.h, args.t)
    keys, rows, violated = _records(PencilGapReport, [report])
    keys.insert(keys.index("composed_below") + 1, "largest_excluded")
    rows[0]["largest_excluded"] = math.ceil(report.composed_below) - 1
    return keys, rows, violated


# ----------------------------------------------------------------------
# subcommand table: name -> (help, flags, handler); each flag is
# (name, help, add_argument keyword arguments), in declaration order.

_REQUIRED = {"type": int, "required": True}
_OPTIONAL = {"type": int, "default": None}
_SWITCH = {"action": "store_true"}

_GENUS_RANK_DEGREE = (("--g", "genus", _REQUIRED), ("--r", "rank", _REQUIRED), ("--d", "degree", _REQUIRED))
_AMBIENT = (("--g", "genus of the ambient", _REQUIRED), ("--d", "symmetric-product index", _REQUIRED))
_COVER_G = ("--g", "cover genus", _REQUIRED)
_BASE_H = ("--h", "base genus", _REQUIRED)
_SPLIT = ("--t", "branch split", _REQUIRED)

_COMMANDS = {
    "rho": (
        "Brill-Noether number", _GENUS_RANK_DEGREE, lambda a: _echo(a, rho=rho(a.g, a.r, a.d))
    ),
    "count": ("Castelnuovo count at rho = 0", _GENUS_RANK_DEGREE, _cmd_count),
    "eval": (
        "evaluate a class expression in top degree",
        (
            *_AMBIENT,
            ("--expr", "expression in x, theta, bn1(d)", {"required": True}),
            ("--verbose", "report monomials dropped by the ambient", _SWITCH),
        ),
        _cmd_eval,
    ),
    "pushpull": (
        "push an x-polynomial down k steps",
        (
            *_AMBIENT,
            ("--k", "number of steps down", _REQUIRED),
            ("--expr", "polynomial in x", {"required": True}),
        ),
        _cmd_pushpull,
    ),
    "cs-bound": (
        "Castelnuovo-Severi forced degree",
        (("--g", "genus of the cover", _REQUIRED), ("--h", "genus of the base", _REQUIRED)),
        lambda a: _echo(a, max_degree=cs_max_degree(a.g, a.h)),
    ),
    "lemma11": (
        "equi-dimensionality genus hypothesis",
        (("--g", "genus", _REQUIRED), ("--n", "pencil degree parameter", _REQUIRED)),
        lambda a: _echo(a, satisfied=pencil_dimension_hypothesis(a.g, a.n)),
    ),
    "theorem-a": (
        "verify the critical-degree comparison",
        (
            ("--h", "base genus", _OPTIONAL),
            ("--g", "cover genus", _OPTIONAL),
            ("--h-range", "sweep base genera", {"type": int, "nargs": 2, "metavar": ("LO", "HI"), "default": None}),
            ("--g-margin", "sweep genus margin above the bound", {"type": int, "default": 0}),
        ),
        _cmd_theorem_a,
    ),
    "audit": ("replay the inequality chain", (_BASE_H, _COVER_G), _cmd_audit),
    "miranda": (
        "ruled-surface degree ledger",
        (
            _COVER_G,
            _BASE_H,
            ("--delta", "minimal-section invariant", _OPTIONAL),
            ("--all", "all admissible delta values", _SWITCH),
        ),
        _cmd_miranda,
    ),
    "lemma21": (
        "section-vanishing margins",
        (_COVER_G, _BASE_H, ("--per-delta", "actual twisted degrees for each admissible delta", _SWITCH)),
        _cmd_lemma21,
    ),
    "reducedness": (
        "reducedness genus bounds",
        (_BASE_H,),
        lambda a: _records(ReducednessBounds, [reducedness_genus_bounds(a.h)]),
    ),
    "cyclic": (
        "cyclic-cover eigenspace ledger",
        (_COVER_G, _BASE_H, _SPLIT),
        lambda a: _records(CyclicCoverProfile, [derive_profile(a.g, a.h, a.t)]),
    ),
    "gap": (
        "pencil-degree threshold comparison",
        (_COVER_G, _BASE_H, ("--t", "normalized branch split", _REQUIRED)),
        _cmd_gap,
    ),
    "feasible": (
        "cyclic-cover construction feasibility",
        (_COVER_G, _BASE_H, _SPLIT),
        lambda a: _records(Feasibility, [construction_feasible(a.g, a.h, a.t)]),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "csv", "json"), default="table", help="output format"
    )
    common.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")

    parser = argparse.ArgumentParser(
        prog="triplecover",
        description="Exact-arithmetic enumerative checks for pencils on triple covers of curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, (summary, flags, _) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=summary)
        for flag, flag_help, kwargs in flags:
            command.add_argument(flag, help=flag_help, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        keys, rows, violated = _COMMANDS[args.command][2](args)
        _write(_render(keys, rows, args.format), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())

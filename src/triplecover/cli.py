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
from .cyclic_cover import construction_feasible, derive_profile, pencil_gap_report
from .existence import audit_proof_chain, sweep, verify_inequality
from .triple_cover import (
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

def _cmd_rho(args) -> tuple[list[str], list[dict], bool]:
    value = rho(args.g, args.r, args.d)
    return ["g", "r", "d", "rho"], [{"g": args.g, "r": args.r, "d": args.d, "rho": value}], False


def _cmd_count(args):
    query = bn_query(args.g, args.r, args.d)
    if query.count is None:
        raise ValueError(f"Castelnuovo count requires rho == 0, got rho = {query.rho}")
    row = {"g": args.g, "r": args.r, "d": args.d, "rho": query.rho, "count": query.count}
    return ["g", "r", "d", "rho", "count"], [row], False


def _cmd_eval(args):
    if args.verbose:
        cls, notes = parse_with_diagnostics(args.expr, args.g, args.d)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    else:
        cls = parse(args.expr, args.g, args.d)
    row = {
        "g": args.g,
        "d": args.d,
        "expr": args.expr,
        "canonical": format_class(cls),
        "value": evaluate_top(cls),
    }
    return ["g", "d", "expr", "canonical", "value"], [row], False


def _cmd_pushpull(args):
    cls = parse(args.expr, args.g, args.d)
    pushed = pushforward_B(args.k, cls)
    row = {
        "g": args.g,
        "d": args.d,
        "k": args.k,
        "expr": args.expr,
        "result": format_class(pushed),
        "result_sym_index": pushed.sym_index,
    }
    return ["g", "d", "k", "expr", "result", "result_sym_index"], [row], False


def _cmd_cs_bound(args):
    row = {"g": args.g, "h": args.h, "max_degree": cs_max_degree(args.g, args.h)}
    return ["g", "h", "max_degree"], [row], False


def _cmd_lemma11(args):
    row = {"g": args.g, "n": args.n, "satisfied": pencil_dimension_hypothesis(args.g, args.n)}
    return ["g", "n", "satisfied"], [row], False


_THEOREM_A_KEYS = [
    "h",
    "g",
    "e",
    "parity",
    "critical_degree",
    "lhs",
    "rhs",
    "lhs_via_expansion",
    "strict",
]


def _theorem_a_row(report) -> dict:
    return {
        "h": report.h,
        "g": report.g,
        "e": report.e,
        "parity": report.parity,
        "critical_degree": report.critical_degree,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "lhs_via_expansion": report.lhs_via_expansion,
        "strict": report.strict,
    }


def _cmd_theorem_a(args):
    if args.h_range is not None:
        if args.h is not None or args.g is not None:
            raise ValueError("--h-range cannot be combined with --h/--g")
        reports = sweep(tuple(args.h_range), args.g_margin, workers=_workers_from_env())
    else:
        if args.h is None or args.g is None:
            raise ValueError("theorem-a needs either --h and --g, or --h-range")
        reports = [verify_inequality(args.h, args.g)]
    rows = [_theorem_a_row(report) for report in reports]
    violated = any(not report.strict for report in reports)
    return _THEOREM_A_KEYS, rows, violated


def _cmd_audit(args):
    audit = audit_proof_chain(args.h, args.g)
    rows = [
        {
            "h": audit.h,
            "g": audit.g,
            "e": audit.e,
            "parity": audit.parity,
            "step": step.name,
            "lhs": step.lhs,
            "relation": step.relation,
            "rhs": step.rhs,
            "holds": step.holds,
            "detail": step.detail,
        }
        for step in audit.steps
    ]
    keys = ["h", "g", "e", "parity", "step", "lhs", "relation", "rhs", "holds", "detail"]
    return keys, rows, not audit.all_hold


_MIRANDA_KEYS = ["g", "h", "delta", "det_e_degree", "n", "deg_m", "deg_l", "fx_fiber_coeff"]


def _cmd_miranda(args):
    if args.all == (args.delta is not None):
        raise ValueError("miranda needs exactly one of --delta or --all")
    deltas = admissible_deltas(args.g, args.h) if args.all else [args.delta]
    rows = []
    for delta in deltas:
        geom = derive_geometry(args.g, args.h, delta)
        rows.append(
            {
                "g": geom.g,
                "h": geom.h,
                "delta": geom.delta,
                "det_e_degree": geom.det_e_degree,
                "n": geom.n,
                "deg_m": geom.deg_m,
                "deg_l": geom.deg_l,
                "fx_fiber_coeff": geom.fx_fiber_coeff,
            }
        )
    return _MIRANDA_KEYS, rows, False


def _cmd_lemma21(args):
    margins = section_vanishing_margins(args.g, args.h)
    if args.per_delta:
        rows = [
            {
                "g": args.g,
                "h": args.h,
                "delta": entry.delta,
                "twist_degree_2d": margins.twist_degree_2d,
                "deg_m_twisted": entry.deg_m_twisted,
                "deg_l_twisted": entry.deg_l_twisted,
                "bound_m": margins.bound_m,
                "bound_l": margins.bound_l,
            }
            for entry in twisted_degrees(args.g, args.h)
        ]
        keys = [
            "g",
            "h",
            "delta",
            "twist_degree_2d",
            "deg_m_twisted",
            "deg_l_twisted",
            "bound_m",
            "bound_l",
        ]
        return keys, rows, False
    row = {
        "g": margins.g,
        "h": margins.h,
        "parity": margins.parity,
        "twist_degree_2d": margins.twist_degree_2d,
        "bound_m": margins.bound_m,
        "bound_l": margins.bound_l,
        "vanishing_guaranteed": margins.vanishing_guaranteed,
    }
    keys = ["g", "h", "parity", "twist_degree_2d", "bound_m", "bound_l", "vanishing_guaranteed"]
    return keys, [row], False


def _cmd_reducedness(args):
    bounds = reducedness_genus_bounds(args.h)
    row = {
        "h": bounds.h,
        "parity": bounds.parity,
        "direct": bounds.direct,
        "alternative": bounds.alternative,
    }
    return ["h", "parity", "direct", "alternative"], [row], False


def _cmd_cyclic(args):
    profile = derive_profile(args.g, args.h, args.t)
    row = {
        "g": profile.g,
        "h": profile.h,
        "t": profile.t,
        "branch_count": profile.branch_count,
        "k1": profile.k1,
        "k2": profile.k2,
        "dim_h0": profile.dim_h0,
        "dim_h1": profile.dim_h1,
        "dim_h2": profile.dim_h2,
        "n1_lower": profile.n1_lower,
        "n2_lower": profile.n2_lower,
    }
    keys = [
        "g",
        "h",
        "t",
        "branch_count",
        "k1",
        "k2",
        "dim_h0",
        "dim_h1",
        "dim_h2",
        "n1_lower",
        "n2_lower",
    ]
    return keys, [row], False


def _cmd_gap(args):
    report = pencil_gap_report(args.g, args.h, args.t)
    row = {
        "g": report.g,
        "h": report.h,
        "t": report.t,
        "cs_bound": report.cs_bound,
        "composed_below": report.composed_below,
        "largest_excluded": math.ceil(report.composed_below) - 1,
        "exists_at_most": report.exists_at_most,
        "theorem_a_degree": report.theorem_a_degree,
    }
    keys = [
        "g",
        "h",
        "t",
        "cs_bound",
        "composed_below",
        "largest_excluded",
        "exists_at_most",
        "theorem_a_degree",
    ]
    return keys, [row], False


def _cmd_feasible(args):
    result = construction_feasible(args.g, args.h, args.t)
    row = {
        "g": result.g,
        "h": result.h,
        "t": result.t,
        "feasible": result.feasible,
        "ell": result.ell,
    }
    return ["g", "h", "t", "feasible", "ell"], [row], False


_HANDLERS = {
    "rho": _cmd_rho,
    "count": _cmd_count,
    "eval": _cmd_eval,
    "pushpull": _cmd_pushpull,
    "cs-bound": _cmd_cs_bound,
    "lemma11": _cmd_lemma11,
    "theorem-a": _cmd_theorem_a,
    "audit": _cmd_audit,
    "miranda": _cmd_miranda,
    "lemma21": _cmd_lemma21,
    "reducedness": _cmd_reducedness,
    "cyclic": _cmd_cyclic,
    "gap": _cmd_gap,
    "feasible": _cmd_feasible,
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

    p = sub.add_parser("rho", parents=[common], help="Brill-Noether number")
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--r", type=int, required=True, help="rank")
    p.add_argument("--d", type=int, required=True, help="degree")

    p = sub.add_parser("count", parents=[common], help="Castelnuovo count at rho = 0")
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--r", type=int, required=True, help="rank")
    p.add_argument("--d", type=int, required=True, help="degree")

    p = sub.add_parser("eval", parents=[common], help="evaluate a class expression in top degree")
    p.add_argument("--g", type=int, required=True, help="genus of the ambient")
    p.add_argument("--d", type=int, required=True, help="symmetric-product index")
    p.add_argument("--expr", required=True, help="expression in x, theta, bn1(d)")
    p.add_argument("--verbose", action="store_true", help="report monomials dropped by the ambient")

    p = sub.add_parser("pushpull", parents=[common], help="push an x-polynomial down k steps")
    p.add_argument("--g", type=int, required=True, help="genus of the ambient")
    p.add_argument("--d", type=int, required=True, help="symmetric-product index")
    p.add_argument("--k", type=int, required=True, help="number of steps down")
    p.add_argument("--expr", required=True, help="polynomial in x")

    p = sub.add_parser("cs-bound", parents=[common], help="Castelnuovo-Severi forced degree")
    p.add_argument("--g", type=int, required=True, help="genus of the cover")
    p.add_argument("--h", type=int, required=True, help="genus of the base")

    p = sub.add_parser("lemma11", parents=[common], help="equi-dimensionality genus hypothesis")
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--n", type=int, required=True, help="pencil degree parameter")

    p = sub.add_parser(
        "theorem-a", parents=[common], help="verify the critical-degree comparison"
    )
    p.add_argument("--h", type=int, default=None, help="base genus")
    p.add_argument("--g", type=int, default=None, help="cover genus")
    p.add_argument(
        "--h-range", type=int, nargs=2, metavar=("LO", "HI"), default=None, help="sweep base genera"
    )
    p.add_argument("--g-margin", type=int, default=0, help="sweep genus margin above the bound")

    p = sub.add_parser("audit", parents=[common], help="replay the inequality chain")
    p.add_argument("--h", type=int, required=True, help="base genus")
    p.add_argument("--g", type=int, required=True, help="cover genus")

    p = sub.add_parser("miranda", parents=[common], help="ruled-surface degree ledger")
    p.add_argument("--g", type=int, required=True, help="cover genus")
    p.add_argument("--h", type=int, required=True, help="base genus")
    p.add_argument("--delta", type=int, default=None, help="minimal-section invariant")
    p.add_argument("--all", action="store_true", help="all admissible delta values")

    p = sub.add_parser("lemma21", parents=[common], help="section-vanishing margins")
    p.add_argument("--g", type=int, required=True, help="cover genus")
    p.add_argument("--h", type=int, required=True, help="base genus")
    p.add_argument(
        "--per-delta", action="store_true", help="actual twisted degrees for each admissible delta"
    )

    p = sub.add_parser("reducedness", parents=[common], help="reducedness genus bounds")
    p.add_argument("--h", type=int, required=True, help="base genus")

    p = sub.add_parser("cyclic", parents=[common], help="cyclic-cover eigenspace ledger")
    p.add_argument("--g", type=int, required=True, help="cover genus")
    p.add_argument("--h", type=int, required=True, help="base genus")
    p.add_argument("--t", type=int, required=True, help="branch split")

    p = sub.add_parser("gap", parents=[common], help="pencil-degree threshold comparison")
    p.add_argument("--g", type=int, required=True, help="cover genus")
    p.add_argument("--h", type=int, required=True, help="base genus")
    p.add_argument("--t", type=int, required=True, help="normalized branch split")

    p = sub.add_parser("feasible", parents=[common], help="cyclic-cover construction feasibility")
    p.add_argument("--g", type=int, required=True, help="cover genus")
    p.add_argument("--h", type=int, required=True, help="base genus")
    p.add_argument("--t", type=int, required=True, help="branch split")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        keys, rows, violated = _HANDLERS[args.command](args)
        _write(_render(keys, rows, args.format), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())

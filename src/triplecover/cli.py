"""Command-line front end.

Every subcommand prints a flat record stream in one of three formats
(``--format table|csv|json``, default table) to standard output or to a
file given with ``--out``.  A row is a tuple aligned with the column names,
most often a library result record itself.  One pass turns each value into
text once (``_cell``): rationals are ``p/q`` and big integers decimal
strings, never floats.  CSV writes those texts under a mandatory header row;
the table pads them, right-aligning a column of ints and Fractions only;
JSON is the layout of ``json.dumps(objects, indent=2)``, a single array of
one object per row, keyed by the column names, built from the texts quoted
by the C escaper that ``json.dumps`` uses, with None and booleans as JSON
literals.

The parser tree is built once per process.  A call whose first argument
names a subcommand is parsed in one argparse pass, by that subcommand's
parser alone, with the messages and exit codes of the whole tree; the whole
tree parses only help, an empty argument list and unknown subcommands.

Exit codes: 0 on success, 1 when a verification subcommand (theorem-a,
audit) finds a violated inequality, 2 on usage or input errors.  Integers
longer than the interpreter's int-to-str digit limit, outputs of more than
100,000 rows (``miranda --all``, ``lemma21 --per-delta``, ``theorem-a
--h-range``; refused before any row is built) and ``--out`` targets that
cannot be written are input errors; running out of memory exits 2 too.

``theorem-a --h-range`` runs ``existence.sweep``, one task per base genus,
with the worker count W taken from the ``TRIPLECOVER_WORKERS`` environment
variable; ``sweep``'s docstring describes how it forks.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .arith import exceeds_str_digits
from .brill_noether import (
    castelnuovo_count,
    castelnuovo_count_bits,
    cs_max_degree,
    pencil_dimension_hypothesis,
    rho,
)
from .classexpr import parse, parse_with_diagnostics
from .cohomology import evaluate_top, evaluate_top_bits, pushforward_B, pushforward_bits
from .cyclic_cover import (
    CyclicCoverProfile,
    Feasibility,
    PencilGapReport,
    construction_feasible,
    derive_profile,
    pencil_gap_report,
)
from .existence import (
    AuditStep,
    InequalityReport,
    ProofAudit,
    audit_proof_chain,
    genus_bound,
    lhs_bits,
    sweep,
    verify_inequality,
)
from .triple_cover import (
    ReducednessBounds,
    TripleCoverGeometry,
    TwistedDegrees,
    VanishingMargins,
    admissible_deltas,
    derive_geometry,
    reducedness_genus_bounds,
    section_vanishing_margins,
    twisted_degrees,
)

__all__ = ["main"]

WORKERS_ENV = "TRIPLECOVER_WORKERS"

# The most rows one run prints: 100,000 miranda rows take 2.0 s and 147 MB
# as a table, 297 MB as JSON; one million took 12.5 s and 671 MB (2-CPU VM,
# CPython 3.11).
_MAX_ROWS = 100_000


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

def _cell(key: str, value) -> str:
    """The text of one value in column ``key``: None is empty, booleans are
    true/false, and anything else is its ``str()``, which is ``p`` or ``p/q``
    for a Fraction and the canonical form for a class."""
    if value is None:
        return ""
    if type(value) is bool:
        return "true" if value else "false"
    try:
        return str(value)
    except ValueError:
        # The int-to-str digit limit (CVE-2020-10735) stays in force; name
        # the column instead of repeating CPython's advice to raise it.
        raise _too_many_digits(key) from None


def _too_many_digits(key: str) -> ValueError:
    return ValueError(
        f"column {key!r} holds an integer of more than "
        f"{sys.get_int_max_str_digits()} digits, the interpreter's "
        "limit for converting integers to text"
    )


def _render(keys: list[str], rows: Sequence[tuple], fmt: str) -> str:
    # A row is a tuple aligned with keys.  A cell holding the object of the
    # cell above it, or of the earlier cell of its row that holds it in the
    # first row, reuses that cell's text: a report's lhs_via_expansion is its
    # lhs, some 4,000 digits at h = 700, and lemma21 --per-delta repeats one
    # Fraction down a column.
    index: dict[int, int] = {}
    earlier = [index.setdefault(id(value), i) for i, value in enumerate(rows[0])] if rows else []
    cells, above, above_line = [], None, None
    for row in rows:
        line = []
        for i, value in enumerate(row):
            j = earlier[i]
            if above_line is not None and value is above[i]:
                line.append(above_line[i])
            elif j < i and value is row[j]:
                line.append(line[j])
            else:
                line.append(_cell(keys[i], value))
        cells.append(line)
        above, above_line = row, line
    if fmt == "json":
        # json.dumps(objects, indent=2), from the cell texts (module docstring).
        names = [f"    {encode_basestring_ascii(key)}: " for key in keys]
        objects = ["  {\n" + ",\n".join([
            name + ("null" if value is None else text if type(value) is bool else encode_basestring_ascii(text))
            for name, value, text in zip(names, row, line)
        ]) + "\n  }" for row, line in zip(rows, cells)]
        return "[\n" + ",\n".join(objects) + "\n]\n" if rows else "[]\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(keys)
        writer.writerows(cells)
        return buffer.getvalue()
    # table: a column of ints and Fractions only is right-aligned
    widths = [max([len(key), *(len(line[i]) for line in cells)]) for i, key in enumerate(keys)]
    pads = [str.rjust if all(type(value) in (int, Fraction) for value in column) else str.ljust for column in zip(*rows)]
    lines = ["  ".join(key.ljust(width) for key, width in zip(keys, widths)).rstrip()]
    for line in cells:
        lines.append("  ".join([pad(cell, width) for pad, cell, width in zip(pads, line, widths)]).rstrip())
    return "\n".join(lines) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ----------------------------------------------------------------------
# handlers: each returns (keys, rows, violated), every row a tuple aligned
# with keys: a library result record itself (_records), an audit's scalar
# fields followed by one step's (_cmd_audit), or the required flags followed
# by library values (_echo); no handler does arithmetic on a result.

def _records(cls, records: list[tuple], violated: bool = False) -> tuple[list[str], list[tuple], bool]:
    """The records of type ``cls`` as rows, under its field names."""
    return list(cls._fields), records, violated


def _echo(args, **computed) -> tuple[list[str], list[tuple], bool]:
    """One row: the subcommand's required flags in declaration order, then ``computed``."""
    flags = [flag[2:] for flag, _, kwargs in _COMMANDS[args.command][1] if kwargs.get("required")]
    return [*flags, *computed], [(*[getattr(args, flag) for flag in flags], *computed.values())], False


def _cmd_eval(args):
    if args.verbose:
        cls, notes = parse_with_diagnostics(args.expr, args.g, args.d)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    else:
        cls = parse(args.expr, args.g, args.d)
    # The class is printed before it is evaluated, and a value too long to
    # print is refused before evaluate_top builds it: theta^3000000 in
    # (10^7, 3*10^6) spent 81 s in Poincare's formula before the renderer
    # refused it.
    canonical = _cell("canonical", cls)
    _refuse_unprintable("value", evaluate_top_bits(cls))
    return _echo(args, canonical=canonical, value=evaluate_top(cls))


def _cmd_pushpull(args):
    # A result too long to print is refused before its binomials are
    # computed: C(2000000, 1000000) alone takes 11 s.
    cls = parse(args.expr, args.g, args.d)
    _refuse_unprintable("result", pushforward_bits(args.k, cls))
    pushed = pushforward_B(args.k, cls)
    return _echo(args, result=pushed, result_sym_index=pushed.sym_index)


def _cmd_count(args):
    # A count too long to print is refused before it is computed: a
    # 600,000-digit count takes most of a minute.
    value = rho(args.g, args.r, args.d)
    if value == 0:
        _refuse_unprintable("count", castelnuovo_count_bits(args.g, args.r, args.d))
    return _echo(args, rho=value, count=castelnuovo_count(args.g, args.r, args.d))


def _refuse_rows(rows: Sequence[int]) -> None:
    """Refuse an output with one row per element of ``rows`` when it has more
    than ``_MAX_ROWS``, before any row is built; a slice of a range works
    where ``len`` would overflow."""
    if rows[_MAX_ROWS:]:
        raise ValueError(f"the output would have more than {_MAX_ROWS} rows, the limit for one run")


def _refuse_unprintable(column: str, bits: int) -> None:
    """Refuse a value of at least 2**bits in magnitude, too long to print,
    before it is computed, with the renderer's message for ``column``."""
    if exceeds_str_digits(bits):
        raise _too_many_digits(column)


def _cmd_theorem_a(args):
    if args.h_range is not None:
        if args.h is not None or args.g is not None:
            raise ValueError("--h-range cannot be combined with --h/--g")
        h_lo, h_hi = args.h_range
        if h_lo <= h_hi and args.g_margin >= 0:
            _refuse_rows(range((h_hi - h_lo + 1) * (args.g_margin + 1)))
            if h_lo >= 1:
                # The sweep's last case has its largest left side; a row the
                # renderer would refuse is refused before the sweep runs.
                # lhs_bits is a lower bound, 2,300 bits under that side at
                # h = 868 and margin 1000, so a side it passes is computed
                # (3 ms there) and put to the renderer's own digit check.
                last = (h_hi, genus_bound(h_hi) + args.g_margin)
                _refuse_unprintable("lhs", lhs_bits(*last))
                _cell("lhs", verify_inequality(*last).lhs)
        reports = sweep((h_lo, h_hi), args.g_margin, workers=_workers_from_env())
    else:
        if args.h is None or args.g is None:
            raise ValueError("theorem-a needs either --h and --g, or --h-range")
        # A left side too long to print is refused before it is computed:
        # theorem-a at (20000, 1800090001) spent 1.8 s on a 156,381-digit one.
        _refuse_unprintable("lhs", lhs_bits(args.h, args.g))
        reports = [verify_inequality(args.h, args.g)]
    return _records(InequalityReport, reports, any(not report.strict for report in reports))


def _cmd_audit(args):
    # One row per step: the audit's scalar fields (all but the last, steps),
    # then the step's fields, its name in a column called "step".
    _refuse_unprintable("lhs", lhs_bits(args.h, args.g))
    audit = audit_proof_chain(args.h, args.g)
    keys = [*ProofAudit._fields[:-1], "step", *AuditStep._fields[1:]]
    return keys, [audit[:-1] + step for step in audit.steps], not audit.all_hold


def _cmd_miranda(args):
    if args.all == (args.delta is not None):
        raise ValueError("miranda needs exactly one of --delta or --all")
    deltas = admissible_deltas(args.g, args.h) if args.all else [args.delta]
    _refuse_rows(deltas)
    return _records(TripleCoverGeometry, [derive_geometry(args.g, args.h, delta) for delta in deltas])


def _cmd_lemma21(args):
    if args.per_delta:
        _refuse_rows(admissible_deltas(args.g, args.h))
        return _records(TwistedDegrees, twisted_degrees(args.g, args.h))
    return _records(VanishingMargins, [section_vanishing_margins(args.g, args.h)])


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
        lambda a: _records(PencilGapReport, [pencil_gap_report(a.g, a.h, a.t)]),
    ),
    "feasible": (
        "cyclic-cover construction feasibility",
        (_COVER_G, _BASE_H, _SPLIT),
        lambda a: _records(Feasibility, [construction_feasible(a.g, a.h, a.t)]),
    ),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name, built once,
    on the first ``main`` call of a process, and reused: ``parse_args`` keeps
    no state between calls.  ``main`` parses a call that names a subcommand
    with that subcommand's parser alone, and goes through the whole tree
    only for help, an empty argv and unknown subcommands."""
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
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments of one call, as ``parse_args`` on the whole tree
    gives them, in one argparse pass when ``argv[0]`` names a subcommand:
    the subparsers action would hand ``argv[1:]`` to that subcommand's
    parser, and the top-level parser would refuse what it leaves over."""
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        keys, rows, violated = _COMMANDS[args.command][2](args)
        _write(_render(keys, rows, args.format), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Exit 1 means a verified inequality failed; running out of memory
        # is a refusal of the input, like the errors above.
        print("error: out of memory", file=sys.stderr)
        return 2
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())

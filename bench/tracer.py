"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps the public functions of the ``triplecover`` modules
and rebinds each wrapper in *every* loaded ``triplecover`` module that holds
the original under some name, because ``existence``, ``cohomology``,
``brill_noether``, ``classexpr`` and ``cli`` bind ``factorial``,
``mul_classes`` and friends directly with ``from .x import y``.

Each call becomes a span (id, name, start_ns, end_ns, parent id, request id);
the request id is the id of the outermost span of that call tree.  Spans stay
in memory until ``write`` puts them out as JSON lines.  Calls are strictly
nested in one thread, so a span's self time is its duration minus the summed
durations of its direct children, kept on a stack as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, function) pairs traced by name; the metric prefix is module.function.
TRACED = {
    "arith": ["factorial", "binomial"],
    "cohomology": ["mul_classes", "evaluate_top", "render_class"],
    "brill_noether": ["bn1_class", "castelnuovo_count"],
    "existence": ["verify_inequality", "audit_proof_chain", "sweep"],
    "classexpr": ["parse", "parse_with_diagnostics"],
    "cli": ["main"],
}
# Modules whose public functions are traced together under the module name.
WHOLE_MODULES = ["triple_cover", "cyclic_cover"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns]
        self.counters: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span id, request id, child_ns]
        self._next_id = 0

    def _bump(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, count=None):
        """Return a wrapper of ``fn`` recording one span per call; ``count``
        sees (args, result, span duration in ns) after the span closes."""
        stats = self.stats.setdefault(name, [0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, parent[1] if parent else span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                spans.append((span_id, name, start, end, parent[0] if parent else None, frame[1]))
            if count is not None:
                count(args, result, duration)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions and rebind them wherever they are bound."""
        def verify_counts(args, report, duration):
            self._peak("existence.verify_inequality.lhs_bits_max", abs(report.lhs.numerator).bit_length())
            # Per-h totals: the h-chunks a pool sweep would hand to its workers.
            self._bump(f"existence.sweep.chunk_ns.h{args[0]}", duration)

        counts = {
            "arith.factorial": lambda args, _, __: self._peak("arith.factorial.max_n", args[0]),
            "cohomology.mul_classes": lambda args, _, __: self._bump(
                "cohomology.mul_classes.term_pairs", len(args[0].terms) * len(args[1].terms)
            ),
            "existence.verify_inequality": verify_counts,
            "classexpr.parse_with_diagnostics": lambda _, result, __: self._bump(
                "classexpr.parse_with_diagnostics.dropped_terms", len(result[1])
            ),
        }
        targets = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"triplecover.{module_name}")
            for fn_name in names:
                targets[getattr(module, fn_name)] = f"{module_name}.{fn_name}"
        for module_name in WHOLE_MODULES:
            module = importlib.import_module(f"triplecover.{module_name}")
            for fn_name in module.__all__:
                fn = getattr(module, fn_name)
                if callable(fn) and not isinstance(fn, type):
                    targets[fn] = f"{module_name}.{fn_name}"
        wrappers = {fn: self.wrap(name, fn, counts.get(name)) for fn, name in targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "triplecover" and not module_name.startswith("triplecover."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

"""One benchmark sample, run in a fresh interpreter.

Reads a task as JSON on stdin, times the reference loop (the machine's
current speed; cold_start times a bare interpreter start instead), imports
``triplecover`` (timed: that is the set-up time),
runs the task and prints one JSON object as its last line.  Every sample gets
its own process, so no sample sees another sample's factorial cache; a pool
sweep forks its workers from this fresh process.

Tasks:
  sweep        existence.sweep over an h range and genus margin with a given
               worker count; optionally times verify_inequality per call on
               the same cases afterwards, in a seeded order.
  large_genus  one cold verify_inequality, then a warm audit_proof_chain.
  cli_mix      a list of argv lists through triplecover.cli.main, stdout and
               stderr captured per call.
  cold_start   ``python -m triplecover`` with the given arguments, timed from
               here; this task imports nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path


REFERENCE_N = 1_000_000


def reference_s() -> float:
    """Time a fixed pure-Python integer loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_N):
        total += i * i
    return time.perf_counter() - start


def _spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60)
    return time.perf_counter() - start, proc


def run_cold_start(task: dict) -> dict:
    # A bare interpreter start, timed just before, is the reference for
    # process start-up speed, which the integer loop does not track.
    bare, _ = _spawn(["-c", "pass"])
    wall, proc = _spawn(["-m", "triplecover", *task["argv"]])
    return {
        "wall_s": wall,
        "startup_ref_s": bare,
        "returncode": proc.returncode,
        "stdout": proc.stdout,
        "traceback": "Traceback" in proc.stderr,
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def _report_line(report) -> str:
    return f"{report.h},{report.g},{report.lhs},{report.rhs},{report.lhs_via_expansion},{report.strict}\n"


def run_sweep(task: dict, existence) -> dict:
    h_lo, h_hi = task["h_range"]
    start = time.perf_counter()
    reports = existence.sweep((h_lo, h_hi), task["margin"], workers=task["workers"])
    wall = time.perf_counter() - start
    out = {"wall_s": wall}
    digest = hashlib.sha256()
    anchors = {}
    for report in reports:
        digest.update(_report_line(report).encode())
        if (report.h, report.g) in ((2, 28), (1, 15)):
            anchors[f"{report.h},{report.g}"] = [str(report.lhs), str(report.rhs), report.strict]
    out.update(
        reports=len(reports),
        all_strict=all(report.strict for report in reports),
        digest=digest.hexdigest(),
        anchors=anchors,
    )
    if task.get("latency_seed") is not None:
        cases = [(report.h, report.g) for report in reports]
        random.Random(task["latency_seed"]).shuffle(cases)
        verify = existence.verify_inequality
        clock = time.perf_counter_ns
        latencies = []
        strict = True
        for h, g in cases:
            t0 = clock()
            report = verify(h, g)
            latencies.append(clock() - t0)
            strict = strict and report.strict
        out["latency_ns"] = latencies
        out["latency_strict"] = strict
    return out


def run_large_genus(task: dict, existence) -> dict:
    h, g = task["h"], task["g"]
    start = time.perf_counter()
    report = existence.verify_inequality(h, g)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    audit = existence.audit_proof_chain(h, g)
    warm_audit = time.perf_counter() - start
    return {
        "cold_s": cold,
        "audit_s": warm_audit,
        "lhs_bits": abs(report.lhs.numerator).bit_length(),
        "lhs_integral": report.lhs.denominator == 1,
        "strict": report.strict,
        "audit_steps": len(audit.steps),
    }


def run_cli_mix(task: dict, cli, tracer) -> dict:
    main = cli.main
    clock = time.perf_counter_ns
    results = []
    stdout_bytes = 0
    digest = hashlib.sha256()
    start = clock()
    for argv in task["calls"]:
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # a crash is a result to report, not to stop on
                code, crash = None, f"{type(exc).__name__}: {exc}"[:300]
        elapsed = clock() - t0
        text = out.getvalue()
        stdout_bytes += len(text.encode())
        digest.update(text.encode() + b"\0")
        results.append([code, elapsed, text, crash])
    wall = (clock() - start) / 1e9
    if tracer is not None:
        tracer.counters["cli.main.stdout_bytes"] = stdout_bytes
    return {"wall_s": wall, "calls": results, "digest": digest.hexdigest()}


def main() -> int:
    task = json.loads(sys.stdin.read())
    if task["kind"] == "cold_start":
        print(json.dumps(run_cold_start(task)))
        return 0
    # Timed first, next to the sample it calibrates.
    ref = reference_s()
    start = time.perf_counter()
    import triplecover
    import triplecover.cli
    setup = time.perf_counter() - start
    src = Path(task["src"]).resolve()
    if src not in Path(triplecover.__file__).resolve().parents:
        print(f"triplecover imported from {triplecover.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if task.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from triplecover import existence

    kind = task["kind"]
    if kind == "sweep":
        out = run_sweep(task, existence)
    elif kind == "large_genus":
        out = run_large_genus(task, existence)
    elif kind == "cli_mix":
        out = run_cli_mix(task, triplecover.cli, tracer)
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    out["setup_s"] = setup
    out["ref_before_s"] = ref
    if task.get("bracket"):
        # Long samples outlast the machine's speed swings: time the
        # reference again after them.
        out["ref_after_s"] = reference_s()
    out["rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["stats"] = tracer.stats
        out["counters"] = tracer.counters
        if task.get("spans"):
            tracer.write(task["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

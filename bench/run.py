"""Benchmark of the triplecover library and CLI.

    python3 bench/run.py --workload {sweep,large-genus,cli} --seed N --seconds S --trace {0,1}

Run from the repository root (or any checkout of it).  Every sample runs in a
fresh interpreter (``bench/child.py``), so no sample reuses another sample's
process or factorial cache; samples of all variants are interleaved in rounds
whose order the seed shuffles, and rounds repeat while another one fits in
``--seconds``.  One caller, closed loop: the next sample starts when the
previous one has ended, and at most ``nproc`` worker processes run at once.
The seed fixes the CLI mix, the per-call latency order and the round order;
the sweep and large-genus inputs are the fixed sizes named below.

The three measurement families:

  sweep        existence.sweep serially and with nproc workers on the
               2,408-case acceptance sweep (h in [1,8], margin 300) and the
               7,224-case wide sweep (h in [1,24], margin 300); per-call
               verify_inequality latency on the acceptance cases.
  large-genus  one cold verify_inequality(60, 16471) per process, then a warm
               audit_proof_chain(60, 16471).
  cli          cold start of ``python -m triplecover theorem-a --h 2 --g 28``,
               and a seeded 200-call mix through triplecover.cli.main.

With ``--trace 0`` every round runs all three families, so each workload
reports every end-to-end metric; the workload names the family whose
children give ``peak_rss_mb``.  ``setup_s`` is the median over every child
of the in-child time to import ``triplecover`` and ``triplecover.cli``.
Once per run the known crash and hang inputs are probed, each in its own
subprocess with a timeout, and counted in ``cli_failed_share``.

With ``--trace 1`` rounds run only the workload's own family, once untraced
and once with every public function wrapped in spans (``bench/tracer.py``);
the traced samples give the per-layer metrics and the traced/untraced wall
ratio gives ``trace.overhead_share``.  Spans go to ``.bench_out/spans/``.
A per-layer metric that the workload's family never exercises reads 0.

Machine speed.  On a shared VM the same code runs up to ~30% faster or
slower from one minute to the next, and CPU time drifts with wall time.  So
every child first times a fixed pure-Python integer loop (the reference,
``child.reference_s``), and long samples time it again after their work.
Each timing is multiplied by REF_NOMINAL_S / (the reference timed nearest to
it): times are reported in seconds at the speed where the reference loop
takes REF_NOMINAL_S, and the drift cancels.  The cold start is process
start-up, which the loop does not track; it is scaled instead by
STARTUP_NOMINAL_S / (a bare ``python -c pass`` timed just before it).  Raw
per-sample times and reference times go to ``.bench_out/samples-*.json``.

Metric names and units come from BENCHMARK.json.  Human-readable lines go to
stdout first; the last line is one JSON object with the keys correct,
attempted (output checks made), failed (checks that failed) and metrics.
The fault probes are not checks: they are expected to fail until the CLI
handles those inputs.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_mix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = os.cpu_count() or 1

SWEEPS = {  # variant: (h range, genus margin, expected report count)
    "acceptance": ((1, 8), 300, 2408),
    "wide": ((1, 24), 300, 7224),
}
ANCHORS = {"2,28": ["77805", "19", True], "1,15": ["910", "28", True]}
LARGE_GENUS = {"h": 60, "g": 16471, "lhs_bits": 817}
COLD_ARGV = ["theorem-a", "--h", "2", "--g", "28"]
PROBE_TIMEOUT_S = 2.0
# About the reference loop's and a bare interpreter start's median times on
# a 2-CPU Xeon VM.
REF_NOMINAL_S = 0.07
STARTUP_NOMINAL_S = 0.065
CHILD_TIMEOUT_S = 90.0

FAMILIES = {
    "sweep": ["acceptance_serial", "acceptance_pool", "wide_serial", "wide_pool"],
    "large-genus": ["large_genus"],
    "cli": ["cli_cold", "cli_mix"],
}
# Samples of a variant per round (default 1): the variants whose samples
# scatter most get more, so that each median has a similar spread.
REPEATS = {"large_genus": 3, "cli_cold": 4, "acceptance_serial": 3, "acceptance_pool": 2, "cli_mix": 2}
# Variants whose samples last long enough to need a reference timing both
# before and after them.
BRACKETED = {"acceptance_serial", "wide_serial", "wide_pool", "cli_mix"}
# Per workload: the sample variant traced, and the timing that the traced and
# untraced copies of it are compared on.
TRACED_VARIANT = {
    "sweep": ("acceptance_serial", "wall_s"),
    "large-genus": ("large_genus", "cold_s"),
    "cli": ("cli_mix", "wall_s"),
}
# Untraced variants a traced run needs: the baseline of the traced variant,
# and for sweep the pool comparison behind the pool_speedup metrics.
TRACE_RUN_VARIANTS = {
    "sweep": FAMILIES["sweep"],
    "large-genus": ["large_genus"],
    "cli": ["cli_mix"],
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.trace = trace
        self.rng = random.Random(seed)
        self.mix = cli_mix.build_mix(seed)
        self.samples: dict[str, list[dict]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- running samples -------------------------------------------------

    def _child(self, task: dict) -> dict | None:
        task = {"src": str(SRC), **task}
        try:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "child.py")],
                input=json.dumps(task),
                capture_output=True,
                text=True,
                cwd=ROOT,
                env=_env(),
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self._fail(f"{task['kind']} sample timed out after {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            self._fail(f"{task['kind']} sample exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    def _check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._fail(message)

    def run_variant(self, variant: str, traced: bool = False) -> None:
        if variant == "cli_cold":
            task = {"kind": "cold_start", "argv": COLD_ARGV}
        elif variant == "large_genus":
            task = {"kind": "large_genus", "h": LARGE_GENUS["h"], "g": LARGE_GENUS["g"]}
        elif variant == "cli_mix":
            task = {"kind": "cli_mix", "calls": [call["argv"] for call in self.mix]}
        else:
            size, mode = variant.split("_")
            h_range, margin, _ = SWEEPS[size]
            task = {
                "kind": "sweep",
                "h_range": h_range,
                "margin": margin,
                "workers": 1 if mode == "serial" else NPROC,
                # Per-call latency is timed in the serial acceptance child only.
                "latency_seed": self.rng.randrange(2**32) if variant == "acceptance_serial" and not self.trace else None,
            }
        task["bracket"] = variant in BRACKETED
        if traced:
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            task.update(trace=True, spans=str(OUT / "spans" / f"{self.workload}-{variant}.jsonl"))
        sample = self._child(task)
        if sample is None:
            self.attempted += 1
            self.failed += 1
            return
        getattr(self, f"_check_{task['kind']}")(variant, sample)
        key = variant + ("_traced" if traced else "")
        self.samples.setdefault(key, []).append(sample)

    # -- output checks ---------------------------------------------------

    def _check_sweep(self, variant: str, sample: dict) -> None:
        size = variant.split("_")[0]
        expected = SWEEPS[size][2]
        self._check(sample["reports"] == expected, f"{variant}: {sample['reports']} reports, expected {expected}")
        self._check(sample["all_strict"], f"{variant}: a report is not strict")
        self._check(sample["anchors"] == ANCHORS, f"{variant}: anchors {sample['anchors']} != {ANCHORS}")
        first = next((s for key, group in self.samples.items() if key.startswith(size) for s in group), None)
        if first is not None:
            self._check(sample["digest"] == first["digest"], f"{variant}: reports differ from an earlier sample")
        if "latency_ns" in sample:
            self._check(
                len(sample["latency_ns"]) == expected and sample["latency_strict"],
                f"{variant}: per-call verification count or verdict wrong",
            )

    def _check_cold_start(self, variant: str, sample: dict) -> None:
        self._check(
            sample["returncode"] == 0 and "77805" in sample["stdout"] and not sample["traceback"],
            f"cold start exited {sample['returncode']}",
        )

    def _check_large_genus(self, variant: str, sample: dict) -> None:
        self._check(
            sample["lhs_bits"] == LARGE_GENUS["lhs_bits"] and sample["lhs_integral"] and sample["strict"],
            f"large genus: lhs has {sample['lhs_bits']} bits, strict={sample['strict']}",
        )
        self._check(sample["audit_steps"] == 10, f"large genus: audit has {sample['audit_steps']} steps")

    def _check_cli_mix(self, variant: str, sample: dict) -> None:
        for call, (code, _, stdout, crash) in zip(self.mix, sample["calls"]):
            problem = crash or cli_mix.check_output(call, code, stdout)
            self._check(problem is None, f"cli {' '.join(call['argv'])[:120]}: {problem}")
        digests = {s["digest"] for key in ("cli_mix", "cli_mix_traced") for s in self.samples.get(key, [])}
        self._check(digests <= {sample["digest"]}, "cli: stdout differs between passes of the same mix")

    # -- probes ----------------------------------------------------------

    def probe_faults(self) -> int:
        """Run each known crash or hang input once; return how many failed."""
        failed = 0
        for argv in cli_mix.probes(str(OUT)):
            label = " ".join(argv)[:60]
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "triplecover", *argv],
                    capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=PROBE_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                print(f"probe FAIL (timeout {PROBE_TIMEOUT_S} s): {label}")
                failed += 1
                continue
            ok = proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr
            print(f"probe {'ok' if ok else 'FAIL'} (exit {proc.returncode}): {label}")
            failed += not ok
        return failed

    # -- metrics ---------------------------------------------------------

    def _median(self, key: str, field: str) -> float:
        return statistics.median(sample[field] * _speed(sample) for sample in self.samples.get(key, []))

    def end_to_end(self, rounds: list[list[dict]], probe_failures: int) -> dict:
        acceptance = self.samples["acceptance_serial"]
        mix = self.samples["cli_mix"]
        children = [s for group in self.samples.values() for s in group if "setup_s" in s]
        # Peak memory of the workload's own children, per round, then the median.
        peaks = [max(s["rss_mb"] for s in group) for group in rounds if group]
        return {
            "setup_s": statistics.median(s["setup_s"] * _speed(s, "before") for s in children),
            "peak_rss_mb": statistics.median(peaks),
            "sweep_serial_s": self._median("acceptance_serial", "wall_s"),
            "sweep_pool_s": self._median("acceptance_pool", "wall_s"),
            "wide_sweep_serial_s": self._median("wide_serial", "wall_s"),
            "wide_sweep_pool_s": self._median("wide_pool", "wall_s"),
            # Per-call percentiles are taken per sample, then the median over samples.
            "verify_p50_us": statistics.median(_pct(s["latency_ns"], 50) * _speed(s, "after") / 1e3 for s in acceptance),
            "verify_p99_us": statistics.median(_pct(s["latency_ns"], 99) * _speed(s, "after") / 1e3 for s in acceptance),
            "large_genus_cold_s": self._median("large_genus", "cold_s"),
            "cli_cold_start_s": statistics.median(
                s["wall_s"] * STARTUP_NOMINAL_S / s["startup_ref_s"] for s in self.samples["cli_cold"]
            ),
            "cli_calls_per_s": statistics.median(len(s["calls"]) / (s["wall_s"] * _speed(s)) for s in mix),
            "cli_call_p50_ms": statistics.median(_pct([c[1] for c in s["calls"]], 50) * _speed(s) / 1e6 for s in mix),
            "cli_call_p95_ms": statistics.median(_pct([c[1] for c in s["calls"]], 95) * _speed(s) / 1e6 for s in mix),
            "cli_failed_share": (self._mix_failures() + probe_failures) / (len(self.mix) + len(cli_mix.probes(""))),
        }

    def _mix_failures(self) -> int:
        """Distinct mix calls that crashed or gave the wrong exit code in any pass."""
        bad = set()
        for sample in self.samples.get("cli_mix", []):
            for index, (call, (code, _, _, crash)) in enumerate(zip(self.mix, sample["calls"])):
                if crash or code != call["exit"]:
                    bad.add(index)
        return len(bad)

    def per_layer(self, names: list[str]) -> dict:
        variant, field = TRACED_VARIANT[self.workload]
        traced = self.samples[variant + "_traced"]
        per_sample = [_layer_metrics(s, names) for s in traced]
        # median_low keeps each value one that was measured (counts stay whole).
        metrics = {name: statistics.median_low(m[name] for m in per_sample) for name in per_sample[0]}
        metrics["trace.overhead_share"] = self._median(variant + "_traced", field) / self._median(variant, field)
        sweep = self.workload == "sweep"
        metrics["existence.sweep.pool_speedup"] = (
            self._median("acceptance_serial", "wall_s") / self._median("acceptance_pool", "wall_s") if sweep else 0
        )
        metrics["existence.sweep.wide_pool_speedup"] = (
            self._median("wide_serial", "wall_s") / self._median("wide_pool", "wall_s") if sweep else 0
        )
        if not sweep:
            metrics["existence.sweep.largest_chunk_share"] = 0
        return metrics


def _speed(sample: dict, when: str = "both") -> float:
    """Factor that rescales a sample's times to the reference speed, using
    the reference timing nearest to them: before, after or (mean) both."""
    before = sample["ref_before_s"]
    after = sample.get("ref_after_s", before)
    return REF_NOMINAL_S / {"before": before, "after": after, "both": (before + after) / 2}[when]


def _pct(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(sample: dict, names: list[str]) -> dict:
    """Per-layer values of one traced sample; unexercised layers read 0."""
    stats, counters = sample["stats"], sample["counters"]
    out = {}
    for name in names:
        layer, _, quantity = name.rpartition(".")
        if quantity == "calls":
            out[name] = stats.get(layer, [0, 0])[0]
        elif quantity == "self_s":
            # A module-level name (triple_cover.self_s) sums all its functions.
            ns = sum(ns for fn, (_, ns) in stats.items() if fn == layer or fn.startswith(layer + "."))
            out[name] = ns * _speed(sample) / 1e9
        else:
            out[name] = counters.get(name, 0)
    chunks = [ns for key, ns in counters.items() if key.startswith("existence.sweep.chunk_ns.")]
    out["existence.sweep.largest_chunk_share"] = max(chunks) / sum(chunks) if chunks else 0
    return out


def _crossover(metrics: dict) -> str:
    """Case count where pool and serial sweeps break even, found by linear
    interpolation (or extrapolation) of pool minus serial time between the
    two sweep sizes."""
    (n1, s1, p1), (n2, s2, p2) = [
        (SWEEPS[size][2], metrics[f"{prefix}_serial_s"], metrics[f"{prefix}_pool_s"])
        for size, prefix in (("acceptance", "sweep"), ("wide", "wide_sweep"))
    ]
    d1, d2 = p1 - s1, p2 - s2
    faster = ["serial" if d > 0 else "pool" for d in (d1, d2)]
    summary = f"{faster[0]} faster at {n1} cases, {faster[1]} at {n2} ({NPROC} workers)"
    if d1 == d2:
        return summary
    even = n1 - d1 * (n2 - n1) / (d2 - d1)
    where = "inside" if n1 <= even <= n2 else "outside"
    return f"{summary}; break-even near {even:.0f} cases, {where} the measured range"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FAMILIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "triplecover" / "__init__.py").is_file():
        print(f"no triplecover package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    bench = Bench(args.workload, args.seed, bool(args.trace))
    if args.trace:
        variants = TRACE_RUN_VARIANTS[args.workload]
    else:
        variants = [v for family in FAMILIES.values() for v in family]
    plan = [(v, False) for v in variants for _ in range(REPEATS.get(v, 1))]
    if args.trace:
        traced = TRACED_VARIANT[args.workload][0]
        plan += [(traced, True)] * REPEATS.get(traced, 1)
    start = time.perf_counter()
    rounds: list[list[dict]] = []
    # Start another round only if one of average length still fits in --seconds,
    # and stop at the first failed check: a failed run reports no timings.
    while not rounds or (
        not bench.failures and (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds
    ):
        order = plan[:]
        bench.rng.shuffle(order)
        before = {key: len(group) for key, group in bench.samples.items()}
        for variant, traced in order:
            bench.run_variant(variant, traced)
        own = [
            s for v in FAMILIES[args.workload] for s in bench.samples.get(v, [])[before.get(v, 0):] if "rss_mb" in s
        ]
        rounds.append(own)

    try:
        if args.trace:
            values = bench.per_layer([m["name"] for m in wanted])
        else:
            probe_failures = bench.probe_faults()
            values = bench.end_to_end(rounds, probe_failures)
            print(f"cli_failed_share numerator {bench._mix_failures() + probe_failures} "
                  f"denominator {len(bench.mix) + len(cli_mix.probes(''))}")
            print(f"pool crossover: {_crossover(values)}")
    except (KeyError, statistics.StatisticsError) as exc:
        bench._fail(f"a metric has no samples: {exc!r}")
        values = {}
    digests = sorted({s["digest"] for key in ("cli_mix", "cli_mix_traced") for s in bench.samples.get(key, [])})
    if digests:
        print(f"cli stdout sha256 (seed {args.seed}): {' '.join(digests)}")
    counts = {key: len(group) for key, group in bench.samples.items()}
    print(f"rounds {len(rounds)}, samples {counts}, nproc {NPROC}, python {sys.version.split()[0]}, "
          f"start method {multiprocessing.get_start_method()}")
    timings = {
        key: [{k: v for k, v in s.items() if k in ("wall_s", "cold_s", "audit_s", "setup_s", "rss_mb", "ref_before_s", "ref_after_s", "startup_ref_s")} for s in group]
        for key, group in bench.samples.items()
    }
    (OUT / f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(timings, indent=1))

    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            bench._fail(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        print(f"{metric['name']:48s} {values[metric['name']]!r} {metric['unit']}")
    for message in bench.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    correct = not bench.failures
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

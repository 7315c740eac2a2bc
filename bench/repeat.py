"""Run bench/run.py over several seeds and report the run-to-run spread.

    python3 bench/repeat.py --workloads sweep,large-genus,cli --seeds 1-10 [--write bench/baseline.json]

For each workload and metric it prints the median of the per-run values and
the distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json.  With --write it merges into FILE, under trace0 or trace1,
the medians and spreads, together with the machine (nproc, Python version,
multiprocessing start method) and the pool crossover read from the sweep
medians.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", metavar="FILE", help="write the baseline record to FILE")
    args = parser.parse_args()

    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    baseline = json.loads(Path(args.write).read_text()) if args.write and Path(args.write).exists() else {}
    baseline["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }
    record = baseline.setdefault(f"trace{args.trace}", {})
    record.update(run_seconds=args.seconds, seeds=args.seeds)
    record.setdefault("workloads", {})
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            walls.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s wall", flush=True)
        summary = {}
        for metric in metrics_spec:
            values = [r[metric["name"]] for r in runs]
            summary[metric["name"]] = {
                "median": statistics.median(values),
                "iqr_share": spread(values),
                "min": min(values),
                "max": max(values),
                "unit": metric["unit"],
            }
            bound = metric.get("bound")
            flag = "" if bound is None or summary[metric["name"]]["iqr_share"] < bound / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:44s} median {summary[metric['name']]['median']:<14.6g} "
                  f"iqr/median {summary[metric['name']]['iqr_share']:.4f}  bound {bound}{flag}")
        print(f"  run wall: max {max(walls):.1f} s, median {statistics.median(walls):.1f} s")
        record["workloads"][workload] = {"metrics": summary, "max_run_wall_s": max(walls)}
        if not args.trace and workload == "sweep":
            medians = {name: entry["median"] for name, entry in summary.items()}
            baseline["pool_crossover"] = {
                "summary": run._crossover(medians),
                "serial_s": {"2408": medians["sweep_serial_s"], "7224": medians["wide_sweep_serial_s"]},
                "pool_s": {"2408": medians["sweep_pool_s"], "7224": medians["wide_sweep_pool_s"]},
            }
            print(f"  pool crossover: {baseline['pool_crossover']['summary']}")
    if args.write:
        Path(args.write).write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spread report: run one workload with several seeds and summarise each metric.

    python3 bench/spread.py --workload graph-query --runs 10 --seconds 15

For every metric of the runs it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
Runs are untraced and go one after another, each in its own process, with
seeds 1, 2, ..., ``--runs``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    status = 0
    for seed in range(1, args.runs + 1):
        command = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            status = 1
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<32} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        share = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f"{bound:>6}" + ("  WIDE" if share > bound / 3 else "")
        print(f"{name:<32} {units[name]:<9} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {share:>8.3f} {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())

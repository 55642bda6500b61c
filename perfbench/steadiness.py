"""Steadiness check: run each workload several times with different seeds and
print, per metric, the median, the quartiles, the spread (IQR / median) next
to the bound in BENCHMARK.json, and max / min:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --workload verify-n31 --runs 5 --seed-base 100

A spread at or above a third of its bound is flagged with "!".  The bounds in
BENCHMARK.json come from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            shown = {n: round(m["value"], 4) for n, m in result["metrics"].items()
                     if n in bounds}
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} {shown}\n  {lines[-2]}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {args.runs} runs of {spec['run_seconds']} s")
        print(f"{'metric':42} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6} {'max/min':>8}")
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            bound = bounds.get(name)
            flag = "!" if bound is not None and rel >= bound / 3 else " "
            ratio = max(vals) / min(vals) if min(vals) > 0 else float("nan")
            print(f"{name:42} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f}"
                  f"{flag}{'' if bound is None else bound:>6} {ratio:8.4f}"
                  f"  {units[name]}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/spread.py --seeds 1-10 --out .bench_work/spread.json

Every run measures for BENCHMARK.json's ``run_seconds`` and every
workload it names runs once per seed, so spreads compare with the
bounds there and with ``baseline.json``.

Workloads are interleaved: for each seed, every workload runs once before
the next seed starts, so slow drift on the machine spreads over all of
them. Spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median; it is printed next to each metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Text lines of a run that carry numbers its JSON result does not:
# "  report_s median 1.17 s scaled, wall 0.93 s ..." and the reference job's time.
COMMAND_LINE = re.compile(r"^\s+(\w+)_s median (\S+) s scaled, wall (\S+) s")
REFERENCE_LINE = re.compile(r"reference job median (\S+) s")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,7,9'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write every run's result as JSON")
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            command = [
                sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            for line in lines:
                if match := COMMAND_LINE.match(line):
                    result["metrics"][f"{match[1]}_s"] = {"value": float(match[2]), "unit": "s"}
                    result["metrics"][f"{match[1]}_wall_s"] = {"value": float(match[3]), "unit": "s"}
                elif match := REFERENCE_LINE.search(line):
                    result["metrics"]["reference_job_wall_s"] = {"value": float(match[1]), "unit": "s"}
            runs[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']} {values}", flush=True)

    summary = {}
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs")
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = {metric["name"] for metric in declared}
        metrics = declared + [{"name": k, "unit": "s"} for k in results[0]["metrics"] if k not in names]
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = metric.get("bound")
            summary.setdefault(workload, {})[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values),
                "unit": metric["unit"],
            }
            limit = f"  bound {bound}" if bound is not None else ""
            print(f"  {metric['name']:40s} median {median:12.4f} {metric['unit']:10s}"
                  f" q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.4f}{limit}")
    if args.out:
        machine = {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
        }
        payload = {"machine": machine, "seconds": spec["run_seconds"], "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if all(r["correct"] for results in runs.values() for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

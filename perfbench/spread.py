"""Repeat the benchmark over seeds and summarize each metric.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads A B]
                                [--out perfbench/baseline.json]

Runs ``run.py`` once per seed and workload, one run at a time and for
the ``run_seconds`` of ``BENCHMARK.json``, then one
traced run per workload at seed 42.  For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the
median, and writes all runs with the environment record to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, float]:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return json.loads(lines[-1]), env, elapsed


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", help="default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    report = {"workloads": {}}
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env, elapsed = run(workload, seed, seconds, 0)
            report["env"] = {k: v for k, v in env.items() if k != "seed"}
            runs.append({"seed": seed, "run_s": elapsed, **result})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct {result['correct']}", flush=True)
        metrics = {
            name: summary([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        traced, _, _ = run(workload, 42, seconds, 1)
        report["workloads"][workload] = {
            "metrics": metrics,
            "runs": runs,
            "per_layer_seed42": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in metrics.items():
            print(f"  {name:<20} median {s['median']:.6g}  spread {s['spread']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

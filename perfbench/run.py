"""minkabs benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py``):

* ``stabilizer-exact`` -- the stabilizer covariance suite at the default
  config: batched exact paths (FFTs, index permutations), no interpolation;
* ``boost-refine`` -- one seed of the boost convergence study, N=32 then
  N=64: the velocity-change pullback;
* ``light-cli`` -- ``minkabs demo-causality`` then ``minkabs
  verify-geometry`` in process: many small unbatched calls.

Passes run in fresh worker processes (``worker.py``), one process at a
time (a closed loop with one client), with ``MINKABS_THREADS=1`` and the
BLAS thread variables at 1.  With ``--trace 0`` the run
reports, by median over its samples:

* ``wall_s`` -- one warm pass; warm passes repeat until ``--seconds``;
* ``cold_pass_s`` -- the first pass in a fresh process;
* ``setup_s`` -- interpreter start, ``import minkabs`` and input
  generation, from several fresh processes;
* ``peak_rss_mb`` -- the worker's own ``ru_maxrss`` after its passes;
* ``boost_abs_err.N32``/``.N64`` -- the velocity-change kernel's error
  against the direct-sum reference in ``oracle.py``, measured after the
  timed passes.

``fail_frac`` (failed over attempted: program gates, exceptions and
report mismatches between passes) is printed with the table and given
as ``attempted``/``failed`` in the result.  With ``--trace 1`` a traced
pass between two untraced ones gives the per-layer metrics of
``layers.py`` and writes its spans to ``perfbench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a line above it records the
environment.  Exit status: 0 when every check passed, 1 when one failed
(after the result) or a worker died (without one), 2 when there is no
program source to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# per workload: fresh processes that time passes, and set-up samples in all
PLAN = {
    "stabilizer-exact": {"procs": 4, "setups": 5},
    "boost-refine": {"procs": 1, "setups": 5},
    "light-cli": {"procs": 2, "setups": 5},
}
END_TO_END = {
    "wall_s": "s",
    "cold_pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "boost_abs_err.N32": "norm",
    "boost_abs_err.N64": "norm",
}
THREAD_VARS = (
    "MINKABS_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(worker_env: dict, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {k: worker_env.get(k) for k in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def spawn(env: dict, workload: str, seed: int, mode: str, *extra: str) -> dict:
    """Run one worker process to completion and return its JSON record."""
    started = now()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--spawned-at", repr(started),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def tally(records: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed checks over the workers' passes, counting one
    check per pass whose report must match the first pass's report."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    errors = [e for r in records for e in r["errors"]]
    digests = [d for r in records for d in r["digests"]]
    attempted += max(0, len(digests) - 1)
    mismatches = sum(d != digests[0] for d in digests[1:])
    failed += mismatches
    if mismatches:
        errors.append(f"{mismatches} pass report(s) differ from the first pass")
    return attempted, failed, errors


def run_timed(env, workload, seed, seconds) -> tuple[dict, list[dict]]:
    plan = PLAN[workload]
    share = seconds / plan["procs"]
    records = [
        spawn(env, workload, seed, "timed", "--seconds", repr(share), *(("--probe",) if i == 0 else ()))
        for i in range(plan["procs"])
    ]
    setups = [r["setup_s"] for r in records]
    setups += [
        spawn(env, workload, seed, "setup")["setup_s"]
        for _ in range(plan["setups"] - len(setups))
    ]
    probe = records[0]["boost_abs_err"]
    metrics = {
        "wall_s": statistics.median(t for r in records for t in r["warm_s"]),
        "cold_pass_s": statistics.median(r["cold_s"] for r in records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
        "boost_abs_err.N32": probe["N32"],
        "boost_abs_err.N64": probe["N64"],
    }
    return {k: (metrics[k], unit) for k, unit in END_TO_END.items()}, records


def run_traced(env, workload, seed, env_record) -> tuple[dict, list[dict]]:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    record = spawn(
        env, workload, seed, "traced", "--trace-out", str(path), "--env", json.dumps(env_record)
    )
    return {k: tuple(v) for k, v in record["per_layer"].items()}, [record]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="minkabs benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minkabs" / "__init__.py").is_file():
        print(f"no minkabs source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    env_record = environment(env, args.seed)
    try:
        if args.trace:
            metrics, records = run_traced(env, args.workload, args.seed, env_record)
        else:
            metrics, records = run_timed(env, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, errors = tally(records)

    for err in errors:
        print(err, file=sys.stderr)
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(f"{'fail_frac':<40} {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

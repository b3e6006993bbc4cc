"""One fresh benchmark process for one workload.

Started by ``run.py``; prints one JSON object as its last stdout line.
Modes:

* ``setup``: import the program and build the workload inputs, then stop;
* ``timed``: set up, run a cold pass, then warm passes until ``--seconds``
  of warm time are measured (at least one), read the peak RSS, and with
  ``--probe`` measure the velocity-change kernel's error afterwards;
* ``traced``: set up, run an untraced cold pass, a traced pass and an
  untraced warm pass, and write the spans to ``--trace-out``.

Set-up time runs from ``--spawned-at`` (the parent's monotonic clock
just before it started this process) to the moment the workload inputs
exist, so it includes interpreter start and ``import minkabs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Ledger:
    """Gate results, exceptions and report digests of the passes run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []

    def run(self, workload) -> float:
        """Run one pass; returns its wall time."""
        t0 = time.perf_counter()
        try:
            result = workload.run()
        except Exception:  # a failing pass is counted, not fatal
            elapsed = time.perf_counter() - t0
            self.attempted += 1
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return elapsed
        elapsed = time.perf_counter() - t0
        self.attempted += len(result.gates)
        self.failed += sum(not ok for ok in result.gates)
        self.digests.append(hashlib.sha256(result.report.encode()).hexdigest())
        return elapsed

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "digests": self.digests,
        }


def _check_source() -> None:
    import minkabs

    if Path(minkabs.__file__).resolve().parent != (SRC / "minkabs").resolve():
        raise SystemExit(f"minkabs imported from {minkabs.__file__}, not from {SRC}")


def timed(workload, seconds: float, probe: bool) -> dict:
    ledger = Ledger()
    cold = ledger.run(workload)
    warm: list[float] = []
    while not ledger.errors and (not warm or sum(warm) < seconds):
        warm.append(ledger.run(workload))
    out = {
        "cold_s": cold,
        "warm_s": warm,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **ledger.as_dict(),
    }
    if probe:
        from workloads import boost_error_probe

        out["boost_abs_err"] = boost_error_probe()
    return out


def traced(workload, trace_out: str, env: dict) -> dict:
    import layers
    from tracer import Tracer

    ledger = Ledger()
    cold = ledger.run(workload)
    tracer = Tracer()
    layers.install(tracer)
    try:
        root = len(tracer.spans)
        tracer.span("bench.pass", ledger.run, workload)
    finally:
        tracer.restore()
    warm = ledger.run(workload)
    metrics = layers.summarize(tracer, root, warm)
    if metrics["fft.calls"] == 0:
        raise SystemExit("traced pass recorded no FFT: an entry point escaped the tracer")
    tracer.write(trace_out, env=env, metrics=metrics, cold_s=cold, warm_s=warm)
    per_layer = {k: (v, layers.PER_LAYER[k][0]) for k, v in metrics.items()}
    return {"cold_s": cold, "warm_s": [warm], "per_layer": per_layer, **ledger.as_dict()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--env", default="{}", help="environment record, JSON")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    _check_source()
    workload = WORKLOADS[args.workload](args.seed)
    out = {"setup_s": now() - args.spawned_at}
    if args.mode == "timed":
        out.update(timed(workload, args.seconds, args.probe))
    elif args.mode == "traced":
        out.update(traced(workload, args.trace_out, json.loads(args.env)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

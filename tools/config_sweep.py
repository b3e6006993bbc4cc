"""Walk the accepted config space one key at a time and classify every run.

Starts from a small N=16 base config and varies one key at a time: its
minimum, zero, negative values, the caps and just past them, extreme
magnitudes, and repeated or unsorted sweep entries.  Each variant runs
through the commands that read its key (``verify-geometry`` reads only
``seed``; every command checks every key up front), in this process
through ``minkabs.cli.main`` with ``MINKABS_THREADS=1``.  Each run prints
one line: its class, the command, the varied key and value, and a
detail.  The classes:

* ``traceback``: ``main`` raised (the traceback follows, indented);
* ``exit 1``: exit 1 without a ``FAIL`` line (any other unexpected
  exit code reads ``exit <code>`` and counts alike);
* ``FAIL``: exit 1 with ``FAIL`` lines (their check names are the detail);
* ``exit 2``: a configuration error (its message is the detail);
* ``exit 0``: every check passed.

A ``FAIL`` is an honest verdict of a check on an accepted config; a
traceback or an unexplained exit 1 is a defect.  The last line counts
the runs of each class.  Exit status: 1 when a run is a ``traceback`` or
an ``exit 1``, else 0.

Usage::

    python3 tools/config_sweep.py

Standard library plus the package under ``src``.  On a 2-core Xeon the
103 runs take 7-12 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minkabs.cli import main  # noqa: E402
from minkabs.quantum import ModelConfig  # noqa: E402

BASE = {
    "N": 16,
    "states": 2,
    "translations": 1,
    "convergence_seeds": [5],
    "delta_t_sweep": [0.5, 1.0],
}
CAP = ModelConfig(N=16).chi_max  # the band-limit rapidity cap of the base lattice
VARIANTS = {
    "N": [8, 4, 0, -16, 12, 16.0, 16.5, 32, 1048576, 2**60, 10**400],
    "spacing_sec": [0.39, 0.4, 0.125, 0.0, -0.25, 1e-150, 1e-300],
    "mass_inv_sec": [1.57, 1.58, 0.0, -1.0, 1e-150, 1e-170],
    "seed": [0, -1, 2**40, 1e20, 10**400],
    "rapidity": [CAP, CAP * (1 + 1e-9), -0.25, 1e-12, 1e-15, 0.0],
    "states": [1, 0, -1, 64, 1000000000],
    "translations": [0, -1, 50],
    "convergence_seeds": [[0], [-1], [5, 5], [44, 42], [], [2**40], [10**400]],
    "delta_t_sweep": [
        [1.0, 0.5],
        [0.5, 0.5],
        [0.5, 0.9],
        [0.5, 1.2],
        [1.5],
        [1e300],
        [1e-9],
        [0.0],
        [-0.5],
        [],
    ],
    "rapidity_sweep": [
        [0.0],
        [0.2, 0.0],
        [0.0, 0.0],
        [0.0, -0.2],
        [0.0, CAP],
        [0.0, CAP * (1 + 1e-9)],
        [0.1, 0.2],
        [],
    ],
    "witness_rapidity": [0.0, 1e-9, -0.5, 14.0, 14.25, 1000.0],
}
COVARIANCE_KEYS = (
    "N",
    "spacing_sec",
    "mass_inv_sec",
    "seed",
    "rapidity",
    "states",
    "translations",
    "convergence_seeds",
    "witness_rapidity",
)
CAUSALITY_KEYS = ("N", "spacing_sec", "mass_inv_sec", "delta_t_sweep", "rapidity_sweep")
HONEST = ("FAIL", "exit 2", "exit 0")  # every other class is a defect


def readers(key: str) -> list[str]:
    """The commands that read ``key`` beyond the shared config checks."""
    return [
        command
        for command, keys in (
            ("verify-geometry", ("seed",)),
            ("verify-covariance", COVARIANCE_KEYS),
            ("demo-causality", CAUSALITY_KEYS),
        )
        if key in keys
    ]


def classify(code: int | None, stderr: str, error: str | None = None) -> tuple[str, str]:
    """The class of one run and its detail, from its exit code, its stderr
    and the traceback it raised, if any."""
    if error is not None:
        return "traceback", error.strip().splitlines()[-1]
    lines = stderr.splitlines()
    if code == 0:
        return "exit 0", ""
    if code == 2:
        return "exit 2", lines[0] if lines else ""
    fails = [line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL ")]
    if code == 1 and fails:
        return "FAIL", " ".join(fails)
    return f"exit {code}", lines[-1] if lines else ""


def run(command: str, config: dict) -> tuple[str, str, str | None]:
    """Run one command on ``config`` in this process: its class, its detail
    and the traceback text of a run that raised."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", path])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                error = traceback.format_exc()
    kind, detail = classify(code, err.getvalue(), error)
    return kind, detail, error


def sweep():
    """Yield ``(command, key, value, kind, detail, traceback)`` per run."""
    for key, values in VARIANTS.items():
        for value in values:
            for command in readers(key):
                yield (command, key, value, *run(command, dict(BASE, **{key: value})))


def main_sweep() -> int:
    os.environ["MINKABS_THREADS"] = "1"
    counts = Counter()
    for command, key, value, kind, detail, error in sweep():
        counts[kind] += 1
        print(f"{kind:<9} {command} {key}={json.dumps(value)} {detail}".rstrip(), flush=True)
        if error is not None:
            print("".join(f"    {line}\n" for line in error.splitlines()), end="")
    print(", ".join(f"{kind}: {n}" for kind, n in sorted(counts.items())))
    return 0 if set(counts) <= set(HONEST) else 1


if __name__ == "__main__":
    sys.exit(main_sweep())

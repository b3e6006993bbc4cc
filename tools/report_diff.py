"""Report digests of one source tree, or the reported values that differ between two.

Runs ``minkabs verify-geometry``, ``verify-covariance``,
``demo-causality`` and ``demo-causality --csv`` at the default config,
plus ``verify-geometry --seed 5`` for a second draw sequence, against
the package in each given ``src`` directory, one fresh interpreter per
command and tree.  Every command runs in two thread environments, and
each output line starts with its label: ``threads=unset`` with
``OPENBLAS_NUM_THREADS`` and ``MINKABS_THREADS`` removed from the
environment, and ``threads=1`` with both set to 1, as ``perfbench``
runs.  The quantum reports can differ between the two: OpenBLAS
splits its reductions of N >= 24 fields over its threads.

With one ``SRC`` (default: the ``src`` directory of this checkout) it
prints one line per environment and command: the sha256 of stdout, the
sha256 of stderr and the exit code.  A refactor that claims unchanged
reports prints the same lines for the parent's ``src`` and its own.  It
ends with one line per command, ``threads agree <command>`` or
``threads differ <command>``: whether the two environments gave the same
stdout.  Those lines do not affect the exit status: 1 when any command
exits non-zero (a failed check or a config error), else 0.

With ``OLD_SRC NEW_SRC`` it compares the two trees within each
environment and prints one line per reported value that differs: the
label, the command, the JSON path (``line <k>`` for the CSV,
``stderr line <k>`` for the PASS/FAIL lines), the old value, the new
value and the relative change (``-`` where it has none).  List items
that carry a ``name`` are addressed by it, and a value or line present
on one side only prints as ``<missing>`` on the other.  A kernel change
that moves a reported residual lists the moves with this mode.  Exit
status: 0 when every output is identical, 1 when a value, an exit code
or a stderr line differs, 2 on bad arguments or output that is not
JSON.

Usage::

    python3 tools/report_diff.py [SRC]
    python3 tools/report_diff.py OLD_SRC NEW_SRC

Standard library only.  On a 2-core Xeon, ``verify-covariance`` takes
about 4 s per tree in either environment; one tree's digests take about
8.5 s, and a diff of two trees about 19 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from itertools import product, zip_longest
from pathlib import Path

COMMANDS = (
    ("verify-geometry",),
    ("verify-geometry", "--seed", "5"),
    ("verify-covariance",),
    ("demo-causality",),
    ("demo-causality", "--csv"),
)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MINKABS_THREADS")
THREADS = ("unset", "1")  # the value of both THREAD_VARIABLES, or removed
RUN_CLI = "import sys; from minkabs.cli import main; sys.exit(main())"
MISSING = "<missing>"


def environment(src: Path, threads: str) -> dict:
    """The caller's environment with ``PYTHONPATH=src`` and both thread
    variables removed (``"unset"``) or set to ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if threads != "unset":
        env.update(dict.fromkeys(THREAD_VARIABLES, threads))
    return dict(env, PYTHONPATH=str(src))


def run(src: Path, command: tuple, threads: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", RUN_CLI, *command],
        capture_output=True,
        env=environment(src, threads),
    )


def _key(item, index: int) -> str:
    return str(item["name"]) if isinstance(item, dict) and "name" in item else str(index)


def differences(old, new, path: str = ""):
    """Yield ``(path, old, new)`` for every leaf value that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from differences(
                old.get(key, MISSING), new.get(key, MISSING), f"{path}.{key}"
            )
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            a = old[i] if i < len(old) else MISSING
            b = new[i] if i < len(new) else MISSING
            label = _key(a, i) if a is not MISSING else _key(b, i)
            yield from differences(a, b, f"{path}[{label}]")
    elif type(old) is not type(new) or old != new:
        yield path or ".", old, new


def line_differences(old: str, new: str, prefix: str = ""):
    """Yield ``(<prefix>line <k>, old, new)`` for every line that differs."""
    pairs = zip_longest(old.splitlines(), new.splitlines(), fillvalue=MISSING)
    for k, (a, b) in enumerate(pairs, start=1):
        if a != b:
            yield f"{prefix}line {k}", a, b


def relative_change(old, new) -> str:
    numbers = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)
    )
    if not numbers or old == 0:
        return "-"
    return f"{(new - old) / abs(old):+.3e}"


def thread_agreement(stdout: dict) -> list[str]:
    """``threads agree <command>`` or ``threads differ <command>`` for each
    command, from its stdout digest in every environment
    (``{(threads, command): digest}``)."""
    lines = []
    for command in COMMANDS:
        same = len({stdout[threads, command] for threads in THREADS}) == 1
        lines.append(f"threads {'agree' if same else 'differ'} " + " ".join(command))
    return lines


def digests(src: Path) -> int:
    stdout = {}
    failed = False
    for threads, command in product(THREADS, COMMANDS):
        proc = run(src, command, threads)
        failed |= proc.returncode != 0
        stdout[threads, command] = hashlib.sha256(proc.stdout).hexdigest()
        print(
            f"threads={threads}",
            " ".join(command),
            stdout[threads, command],
            hashlib.sha256(proc.stderr).hexdigest(),
            proc.returncode,
            flush=True,
        )
    print("\n".join(thread_agreement(stdout)))
    return 1 if failed else 0


def diff(trees: list[Path]) -> int:
    changed = False
    for threads, command in product(THREADS, COMMANDS):
        name = f"threads={threads} " + " ".join(command)
        old, new = (run(src, command, threads) for src in trees)
        if old.returncode != new.returncode:
            print(name, "exit", old.returncode, new.returncode, "-", flush=True)
            changed = True
        for path, a, b in line_differences(old.stderr.decode(), new.stderr.decode(), "stderr "):
            print(name, path, a, b, "-", flush=True)
            changed = True
        if "--csv" in command:
            found = line_differences(old.stdout.decode(), new.stdout.decode())
        else:
            try:
                found = differences(*(json.loads(proc.stdout) for proc in (old, new)))
            except json.JSONDecodeError as exc:
                print(f"{name}: output is not JSON ({exc})", file=sys.stderr)
                return 2
        for path, a, b in found:
            print(name, path, a, b, relative_change(a, b), flush=True)
            changed = True
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "src",
        nargs="*",
        default=[str(Path(__file__).resolve().parent.parent / "src")],
        help="SRC, or OLD_SRC NEW_SRC: directories holding the minkabs package",
    )
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give SRC or OLD_SRC NEW_SRC")
    trees = [Path(p).resolve() for p in args.src]
    for src in trees:
        if not (src / "minkabs" / "cli.py").is_file():
            parser.error(f"no minkabs package under {src}")
    return digests(trees[0]) if len(trees) == 1 else diff(trees)


if __name__ == "__main__":
    sys.exit(main())

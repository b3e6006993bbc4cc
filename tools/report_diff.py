"""Reported values that differ between two source trees.

Runs ``minkabs verify-geometry``, ``verify-covariance`` and
``demo-causality`` at the default config against the package in each of
two ``src`` directories, one fresh interpreter per command and tree, and
prints one line per reported value that differs: the command, the JSON
path, the old value, the new value and the relative change (``-`` where
it has none).  List items that carry a ``name`` are addressed by it, and
a value present on one side only prints as ``<missing>`` on the other.
A kernel change that moves a reported residual lists the moves with
this tool.

Usage::

    python3 tools/report_diff.py OLD_SRC NEW_SRC

Exit status: 0 when every report is identical, 1 when a value, an exit
code or the stderr differs, 2 on bad arguments or output that is not
JSON.  Standard library only; ``verify-covariance`` takes about half a
minute per tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("verify-geometry", "verify-covariance", "demo-causality")
RUN_CLI = "import sys; from minkabs.cli import main; sys.exit(main())"
MISSING = "<missing>"


def run(src: Path, command: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", RUN_CLI, command], capture_output=True, text=True, env=env
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


def relative_change(old, new) -> str:
    numbers = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)
    )
    if not numbers or old == 0:
        return "-"
    return f"{(new - old) / abs(old):+.3e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", help="directory holding the old minkabs package")
    parser.add_argument("new_src", help="directory holding the new minkabs package")
    args = parser.parse_args(argv)
    trees = [Path(p).resolve() for p in (args.old_src, args.new_src)]
    for src in trees:
        if not (src / "minkabs" / "cli.py").is_file():
            parser.error(f"no minkabs package under {src}")
    changed = False
    for command in COMMANDS:
        old, new = (run(src, command) for src in trees)
        if old.returncode != new.returncode:
            print(command, "exit", old.returncode, new.returncode, "-", flush=True)
            changed = True
        if old.stderr != new.stderr:
            print(command, "stderr differs", flush=True)
            changed = True
        try:
            reports = [json.loads(proc.stdout) for proc in (old, new)]
        except json.JSONDecodeError as exc:
            print(f"{command}: output is not JSON ({exc})", file=sys.stderr)
            return 2
        for path, a, b in differences(*reports):
            print(command, path, a, b, relative_change(a, b), flush=True)
            changed = True
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

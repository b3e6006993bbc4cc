"""Digests of the four default command outputs: the refactor gate.

Runs ``minkabs verify-geometry``, ``verify-covariance``,
``demo-causality`` and ``demo-causality --csv`` at the default config
against the package found in a ``src`` directory, one fresh interpreter
each, and prints one line per command: the sha256 of stdout, the sha256
of stderr and the exit code.  A refactor that claims unchanged reports
prints the same lines for the parent's ``src`` and its own.

Usage::

    python3 tools/report_digests.py [SRC]

``SRC`` defaults to the ``src`` directory of this checkout.  Standard
library only; ``verify-covariance`` takes about half a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    ("verify-geometry",),
    ("verify-covariance",),
    ("demo-causality",),
    ("demo-causality", "--csv"),
)
RUN_CLI = "import sys; from minkabs.cli import main; sys.exit(main())"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "src",
        nargs="?",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="directory holding the minkabs package",
    )
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "minkabs" / "cli.py").is_file():
        parser.error(f"no minkabs package under {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    for command in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *command], capture_output=True, env=env
        )
        print(
            " ".join(command),
            hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest(),
            proc.returncode,
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

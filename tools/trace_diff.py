"""The traced benchmark counts that differ between two source trees.

Runs ``python3 perfbench/run.py --workload W --seed 5 --seconds 1
--trace 1`` in each tree, for every workload, and prints one line per
count whose value differs: the workload, the count, the old value and
the new value.  The counts are those that ``EXACT_COUNTS`` in the tree's
``perfbench/layers.py`` names (read from its source, not imported), plus
``state.represent.calls``, ``pvm.project.covariant_calls`` and
``groups.calls``.  A refactor that claims to leave the traced work
unchanged shows no line.  Each traced run also writes its spans to the
tree's ``perfbench/out/``, as ``run.py`` does.

Exit status: 0 when every count is identical, 1 when one differs, 2 on
bad arguments or a run without a result.

Usage::

    python3 tools/trace_diff.py OLD_ROOT NEW_ROOT

Standard library only.  On a 2-core Xeon a diff of two trees takes
about 30 s.
"""

from __future__ import annotations

import argparse
import ast
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("stabilizer-exact", "boost-refine", "light-cli")
EXTRA_COUNTS = ("state.represent.calls", "pvm.project.covariant_calls", "groups.calls")
RUN = ("perfbench/run.py", "--seed", "5", "--seconds", "1", "--trace", "1")


class RunError(RuntimeError):
    pass


def exact_counts(root: Path) -> tuple[str, ...]:
    """The names bound to ``EXACT_COUNTS`` in ``root``'s ``perfbench/layers.py``."""
    tree = ast.parse((root / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXACT_COUNTS" for t in node.targets
        ):
            return tuple(ast.literal_eval(node.value))
    raise RunError(f"no EXACT_COUNTS in {root / 'perfbench' / 'layers.py'}")


def traced_metrics(root: Path, workload: str) -> dict:
    """Metric values of one traced run in ``root``."""
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload],
        cwd=root,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunError(
            f"{workload} in {root}: no result (exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        ) from exc
    return {name: m["value"] for name, m in result["metrics"].items()}


def differences(names, old: dict, new: dict):
    """Yield ``(name, old, new)`` for every named count that differs;
    a count one side lacks reads ``None`` there."""
    for name in names:
        if old.get(name) != new.get(name):
            yield name, old.get(name), new.get(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_root", help="checkout holding src/ and perfbench/")
    parser.add_argument("new_root", help="checkout holding src/ and perfbench/")
    args = parser.parse_args(argv)
    roots = [Path(p).resolve() for p in (args.old_root, args.new_root)]
    for root in roots:
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {root}")
    changed = False
    try:
        names = list(dict.fromkeys([*exact_counts(roots[0]), *exact_counts(roots[1])]))
        names += EXTRA_COUNTS
        for workload in WORKLOADS:
            old, new = (traced_metrics(root, workload) for root in roots)
            for name, a, b in differences(names, old, new):
                print(workload, name, a, b, flush=True)
                changed = True
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every function of the package is reached by a command, or named here.

Runs ``verify-geometry``, ``demo-causality`` (with and without
``--csv``) and ``verify-covariance`` in process on a small config, under
``sys.setprofile`` and serially (``MINKABS_THREADS=1``, so no call hides
in a worker thread), and compares the functions that were called with
every function defined under ``src/minkabs``.  A function that no
command calls is either removed or listed in ``ALLOWED`` with the reason
it stays.
"""

import ast
import json
import os
import sys
from pathlib import Path

import pytest

from minkabs import cli

ROOT = os.path.dirname(cli.__file__) + os.sep  # as the package's code objects name their files

CONFIG = {
    "N": 16,
    "states": 2,
    "translations": 1,
    "convergence_seeds": [42],
    "delta_t_sweep": [0.5, 1.0],
    "rapidity_sweep": [0.0, 0.1],
}

# (file relative to the package, qualified name) -> why no command calls it;
# every __repr__ is allowed too, since a repr is read by people, not reports
ALLOWED = {
    ("geometry.py", "_Components.approx_eq"): "the coordinate-free comparison of opaque values",
    ("groups.py", "LorentzMap.approx_eq"): "the coordinate-free comparison of opaque values",
    ("groups.py", "PoincareMap.approx_eq"): "the coordinate-free comparison of opaque values",
    ("geometry.py", "SpacetimeVector.coordinates_in_basis"): "the README's basis query",
    ("geometry.py", "Velocity.as_vector"): "the benchmark's direct-sum oracle reads it",
    ("report.py", "RunReport.add"): (
        "the benchmark's stabilizer-exact workload builds its report with it"
    ),
    ("quantum/pvm.py", "PvmHandle.is_constructing"): (
        "the benchmark tracer's _project_raw hook reads it"
    ),
    ("quantum/state.py", "represent"): "the state-level form of represent_array",
    ("quantum/verify.py", "causality_experiment"): (
        "one trial of causality_leakages, the reference its rows are held to"
    ),
    ("quantum/state.py", "_spline_pullback"): "off-axis velocity changes; no report makes one yet",
}


def _defined() -> set:
    """(file, qualified name) of every function and method in the package."""
    found = set()

    def walk(node, prefix, rel):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((rel, prefix + child.name))
                walk(child, f"{prefix}{child.name}.<locals>.", rel)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", rel)

    for path in Path(ROOT).rglob("*.py"):
        rel = path.relative_to(ROOT).as_posix()
        walk(ast.parse(path.read_text()), "", rel)
    return found


def _run_commands(tmp_path) -> set:
    """(file, qualified name) of every package function the commands call."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    runs = [
        ["verify-geometry"],
        ["demo-causality"],
        ["demo-causality", "--csv"],
        ["verify-covariance"],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(ROOT):
                called.add((code.co_filename[len(ROOT):], code.co_qualname))

    for argv in runs:
        sys.setprofile(profile)
        try:
            cli.main(argv + ["--config", str(config), "--out", str(tmp_path / "report")])
        finally:
            sys.setprofile(None)
    return called


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_every_function_is_reached_or_allowed(tmp_path, monkeypatch):
    monkeypatch.setenv("MINKABS_THREADS", "1")
    defined = _defined()
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    called = _run_commands(tmp_path)
    unreached = sorted(
        key for key in defined - called - set(ALLOWED) if not key[1].endswith(".__repr__")
    )
    assert not unreached, "reached by no command: " + ", ".join(map(":".join, unreached))
    reached = sorted(set(ALLOWED) & called)
    assert not reached, "allowed but reached: " + ", ".join(map(":".join, reached))

"""Tests of the benchmark's own parts: the direct-sum reference, the
tracer, and the repeatability of the traced counts.

Run with ``python3 -m pytest perfbench`` from the repository root.  The
count test runs every workload traced twice and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from oracle import brute_force_boost, exact_boost
from tracer import Tracer
from minkabs.groups import make_boost
from minkabs.quantum import ModelConfig
from minkabs.quantum import verify as V

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def cfg8():
    return ModelConfig(N=8)


@pytest.mark.parametrize("axis", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)])
def test_direct_sum_matches_full_3d_sum(cfg8, axis):
    boost = make_boost(cfg8.observer, V.boosted_velocity(0.25, axis))
    for psi in V.random_states(cfg8, np.random.default_rng(3), 3):
        ref = exact_boost(cfg8, psi, boost)
        assert np.linalg.norm(ref - brute_force_boost(cfg8, psi, boost)) <= 1e-12
        assert abs(np.linalg.norm(ref) - np.linalg.norm(psi)) <= 1e-12


@pytest.mark.parametrize("axis", [(1, 1, 0), (1, 1, 1), (0.3, 0.0, 1.0)])
def test_direct_sum_refuses_off_axis_boosts(cfg8, axis):
    boost = make_boost(cfg8.observer, V.boosted_velocity(0.25, axis))
    psi = V.random_states(cfg8, np.random.default_rng(4), 1)[0]
    with pytest.raises(ValueError, match="one lattice axis"):
        exact_boost(cfg8, psi, boost)


def test_wrapping_a_missing_name_fails_loudly():
    tracer = Tracer()
    with pytest.raises(AttributeError, match="no_such_entry"):
        tracer.wrap(V, "no_such_entry", "verify.no_such_entry")
    with pytest.raises(AttributeError, match="no_such_method"):
        tracer.wrap(ModelConfig, "no_such_method", "x")


def test_spans_nest_and_self_times_partition_the_root():
    ns = types.SimpleNamespace()
    ns.leaf = lambda x: sum(range(x))
    ns.mid = lambda x: ns.leaf(x) + ns.leaf(x)
    original = (ns.leaf, ns.mid)
    tracer = Tracer()
    tracer.wrap(ns, "leaf", "leaf")
    tracer.wrap(ns, "mid", "mid")
    assert tracer.span("root", ns.mid, 20_000) == 2 * sum(range(20_000))
    tracer.restore()
    assert (ns.leaf, ns.mid) == original
    names = [tracer.names[s[0]] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["root", "mid", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]
    own = tracer.self_times()
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert all(t >= 0.0 for t in own)
    assert sum(own) == pytest.approx(root, rel=1e-9, abs=1e-12)


def test_install_and_restore_leave_every_binding_as_found():
    owners = list(layers.PROGRAM_MODULES) + list(layers.GROUPS_METHODS)
    owners += [np.fft, sys.modules["scipy.fft"], sys.modules["scipy.ndimage"]]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    layers.install(tracer)
    assert V.run_stabilizer_suite is not before[owners.index(V)]["run_stabilizer_suite"]
    tracer.restore()
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        changed = [k for k in snapshot if after.get(k) is not snapshot[k]]
        assert changed == [], owner


def test_benchmark_json_names_the_metrics_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.PLAN)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "light-cli", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["stabilizer-exact", "boost-refine", "light-cli"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(layers.PER_LAYER)
    for name in layers.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["fft.calls"]["value"] > 0

"""The count selection behind ``tools/trace_diff.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("trace_diff", ROOT / "tools" / "trace_diff.py")
trace_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_diff)


def test_exact_counts_read_from_the_benchmark_source(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers

    assert trace_diff.exact_counts(ROOT) == layers.EXACT_COUNTS


def test_only_named_counts_that_differ():
    old = {"fft.calls": 103.0, "groups.calls": 1100.0, "fft.s": 0.1}
    new = {"fft.calls": 103.0, "groups.calls": 1101.0, "fft.s": 0.2}
    names = ["fft.calls", "groups.calls", "pvm.project.calls"]
    assert list(trace_diff.differences(names, old, new)) == [("groups.calls", 1100.0, 1101.0)]


def test_count_on_one_side_only():
    assert list(trace_diff.differences(["x"], {}, {"x": 1.0})) == [("x", None, 1.0)]

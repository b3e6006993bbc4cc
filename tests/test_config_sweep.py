"""The run classifier behind ``tools/config_sweep.py``, and one cheap run."""

import importlib.util
from pathlib import Path

from minkabs.cli import DEFAULTS

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "config_sweep.py"
_spec = importlib.util.spec_from_file_location("config_sweep", _TOOL)
config_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(config_sweep)


def test_classes():
    classify = config_sweep.classify
    fail = "PASS a: residual 0 <= 1\nFAIL b/c: residual 2 <= 1\nFAIL d: residual 3 <= 1\n"
    assert classify(0, "PASS a: residual 0 <= 1\n") == ("exit 0", "")
    assert classify(2, "configuration error: N\n") == ("exit 2", "configuration error: N")
    assert classify(1, fail) == ("FAIL", "b/c d")
    assert classify(1, "PASS a: residual 0 <= 1\n") == ("exit 1", "PASS a: residual 0 <= 1")
    assert classify(1, "") == ("exit 1", "")
    trace = "Traceback (most recent call last):\n  ...\nValueError: empty\n"
    assert classify(None, "", trace) == ("traceback", "ValueError: empty")


def test_every_config_key_is_varied_through_a_reader():
    assert set(config_sweep.VARIANTS) == set(DEFAULTS)
    assert all(config_sweep.readers(key) for key in DEFAULTS)


def test_refused_config_reads_exit_2():
    config = dict(config_sweep.BASE, seed=-1)
    kind, detail, error = config_sweep.run("verify-geometry", config)
    assert (kind, detail, error) == ("exit 2", "configuration error: seed must be >= 0", None)

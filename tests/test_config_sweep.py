"""The run classifier behind ``tools/config_sweep.py``, and one cheap run."""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_hypothesis_configs_near_base_end_honestly(monkeypatch):
    # a derandomized walk of accepted configs around the sweep's base, at
    # the two cheapest lattices: every run ends in a verdict, never in a
    # traceback or an exit 1 without a FAIL line
    monkeypatch.setenv("MINKABS_THREADS", "1")
    cap = config_sweep.CAP
    rapidity = st.one_of(st.floats(-cap, -0.05), st.floats(0.05, cap))  # one that moves labels
    configs = st.fixed_dictionaries(
        {
            "N": st.sampled_from([16, 32]),
            "seed": st.integers(0, 2**32),
            "rapidity": rapidity,
            "states": st.integers(1, 2),
            "translations": st.integers(0, 2),
            "convergence_seeds": st.lists(st.integers(0, 99), min_size=1, max_size=1),
            "delta_t_sweep": st.lists(st.floats(0.25, 1.0), min_size=1, max_size=2),
            "rapidity_sweep": st.lists(rapidity, max_size=1).map(lambda r: [0.0, *r]),
            "witness_rapidity": st.floats(-1.0, 1.0),
        }
    ).map(lambda drawn: dict(config_sweep.BASE, **drawn))
    commands = st.sampled_from(["verify-geometry", "verify-covariance", "demo-causality"])

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(commands, configs)
    def run(command, config):
        kind, detail, error = config_sweep.run(command, config)
        assert kind in config_sweep.HONEST, (command, config, detail, error)

    run()

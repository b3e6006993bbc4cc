"""Every name a module exports in ``__all__`` exists in it."""

import importlib

import pytest

MODULES = (
    "minkabs.geometry",
    "minkabs.groups",
    "minkabs.report",
    "minkabs.suites",
    "minkabs.quantum",
    "minkabs.quantum.config",
    "minkabs.quantum.state",
    "minkabs.quantum.pvm",
    "minkabs.quantum.verify",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []

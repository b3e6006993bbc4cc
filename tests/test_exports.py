"""Every name a module exports in ``__all__`` exists in it, and each package
root exports exactly the names of its layers."""

import importlib

import pytest

MODULES = (
    "minkabs",
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

# package root -> the layers it re-exports
ROOTS = {
    "minkabs": ("minkabs.geometry", "minkabs.groups"),
    "minkabs.quantum": ("minkabs.quantum.config", "minkabs.quantum.state", "minkabs.quantum.pvm"),
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("root", ROOTS)
def test_root_exports_the_union_of_its_layers(root):
    package = importlib.import_module(root)
    layers = [importlib.import_module(name) for name in ROOTS[root]]
    union = [n for layer in layers for n in layer.__all__]
    assert len(set(union)) == len(union)  # no name in two layers
    assert sorted(package.__all__) == sorted(union)
    for layer in layers:
        for n in layer.__all__:
            assert getattr(package, n) is getattr(layer, n), n

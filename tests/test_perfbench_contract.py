"""The benchmark tracer's contract with the program.

``perfbench/layers.py`` rebinds program names by attribute and raises on
a name that does not exist, so a refactor that drops or renames a traced
name fails here, not only in ``python3 -m pytest perfbench``.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()

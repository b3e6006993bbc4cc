"""The benchmark tracer's contract with the program.

``perfbench/layers.py`` rebinds program names by attribute and raises on
a name that does not exist, so a refactor that drops or renames a traced
name fails here, not only in ``python3 -m pytest perfbench``.  Its hooks
read the arguments and results of three names; one N=16 call of each
checks that a reordered argument or a changed return fails here too.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers_and_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    return layers, Tracer


def test_every_traced_name_exists(layers_and_tracer):
    layers, Tracer = layers_and_tracer
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()


def _attrs(tracer, name):
    """The recorded attrs of every span of ``name``, in call order."""
    return [tracer.attrs.get(i) for i, s in enumerate(tracer.spans) if tracer.names[s[0]] == name]


def test_each_hook_reads_its_call(layers_and_tracer):
    from minkabs import cli
    from minkabs.geometry import Instant, seconds
    from minkabs.groups import make_boost
    from minkabs.quantum import LatticeState, ModelConfig, make_gaussian, pvm
    from minkabs.quantum import verify as V
    from minkabs.quantum.state import represent_array

    layers, Tracer = layers_and_tracer
    cfg = ModelConfig(N=16)
    later = Instant(cfg.observer, cfg.origin + cfg.observer * seconds(0.5))
    # the program builds the handle from the region: one on each branch
    regions = [V.cell_region(cfg, (-2, -2, -2), (1, 1, 1), instant=t) for t in (None, later)]
    phi = V.localized_state(cfg)
    shadow = V.causal_shadow(cfg, delta_t=1.0, u2=V.boosted_velocity(0.1))
    _, drift = represent_array(cfg, phi, shadow[0].inverse())
    packet = make_gaussian(cfg, width=cfg.spacing * 3.0)
    L = make_boost(cfg.observer, V.boosted_velocity(0.2))
    tracer = Tracer()
    try:
        layers.install(tracer)
        for region in regions:
            pvm.pvm_project(region, LatticeState(cfg, phi))
        V.causality_experiment(cfg, phi, shadow)
        _, report = cli.apply_boost(packet, L, return_report=True)
    finally:
        tracer.restore()
    assert _attrs(tracer, "pvm._project_raw") == [{"covariant": False}, {"covariant": True}]
    assert _attrs(tracer, "state.represent_array") == [
        {"N": 16, "states": 1, "velocity": True, "drift": drift}
    ]
    assert _attrs(tracer, "state.apply_boost") == [
        {"N": 16, "states": 1, "velocity": True, "drift": report.norm_drift}
    ]

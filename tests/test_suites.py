"""The geometry suite's stacked checks against a per-sample loop."""

import json
import math
import time

import numpy as np
import pytest

from minkabs import suites
from minkabs.cli import main
from minkabs.geometry import (
    lorentz_product,
    normalize_velocity,
    space_part,
    time_part,
    vector,
)
from minkabs.groups import (
    LorentzMap,
    is_lorentz,
    is_orthochronous,
    make_boost,
    make_rotation,
    time_inversion,
)

SAMPLES = 1000
U0 = normalize_velocity(vector(1, 0, 0, 0))


def random_velocity(rng, max_rapidity=1.5):
    chi = rng.uniform(0, max_rapidity)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return normalize_velocity(vector(math.cosh(chi), *(math.sinh(chi) * d)))


def random_map(rng, depth=3):
    """One random composite map, built factor by factor through the public
    constructors on the suite's draws in the suite's order."""
    m = LorentzMap.identity()
    for _ in range(rng.integers(1, depth + 1)):
        if rng.random() < 0.5:
            m = make_boost(U0, random_velocity(rng, 1.0)).compose(m)
        else:
            c = rng.normal(size=3)
            axis = c[0] * vector(0, 1, 0, 0) + c[1] * vector(0, 0, 1, 0) + c[2] * vector(0, 0, 0, 1)
            m = make_rotation(U0, axis, rng.uniform(0, 2 * math.pi)).compose(m)
    return m


def reference_residuals(seed):
    """The splitting and map residuals, one sample at a time through the
    public kernel, on the suite's draws in the suite's order."""
    rng = np.random.default_rng(seed)
    worst_split = 0.0
    worst_orth = 0.0
    for _ in range(SAMPLES):
        u = random_velocity(rng)
        x = vector(*rng.uniform(-10, 10, 4))
        tp = time_part(u, x)
        sp = space_part(u, x)
        recon = u * tp + sp
        scale = max(1.0, float(np.max(np.abs(x._c))))
        worst_split = max(worst_split, float(np.max(np.abs(recon._c - x._c))) / scale)
        worst_orth = max(
            worst_orth,
            abs(lorentz_product(u.as_vector(), sp).value) / max(1.0, tp.value**2),
        )
    worst_product = 0.0
    for _ in range(1000):
        m = random_map(rng)
        x = vector(*rng.uniform(-5, 5, 4))
        y = vector(*rng.uniform(-5, 5, 4))
        before = lorentz_product(x, y).value
        after = lorentz_product(m(x), m(y)).value
        scale = max(1.0, abs(lorentz_product(x, x).value), abs(lorentz_product(y, y).value))
        worst_product = max(worst_product, abs(after - before) / scale)
    min_norm = math.inf
    for _ in range(1000):
        u = random_velocity(rng)
        v = space_part(u, vector(*rng.uniform(-10, 10, 4)))
        if float(np.max(np.abs(v._c))) > 1e-10:
            min_norm = min(min_norm, lorentz_product(v, v).value)
    # the causal-partition check draws between the two
    for _ in range(1000):
        rng.uniform(-3, 3, 4)
    worst_laws = 0.0
    for _ in range(100):
        a, b, c = random_map(rng), random_map(rng), random_map(rng)
        if not is_lorentz(a.compose(b)):
            worst_laws = 1.0
        ident = a.compose(a.inverse())
        worst_laws = max(worst_laws, float(np.max(np.abs(ident.matrix - np.eye(4)))))
        assoc = a.compose(b).compose(c).matrix - a.compose(b.compose(c)).matrix
        worst_laws = max(worst_laws, float(np.max(np.abs(assoc))))
    bad = 0
    for _ in range(50):
        a, b = random_map(rng), random_map(rng)
        bad += not is_orthochronous(a.compose(b))
    bad += is_orthochronous(time_inversion(U0))
    bad += is_orthochronous(time_inversion(random_velocity(rng)).compose(random_map(rng)))
    return {
        "splitting-reconstruction": worst_split,
        "splitting-orthogonality": worst_orth,
        "product-preservation": worst_product,
        "simultaneous-space-positive": min_norm,
        "group-laws": worst_laws,
        "orientation-characters": float(bad),
    }


@pytest.mark.parametrize("seed", [5, 42])
def test_stacked_checks_equal_the_per_sample_loop(monkeypatch, seed):
    monkeypatch.setattr(suites, "_HEAVY_SAMPLES", SAMPLES)
    got = {c.name: c for c in suites.run_geometry_suite(seed)}
    for name, residual in reference_residuals(seed).items():
        assert got[name].residual == residual, name
        assert got[name].passed
    assert got["splitting-reconstruction"].details == {"samples": SAMPLES}


@pytest.mark.parametrize("seed", [5, 42])
def test_stacked_maps_equal_the_per_sample_maps(seed):
    rng = np.random.default_rng(seed)
    draws = [suites._draw_map(rng) for _ in range(300)]
    rng = np.random.default_rng(seed)
    reference = np.array([random_map(rng).matrix for _ in range(300)])
    stacked = suites._maps(draws)
    # byte equality also tells signed zeros apart
    assert stacked.tobytes() == reference.tobytes()


def test_each_splitting_check_timed_over_its_own_batch(capsys):
    t0 = time.perf_counter()
    assert main(["verify-geometry", "--timings", "--seed", "5"]) == 0
    wall = time.perf_counter() - t0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    split = [checks[n]["seconds"] for n in ("splitting-reconstruction", "splitting-orthogonality")]
    assert all(s > 0.0 for s in split)
    assert sum(split) <= wall


ROWS = [
    "splitting-reconstruction",
    "splitting-orthogonality",
    "product-preservation",
    "simultaneous-space-positive",
    "causal-partition",
    "dimension-safety-error-path",
    "group-laws",
    "orientation-characters",
    "velocity-stabilizers-differ",
    "instant-stabilizer-isometry",
    "time-inversion-stabilizes-instant",
    "causal-growth-unit-speed",
    "observer-time-space-covariance",
]


@pytest.mark.parametrize("seed", [5, 42])
def test_observer_time_space_row_is_last_and_passes(seed):
    checks = suites.run_geometry_suite(seed)
    assert [c.name for c in checks] == ROWS
    last = checks[-1]
    assert last.passed and last.residual < 1e-13
    assert last.details == {"samples": 20}


def _fiducial_interval(t1, t2):
    # the rest frame's time coordinate difference, blind to the instants' observer
    return time_part(U0, t1.anchor - t2.anchor)


def _anchor_difference(q1, q2):
    # the anchors' difference, blind to where each sits on its world line
    return q1.anchor - q2.anchor


@pytest.mark.parametrize(
    "name, coordinate_difference",
    [("instant_subtract", _fiducial_interval), ("space_subtract", _anchor_difference)],
)
def test_observer_time_space_row_sees_a_coordinate_difference(
    monkeypatch, name, coordinate_difference
):
    monkeypatch.setattr(suites, name, coordinate_difference)
    last = suites.run_geometry_suite(42)[-1]
    assert last.name == "observer-time-space-covariance"
    assert not last.passed and last.residual > 1e-3

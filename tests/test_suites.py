"""The geometry suite's stacked checks against a per-sample loop."""

import json
import math
import time

import numpy as np
import pytest

from minkabs import suites
from minkabs.cli import main
from minkabs.geometry import (
    CausalClass,
    Instant,
    causal_class,
    fiducial_origin,
    lorentz_product,
    normalize_velocity,
    space_part,
    time_part,
    vector,
)
from minkabs.groups import (
    LorentzMap,
    PoincareMap,
    in_O_u,
    is_lorentz,
    is_orthochronous,
    make_boost,
    make_rotation,
    stabilizes_instant,
    time_inversion,
)

SAMPLES = 1000
U0 = normalize_velocity(vector(1, 0, 0, 0))
O = fiducial_origin()


def velocity(chi, d):
    d = d / np.linalg.norm(d)
    return normalize_velocity(vector(math.cosh(chi), *(math.sinh(chi) * d)))


def random_velocities(rng, n):
    """The suite's ``n`` velocity draws, built one at a time."""
    chi, d = rng.uniform(0, 1.5, n), rng.normal(size=(n, 3))
    return [velocity(x, v) for x, v in zip(chi, d)]


def random_maps(rng, n):
    """The suite's ``n`` composite-map draws (depths, kinds, parameters,
    then directions or axes, each over all three levels), each map built
    factor by factor through the public constructors."""
    depth = rng.integers(1, 4, n)
    boost, param, vec = rng.random((3, n)) < 0.5, rng.random((3, n)), rng.normal(size=(3, n, 3))
    maps = []
    for i in range(n):
        m = LorentzMap.identity()
        for level in range(depth[i]):
            p, c = param[level, i], vec[level, i]
            if boost[level, i]:
                m = make_boost(U0, velocity(p, c)).compose(m)
            else:
                axis = c[0] * vector(0, 1, 0, 0) + c[1] * vector(0, 0, 1, 0) + c[2] * vector(0, 0, 0, 1)
                m = make_rotation(U0, axis, 2 * math.pi * p).compose(m)
        maps.append(m)
    return maps


def reference_residuals(seed):
    """The residuals of every drawn row up to ``time-inversion-stabilizes-instant``,
    on the suite's draw stacks in the suite's order, one sample at a time
    through the public kernel."""
    rng = np.random.default_rng(seed)
    worst_split = 0.0
    worst_orth = 0.0
    us = random_velocities(rng, SAMPLES)
    for u, x in zip(us, rng.uniform(-10, 10, (SAMPLES, 4))):
        x = vector(*x)
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
    maps = random_maps(rng, 1000)
    for m, (x, y) in zip(maps, rng.uniform(-5, 5, (1000, 2, 4))):
        x, y = vector(*x), vector(*y)
        before = lorentz_product(x, y).value
        after = lorentz_product(m(x), m(y)).value
        scale = max(1.0, abs(lorentz_product(x, x).value), abs(lorentz_product(y, y).value))
        worst_product = max(worst_product, abs(after - before) / scale)
    min_norm = math.inf
    us = random_velocities(rng, 1000)
    for u, x in zip(us, rng.uniform(-10, 10, (1000, 4))):
        v = space_part(u, vector(*x))
        if float(np.max(np.abs(v._c))) > 1e-10:
            min_norm = min(min_norm, lorentz_product(v, v).value)
    classes = (CausalClass.TIMELIKE, CausalClass.SPACELIKE, CausalClass.LIGHTLIKE)
    partition = sum(causal_class(vector(*x)) not in classes for x in rng.uniform(-3, 3, (1000, 4)))
    partition += causal_class(vector(1, 1, 0, 0)) is not CausalClass.LIGHTLIKE
    worst_laws = 0.0
    maps = random_maps(rng, 300)
    for a, b, c in zip(maps[0::3], maps[1::3], maps[2::3]):
        if not is_lorentz(a.compose(b)):
            worst_laws = 1.0
        ident = a.compose(a.inverse())
        worst_laws = max(worst_laws, float(np.max(np.abs(ident.matrix - np.eye(4)))))
        assoc = a.compose(b).compose(c).matrix - a.compose(b.compose(c)).matrix
        worst_laws = max(worst_laws, float(np.max(np.abs(assoc))))
    maps = random_maps(rng, 101)
    flip = time_inversion(random_velocities(rng, 1)[0])
    bad = sum(not is_orthochronous(a.compose(b)) for a, b in zip(maps[0:100:2], maps[1:100:2]))
    bad += is_orthochronous(time_inversion(U0))
    bad += is_orthochronous(flip.compose(maps[100]))
    rotations = [make_rotation(U0, vector(*axis), 0.9) for axis in np.eye(4)[1:]]
    misses = 0
    for u2 in random_velocities(rng, 50):
        if abs(u2.as_vector()._c[0] - 1.0) >= 1e-6:
            misses += not any(in_O_u(r, U0) and not in_O_u(r, u2) for r in rotations)
    axes, angles = rng.normal(size=(50, 3)), rng.uniform(0, 2 * math.pi, 50)
    shifts, points = rng.uniform(-3, 3, (50, 3)), rng.uniform(-5, 5, (50, 2, 3))
    worst_iso = 0.0
    t_inst = Instant(U0, O)
    for axis, angle, shift, (p, q) in zip(axes, angles, shifts, points):
        rot = PoincareMap.from_homogeneous(make_rotation(U0, vector(0, *axis), angle), O)
        m = PoincareMap.from_translation(vector(0, *shift)).compose(rot)
        if not stabilizes_instant(m, t_inst):
            worst_iso = max(worst_iso, 1.0)
            continue
        p, q = O + vector(0, *p), O + vector(0, *q)
        d0 = lorentz_product(p - q, p - q).value
        d1 = lorentz_product(m(p) - m(q), m(p) - m(q)).value
        worst_iso = max(worst_iso, abs(d1 - d0) / max(1.0, abs(d0)))
    inversion = 0
    us = random_velocities(rng, 20)
    for u, x in zip(us, rng.uniform(-3, 3, (20, 4))):
        anchor = O + vector(*x)
        inv = PoincareMap.from_homogeneous(time_inversion(u), anchor)
        inversion += not stabilizes_instant(inv, Instant(u, anchor))
        inversion += inv.is_orthochronous()
    return {
        "splitting-reconstruction": worst_split,
        "splitting-orthogonality": worst_orth,
        "product-preservation": worst_product,
        "simultaneous-space-positive": min_norm,
        "causal-partition": float(partition),
        "group-laws": worst_laws,
        "orientation-characters": float(bad),
        "velocity-stabilizers-differ": float(misses),
        "instant-stabilizer-isometry": worst_iso,
        "time-inversion-stabilizes-instant": float(inversion),
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
    stacked = suites._random_maps(np.random.default_rng(seed), 300)
    reference = np.array([m.matrix for m in random_maps(np.random.default_rng(seed), 300)])
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


def _row(checks, name):
    return next(c for c in checks if c.name == name)


def test_instant_stabilizer_row_scores_a_map_that_moves_the_instant(monkeypatch):
    monkeypatch.setattr(suites, "stabilizes_instant", lambda m, t: False)
    row = _row(suites.run_geometry_suite(42), "instant-stabilizer-isometry")
    assert row.residual == 1.0 and not row.passed


def test_velocity_stabilizer_row_sees_a_shared_stabilizer(monkeypatch):
    monkeypatch.setattr(suites, "in_O_u", lambda m, u: True)
    row = _row(suites.run_geometry_suite(42), "velocity-stabilizers-differ")
    assert row.residual > 0.0 and not row.passed


@pytest.mark.parametrize("seed", range(20))
def test_every_row_passes_over_a_seed_sweep(seed):
    failed = [c.name for c in suites.run_geometry_suite(seed) if not c.passed]
    assert failed == []

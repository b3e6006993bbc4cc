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

SAMPLES = 1000


def reference_residuals(seed):
    """The three observer-splitting residuals, one sample at a time through
    the public kernel, on the suite's draws in the suite's order."""
    rng = np.random.default_rng(seed)

    def random_velocity():
        chi = rng.uniform(0, 1.5)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        return normalize_velocity(vector(math.cosh(chi), *(math.sinh(chi) * d)))

    worst_split = 0.0
    worst_orth = 0.0
    for _ in range(SAMPLES):
        u = random_velocity()
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
    # the product-preservation check draws between the two
    for _ in range(1000):
        suites._random_map(rng)
        rng.uniform(-5, 5, 4)
        rng.uniform(-5, 5, 4)
    min_norm = math.inf
    for _ in range(1000):
        u = random_velocity()
        v = space_part(u, vector(*rng.uniform(-10, 10, 4)))
        if float(np.max(np.abs(v._c))) > 1e-10:
            min_norm = min(min_norm, lorentz_product(v, v).value)
    return {
        "splitting-reconstruction": worst_split,
        "splitting-orthogonality": worst_orth,
        "simultaneous-space-positive": min_norm,
    }


@pytest.mark.parametrize("seed", [5, 42])
def test_stacked_checks_equal_the_per_sample_loop(monkeypatch, seed):
    monkeypatch.setattr(suites, "_HEAVY_SAMPLES", SAMPLES)
    got = {c.name: c for c in suites.run_geometry_suite(seed)}
    for name, residual in reference_residuals(seed).items():
        assert got[name].residual == residual, name
        assert got[name].passed
    assert got["splitting-reconstruction"].details == {"samples": SAMPLES}


def test_each_splitting_check_timed_over_its_own_batch(capsys):
    t0 = time.perf_counter()
    assert main(["verify-geometry", "--timings", "--seed", "5"]) == 0
    wall = time.perf_counter() - t0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    split = [checks[n]["seconds"] for n in ("splitting-reconstruction", "splitting-orthogonality")]
    assert all(s > 0.0 for s in split)
    assert sum(split) <= wall

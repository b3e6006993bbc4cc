"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one ``ACCEPTANCE`` line (visible with ``pytest -s``).
Lattice criteria run at N=32 with the default quarter-second spacing and
unit inverse-second mass; refinement criteria double to N=64.
"""

import time

import numpy as np
import pytest

from minkabs.geometry import normalize_velocity, vector
from minkabs.groups import PoincareMap, make_rotation
from minkabs.quantum import LatticeState, ModelConfig, PvmHandle
import minkabs.quantum.verify as V
from minkabs.suites import run_geometry_suite

U0 = normalize_velocity(vector(1, 0, 0, 0))

# oracle-run value for the rapidity-0.5 duration-variance witness on the
# width-1.0 packet at N=32 (stable to three digits at N=64)
PINNED_TIME_VARIANCE_WITNESS = 0.2727


@pytest.fixture(scope="module")
def cfg32():
    return ModelConfig(N=32)


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_geometry_suite():
    t0 = time.perf_counter()
    checks = {c.name: c for c in run_geometry_suite(seed=42)}
    elapsed = time.perf_counter() - t0
    split = checks["splitting-reconstruction"]
    orth = checks["splitting-orthogonality"]
    prod = checks["product-preservation"]
    ok = (
        split.passed
        and orth.passed
        and prod.passed
        and split.tolerance == 1e-12
        and prod.tolerance == 1e-9
        and elapsed < 5.0
    )
    _report(
        1,
        "geometry-invariants",
        ok,
        f"split={split.residual:.2e}<=1e-12 orth={orth.residual:.2e}<=1e-12 "
        f"product={prod.residual:.2e}<=1e-9 runtime={elapsed:.1f}s<5s",
    )


def test_criterion_2_stabilizer_exactness(cfg32):
    t0 = time.perf_counter()
    results = V.run_stabilizer_suite(cfg32, n_states=50, seed=42, translations=4)
    elapsed = time.perf_counter() - t0
    worst = max(r.residual for r in results)
    axis_count = sum(1 for r in results if "axis-symmetry" in r.name)
    shift_count = sum(1 for r in results if "shift" in r.name)
    ok = (
        worst <= 1e-10
        and axis_count == 48
        and shift_count >= 4
        and elapsed < 60.0
    )
    _report(
        2,
        "stabilizer-covariance-exact",
        ok,
        f"worst={worst:.2e}<=1e-10 over {axis_count} axis symmetries and "
        f"{shift_count} shifts, 50 states, runtime={elapsed:.1f}s<60s",
    )


def test_criterion_3_boost_convergence(cfg32):
    t0 = time.perf_counter()
    rows = V.boost_convergence_rows(
        cfg32, chi=0.25, seeds=(42, 43, 44), n_states=2, refinements=1
    )
    elapsed = time.perf_counter() - t0
    ratios = [r["ratio_to_previous"] for r in rows if r["ratio_to_previous"]]
    ok = len(ratios) == 3 and all(r <= 0.6 for r in ratios) and elapsed < 600.0
    _report(
        3,
        "boost-covariance-convergence",
        ok,
        f"N=32->64 ratios={[f'{r:.2e}' for r in ratios]} all<=0.6 "
        f"runtime={elapsed:.0f}s<600s",
    )


def test_criterion_4_position_family(cfg32):
    states = V.random_states(cfg32, np.random.default_rng(42), 8)
    a = cfg32.spacing.value
    rot = PoincareMap.from_homogeneous(
        make_rotation(U0, cfg32.basis[2], np.pi / 2), cfg32.origin
    )
    shift = PoincareMap.from_translation(
        2 * a * cfg32.basis[0] - 3 * a * cfg32.basis[1] + a * cfg32.basis[2]
    )
    worst = max(
        V.position_family_stabilizer_residual(cfg32, S, states)
        for S in (rot, shift, shift.compose(rot))
    )
    witness = V.fixed_label_boost_witness(cfg32, chi=0.25)
    ok = worst <= 1e-10 and witness >= 0.1
    _report(
        4,
        "position-family-covariance",
        ok,
        f"lattice={worst:.2e}<=1e-10 fixed-label-witness={witness:.3f}>=0.1",
    )


def test_criterion_5_space_component_dichotomy(cfg32):
    states = V.random_states(cfg32, np.random.default_rng(43), 8)
    rot = PoincareMap.from_homogeneous(
        make_rotation(U0, cfg32.basis[2], np.pi / 2), cfg32.origin
    )
    own = V.space_component_residual(cfg32, cfg32.observer, rot, states)
    tilted = V.space_component_residual(cfg32, V.boosted_velocity(0.5), rot, states)
    ok = own <= 1e-10 and tilted >= 0.05
    _report(
        5,
        "space-component-dichotomy",
        ok,
        f"own={own:.2e}<=1e-10 tilted-witness={tilted:.3f}>=0.05",
    )


def test_criterion_6_time_component_dichotomy(cfg32):
    worst = V.own_time_variance(cfg32, n_states=100, seed=42)
    witness = V.time_variance_witness(cfg32, witness_chi=0.5)
    pin = PINNED_TIME_VARIANCE_WITNESS
    ok = worst == 0.0 and witness > 0.01 and abs(witness - pin) <= 0.2 * pin
    _report(
        6,
        "time-component-dichotomy",
        ok,
        f"own-variance-max={worst!r}==0 witness={witness:.4f}>0.01 "
        f"within 20% of pinned {pin}",
    )


def test_criterion_7_causality_leakage(cfg32):
    t0 = time.perf_counter()
    phi = V.localized_state(cfg32)
    zero = V.causality_experiment(cfg32, phi, V.causal_shadow(cfg32, delta_t=0.0))
    leak32 = V.causality_experiment(cfg32, phi, V.causal_shadow(cfg32, delta_t=2.0))
    elapsed32 = time.perf_counter() - t0
    region = V.cell_region(cfg32, (-2, -2, -2), (1, 1, 1))
    localized = V.localization_probability(
        PvmHandle(cfg32.instant), region, LatticeState(cfg32, phi)
    )
    cfg64 = ModelConfig(N=64)
    leak64 = V.causality_experiment(
        cfg64, V.localized_state(cfg64), V.causal_shadow(cfg64, delta_t=2.0)
    )
    ratio = leak64 / leak32
    ok = (
        zero <= 1e-10
        and leak32 > 1e-6
        and localized >= 1 - 1e-6
        and 0.5 <= ratio <= 2.0
        and elapsed32 < 300.0
    )
    _report(
        7,
        "causality-leakage",
        ok,
        f"dt0={zero:.2e}<=1e-10 leak32={leak32:.3e}>1e-6 "
        f"leak64/leak32={ratio:.2f} in [0.5,2] runtime={elapsed32:.1f}s<300s",
    )


def test_criterion_8_commutator_witness(cfg32):
    witness = V.commutator_witness(cfg32)
    reg_a = V.cell_region(cfg32, (-5, -2, -2), (-2, 1, 1))
    reg_b = V.cell_region(cfg32, (2, -2, -2), (5, 1, 1))
    same = V.commutator_witness(cfg32, region_a=reg_a, region_b=reg_b)
    ok = witness >= 1e-4 and same <= 1e-12
    _report(
        8,
        "commutator-witness",
        ok,
        f"cross-instant={witness:.3e}>=1e-4 same-instant={same:.2e}<=1e-12",
    )


def test_criterion_9_global_equivariance(cfg32):
    worst = max(
        V.equivariance_residual(cfg32, seed=seed) for seed in (42, 43)
    )
    ok = worst <= 1e-10
    _report(9, "global-equivariance", ok, f"worst={worst:.2e}<=1e-10")

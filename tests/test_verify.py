"""Covariance and causality verification drivers (fast lattice sizes)."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import minkabs
from minkabs.geometry import (
    GeometryError,
    Instant,
    normalize_velocity,
    point,
    seconds,
    time_part,
    vector,
)
from minkabs.groups import (
    LorentzMap,
    PoincareMap,
    Region,
    grow_region_causally,
    make_boost,
    make_rotation,
    time_inversion,
)
from minkabs.quantum import LatticeState, ModelConfig, rapidity_of
import minkabs.quantum.pvm as pvm
import minkabs.quantum.verify as V

U0 = normalize_velocity(vector(1, 0, 0, 0))


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(N=16)


@pytest.fixture(scope="module")
def cfg32():
    return ModelConfig(N=32)


@pytest.fixture(scope="module")
def white(cfg):
    return V.random_states(cfg, np.random.default_rng(1), 6)


def _standalone_residual(cfg, S, region, states):
    """One element's residual with its own mask and carried side."""
    carried_mask = V.rasterize(cfg, S.transform_region(region))
    carried = pvm._conjugate_mask(cfg, states, [], carried_mask)
    conjugation = pvm._conjugation(cfg, [S], V.rasterize(cfg, region))
    return V.stabilizer_covariance_residual(cfg, conjugation, states, carried)


class TestStabilizerCovariance:
    def test_identity_gives_zero(self, cfg, white):
        region = V.cell_region(cfg, (-2, -2, -1), (2, 1, 1))
        assert _standalone_residual(cfg, PoincareMap.identity(), region, white) == 0.0

    def test_full_suite_is_exact(self, cfg):
        results = V.run_stabilizer_suite(cfg, n_states=8, seed=3, translations=2)
        assert len(results) == 48 + 4
        assert all(r.passed for r in results)
        assert max(r.residual for r in results) <= 1e-10

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_suite_matches_standalone_residuals(self, cfg, threads, monkeypatch):
        # the suite's hoisted mask and shared carried sides change no bit
        monkeypatch.setenv("MINKABS_THREADS", threads)
        results = V.run_stabilizer_suite(cfg, n_states=4, seed=3, translations=2)
        states = V.random_states(cfg, np.random.default_rng(3), 4)
        region = V.cell_region(cfg, (-2, -1, -2), (2, 1, 1))
        elements = V.stabilizer_elements(cfg, np.random.default_rng((3, 1)), 2)
        expected = [_standalone_residual(cfg, S, region, states) for _, S in elements]
        assert [r.residual for r in results] == expected

    def test_suite_transforms_each_carried_mask_once(self, cfg, monkeypatch):
        # the suite's masks are boxes, so they take the pruned back transform;
        # every back transform goes through the one seam
        calls = []

        def counting(transform):
            def counted(arr, *args, **kwargs):
                calls.append(arr.shape)
                return transform(arr, *args, **kwargs)

            return counted

        monkeypatch.setattr(pvm, "_to_momentum", counting(pvm._to_momentum))
        monkeypatch.setenv("MINKABS_THREADS", "1")
        V.run_stabilizer_suite(cfg, n_states=8, seed=3, translations=2)
        region = V.cell_region(cfg, (-2, -1, -2), (2, 1, 1))
        elements = V.stabilizer_elements(cfg, np.random.default_rng((3, 1)), 2)
        carried = {V.rasterize(cfg, S.transform_region(region)).tobytes() for _, S in elements}
        assert len(carried) < len(elements)
        # one transform per element (its left side), one per carried mask
        assert len(calls) == len(elements) + len(carried)

    def test_state_count_does_not_pick_the_elements(self, cfg, monkeypatch):
        original, drawn = V.stabilizer_elements, []

        def recording(*args):
            drawn.append(original(*args))
            return drawn[-1]

        monkeypatch.setattr(V, "stabilizer_elements", recording)
        monkeypatch.setenv("MINKABS_THREADS", "1")
        for n_states in (1, 2):
            V.run_stabilizer_suite(cfg, n_states=n_states, seed=3, translations=2)
        one, two = (
            [(name, S.linear.matrix.tobytes(), S.translation._c.tobytes()) for name, S in els]
            for els in drawn
        )
        assert one == two

    def test_serial_suite_holds_one_carried_side(self, cfg, monkeypatch):
        # one right side live at a time peaks near 5.8 batches of states;
        # keeping every group's right side would take 19 or more.
        monkeypatch.setenv("MINKABS_THREADS", "1")
        batch_bytes = V.random_states(cfg, np.random.default_rng(0), 8).nbytes
        V.run_stabilizer_suite(cfg, n_states=8, seed=3, translations=2)
        tracemalloc.start()
        try:
            V.run_stabilizer_suite(cfg, n_states=8, seed=3, translations=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7 * batch_bytes

    @pytest.mark.parametrize("threads, bound_mib", [("1", 16), ("2", 25)])
    def test_suite_peak_memory(self, cfg32, threads, bound_mib, monkeypatch):
        # right sides per block of three or four states: 13.9 MiB on one worker
        # and 21.0-21.4 on two, where a right side over all states took 22.6 and
        # 38.9; the bounds leave about 15% headroom
        monkeypatch.setenv("MINKABS_THREADS", threads)
        V.run_stabilizer_suite(cfg32, 10, 42, 4)  # fills the small caches first
        tracemalloc.start()
        try:
            V.run_stabilizer_suite(cfg32, 10, 42, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib << 20

    def test_checks_are_timed_over_their_own_work(self, cfg32, monkeypatch):
        # each check sums its own left sides over the blocks, and a group's
        # first check also its preparation and right sides, so together the
        # checks cover the suite but its draws and carried masks
        monkeypatch.setenv("MINKABS_THREADS", "1")
        start = time.perf_counter()
        results = V.run_stabilizer_suite(cfg32, n_states=20, seed=42, translations=4)
        wall = time.perf_counter() - start
        spent = [r.seconds for r in results]
        assert all(s > 0.0 for s in spent)
        # the cheapest check reads 0.65 of the mean; timed only at each group's
        # end, all but the first of a group would read next to nothing
        assert min(spent) >= 0.1 * sum(spent) / len(spent)
        assert sum(spent) >= 0.9 * wall

    def test_threaded_run_matches_serial(self, cfg, monkeypatch):
        runs = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("MINKABS_THREADS", threads)
            runs[threads] = V.run_stabilizer_suite(cfg, n_states=4, seed=9, translations=1)
        serial, threaded = runs["1"], runs["4"]
        assert [r.name for r in serial] == [r.name for r in threaded]
        assert [r.residual for r in serial] == [r.residual for r in threaded]


class TestRandomStates:
    def test_draws_of_one_expression_in_place(self):
        # the bytes of one (count, N, N, N) draw of real parts, one of imaginary
        # parts, and one batched norm, with no full-size temporary: the old
        # expression peaked at 2.0 results
        for n, count in [(16, 1), (32, 3), (32, 10), (64, 2)]:
            cfg, shape = ModelConfig(N=n), (count, n, n, n)
            rng = np.random.default_rng(n + count)
            ref = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            ref /= np.linalg.norm(ref.reshape(count, -1), axis=1)[:, None, None, None]
            states = V.random_states(cfg, np.random.default_rng(n + count), count)
            assert states.tobytes() == ref.tobytes()
        cfg = ModelConfig(N=32)
        tracemalloc.start()
        try:
            states = V.random_states(cfg, np.random.default_rng(0), 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * states.nbytes


class TestStateBlocks:
    # the suite runs per block of states, right sides and left sides, through
    # per-job work fields; blocks come from the lattice alone (at most 2 MiB of
    # fields) and never hold one state, because _row_norms of one row rounds
    # differently from a batch at N >= 32
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("n_states", [1, 2, 3, 10, 11, 50, 51])
    def test_block_rule(self, n, n_states):
        blocks = V._state_blocks(n, n_states)
        sizes = [b.stop - b.start for b in blocks]
        assert [b.start for b in blocks] == [0, *(b.stop for b in blocks[:-1])]
        assert blocks[-1].stop == n_states
        assert max(sizes) - min(sizes) <= 1
        assert n_states < 2 or min(sizes) >= 2
        field = 16 * n**3
        if 2 * field <= 2 << 20:
            assert max(sizes) * field <= 2 << 20
        if n == 32 and n_states in (10, 50):
            assert max(sizes) == 4 and len(blocks) == math.ceil(n_states / 4)

    @pytest.mark.parametrize("n_states", [11, 50])
    def test_blocked_suite_matches_one_batch(self, cfg32, n_states, monkeypatch):
        # uneven blocks (3, 4 and 4 states) and 13 blocks of 3 or 4 give the
        # residuals of one batch of all states without work fields, bit for bit
        monkeypatch.setenv("MINKABS_THREADS", "2")
        results = V.run_stabilizer_suite(cfg32, n_states=n_states, seed=42, translations=4)
        states = V.random_states(cfg32, np.random.default_rng(42), n_states)
        region = V.cell_region(cfg32, (-4, -3, -2), (4, 3, 1))
        elements = V.stabilizer_elements(cfg32, np.random.default_rng((42, 1)), 4)
        expected = [_standalone_residual(cfg32, S, region, states) for _, S in elements]
        assert [r.residual for r in results] == expected


class TestLabelChanges:
    def test_time_translation_is_exact(self, cfg, white):
        region = V.cell_region(cfg, (-2, -2, -1), (2, 1, 1))
        L = PoincareMap.from_translation(vector(0.7, 0, 0, 0))
        assert V.region_covariance_residual(cfg, L, region, white[:3]) <= 1e-10

    def test_stabilizer_reduces_to_suite(self, cfg, white):
        region = V.cell_region(cfg, (-2, -2, -1), (2, 1, 1))
        rot = PoincareMap.from_homogeneous(
            make_rotation(U0, vector(0, 0, 0, 1), math.pi / 2), cfg.origin
        )
        assert V.region_covariance_residual(cfg, rot, region, white[:3]) <= 1e-10

    def test_factorization_probe_converges(self):
        residuals = {}
        for n in (32, 64):
            c = ModelConfig(N=n)
            rng = np.random.default_rng(7)
            states = V.smooth_states(c, rng, 2)
            region = V.cell_region(c, (-3, -3, -3), (2, 2, 2))
            boost = make_boost(c.observer, V.boosted_velocity(0.25))
            residuals[n] = V.factorization_residual(c, boost, region, states, rng)
        assert residuals[64] <= 0.6 * residuals[32]

    def test_convergence_seeds_fan_out_in_seed_order(self, monkeypatch):
        rows = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MINKABS_THREADS", threads)
            rows[threads] = V.boost_convergence_rows(
                ModelConfig(N=16), chi=0.2, seeds=(6, 5), n_states=1, refinements=1
            )
        assert [r["seed"] for r in rows["2"]] == [6, 6, 5, 5]
        assert rows["2"] == rows["1"]

    def test_convergence_rows_shape(self, cfg32):
        rows = V.boost_convergence_rows(
            ModelConfig(N=16), chi=0.2, seeds=(5,), n_states=1, refinements=1
        )
        assert len(rows) == 2
        assert rows[0]["N"] == 16 and rows[1]["N"] == 32
        assert rows[1]["ratio_to_previous"] is not None


class TestPositionFamily:
    def test_lattice_covariance_exact(self, cfg32):
        states = V.random_states(cfg32, np.random.default_rng(2), 4)
        a = cfg32.spacing.value
        rot = PoincareMap.from_homogeneous(
            make_rotation(U0, vector(0, 0, 0, 1), math.pi / 2), cfg32.origin
        )
        shift = PoincareMap.from_translation(vector(0, 2 * a, -3 * a, a))
        for S in (rot, shift, shift.compose(rot)):
            assert V.position_family_stabilizer_residual(cfg32, S, states) <= 1e-10

    def test_fixed_label_guess_fails_under_boost(self, cfg32):
        # measured 0.244 for the standard packet at quarter rapidity
        witness = V.fixed_label_boost_witness(cfg32, chi=0.25)
        assert witness >= 0.1

    def test_space_component_dichotomy(self, cfg32):
        states = V.random_states(cfg32, np.random.default_rng(4), 4)
        rot = PoincareMap.from_homogeneous(
            make_rotation(U0, vector(0, 0, 0, 1), math.pi / 2), cfg32.origin
        )
        own = V.space_component_residual(cfg32, U0, rot, states)
        tilted = V.space_component_residual(
            cfg32, V.boosted_velocity(0.5), rot, states
        )
        assert own <= 1e-10
        assert tilted >= 0.05

    def test_time_variance_dichotomy(self, cfg32):
        worst = V.own_time_variance(cfg32, n_states=20, seed=5)
        witness = V.time_variance_witness(cfg32)
        assert worst == 0.0
        # oracle-run value 0.2727 at this configuration, pinned to 20%
        assert witness > 0.01
        assert abs(witness - 0.2727) <= 0.2 * 0.2727


class TestCausality:
    def test_state_is_localized_in_the_region(self, cfg32):
        region = V.cell_region(cfg32, (-2, -2, -2), (1, 1, 1))
        phi = LatticeState(cfg32, V.localized_state(cfg32))
        assert V.localization_probability(region, phi) >= 1 - 1e-6

    def test_no_interval_no_leakage(self, cfg32):
        shadow = V.causal_shadow(cfg32, delta_t=0.0)
        assert V.causality_experiment(cfg32, V.localized_state(cfg32), shadow) <= 1e-10

    def test_leakage_strictly_positive(self, cfg32):
        shadow = V.causal_shadow(cfg32, delta_t=2.0)
        assert V.causality_experiment(cfg32, V.localized_state(cfg32), shadow) > 1e-6

    def test_margin_doubling_leaves_leakage(self, cfg32):
        a = cfg32.spacing.value
        phi = V.localized_state(cfg32)
        r1, r2 = (
            V.causality_experiment(cfg32, phi, V.causal_shadow(cfg32, delta_t=2.0, margin=m * a))
            for m in (0.2, 0.4)
        )
        assert abs(r1 - r2) <= 1e-10

    def test_negative_interval_rejected(self, cfg32):
        from minkabs.geometry import GeometryError

        with pytest.raises(GeometryError):
            V.causal_shadow(cfg32, delta_t=-1.0)

    def test_boosted_observer_also_leaks(self, cfg32):
        shadow = V.causal_shadow(cfg32, delta_t=2.0, u2=V.boosted_velocity(0.15))
        assert rapidity_of(cfg32, shadow[0].linear) == pytest.approx(0.15, abs=1e-12)
        assert V.causality_experiment(cfg32, V.localized_state(cfg32), shadow) > 1e-6


def _pulled_back_shadow(cfg, delta_t, u2, margin):
    """``causal_shadow`` built as before it was a projection: the canonical
    map by its general formula, the grown box carried back by its inverse,
    then padded by half a spacing plus the margin per side and rasterized."""
    a = cfg.spacing.value
    observer = cfg.observer if u2 is None else u2
    t2 = Instant(observer, cfg.origin + cfg.observer * seconds(delta_t))
    same = observer.approx_eq(cfg.observer)
    linear = LorentzMap.identity() if same else make_boost(cfg.observer, observer)
    gap = time_part(observer, t2.anchor - cfg.origin)
    carry = PoincareMap.from_translation(observer * gap).compose(
        PoincareMap.from_homogeneous(linear, cfg.origin)
    )
    grown = grow_region_causally(V.cell_region(cfg, *V._CAUSAL_CELLS), t2)
    pulled = carry.inverse().transform_region(grown)
    pad = 0.5 * a * (1.0 + 1e-9) + margin
    boxes = [(lo - pad, hi + pad) for lo, hi in pulled.boxes]
    return carry, V.rasterize(cfg, Region(pulled.instant, boxes, pulled.basis, pulled.anchor))


class TestCausalShadow:
    # a shadow is the projection of the inflated grown box: the same carry and
    # the same mask bytes as the pulled-back rasterization it replaced
    @pytest.mark.parametrize(
        "frame",
        [
            None,
            (0.3, (1, 2, 3), point(0.3, -1.1, 0.7, 2.9)),
        ],
        ids=["fiducial", "moving"],
    )
    def test_matches_pulled_back_rasterization(self, frame):
        if frame is None:
            cfg = ModelConfig(N=32)
        else:
            chi, axis, anchor = frame
            cfg = ModelConfig(N=32, instant=Instant(V.boosted_velocity(chi, axis), anchor))
        a = cfg.spacing.value
        trials = [
            (0.0, None, 0.2),
            (2.0, None, 0.2),
            (2.0, None, 0.4),
            (1.0, V.boosted_velocity(0.15), 0.2),
            (2.0, V.boosted_velocity(0.2, (0, 1, 1)), 0.4),
        ]
        for dt, u2, m in trials:
            carry, mask = V.causal_shadow(cfg, delta_t=dt, u2=u2, margin=m * a)
            want_carry, want_mask = _pulled_back_shadow(cfg, dt, u2, m * a)
            assert np.array_equal(carry.linear.matrix, want_carry.linear.matrix)
            assert np.array_equal(carry.translation._c, want_carry.translation._c)
            assert mask.tobytes() == want_mask.tobytes()
            assert mask.any()


def _full_space_witness(cfg, region_a=None, region_b=None, seed=42, starts=3, iterations=12):
    """A power iteration on N^3 fields: a lower bound of the commutator norm."""
    from minkabs.quantum.pvm import _conjugate_mask, _projection

    if region_a is None:
        region_a = V.cell_region(cfg, (-5, -2, -2), (-2, 1, 1))
    if region_b is None:
        t2 = Instant(cfg.observer, cfg.origin + cfg.observer * seconds(0.5))
        region_b = V.cell_region(cfg, (2, -2, -2), (5, 1, 1), instant=t2)
    # each projection is rasterized once, then applied by the power iteration
    carry_a, mask_a = _projection(region_a, cfg)
    carry_b, mask_b = _projection(region_b, cfg)

    def pa(arr):
        return _conjugate_mask(cfg, arr, [carry_a], mask_a)

    def pb(arr):
        return _conjugate_mask(cfg, arr, [carry_b], mask_b)

    def commutator(arr):
        return pa(pb(arr)) - pb(pa(arr))

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(starts):
        v = V.random_states(cfg, rng, 1)[0]
        for _ in range(iterations):
            w = -commutator(commutator(v))  # adjoint-square of the skew map
            n = np.linalg.norm(w)
            if n == 0.0:
                break
            v = w / n
        best = max(best, float(np.linalg.norm(commutator(v))))
    return best


def _dense_commutator_norm(cfg, region_a, region_b):
    """Spectral norm of ``Pa Pb - Pb Pa`` from the dense N^3 x N^3 projections."""
    from minkabs.quantum.pvm import _conjugate_mask, _projection

    units = np.eye(cfg.N**3, dtype=complex).reshape((-1,) + (cfg.N,) * 3)
    pa, pb = (
        _conjugate_mask(cfg, units, [carry], mask).reshape(cfg.N**3, -1).T
        for carry, mask in (_projection(r, cfg) for r in (region_a, region_b))
    )
    return float(np.linalg.norm(pa @ pb - pb @ pa, 2))


def _later_region_a(cfg):
    t1 = Instant(cfg.observer, cfg.origin + cfg.observer * seconds(0.25))
    return V.cell_region(cfg, (-5, -2, -2), (-2, 1, 1), instant=t1)


class TestCommutators:
    def test_cross_instant_witness(self, cfg32):
        witness = V.commutator_witness(cfg32)
        assert witness >= 1e-4

    @pytest.mark.parametrize(
        "case",
        [
            [((-3, -1, -1), (-2, 0, 0), 0.0), ((1, -1, -1), (2, 0, 0), 0.5)],
            [((-3, -1, -1), (-2, 0, 0), 0.25), ((1, -1, -1), (2, 0, 0), 0.5)],
            [((-2, -1, -1), (0, 0, 0), 0.0), ((-1, -1, -1), (1, 0, 0), 0.5)],
        ],
        ids=["cross-instant", "both-later", "overlapping"],
    )
    def test_matches_dense_commutator(self, case):
        # N=8 keeps the dense projections at 512 x 512; the boxes keep |a| * |b| <= N^3
        cfg = ModelConfig(N=8)
        u = cfg.observer
        region_a, region_b = (
            V.cell_region(cfg, lo, hi, Instant(u, cfg.origin + u * seconds(t)))
            for lo, hi, t in case
        )
        value = V.commutator_witness(cfg, region_a, region_b)
        reference = _dense_commutator_norm(cfg, region_a, region_b)
        assert value > 1e-2
        assert abs(value - reference) <= 1e-13 * reference

    @pytest.mark.parametrize(
        "case",
        [
            dict(seed=42, starts=3, iterations=10),
            dict(seed=11, starts=2, iterations=8),
            dict(later_a=True, seed=42, starts=3, iterations=10),
            dict(seed=42, starts=3, iterations=0),
        ],
        ids=["cli-default", "seed-11", "both-carries-phases", "no-iteration"],
    )
    def test_iteration_never_exceeds_exact_norm(self, cfg32, case):
        kwargs = dict(case)
        regions = {"region_a": _later_region_a(cfg32)} if kwargs.pop("later_a", False) else {}
        value = V.commutator_witness(cfg32, **regions)
        estimate = _full_space_witness(cfg32, **regions, **kwargs)
        assert estimate > 1e-4
        assert estimate <= value * (1 + 1e-13)

    def test_same_instant_disjoint_commute(self, cfg32):
        reg_a = V.cell_region(cfg32, (-5, -2, -2), (-2, 1, 1))
        reg_b = V.cell_region(cfg32, (2, -2, -2), (5, 1, 1))
        assert V.commutator_witness(cfg32, region_a=reg_a, region_b=reg_b) == 0.0
        # demo-causality's same-instant check: the witness's b cells on a's instant
        reg_b = V.cell_region(cfg32, *V.WITNESS_CELLS[1])
        assert V.commutator_witness(cfg32, region_b=reg_b) == 0.0

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_identical_region_commutes(self, n):
        # exactly 0: the overlap kernel's 1/n per axis is exact for a power-of-two N,
        # so K[0] is 1.0 and sigma * sqrt(1 - sigma^2) has no rounding to blow up
        cfg = ModelConfig(N=n)
        # at N=8 a smaller box keeps |a| * |b| <= N^3
        lo, hi = ((-1, -1, -1), (1, 1, 0)) if n == 8 else ((-2, -2, -2), (1, 1, 1))
        reg = V.cell_region(cfg, lo, hi)
        assert V.commutator_witness(cfg, region_a=reg, region_b=reg) == 0.0

    def test_region_with_no_cell_gives_zero(self, cfg32):
        a = cfg32.spacing.value
        # strictly between lattice points on every axis, so no cell is inside
        empty = Region(cfg32.instant, [(np.full(3, 0.1 * a), np.full(3, 0.4 * a))])
        assert not pvm.rasterize(cfg32, empty).any()
        assert V.commutator_witness(cfg32, region_b=empty) == 0.0

    def test_boosted_instant_refused(self, cfg):
        from minkabs.geometry import GeometryError

        moving = Instant(V.boosted_velocity(0.2), cfg.origin)
        region = V.cell_region(cfg, (-2, -2, -2), (1, 1, 1), instant=moving)
        with pytest.raises(GeometryError):
            V.commutator_witness(cfg, region_b=region)

    def test_overlap_larger_than_a_field_refused(self, cfg):
        # 512 * 512 overlap entries against 16^3 = 4096 amplitudes
        from minkabs.geometry import GeometryError

        reg_a = V.cell_region(cfg, (-8, -8, -8), (-1, -1, -1))
        reg_b = V.cell_region(cfg, (0, 0, 0), (7, 7, 7))
        with pytest.raises(GeometryError):
            V.commutator_witness(cfg, region_a=reg_a, region_b=reg_b)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="needs 2 CPUs: OpenBLAS runs one thread per CPU"
    )
    def test_cli_calls_do_not_depend_on_blas_threads(self):
        # the two witness calls of demo-causality at its default N=32, and the
        # default witness at N=16 and 64: the SVD of a 64 x 64 overlap at every N
        script = (
            "from minkabs.quantum import ModelConfig\n"
            "from minkabs.quantum import verify as V\n"
            "cfg = ModelConfig(N=32)\n"
            "reg_b = V.cell_region(cfg, (2, -2, -2), (5, 1, 1))\n"
            "print(repr(V.commutator_witness(cfg)))\n"
            "print(repr(V.commutator_witness(cfg, region_b=reg_b)))\n"
            "for n in (16, 64):\n"
            "    print(repr(V.commutator_witness(ModelConfig(N=n))))\n"
        )
        src = Path(minkabs.__file__).resolve().parent.parent
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestEquivariance:
    def test_probe_bundle_is_invariant(self, cfg32):
        assert V.equivariance_residual(cfg32, seed=21) <= 1e-10

    def test_second_seed(self, cfg32):
        assert V.equivariance_residual(cfg32, seed=77) <= 1e-10

    def test_localization_invariance_under_boost(self, cfg32):
        # a localized state stays localized for the carried labels, up to
        # the interpolation tolerance of the velocity transform
        from minkabs.geometry import seconds
        from minkabs.quantum import (
            localization_probability,
            make_gaussian,
            pvm_project,
            represent,
        )

        region = V.cell_region(cfg32, (-3, -3, -3), (2, 2, 2))
        phi = pvm_project(region, make_gaussian(cfg32, width=seconds(0.75))).normalized()
        p0 = localization_probability(region, phi)
        assert p0 >= 1 - 1e-12

        boost = make_boost(cfg32.observer, V.boosted_velocity(0.2))
        carry = PoincareMap.from_homogeneous(boost, cfg32.origin)
        moved_region = carry.transform_region(region)
        p1 = localization_probability(moved_region, represent(phi, carry))
        assert abs(p1 - p0) <= 1e-2  # boost-tolerance scale at N=32


class TestBatchedDrivers:
    # the drivers transform whole batches: numpy.fft transforms, index
    # permutations and phases act on each state alone, bit for bit, so each
    # residual equals the loop over single states it replaced
    def test_batches_match_single_state_loops(self):
        from minkabs.quantum.state import represent_array

        def maps(cfg):
            step = PoincareMap.from_translation(cfg.observer * seconds(0.7))
            lattice = V._random_lattice_map(cfg, np.random.default_rng(42 + 100))
            return step, lattice

        cfg = ModelConfig(N=32)
        states = V.random_states(cfg, np.random.default_rng(1), 3)
        region = V.cell_region(cfg, (-3, -2, -4), (2, 3, 1))
        for L in maps(cfg):
            for here in (region, L.transform_region(region)):
                carry, mask = pvm._projection(here, cfg)
                later, later_mask = pvm._projection(L.transform_region(here), cfg)
                lhs, rhs = [], []
                for one in states:
                    back, _ = represent_array(cfg, one, L.inverse())
                    side, _ = represent_array(cfg, pvm._conjugate_mask(cfg, back, [carry], mask), L)
                    lhs.append(side)
                    rhs.append(pvm._conjugate_mask(cfg, one, [later], later_mask))
                want = V._batch_max_norm(np.stack(lhs) - np.stack(rhs))
                assert V.region_covariance_residual(cfg, L, here, states) == want

        for n in (16, 32):
            cfg = ModelConfig(N=n)
            states = V.random_states(cfg, np.random.default_rng(1), 3)
            mask = V.rasterize(cfg, V.cell_region(cfg, (-3, -2, -4), (2, 3, 1)))
            # every axis of this box wraps the torus: its rows are not one run
            assert all(np.any(np.diff(rows) > 1) for _, rows in pvm._box_of(mask))
            chain = [maps(cfg)[1]]
            got = pvm._conjugate_mask(cfg, states, chain, mask)
            ref = np.stack([pvm._conjugate_mask(cfg, one, chain, mask) for one in states])
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [16, 32])
    def test_two_factorizations_are_one(self, n):
        # the projection of a region conjugated by S, built as one chain
        # [carry, S] or as represent(S) . project . represent(S^-1), is the
        # same array bit for bit, on the constructing instant and off it
        from minkabs.quantum.state import represent_array

        cfg = ModelConfig(N=n)
        states = V.random_states(cfg, np.random.default_rng(1), 3)
        step = PoincareMap.from_translation(cfg.observer * seconds(0.7))
        turn = PoincareMap.from_homogeneous(
            make_rotation(cfg.observer, cfg.basis[2], math.pi / 2), cfg.origin
        )
        lattice = V._random_lattice_map(cfg, np.random.default_rng(142))
        region = V.cell_region(cfg, (-3, -2, -4), (2, 3, 1))
        for here in (region, lattice.transform_region(region)):
            carry, mask = pvm._projection(here, cfg)
            for S in (step, turn, lattice):
                back, _ = represent_array(cfg, states, S.inverse())
                want, _ = represent_array(cfg, V._project_arr(cfg, here, back), S)
                got = pvm._conjugate_mask(cfg, states, [carry, S], mask)
                assert got.tobytes() == want.tobytes()

    def test_covariance_driver_refuses_time_reversal(self, cfg, white):
        flip = PoincareMap.from_homogeneous(time_inversion(cfg.observer), cfg.origin)
        region = V.cell_region(cfg, (-2, -2, -1), (2, 1, 1))
        with pytest.raises(GeometryError, match="covariance drivers take orthochronous maps"):
            V.region_covariance_residual(cfg, flip, region, white[:1])


class TestMovingLatticeFrame:
    """A lattice drawn on a boosted observer's instant, off the fiducial
    origin: its basis products round, unlike the fiducial frame's, so the
    frame reads of ``state`` and ``pvm`` are exercised with real rounding."""

    @pytest.fixture(scope="class")
    def moving(self):
        u = V.boosted_velocity(0.3, (1, 2, -0.5))
        return ModelConfig(N=16, instant=Instant(u, point(0.7, 0.1, -0.2, 0.3)))

    def test_stabilizer_suite(self, moving):
        results = V.run_stabilizer_suite(moving, n_states=2, seed=3, translations=2)
        assert len(results) == 48 + 4
        assert max(r.residual for r in results) <= 1e-10

    def test_equivariance(self, moving):
        assert V.equivariance_residual(moving, 3) <= 1e-10

    def test_own_time_variance(self, moving):
        # rounding level, not the exact 0.0 of the fiducial frame
        assert V.own_time_variance(moving, 5, 3) <= 1e-25

    def test_observer_step_label_change(self, moving):
        white = V.random_states(moving, np.random.default_rng(3), 3)
        region = V.cell_region(moving, (-3, -2, -4), (2, 3, 1))
        step = PoincareMap.from_translation(moving.observer * seconds(0.7))
        assert V.region_covariance_residual(moving, step, region, white) <= 1e-10


def test_boosted_velocity_is_the_stack_kernel():
    # one rapidity-to-velocity kernel: the same bytes as the normalized
    # (cosh, sinh d) it replaced, over lattice, diagonal and random axes
    rng = np.random.default_rng(7)
    chis = [*np.linspace(0.0, 3.0, 61), *rng.uniform(0.0, 3.0, 20)]
    axes = [tuple(row) for row in np.vstack([np.eye(3), -np.eye(3)])]
    axes += [(1, 1, 0), (1, 2, 3), *map(tuple, rng.normal(size=(200, 3)))]
    for chi in chis:
        for axis in axes:
            d = np.asarray(axis, float) / np.linalg.norm(axis)
            want = normalize_velocity(vector(math.cosh(chi), *(math.sinh(chi) * d)))
            assert V.boosted_velocity(chi, axis)._c.tobytes() == want._c.tobytes()


class TestWorkerCap:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
    def test_defaults_to_available_cpus(self, monkeypatch):
        monkeypatch.delenv("MINKABS_THREADS", raising=False)
        assert V.worker_cap() == len(os.sched_getaffinity(0))

    def test_variable_sets_the_cap(self, monkeypatch):
        monkeypatch.setenv("MINKABS_THREADS", "1")
        assert V.worker_cap() == 1
        monkeypatch.setenv("MINKABS_THREADS", "3")
        assert V.worker_cap() == 3

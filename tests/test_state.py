"""Lattice states and the unitary spacetime actions."""

import dataclasses
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minkabs
from minkabs.geometry import (
    _METRIC,
    GeometryError,
    Instant,
    MeasureScalar,
    fiducial_origin,
    lorentz_product,
    normalize_velocity,
    seconds,
    vector,
)
from minkabs.groups import (
    LorentzMap,
    PoincareMap,
    lattice_point_group,
    make_boost,
    make_rotation,
    time_inversion,
)
from minkabs.quantum import (
    LatticeState,
    ModelConfig,
    apply_boost,
    make_gaussian,
    rapidity_of,
    represent,
    signed_permutation_of,
)
from minkabs.quantum.state import (
    _act,
    _apply_linear,
    _apply_perm,
    _build_plan,
    _exact_pullback,
    _plan_of,
    _pullback_plan,
    _pulled_labels,
    _represented,
    _spline_pullback,
    _to_momentum,
    _to_position,
    represent_array,
)

U0 = normalize_velocity(vector(1, 0, 0, 0))
E1 = vector(0, 1, 0, 0)
E2 = vector(0, 0, 1, 0)
E3 = vector(0, 0, 0, 1)


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(N=16)


@pytest.fixture(scope="module")
def cfg32():
    return ModelConfig(N=32)


def boosted(chi, axis=(1, 0, 0)):
    d = np.asarray(axis, float)
    d = d / np.linalg.norm(d)
    return normalize_velocity(
        vector(math.cosh(chi), *(math.sinh(chi) * d))
    )


def translate(s, a):
    """Translation by ``a`` under the phase ``exp(-i (omega dt + k . dx))``:
    ``represent`` of the time-inverted vector."""
    return represent(s, PoincareMap.from_translation(time_inversion(s.cfg.observer)(a)))


def white_state(cfg, seed):
    rng = np.random.default_rng(seed)
    shape = (cfg.N,) * 3
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return LatticeState(cfg, psi / np.linalg.norm(psi))


def pulled_labels(cfg, L):
    """Labels ``q_i = -<L^-1 p, b_i>`` of each on-shell ``p = omega u - sum_j
    k_j b_j``, shape (N, N, N, 3)."""
    inv = L.inverse()
    u = cfg.observer.as_vector()
    a = np.array([lorentz_product(inv(u), b).value for b in cfg.basis])
    m = np.array(
        [[lorentz_product(inv(bj), bi).value for bj in cfg.basis] for bi in cfg.basis]
    )
    k = np.stack(np.meshgrid(cfg.k1d, cfg.k1d, cfg.k1d, indexing="ij"), axis=-1)
    return -cfg.omega[..., None] * a + k @ m.T


def weighted_to_norm(cfg, psi, q, vals):
    """The on-shell weight at labels ``q``, then the rescale to ``psi``'s norm."""
    omega_q = np.sqrt(cfg.mass.value**2 + np.sum(q * q, axis=-1))
    out = vals * np.sqrt(omega_q / cfg.omega)
    return out * (np.linalg.norm(psi) / np.linalg.norm(out))


def direct_sum_pullback(cfg, psi, L):
    """Oracle for the velocity change: the trigonometric interpolant of
    ``psi`` summed directly over all positions at the pulled-back labels,
    times the on-shell weight, rescaled to the input norm."""
    q = pulled_labels(cfg, L).reshape(-1, 3)
    grid = np.meshgrid(cfg.x1d, cfg.x1d, cfg.x1d, indexing="ij")
    x = np.stack(grid, axis=-1).reshape(-1, 3)
    pos = np.fft.ifftn(psi, norm="ortho").reshape(-1)
    chunks = np.array_split(q, max(1, len(q) // 512))
    vals = np.concatenate([np.exp(-1j * (c @ x.T)) @ pos for c in chunks])
    vals = vals.reshape(psi.shape) / cfg.N**1.5
    return weighted_to_norm(cfg, psi, q.reshape(psi.shape + (3,)), vals)


def axis_sum_pullback(cfg, psi, L, axis):
    """The same oracle for a velocity change that keeps the labels
    transverse to ``axis`` on the lattice: ordinary DFTs across, then the
    direct sum over the positions along ``axis``."""
    q = pulled_labels(cfg, L)
    fixed = tuple(i for i in range(3) if i != axis)
    pos = np.fft.ifftn(psi, norm="ortho")
    part = np.moveaxis(np.fft.fftn(pos, axes=fixed, norm="ortho"), axis, 0)
    qa = np.moveaxis(q[..., axis], axis, 0)
    vals = np.stack(
        [np.einsum("bcn,nbc->bc", np.exp(-1j * row[..., None] * cfg.x1d), part) for row in qa]
    )
    return weighted_to_norm(cfg, psi, q, np.moveaxis(vals, 0, axis) / math.sqrt(cfg.N))


@pytest.fixture
def spline_calls(monkeypatch):
    """Counts the spline interpolations of the velocity-change kernel."""
    from scipy import ndimage

    calls = []
    original = ndimage.map_coordinates

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ndimage, "map_coordinates", counting)
    return calls


class TestConfig:
    def test_power_of_two_required(self):
        with pytest.raises(GeometryError):
            ModelConfig(N=7)

    def test_minimum_size(self):
        with pytest.raises(GeometryError):
            ModelConfig(N=4)

    def test_cutoff_rule(self):
        with pytest.raises(GeometryError):
            ModelConfig(N=16, spacing=seconds(0.25), mass=MeasureScalar(4.0, -1))

    def test_mass_dimension_checked(self):
        with pytest.raises(GeometryError):
            ModelConfig(N=16, mass=MeasureScalar(1.0, 1))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"mass": MeasureScalar(math.nan, -1)}, "mass must be positive and finite"),
            ({"mass": MeasureScalar(math.inf, -1)}, "mass must be positive and finite"),
            ({"spacing": seconds(math.nan)}, "spacing must be positive and finite"),
            ({"spacing": seconds(math.inf)}, "spacing must be positive and finite"),
            ({"N": 32.5}, "lattice size must be an integer"),
            ({"N": math.nan}, "lattice size must be an integer"),
            ({"N": 2**1100}, "lattice size must be an integer in the float range"),
        ],
        ids=[
            "nan-mass",
            "inf-mass",
            "nan-spacing",
            "inf-spacing",
            "fractional-N",
            "nan-N",
            "N-beyond-float-range",
        ],
    )
    def test_non_finite_or_non_integral_refused(self, kwargs, match):
        with pytest.raises(GeometryError, match=match):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize("N", [2**20, 2**60])
    def test_field_beyond_numpy_array_limit_refused(self, N):
        # 16 N^3 bytes past numpy's index range, refused before any array is made
        with pytest.raises(GeometryError, match="exceeds numpy's array limit"):
            ModelConfig(N=N)

    def test_integral_float_size_accepted(self):
        assert ModelConfig(N=32.0).N == 32

    def test_default_rapidity_cap_allows_quarter(self):
        c = ModelConfig(N=32)
        assert c.chi_max >= 0.25

    def test_echo_is_plain_data(self):
        echo = ModelConfig(N=16).echo()
        assert echo["N"] == 16
        assert echo["spacing_sec"] == 0.25

    def test_energy_field_built_on_first_use_under_threads(self):
        # racing first reads of the lazy omega all see the plain expression's bytes
        c = ModelConfig(N=16)
        assert "omega" not in vars(c)
        k1, k2, k3 = np.ix_(c.k1d, c.k1d, c.k1d)
        want = np.sqrt(c.mass.value**2 + k1**2 + k2**2 + k3**2).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: c.omega) for _ in range(32)]
                reads = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r.tobytes() == want for r in reads) and c.omega.tobytes() == want

    @pytest.mark.parametrize("given", [False, True])
    def test_origin_is_the_instant_anchor(self, given):
        # the lattice origin event is the constructing instant's anchor, kept on refinement
        instant = Instant(boosted(0.3), fiducial_origin() + vector(0.5, 1, -2, 0.25))
        c = ModelConfig(N=16, instant=instant if given else None)
        assert c.origin is c.instant.anchor
        assert c.refined().origin is c.instant.anchor


class TestGaussian:
    def test_normalized(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0))
        assert abs(s.norm() - 1.0) <= 1e-12

    def test_centered_zero_momentum_is_real_even(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0))
        pos = _to_position(s.psi)
        assert np.max(np.abs(pos.imag)) <= 1e-12
        # even under index negation on the torus
        flipped = pos.copy()
        for ax in range(3):
            flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
        assert np.max(np.abs(flipped - pos)) <= 1e-12

    def test_probability_concentrated(self, cfg32):
        # direct lattice-sum oracle for the 3-sigma box
        width = 1.0
        s = make_gaussian(cfg32, width=seconds(width))
        prob = s.position_probability()
        x = cfg32.x1d
        inside = (
            (np.abs(x)[:, None, None] <= 3 * width)
            & (np.abs(x)[None, :, None] <= 3 * width)
            & (np.abs(x)[None, None, :] <= 3 * width)
        )
        assert prob[inside].sum() >= 0.99

    def test_off_center_packet(self, cfg32):
        center = fiducial_origin() + vector(0, 1.0, -0.5, 0.25)
        s = make_gaussian(cfg32, center=center, width=seconds(0.8))
        prob = s.position_probability()
        idx = np.unravel_index(np.argmax(prob), prob.shape)
        peak = np.array([cfg32.x1d[i] for i in idx])
        assert np.max(np.abs(peak - np.array([1.0, -0.5, 0.25]))) <= cfg32.spacing.value

    def test_width_floor(self, cfg):
        with pytest.raises(GeometryError):
            make_gaussian(cfg, width=seconds(0.25))

    def test_band_limit_guard(self, cfg):
        with pytest.raises(GeometryError):
            make_gaussian(cfg, width=seconds(1.0), mean_momentum=(20.0, 0, 0))

    def test_mean_momentum_moves_peak(self, cfg32):
        s = make_gaussian(cfg32, width=seconds(1.0), mean_momentum=(2.0, 0, 0))
        prob = np.fft.fftshift(np.abs(s.psi) ** 2)
        k = np.fft.fftshift(cfg32.k1d)
        marginal = prob.sum(axis=(1, 2))
        kbar = float(np.sum(k * marginal))
        assert abs(kbar - 2.0) <= 2 * cfg32.dk


def plain_gaussian(cfg, c, sigma, kbar):
    """The packet amplitudes as out-of-place expressions, one new field per step."""
    k1, k2, k3 = np.ix_(cfg.k1d, cfg.k1d, cfg.k1d)
    envelope = np.exp(
        -(sigma**2) * ((k1 - kbar[0]) ** 2 + (k2 - kbar[1]) ** 2 + (k3 - kbar[2]) ** 2)
    )
    phase = np.exp(-1j * ((k1 - kbar[0]) * c[0] + (k2 - kbar[1]) * c[1] + (k3 - kbar[2]) * c[2]))
    raw = envelope * phase
    return raw / np.linalg.norm(raw)


class TestInPlaceSynthesis:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_packet_bytes_match_the_plain_expressions(self, n):
        c = ModelConfig(N=n)
        edge = 0.4999 * c.cutoff  # just inside the half-cutoff bound
        means = ((0.0, 0.0, 0.0), (1.5, -0.5, 0.25), (edge, 0.0, 0.0), (0.0, -edge, 0.0))
        for sigma in (0.75, 0.9, 1.0):
            for x in ((0.0, 0.0, 0.0), (0.5, -0.25, 0.125), (-1.0, 0.75, 0.3)):
                for kbar in means:
                    got = make_gaussian(
                        c,
                        center=c.origin + vector(0, *x),
                        width=seconds(sigma),
                        mean_momentum=kbar,
                    )
                    want = plain_gaussian(c, np.array(x), sigma, np.array(kbar))
                    assert got.psi.tobytes() == want.tobytes(), (sigma, x, kbar)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_smooth_states_match_the_plain_mixture(self, n):
        from minkabs.quantum import verify as V

        c = ModelConfig(N=n)
        rng = np.random.default_rng(5)
        w_hi = min(1.1, 0.25 * c.box_length)
        want = []
        for _ in range(3):
            acc = None
            for _ in range(2):
                sigma = rng.uniform(min(0.75, w_hi), w_hi)
                x, kbar = rng.uniform(-0.75, 0.75, 3), rng.uniform(-1.2, 1.2, 3)
                amp = rng.normal() + 1j * rng.normal()
                g = plain_gaussian(c, x, sigma, kbar)
                acc = amp * g if acc is None else acc + amp * g
            want.append(acc / np.linalg.norm(acc))
        got = V.smooth_states(c, np.random.default_rng(5), 3)
        assert got.tobytes() == np.stack(want).tobytes()

    def test_smooth_states_hold_no_full_lattice_temporaries(self):
        # the two result fields, one packet field and one float field: 1.75
        # results, where out-of-place expressions peaked at 4.25
        import tracemalloc

        from minkabs.quantum import verify as V

        c = ModelConfig(N=64)
        tracemalloc.start()
        try:
            out = V.smooth_states(c, np.random.default_rng(1), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * out.nbytes


class TestTranslation:
    def test_zero_is_identity(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0))
        out = translate(s, vector(0, 0, 0, 0))
        assert np.max(np.abs(out.psi - s.psi)) == 0.0

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_lattice_step_is_cyclic_shift(self, n):
        # shift-theorem oracle: np.roll of the position amplitudes
        cfg = ModelConfig(N=n)
        s = make_gaussian(cfg, width=seconds(1.0), mean_momentum=(1.0, -0.5, 0))
        a = cfg.spacing.value
        out = translate(s, vector(0, 2 * a, 0, -a))
        expected = np.roll(_to_position(s.psi), (2, 0, -1), axis=(0, 1, 2))
        assert np.max(np.abs(_to_position(out.psi) - expected)) <= 1e-12

    def test_norm_preserved(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0))
        out = translate(s, vector(0.37, 0.11, -0.2, 0.05))
        assert abs(out.norm() - 1.0) <= 1e-12

    def test_time_evolution_spreads_packet(self, cfg32):
        s = make_gaussian(cfg32, width=seconds(0.8))
        evolved = translate(s, vector(2.0, 0, 0, 0))
        p0 = s.position_probability()
        p1 = evolved.position_probability()
        x2 = cfg32.x1d**2
        r2 = x2[:, None, None] + x2[None, :, None] + x2[None, None, :]
        assert np.sum(r2 * p1) > np.sum(r2 * p0)

    def test_mean_momentum_drifts_along_it(self, cfg32):
        kbar = 2.0
        s = make_gaussian(cfg32, width=seconds(1.0), mean_momentum=(kbar, 0, 0))
        dt = 1.0
        evolved = translate(s, vector(dt, 0, 0, 0))
        x = cfg32.x1d
        mean_x = np.sum(x[:, None, None] * evolved.position_probability())
        expect = kbar / math.sqrt(kbar**2 + cfg32.mass.value**2) * dt
        assert abs(mean_x - expect) <= 0.15

    def test_composition_matches_single_step(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0))
        a = vector(0.3, 0.1, 0.0, -0.2)
        b = vector(0.5, -0.4, 0.25, 0.0)
        one = translate(s, a + b)
        two = translate(translate(s, a), b)
        assert np.max(np.abs(one.psi - two.psi)) <= 1e-12

    @pytest.mark.parametrize("n", [16, 32])
    def test_phase_in_one_buffer_matches_expression(self, n):
        # the phase built plane by plane (the time factor on the labels
        # 0..N/2, mirrored, times the outer product of three 1-D spatial
        # factors) is the factored expression byte for byte; it is the fused
        # exponential byte for byte for a pure time shift, and within 1e-13
        # of it for any shift
        from minkabs.geometry import _product, _split
        from minkabs.quantum.state import _translation_phase

        cfg = ModelConfig(N=n)
        rng = np.random.default_rng(n)
        k1, k2, k3 = np.ix_(cfg.k1d, cfg.k1d, cfg.k1d)
        for _ in range(20):
            v = vector(*rng.normal(0.0, 2.0, 4))
            for w in (v, vector(v._c[0], 0, 0, 0), vector(0, *v._c[1:])):
                dt, spatial = _split(cfg.observer._c, w._c)
                d = _product(cfg.axes, spatial)
                fused = np.exp(-1j * (cfg.omega * dt + k1 * d[0] + k2 * d[1] + k3 * d[2]))
                time = np.exp(-1j * (cfg.omega * dt))
                x1, x2, x3 = (np.exp(-1j * (cfg.k1d * x)) for x in d)
                # products with a scalar, row by row and plane by plane: a
                # broadcast product rounds differently in the last bit
                x23 = np.stack([x3 * x for x in x2])
                phase = _translation_phase(cfg, w)
                if not np.any(d != 0.0):
                    factored = time
                    assert phase.tobytes() == fused.tobytes()
                elif dt == 0.0:
                    factored = np.stack([x23 * x for x in x1])
                else:
                    factored = np.stack([t * x23 * x for t, x in zip(time, x1)])
                assert phase.tobytes() == factored.tobytes()
                assert np.max(np.abs(phase - fused)) <= 1e-13

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_omega_is_its_label_mirror(self, n):
        # the premise of the mirrored time factor: omega at label -k is
        # omega at k, byte for byte, on every axis at once
        for cfg in (ModelConfig(N=n), ModelConfig(n, seconds(0.19), MeasureScalar(0.37, -1))):
            m = np.r_[0, n - 1 : 0 : -1]
            assert cfg.omega[np.ix_(m, m, m)].tobytes() == cfg.omega.tobytes()


class TestRotation:
    def test_identity(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0), mean_momentum=(1, 0.5, 0))
        out = apply_boost(s, LorentzMap.identity())
        assert np.max(np.abs(out.psi - s.psi)) == 0.0

    def test_quarter_turn_order_four(self, cfg):
        s = make_gaussian(
            cfg,
            center=fiducial_origin() + vector(0, 0.5, 0.25, 0),
            width=seconds(0.9),
            mean_momentum=(1.0, 0, 0.5),
        )
        r = make_rotation(U0, E3, math.pi / 2)
        out = s
        for _ in range(4):
            out = apply_boost(out, r)
        assert np.max(np.abs(out.psi - s.psi)) <= 1e-12

    def test_rejects_non_lattice_rotation(self, cfg):
        assert signed_permutation_of(cfg, make_rotation(U0, E3, 0.3)) is None

    def test_commutes_with_radial_multipliers(self, cfg):
        # random-state commutator oracle
        rng = np.random.default_rng(8)
        psi = rng.normal(size=(16, 16, 16)) + 1j * rng.normal(size=(16, 16, 16))
        psi /= np.linalg.norm(psi)
        from minkabs.quantum.state import LatticeState

        s = LatticeState(cfg, psi)
        r = make_rotation(U0, E1, math.pi / 2)
        f = np.exp(-cfg.omega)  # a |k|-dependent multiplier
        lhs = apply_boost(LatticeState(cfg, s.psi * f), r).psi
        rhs = apply_boost(s, r).psi * f
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_quarter_turn_on_fresh_lattice_matches_label_gather(self):
        r = make_rotation(U0, E3, math.pi / 2)
        big = ModelConfig(N=16)
        s = white_state(big, 2)
        r3 = signed_permutation_of(big, r)
        out = _apply_perm(s.psi, r3)
        # reference: out[k] = psi[R^T k] on signed labels, modulo N
        labels = np.stack(
            np.meshgrid(*(big.signed_index,) * 3, indexing="ij"), axis=-1
        )
        src = np.mod(labels @ r3, big.N)
        expected = s.psi[src[..., 0], src[..., 1], src[..., 2]]
        assert np.array_equal(out, expected)

    def test_strided_copy_matches_label_gather(self, cfg):
        # out[k] = psi[R^T k] on signed labels, modulo N, byte for byte
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(3, cfg.N, cfg.N, cfg.N)) + 1j * rng.normal(
            size=(3, cfg.N, cfg.N, cfg.N)
        )
        labels = np.stack(np.meshgrid(*(cfg.signed_index,) * 3, indexing="ij"), axis=-1)
        group = lattice_point_group(U0, cfg.basis)
        assert len(group) == 48
        for L in group:
            r3 = signed_permutation_of(cfg, L)
            src = np.mod(labels @ r3, cfg.N)
            gathered = batch[:, src[..., 0], src[..., 1], src[..., 2]]
            out = _apply_perm(batch, r3)
            assert out.flags.c_contiguous
            assert out.tobytes() == gathered.tobytes()
            assert _apply_perm(batch[1], r3).tobytes() == gathered[1].tobytes()

    def test_copy_into_work_field_matches_new_array(self, cfg):
        # a caller's out= changes where the permuted batch goes, not its bytes
        batch = np.stack([white_state(cfg, seed).psi for seed in (1, 2)])
        batch.flags.writeable = False
        out = np.empty_like(batch)
        group = lattice_point_group(U0, cfg.basis)
        assert len(group) == 48
        for L in group:
            r3 = signed_permutation_of(cfg, L)
            out.fill(np.nan)
            assert _apply_perm(batch, r3, out) is out
            assert out.tobytes() == _apply_perm(batch, r3).tobytes()

    def test_reflection_is_exact_involution(self, cfg):
        s = make_gaussian(
            cfg,
            center=fiducial_origin() + vector(0, 0.5, 0, 0),
            width=seconds(0.9),
        )
        refl = signed_permutation_of(cfg, make_rotation(U0, E3, 0))
        assert refl is not None
        from minkabs.groups import frame_map

        flip = frame_map(U0, cfg.basis, np.diag([-1.0, 1.0, 1.0]))
        out = apply_boost(apply_boost(s, flip), flip)
        assert np.max(np.abs(out.psi - s.psi)) == 0.0


class TestBoost:
    def test_identity_shortcut(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0))
        out, report = apply_boost(s, LorentzMap.identity(), return_report=True)
        assert report.norm_drift == 0.0
        assert np.max(np.abs(out.psi - s.psi)) == 0.0

    def test_rejects_time_inversion(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0))
        with pytest.raises(GeometryError):
            apply_boost(s, time_inversion(U0))

    def test_rejects_over_cap_rapidity(self, cfg):
        s = make_gaussian(cfg, width=seconds(1.0))
        b = make_boost(U0, boosted(1.5))
        with pytest.raises(GeometryError):
            apply_boost(s, b)

    def test_rapidity_measure(self, cfg):
        b = make_boost(U0, boosted(0.2))
        assert abs(rapidity_of(cfg, b) - 0.2) <= 1e-12

    def test_round_trip_converges(self):
        # N-refinement oracle: the round-trip error drops by at least
        # half when the lattice doubles (measured ratio is ~2e-3; the
        # error is wrap-tail limited, not interpolation limited)
        chi = 0.2
        errs = {}
        for n in (32, 64):
            c = ModelConfig(N=n)
            s = make_gaussian(c, width=seconds(0.75), mean_momentum=(0.5, 0.25, 0))
            b = make_boost(U0, boosted(chi))
            there = apply_boost(s, b)
            back = apply_boost(there, b.inverse())
            errs[n] = float(np.linalg.norm(back.psi - s.psi))
        assert errs[64] <= 0.5 * errs[32]
        assert errs[64] < 1e-3

    def test_norm_drift_small_and_reported(self, cfg32):
        # measured drift at N=32, quarter rapidity, default-width packet:
        # 1.5e-4 (frozen with headroom); drops to ~1.5e-8 at N=64
        s = make_gaussian(cfg32, width=seconds(0.75))
        b = make_boost(U0, boosted(0.25))
        out, report = apply_boost(s, b, return_report=True)
        assert abs(out.norm() - 1.0) <= 1e-12
        assert rapidity_of(cfg32, b) == pytest.approx(0.25, abs=1e-12)
        assert report.norm_drift <= 5e-4

    def test_norm_drift_improves_with_n(self):
        drifts = {}
        for n in (32, 64):
            c = ModelConfig(N=n)
            s = make_gaussian(c, width=seconds(0.75))
            b = make_boost(U0, boosted(0.25))
            _, report = apply_boost(s, b, return_report=True)
            drifts[n] = report.norm_drift
        assert drifts[64] <= 0.5 * drifts[32]

    def test_boost_tilts_momentum_distribution(self, cfg32):
        # the pullback moves the momentum marginal along the axis
        s = make_gaussian(cfg32, width=seconds(1.0))
        b = make_boost(U0, boosted(0.25))
        out = apply_boost(s, b)
        prob = np.abs(out.psi) ** 2
        k = cfg32.k1d
        kbar = float(np.sum(k[:, None, None] * prob))
        assert abs(kbar) > 0.1  # moved off zero


class TestVelocityKernel:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("axis", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)])
    def test_lattice_axis_boost_is_exact(self, n, axis, spline_calls):
        c = ModelConfig(N=n)
        s = white_state(c, 3)
        b = make_boost(U0, boosted(0.25, axis))
        for L in (b, b.inverse()):
            out = apply_boost(s, L)
            ref = direct_sum_pullback(c, s.psi, L)
            assert np.linalg.norm(out.psi - ref) <= 1e-12
        assert not spline_calls

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_lattice_axis_boost_matches_axis_sum(self, axis, spline_calls):
        # N=32, where the full 3-D direct sum (N^6 terms) is too slow
        c = ModelConfig(N=32)
        s = white_state(c, 4)
        b = make_boost(U0, boosted(0.25, np.eye(3)[axis]))
        for L in (b, b.inverse()):
            ref = axis_sum_pullback(c, s.psi, L, axis)
            assert np.linalg.norm(apply_boost(s, L).psi - ref) <= 1e-12
        assert not spline_calls

    def test_lattice_axis_boost_error_at_n64(self, spline_calls):
        # signed powers z**m, |m| <= N/2, keep the rounding of the sum under
        # 1e-15 on the study's smooth state (measured 6.4-6.6e-16; powers up
        # to z**(N-1), recentered after, read 1.25-1.33e-15)
        from minkabs.quantum.verify import smooth_states

        c = ModelConfig(N=64)
        s = LatticeState(c, smooth_states(c, np.random.default_rng(42), 1)[0])
        b = make_boost(U0, boosted(0.25))
        for L in (b, b.inverse()):
            ref = axis_sum_pullback(c, s.psi, L, 0)
            assert np.linalg.norm(apply_boost(s, L).psi - ref) <= 1.0e-15
        assert not spline_calls

    @pytest.mark.parametrize("n", [8, 16])
    def test_own_axis_boost_on_a_moving_instant_is_exact(self, n, spline_calls):
        # a lattice drawn on a moving instant: a boost along one of its own
        # basis axes takes the exact path along that axis (measured 0.98-2.4e-15)
        u = boosted(0.2, (0, 1, 0))
        c = ModelConfig(N=n, instant=Instant(u, fiducial_origin() + u * seconds(0.5)))
        s = white_state(c, 3)
        ch, sh = math.cosh(0.25), math.sinh(0.25)
        for i, b in enumerate(c.basis):
            M = make_boost(u, normalize_velocity(u.as_vector() * ch + b * sh))
            for L in (M, M.inverse()):
                assert _pullback_plan(c, L).axis == i
                ref = direct_sum_pullback(c, s.psi, L)
                assert np.linalg.norm(apply_boost(s, L).psi - ref) <= 1e-12
        assert not spline_calls

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_columns_of_a_class_share_their_nodes(self, n, axis):
        # the kernel evaluates every transverse column at its class's nodes
        c = ModelConfig(N=n)
        L = make_boost(U0, boosted(0.25, np.eye(3)[axis]))
        plan = _pullback_plan(c, L)
        assert plan.axis == axis
        assert np.array_equal(plan.order[plan.inverse], np.arange(n * n))
        assert {size for size, _ in plan.sizes} <= {1, 2, 4, 8}
        assert sum(size * count for size, count in plan.sizes) == n * n
        assert sum(count for _, count in plan.sizes) == len(plan.nodes)
        qa = pulled_labels(c, L)[..., axis] * c.spacing.value
        z = np.moveaxis(np.exp(-1j * qa), axis, 0).reshape(n, n * n)
        sizes = [size for size, count in plan.sizes for _ in range(count)]
        rows = np.repeat(plan.nodes, sizes, axis=0)
        assert np.max(np.abs(z[:, plan.order] - rows.T)) <= 1e-14

    @pytest.mark.parametrize("axis", [(0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 1)])
    def test_batch_matches_single_states(self, cfg32, axis):
        # one kernel call per batch (one batched line transform on the exact
        # path) gives each state's bytes, a zero field included
        zero = np.zeros((cfg32.N,) * 3, dtype=complex)
        batch = np.stack([white_state(cfg32, 1).psi, zero, white_state(cfg32, 2).psi])
        L = make_boost(U0, boosted(0.25, axis))
        out, drift = _apply_linear(cfg32, batch, L)
        singles = [_apply_linear(cfg32, one, L) for one in batch]
        assert out.tobytes() == np.stack([one for one, _ in singles]).tobytes()
        assert drift == max(d for _, d in singles)
        # an all-zero batch, signed zeros included, comes back as its own bytes
        zeros = np.stack([zero, -zero])
        out, drift = _apply_linear(cfg32, zeros, L)
        assert out.tobytes() == zeros.tobytes()
        assert drift == 0.0

    def test_diagonal_boost_takes_spline_path(self, cfg, spline_calls):
        s = make_gaussian(cfg, width=seconds(1.0))
        apply_boost(s, make_boost(U0, boosted(0.25, (1, 1, 0))))
        assert spline_calls

    @pytest.mark.parametrize(
        "axis, bound",
        # measured 3.3e-4 and 4.1e-4 on this packet, frozen with headroom
        [((1, 1, 0), 1e-3), ((1, 1, 1), 1e-3)],
    )
    def test_spline_path_accuracy(self, cfg, axis, bound):
        s = make_gaussian(cfg, width=seconds(0.75), mean_momentum=(0.5, 0.25, 0))
        b = make_boost(U0, boosted(0.25, axis))
        err = np.linalg.norm(apply_boost(s, b).psi - direct_sum_pullback(cfg, s.psi, b))
        assert err <= bound

    @pytest.mark.parametrize("axis", [(1, 1, 0), (1, 1, 1)])
    def test_spline_round_trip_converges(self, axis):
        # as for the lattice axis: the round-trip error at least halves
        # when the lattice doubles (measured ratios ~3e-3)
        errs = {}
        for n in (32, 64):
            c = ModelConfig(N=n)
            s = make_gaussian(c, width=seconds(0.75), mean_momentum=(0.5, 0.25, 0))
            b = make_boost(U0, boosted(0.2, axis))
            back = apply_boost(apply_boost(s, b), b.inverse())
            errs[n] = float(np.linalg.norm(back.psi - s.psi))
        assert errs[64] <= 0.5 * errs[32]

    def test_plan_cache_under_threads(self):
        # more threads than cores and more maps than cache entries, so
        # lookups race with evictions; every result must match serial
        c = ModelConfig(N=8)
        s = white_state(c, 4)
        maps = [
            make_boost(U0, boosted(chi, axis))
            for chi in (0.1, 0.2)
            for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        ]
        expected = [apply_boost(s, L).psi for L in maps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(apply_boost, s, L) for _ in range(5) for L in maps
                ]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, out in enumerate(results):
            assert np.array_equal(out.psi, expected[i % len(maps)])

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_plane_wise_plan_matches_the_whole_lattice_expressions(self, n):
        # labels and the real weight (over sqrt(N) on the exact path), bit for
        # bit, as built over the whole lattice from an N^3 four-momentum field
        c = ModelConfig(N=n)
        k1, k2, k3 = np.ix_(c.k1d, c.k1d, c.k1d)
        four = (
            c.omega[..., None] * c.observer._c
            - k1[..., None] * c.axes[0]
            - k2[..., None] * c.axes[1]
            - k3[..., None] * c.axes[2]
        )
        for axis in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]:
            b = make_boost(U0, boosted(0.25, axis))
            for L in (b, b.inverse()):
                q = -((four @ L.inverse().matrix.T) @ (c.axes * _METRIC).T)
                weight = np.sqrt(np.sqrt(c.mass.value**2 + np.sum(q * q, axis=-1)) / c.omega)
                got = np.empty(q.shape[:-1])
                assert _pulled_labels(c, L.inverse().matrix, got).tobytes() == q.tobytes()
                assert got.tobytes() == weight.tobytes()
                plan = _build_plan(c, L)
                if plan.axis is not None:
                    weight = weight / math.sqrt(c.N)
                assert plan.weight.tobytes() == weight.tobytes()

    def test_plan_build_reads_no_energy_field(self, monkeypatch):
        # neither the caller's lattice nor the one rebuilt from the key makes omega
        _plan_of.cache_clear()
        c = ModelConfig(N=16)
        monkeypatch.setattr(ModelConfig, "omega", property(lambda _: pytest.fail("omega built")))
        for axis in [(1, 0, 0), (1, 1, 0)]:
            _pullback_plan(c, make_boost(U0, boosted(0.25, axis)))

    def test_plan_cache_is_keyed_by_value(self):
        # lattices built apart share the plan of their values; the plan is built
        # from the key alone, so a lattice's origin, which the key leaves out,
        # does not reach it, and a value the key holds (the mass) misses
        L = make_boost(U0, boosted(0.25))
        _plan_of.cache_clear()
        coarse = ModelConfig(N=16)
        for c in (ModelConfig(N=32), ModelConfig(N=32), coarse.refined(), coarse.refined()):
            _pullback_plan(c, L)
        assert _plan_of.cache_info()[:2] == (3, 1)  # hits, misses
        _pullback_plan(ModelConfig(N=32, mass=MeasureScalar(1.5, -1)), L)
        assert _plan_of.cache_info()[:2] == (3, 2)
        u = boosted(0.2, (0, 1, 0))
        moving = ModelConfig(N=16, instant=Instant(u, fiducial_origin() + u * seconds(0.5)))
        for u2 in (boosted(0.1, (1, 0, 0)), boosted(0.1, (1, 1, 0))):
            M = make_boost(u, u2)
            plan, ref = _pullback_plan(moving, M), _build_plan(moving, M)
            for field in dataclasses.fields(ref):
                got, want = getattr(plan, field.name), getattr(ref, field.name)
                if isinstance(want, np.ndarray):
                    got, want = got.tobytes(), want.tobytes()
                assert got == want, field.name


class TestActionWrappers:
    def test_boost_of_lattice_symmetry_is_the_rotation(self, cfg):
        s = white_state(cfg, 5)
        symmetries = [
            L for L in lattice_point_group(U0, cfg.basis) if not np.array_equal(L.matrix, np.eye(4))
        ]
        assert len(symmetries) == 47
        for L in symmetries:
            out, report = apply_boost(s, L, return_report=True)
            assert np.array_equal(out.psi, _apply_perm(s.psi, signed_permutation_of(cfg, L)))
            assert report.norm_drift == 0.0
            assert rapidity_of(cfg, L) == 0.0

    @pytest.mark.parametrize("axis", [(1, 0, 0), (1, 1, 0)])
    def test_boost_is_the_homogeneous_poincare_map(self, cfg, axis):
        s = make_gaussian(cfg, width=seconds(1.0), mean_momentum=(0.5, 0.25, 0))
        L = make_boost(U0, boosted(0.25, axis))
        P = PoincareMap.from_homogeneous(L, cfg.origin)
        # the represented step undoes the time twist of its map: that of P is L
        twist = PoincareMap.from_homogeneous(time_inversion(cfg.observer), cfg.origin)
        [(linear, phase)] = _represented(cfg, [twist.compose(P).compose(twist)])
        assert np.array_equal(linear.matrix, L.matrix) and phase is None
        out, report = apply_boost(s, L, return_report=True)
        psi, drift = _act(cfg, s.psi, [(linear, phase)])
        assert np.array_equal(out.psi, psi)
        assert drift > 0.0
        assert report.norm_drift == drift
        assert rapidity_of(cfg, L) == pytest.approx(0.25, abs=1e-12)

    def test_rotation_rejects_velocity_change(self, cfg):
        assert signed_permutation_of(cfg, make_boost(U0, boosted(0.2))) is None


class TestPreparedAction:
    # the phase multiply reuses only complex arrays a step made: the caller's
    # array, complex or real, keeps its bytes and the result matches
    # out-of-place products bit for bit
    @staticmethod
    def stepwise(cfg, arr, chain):
        drift = 0.0
        for P in chain:
            [(linear, phase)] = _represented(cfg, [P])
            arr, step_drift = _apply_linear(cfg, arr, linear)
            arr = arr if phase is None else arr * phase
            drift = max(drift, step_drift)
        return arr, drift

    @staticmethod
    def chain(cfg, kind):
        a = cfg.spacing.value
        shift = PoincareMap.from_translation(2 * a * cfg.basis[0] - a * cfg.basis[2])
        rot, turn = (
            PoincareMap.from_homogeneous(make_rotation(cfg.observer, b, np.pi / 2), cfg.origin)
            for b in (cfg.basis[2], cfg.basis[0])
        )
        boost = PoincareMap.from_homogeneous(make_boost(U0, boosted(0.2)), cfg.origin)
        return {
            "lattice-shift": [shift],
            "point-group": [rot],
            "shifted-symmetry": [shift.compose(rot)],
            "velocity": [boost],
            "two-maps": [shift, rot],
            "two-symmetries": [rot, turn],
        }[kind]

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize(
        "kind",
        ["lattice-shift", "point-group", "shifted-symmetry", "velocity", "two-maps",
         "two-symmetries"],
    )
    def test_leaves_input_and_matches_out_of_place(self, cfg, kind, dtype):
        chain = self.chain(cfg, kind)
        batch = np.stack([white_state(cfg, seed).psi for seed in (5, 6)])
        batch = batch if dtype is complex else batch.real.copy()
        before = batch.tobytes()
        if len(chain) == 1:
            out, drift = represent_array(cfg, batch, chain[0])
        else:
            out, drift = _act(cfg, batch, _represented(cfg, chain))
        assert batch.tobytes() == before
        ref, ref_drift = self.stepwise(cfg, batch, chain)
        assert out.tobytes() == ref.tobytes()
        assert drift == ref_drift
        assert (drift > 0.0) == (kind == "velocity")

    # out=arr gives the input up: the result has the bytes of the chain on a
    # copy, and lands in the input when a phase of it or a second permutation does
    @pytest.mark.parametrize(
        "kind", ["point-group", "lattice-shift", "two-maps", "two-symmetries"]
    )
    def test_given_up_input_matches_a_copy(self, cfg, kind):
        chain = self.chain(cfg, kind)
        batch = np.stack([white_state(cfg, seed).psi for seed in (5, 6)])
        ref, _ = _act(cfg, batch.copy(), _represented(cfg, chain))
        got, _ = _act(cfg, batch, _represented(cfg, chain), out=batch)
        assert got.tobytes() == ref.tobytes()
        assert (got is batch) == (kind in ("lattice-shift", "two-symmetries"))


class TestTransformOrder:
    # the reported bytes rest on these axis orders: the whole-field pair walks
    # lattice axes 0, 1, 2 both ways, and the spline's pruned embed gives
    # exactly the zero-padded (2N)^3 grid built in full
    @pytest.mark.parametrize("n", [16, 32])
    def test_whole_field_pair_walks_the_axes_in_order(self, n):
        c = ModelConfig(N=n)
        batch = np.stack([white_state(c, seed).psi for seed in (1, 2)])
        pos, mom = batch, batch
        for axis in (-3, -2, -1):
            pos = np.fft.ifft(pos, axis=axis, norm="ortho")
            mom = np.fft.fft(mom, axis=axis, norm="ortho")
        assert np.array_equal(_to_position(batch), pos)
        assert np.array_equal(_to_momentum(batch), mom)

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_position_transform_never_writes_its_input(self, dtype):
        # the first line transform allocates, the later ones go in place into it
        c = ModelConfig(N=16)
        batch = np.stack([white_state(c, seed).psi for seed in (1, 2)])
        batch = batch if dtype is complex else batch.real.copy()
        before, ref = batch.tobytes(), batch
        for axis in (-3, -2, -1):
            ref = np.fft.ifft(ref, axis=axis, norm="ortho")
        assert _to_position(batch).tobytes() == ref.tobytes()
        assert batch.tobytes() == before

    def test_momentum_transform_consumes_its_input(self):
        # three per-axis numpy.fft transforms, each in place in the given buffer
        c = ModelConfig(N=16)
        arr = np.stack([white_state(c, seed).psi for seed in (1, 2)])
        ref = arr
        for axis in (-3, -2, -1):
            ref = np.fft.fft(ref, axis=axis, norm="ortho")
        got = _to_momentum(arr)
        assert got.shape == arr.shape and np.shares_memory(got, arr)
        assert got.tobytes() == arr.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [16, 32])
    def test_spline_grid_is_the_zero_padded_grid(self, n, monkeypatch):
        from scipy import ndimage

        c = ModelConfig(N=n)
        psi = white_state(c, 3).psi
        plan = _pullback_plan(c, make_boost(U0, boosted(0.25, (1, 1, 0))))
        assert plan.axis is None
        padded = np.zeros((2 * n,) * 3, dtype=complex)
        ix = np.mod(c.signed_index, 2 * n)
        padded[np.ix_(ix, ix, ix)] = _to_position(psi)
        for axis in (-3, -2, -1):
            padded = np.fft.fft(padded, axis=axis, norm="ortho")
        # the interpolation hands its grid back
        monkeypatch.setattr(ndimage, "map_coordinates", lambda grid, *args, **kwargs: grid)
        assert np.array_equal(_spline_pullback(c, psi, plan), padded * 2**1.5)


def test_hypothesis_exact_path_unitarity(cfg):
    # point-group element x lattice step x time step on white states:
    # the exact path keeps every norm and its inverse restores the input
    group = lattice_point_group(U0, cfg.basis)
    a = cfg.spacing.value
    step = st.integers(-cfg.N // 2, cfg.N // 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, len(group) - 1),
        st.tuples(step, step, step),
        st.floats(-4.0, 4.0, allow_nan=False),
        st.integers(0, 2**32 - 1),
    )
    def run(g, steps, dt, seed):
        rng = np.random.default_rng(seed)
        shape = (2, cfg.N, cfg.N, cfg.N)
        arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        arr /= np.linalg.norm(arr.reshape(2, -1), axis=1)[:, None, None, None]
        shift = dt * cfg.observer.as_vector() + sum(
            s * a * b for s, b in zip(steps, cfg.basis)
        )
        P = PoincareMap.from_translation(shift).compose(
            PoincareMap.from_homogeneous(group[g], cfg.origin)
        )
        out, drift = represent_array(cfg, arr, P)
        assert drift == 0.0
        norms = np.linalg.norm(out.reshape(2, -1), axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-13
        back, _ = represent_array(cfg, out, P.inverse())
        assert np.max(np.linalg.norm((back - arr).reshape(2, -1), axis=1)) <= 1e-13

    run()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs 2 CPUs: OpenBLAS runs one thread per CPU"
)
def test_exact_pullback_does_not_depend_on_blas_threads():
    # the raw interpolant before the norms, which np.linalg.norm splits over
    # BLAS threads; white states, normalized by a per-axis (ufunc) norm
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from minkabs.groups import make_boost\n"
        "from minkabs.quantum import ModelConfig\n"
        "from minkabs.quantum import verify as V\n"
        "from minkabs.quantum.state import _exact_pullback, _pullback_plan\n"
        "for n in (32, 64):\n"
        "    cfg = ModelConfig(N=n)\n"
        "    states = V.random_states(cfg, np.random.default_rng(0), 2)\n"
        "    plan = _pullback_plan(cfg, make_boost(cfg.observer, V.boosted_velocity(0.25)))\n"
        "    raw = np.ascontiguousarray(_exact_pullback(states, plan))\n"
        "    print(n, hashlib.sha256(raw.tobytes()).hexdigest())\n"
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


def test_light_commands_load_no_scipy():
    # a fresh interpreter: every transform is numpy.fft, and scipy (whose FFT
    # import pulls in scipy.special) loads only for an off-axis boost
    script = """
import contextlib
import io
import sys
import minkabs
import minkabs.cli as cli
import minkabs.quantum

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify-geometry"]) == 0
    assert cli.main(["demo-causality", "--lattice", "32"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    src = Path(minkabs.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_ndimage_to_off_axis_boosts():
    # a fresh interpreter: the spline path imports scipy.ndimage itself
    script = """
import math
import sys
import minkabs.cli
from minkabs.geometry import normalize_velocity, seconds, vector
from minkabs.groups import make_boost
from minkabs.quantum import ModelConfig, apply_boost, make_gaussian

assert "scipy.ndimage" not in sys.modules
cfg = ModelConfig(N=16)
s = make_gaussian(cfg, width=seconds(1.0))
import scipy.ndimage as ndimage
calls = []
original = ndimage.map_coordinates
def counting(*args, **kwargs):
    calls.append(1)
    return original(*args, **kwargs)
ndimage.map_coordinates = counting
side = math.sinh(0.25) / math.sqrt(2)  # rapidity 0.25 along (1,1,0)
u = normalize_velocity(vector(math.cosh(0.25), side, side, 0))
out = apply_boost(s, make_boost(cfg.observer, u))
assert calls, "off-axis boost did not interpolate"
assert abs(out.norm() - 1.0) <= 1e-12
"""
    src = Path(minkabs.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

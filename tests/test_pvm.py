"""Localization projections and position-family statistics."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minkabs
import minkabs.quantum.pvm as pvm
from minkabs.geometry import (
    _METRIC,
    GeometryError,
    Instant,
    fiducial_origin,
    lorentz_product,
    normalize_velocity,
    point,
    seconds,
    space_part,
    spatial_basis_for,
    vector,
)
from minkabs.groups import (
    PoincareMap,
    Region,
    lattice_point_group,
    make_boost,
    make_rotation,
    time_inversion,
)
from minkabs.quantum import (
    ModelConfig,
    NwPosition,
    canonical_map,
    localization_probability,
    make_gaussian,
    nw_component_stats,
    pvm_project,
    rasterize,
    represent,
)
from minkabs.quantum.pvm import (
    _box_of,
    _conjugate_mask,
    _projection,
    position_multipliers,
)
from minkabs.quantum.state import (
    LatticeState,
    _to_momentum,
    _to_position,
    represent_array,
)
from minkabs.quantum.verify import boosted_velocity

U0 = normalize_velocity(vector(1, 0, 0, 0))
ORIGIN = fiducial_origin()


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(N=16)


@pytest.fixture(scope="module")
def cfg32():
    return ModelConfig(N=32)


def cell_box(cfg, lo_cells, hi_cells):
    """Cell-edge-aligned box from inclusive cell index ranges."""
    a = cfg.spacing.value
    lo = (np.asarray(lo_cells, float) - 0.5) * a
    hi = (np.asarray(hi_cells, float) + 0.5) * a
    return (lo, hi)


def region_of_cells(cfg, lo_cells, hi_cells):
    return Region(cfg.instant, [cell_box(cfg, lo_cells, hi_cells)])


def random_state(cfg, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(cfg.N,) * 3) + 1j * rng.normal(size=(cfg.N,) * 3)
    return LatticeState(cfg, psi / np.linalg.norm(psi))


class TestRasterize:
    def test_full_box_is_everything(self, cfg):
        half = 0.5 * cfg.box_length
        reg = Region(cfg.instant, [((-half, -half, -half), (half, half, half))])
        assert rasterize(cfg, reg).all()

    def test_cell_counts(self, cfg):
        reg = region_of_cells(cfg, (0, 0, 0), (3, 3, 3))
        assert rasterize(cfg, reg).sum() == 64

    def test_wraps_at_seam(self, cfg):
        a = cfg.spacing.value
        n = cfg.N
        lo = ((n // 2 - 2) - 0.5) * a  # two cells inside, crossing the seam
        hi = ((n // 2 + 2) - 0.5) * a
        reg = Region(cfg.instant, [((lo, -0.5 * a, -0.5 * a), (hi, 0.5 * a, 0.5 * a))])
        assert rasterize(cfg, reg).sum() == 4

    def test_box_wider_than_lattice_refused_after_overlapping_box(self, cfg):
        # a wide box is refused whether or not an overlapping box comes first
        L = cfg.box_length
        cell = ((-0.25, -0.25, -0.25), (0.25, 0.25, 0.25))
        wide = ((-0.6 * L, -0.25, -0.25), (0.6 * L, 0.25, 0.25))
        for boxes in ([wide], [cell, wide]):
            with pytest.raises(GeometryError, match="wider than the lattice box"):
                rasterize(cfg, Region(cfg.instant, boxes))

    def test_hypothesis_overlapping_boxes_match_cell_membership(self, cfg):
        # the mask of up to five overlapping cell-edge boxes is the set of
        # cells whose index lies in some box's inclusive index range
        half = cfg.N // 2
        corner = st.tuples(*(st.integers(-half, half - 1) for _ in range(3)))
        idx = np.stack(np.meshgrid(*(cfg.signed_index,) * 3, indexing="ij"), axis=-1)

        @settings(max_examples=100, deadline=None)
        @given(st.lists(st.tuples(corner, corner), max_size=5))
        def run(corners):
            cells = [(np.minimum(a, b), np.maximum(a, b)) for a, b in corners]
            expected = np.zeros((cfg.N,) * 3, dtype=bool)
            for lo, hi in cells:
                expected |= np.all((lo <= idx) & (idx <= hi), axis=-1)
            reg = Region(cfg.instant, [cell_box(cfg, lo, hi) for lo, hi in cells])
            assert np.array_equal(rasterize(cfg, reg), expected)

        run()

    def test_matches_whole_lattice_coordinates(self, cfg):
        # reference: every region-frame coordinate summed over the whole
        # lattice, for the 48 axis-symmetric images of an asymmetric box
        # (separable coordinates) and for one turned by a non-lattice angle
        def reference(region):
            mat = [[lorentz_product(bi, br).value for br in region.basis] for bi in cfg.basis]
            disp = cfg.origin - region.anchor
            x = np.meshgrid(cfg.x1d, cfg.x1d, cfg.x1d, indexing="ij")
            out = np.zeros((cfg.N,) * 3, dtype=bool)
            for lo, hi in region.boxes:
                inside = np.ones((cfg.N,) * 3, dtype=bool)
                for m, br in enumerate(region.basis):
                    c = lorentz_product(br, disp).value
                    for i in range(3):
                        c = c + x[i] * mat[i][m]
                    snap = 1e-9 * cfg.spacing.value
                    inside &= np.mod(c - lo[m] + snap, cfg.box_length) < hi[m] - lo[m]
                out |= inside
            return out

        box = region_of_cells(cfg, (-3, -1, 0), (2, 1, 4))
        turn = make_rotation(cfg.observer, cfg.basis[2], 0.3)
        maps = [PoincareMap.from_homogeneous(R, cfg.origin) for R in lattice_point_group(
            cfg.observer, cfg.basis
        )] + [PoincareMap.from_homogeneous(turn, cfg.origin)]
        for P in maps:
            region = P.transform_region(box)
            assert np.array_equal(rasterize(cfg, region), reference(region))


class TestProjection:
    def test_full_box_is_identity(self, cfg):
        s = random_state(cfg, 1)
        half = 0.5 * cfg.box_length
        reg = Region(cfg.instant, [((-half, -half, -half), (half, half, half))])
        out = pvm_project(reg, s)
        assert np.max(np.abs(out.psi - s.psi)) <= 1e-12

    def test_idempotent_and_self_adjoint(self, cfg):
        s = random_state(cfg, 2)
        t = random_state(cfg, 3)
        reg = region_of_cells(cfg, (-3, -3, -3), (2, 2, 2))
        once = pvm_project(reg, s)
        twice = pvm_project(reg, once)
        assert np.max(np.abs(twice.psi - once.psi)) <= 1e-12
        lhs = np.vdot(t.psi, once.psi)
        rhs = np.vdot(pvm_project(reg, t).psi, s.psi)
        assert abs(lhs - rhs) <= 1e-12

    def test_additive_over_disjoint_regions(self, cfg):
        s = random_state(cfg, 4)
        r1 = region_of_cells(cfg, (-4, -4, -4), (-1, -1, -1))
        r2 = region_of_cells(cfg, (0, 0, 0), (3, 3, 3))
        both = Region(
            cfg.instant,
            [cell_box(cfg, (-4, -4, -4), (-1, -1, -1)), cell_box(cfg, (0, 0, 0), (3, 3, 3))],
        )
        p1 = localization_probability(r1, s)
        p2 = localization_probability(r2, s)
        p12 = localization_probability(both, s)
        assert abs(p1 + p2 - p12) <= 1e-12

    def test_gaussian_mostly_inside_its_box(self, cfg32):
        s = make_gaussian(cfg32, width=seconds(0.75))
        reg = Region(
            cfg32.instant,
            [((-2.375, -2.375, -2.375), (2.375, 2.375, 2.375))],  # > 3 sigma
        )
        out = pvm_project(reg, s)
        assert np.linalg.norm(out.psi - s.psi) <= 0.1

    def test_probability_bounds_and_monotonicity(self, cfg):
        s = random_state(cfg, 5)
        small = region_of_cells(cfg, (-1, -1, -1), (0, 0, 0))
        large = region_of_cells(cfg, (-3, -3, -3), (2, 2, 2))
        ps = localization_probability(small, s)
        pl = localization_probability(large, s)
        assert 0.0 <= ps <= pl <= 1.0 + 1e-12

    def test_empty_region_gives_zero(self, cfg):
        s = random_state(cfg, 6)
        a = cfg.spacing.value
        # a sliver between cell centers holds no cells
        reg = Region(cfg.instant, [((0.1 * a, 0, 0), (0.2 * a, a, a))])
        assert localization_probability(reg, s) <= 1e-15

    def test_half_box_on_even_gaussian(self, cfg32):
        # symmetry oracle: a packet centered at the cut plane puts half
        # its mass on each side
        a = cfg32.spacing.value
        center = ORIGIN + vector(0, -0.5 * a, 0, 0)
        s = make_gaussian(cfg32, center=center, width=seconds(0.75))
        half = 0.5 * cfg32.box_length
        reg = Region(
            cfg32.instant, [((-half, -half, -half), (-0.5 * a, half, half))]
        )
        p = localization_probability(reg, s)
        assert abs(p - 0.5) <= 2.0 / cfg32.N

    def test_rasterize_rejects_region_off_constructing_instant(self, cfg):
        # the one instant check left: a projection carries a region on any
        # other instant back before it rasterizes it
        other = Instant(U0, ORIGIN + vector(1, 0, 0, 0))
        reg = Region(other, [((0, 0, 0), (1, 1, 1))])
        with pytest.raises(GeometryError, match="constructing instant"):
            rasterize(cfg, reg)

    @pytest.mark.parametrize("chi", [0.0, 0.2])
    def test_depends_on_hyperplane_not_its_anchor(self, cfg32, chi):
        # two labels of one hyperplane, anchored a simultaneous step apart,
        # name the same projection of a region with the same boxes and anchor
        u2 = boosted_velocity(chi)
        t = Instant(u2, cfg32.origin + u2 * seconds(0.5))
        t_moved = Instant(u2, t.anchor + space_part(u2, vector(0, 1.3, -0.4, 2.0)))
        assert t_moved == t and t_moved.anchor != t.anchor
        s = make_gaussian(cfg32, width=seconds(0.75))
        box = cell_box(cfg32, (-2, -2, -2), (1, 1, 1))
        p, p_moved = (
            localization_probability(Region(inst, [box], anchor=t.anchor), s)
            for inst in (t, t_moved)
        )
        assert abs(p - p_moved) <= 1e-12

    def test_covariant_handle_time_translation(self, cfg):
        # localization of a state at a later instant equals localization
        # of the forward-evolved state on the same footprint at the
        # constructing instant (exact phase path)
        s = make_gaussian(cfg, width=seconds(0.8))
        dt = 0.75
        later = Instant(U0, ORIGIN + vector(dt, 0, 0, 0))
        reg2 = Region(later, [cell_box(cfg, (-2, -2, -2), (1, 1, 1))], anchor=later.anchor)
        p_later = localization_probability(reg2, s)
        reg0 = Region(cfg.instant, [cell_box(cfg, (-2, -2, -2), (1, 1, 1))])
        forward = PoincareMap.from_translation(time_inversion(U0)(vector(dt, 0, 0, 0)))
        evolved = represent(s, forward)
        p_evolved = localization_probability(reg0, evolved)
        assert abs(p_later - p_evolved) <= 1e-10
        # the packet spreads, so the later-instant probability drops
        p_now = localization_probability(reg0, s)
        assert p_later < p_now


def frame(kind, n=16):
    """The fiducial lattice frame, or a lattice drawn on a moving instant off
    the fiducial origin, whose time twist of the identity rounds."""
    if kind == "fiducial":
        return ModelConfig(N=n)
    chi, axis, anchor = {
        "moving-123": (0.3, (1, 2, 3), point(0.3, -1.1, 0.7, 2.9)),
        "moving-y": (0.2, (0, 1, 0), point(0.5, 0.1, -0.2, 0.3)),
    }[kind]
    return ModelConfig(N=n, instant=Instant(boosted_velocity(chi, axis), anchor))


FRAMES = ["fiducial", "moving-123", "moving-y"]


def constructing_stats(w, u2, state):
    """``nw_component_stats`` as its constructing-instant branch computed it,
    with no carry: the state's own probabilities and ``u2`` as given, as the
    list of (mean, variance) of the duration, then of each space component."""
    prob = state.position_probability()
    mult = position_multipliers(state.cfg, w.origin)
    fields = [-np.tensordot(_METRIC * u2._c, mult, axes=(0, 0))]
    fields += [np.tensordot(_METRIC * b._c, mult, axes=(0, 0)) for b in spatial_basis_for(u2)]
    out = []
    for f in fields:
        m = float(np.sum(f * prob))
        out.append((m, float(np.sum((f - m) ** 2 * prob))))
    return out


class TestIdentityCarry:
    # the constructing instant is the canonical map's identity, which every
    # lattice frame represents exactly, so the one (carry, mask) path gives
    # what the constructing instant's own branch gave, bit for bit
    @pytest.mark.parametrize("kind", FRAMES)
    def test_identity_is_exact(self, kind):
        cfg = frame(kind)
        psi = random_state(cfg, 3).psi
        out, drift = represent_array(cfg, psi, PoincareMap.identity())
        assert out is psi and drift == 0.0

    @pytest.mark.parametrize("kind", FRAMES)
    def test_canonical_map_of_the_constructing_instant(self, kind):
        cfg = frame(kind)
        elsewhere = cfg.origin + 1.3 * cfg.basis[0] - 0.7 * cfg.basis[2]
        for inst in (cfg.instant, Instant(cfg.observer, elsewhere)):
            assert inst == cfg.instant
            carry = canonical_map(cfg, inst)
            assert np.array_equal(carry.linear.matrix, np.eye(4))
            assert not carry.translation._c.any()

    @pytest.mark.parametrize("kind", FRAMES)
    def test_projection_is_the_cell_indicator(self, kind):
        cfg = frame(kind)
        region = Region(cfg.instant, [cell_box(cfg, (-3, -2, -1), (1, 2, 3))])
        mask = rasterize(cfg, region)
        for seed in (5, 6):
            state = random_state(cfg, seed)
            want = _conjugate_mask(cfg, state.psi, [], mask)
            assert pvm_project(region, state).psi.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", FRAMES)
    def test_stats_match_the_constructing_branch(self, kind):
        cfg = frame(kind)
        tilted = boosted_velocity(0.5, (1, -1, 2))
        states = [random_state(cfg, 7), make_gaussian(cfg, width=seconds(0.9))]
        for origin in (cfg.origin, cfg.origin + 0.4 * cfg.basis[1]):
            w = NwPosition(cfg.instant, origin)
            for u2 in (cfg.observer, tilted):
                for state in states:
                    got = nw_component_stats(w, u2, state)
                    pairs = [(got.time_mean, got.time_variance)]
                    pairs += zip(got.space_means, got.space_variances)
                    values = [(m.value, v.value) for m, v in pairs]
                    assert values == constructing_stats(w, u2, state)


class TestCanonicalMap:
    def test_carries_constructing_instant_to_target(self, cfg):
        u2 = boosted_velocity(0.2)
        later = Instant(u2, cfg.origin + u2 * seconds(0.75))
        carry = canonical_map(cfg, later)
        assert carry.transform_instant(cfg.instant) == later
        assert not carry.transform_instant(cfg.instant) == cfg.instant

    def test_constructing_instant_gives_identity(self, cfg):
        carry = canonical_map(cfg, cfg.instant)
        assert np.array_equal(carry.linear.matrix, np.eye(4))
        assert carry.approx_eq(PoincareMap.identity(), tol=0.0)


class TestPositionFamily:
    def test_expectation_tracks_center(self, cfg32):
        center = ORIGIN + vector(0, 1.0, -0.75, 0.5)
        s = make_gaussian(cfg32, center=center, width=seconds(0.75))
        w = NwPosition(cfg32.instant, ORIGIN)
        stats = nw_component_stats(w, U0, s)
        got = np.array([stats.time_mean.value, *(m.value for m in stats.space_means)])
        assert np.max(np.abs(got - np.array([0, 1.0, -0.75, 0.5]))) <= cfg32.spacing.value

    def test_time_variance_vanishes_for_own_observer(self, cfg32):
        w = NwPosition(cfg32.instant, ORIGIN)
        for seed in range(5):
            s = random_state(cfg32, seed)
            stats = nw_component_stats(w, U0, s)
            assert stats.time_variance.value == 0.0
            assert stats.time_variance.dim == 2

    def test_time_variance_positive_for_other_observer(self, cfg32):
        chi = 0.5
        u2 = normalize_velocity(vector(math.cosh(chi), math.sinh(chi), 0, 0))
        w = NwPosition(cfg32.instant, ORIGIN)
        s = make_gaussian(cfg32, width=seconds(1.0))
        stats = nw_component_stats(w, u2, s)
        assert stats.time_variance.value > 0.01

    def test_space_variance_matches_packet(self, cfg32):
        width = 0.75
        s = make_gaussian(cfg32, width=seconds(width))
        w = NwPosition(cfg32.instant, ORIGIN)
        stats = nw_component_stats(w, U0, s)
        for v in stats.space_variances:
            assert abs(v.value - width**2) <= 0.1 * width**2


class TestConjugateMask:
    # one batched call over the four multiplier fields must equal the
    # four single-field calls bit for bit, on the exact (lattice symmetry
    # plus a lattice step) path and on the exact axis-boost path
    @pytest.mark.parametrize("kind", ["lattice-symmetry", "axis-boost"])
    def test_field_stack_equals_single_fields(self, cfg, kind):
        if kind == "lattice-symmetry":
            a = cfg.spacing.value
            step = PoincareMap.from_translation(2 * a * cfg.basis[0] - a * cfg.basis[2])
            R = make_rotation(cfg.observer, cfg.basis[2], np.pi / 2)
            S = step.compose(PoincareMap.from_homogeneous(R, cfg.origin))
        else:
            boost = make_boost(cfg.observer, boosted_velocity(0.25))
            S = PoincareMap.from_homogeneous(boost, cfg.origin)
        states = np.stack([random_state(cfg, seed).psi for seed in (3, 4)])
        mult = position_multipliers(cfg, cfg.origin)
        batched = _conjugate_mask(cfg, states[:, None], [S], mult)
        single = [_conjugate_mask(cfg, states, [S], mult[mu]) for mu in range(4)]
        assert batched.shape == (2, 4) + (cfg.N,) * 3
        assert np.array_equal(batched, np.stack(single, axis=1))

    # the first transform may reuse its input's buffer only when the chain
    # made a new array: an empty or identity chain hands over the caller's
    @pytest.mark.parametrize(
        "kind",
        ["empty", "identity", "lattice-shift", "point-group", "shifted-symmetry", "two-maps"],
    )
    @pytest.mark.parametrize("stacked", [False, True])
    def test_leaves_caller_batch_unchanged(self, cfg, kind, stacked):
        a = cfg.spacing.value
        shift = PoincareMap.from_translation(2 * a * cfg.basis[0] - a * cfg.basis[2])
        rot = PoincareMap.from_homogeneous(
            make_rotation(cfg.observer, cfg.basis[2], np.pi / 2), cfg.origin
        )
        chain = {
            "empty": [],
            "identity": [PoincareMap.identity()],
            "lattice-shift": [shift],
            "point-group": [rot],
            "shifted-symmetry": [shift.compose(rot)],
            "two-maps": [shift, rot],
        }[kind]
        batch = np.stack([random_state(cfg, seed).psi for seed in (5, 6)])
        before = batch.tobytes()
        if stacked:
            # the (4, N, N, N) field stack broadcasts the batch up
            _conjugate_mask(cfg, batch[:, None], chain, position_multipliers(cfg, cfg.origin))
        else:
            mask = rasterize(cfg, region_of_cells(cfg, (-2, -2, -1), (2, 1, 1)))
            _conjugate_mask(cfg, batch, chain, mask)
        assert batch.tobytes() == before

    # applied once, a chain is prepared map by map: the phases of its other
    # maps are not alive at the same time, so two shifts cost no more than
    # one N^3 complex array over no map at all; that holds for lattice
    # steps, whose phases are spatial only, and for boosted lattice vectors,
    # shifts in time and space whose phases take both factors
    def test_one_shot_holds_one_phase_at_a_time(self, cfg):
        a = cfg.spacing.value
        steps = [2 * a * cfg.basis[0], -a * cfg.basis[1] + 3 * a * cfg.basis[2]]
        boost = make_boost(cfg.observer, boosted_velocity(0.25))
        chains = [
            [PoincareMap.from_translation(s) for s in steps],
            [PoincareMap.from_translation(boost(s)) for s in steps],
        ]
        psi = random_state(cfg, 9).psi
        mask = rasterize(cfg, region_of_cells(cfg, (-2, -2, -1), (2, 1, 1)))

        def peak(chain):
            tracemalloc.start()
            try:
                _conjugate_mask(cfg, psi, chain, mask)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for chain in chains:  # the first calls fill numpy's transform caches
            _conjugate_mask(cfg, psi, chain, mask)
        for chain in chains:
            assert peak(chain) <= peak([]) + psi.nbytes

    # _to_momentum consumes its input; _to_position never writes it
    @pytest.mark.parametrize("transform", [_to_position])
    def test_transforms_copy_by_default(self, cfg, transform):
        batch = np.stack([random_state(cfg, seed).psi for seed in (7, 8)])
        before = batch.tobytes()
        transform(batch)
        assert batch.tobytes() == before


class TestBoxPruning:
    # a box mask (exactly the outer product of its per-axis rows) is applied
    # by pruned line transforms; it must agree with the full transforms
    @staticmethod
    def box(n, rows):
        mask = np.zeros((n,) * 3, dtype=bool)
        mask[np.ix_(*rows)] = True
        return mask

    @staticmethod
    def by_matmul(mask):
        # the rule: the outer (narrowest) axis keeps at most a quarter of its rows
        rows = _box_of(mask)[0][1]
        return rows is not None and 4 * len(rows) <= mask.shape[0]

    @staticmethod
    def random_rows(rng, n):
        kind = rng.integers(3)
        if kind == 0:  # a run of cells, wrapping the torus when it passes n - 1
            return (rng.integers(n) + np.arange(rng.integers(1, n))) % n
        if kind == 1:  # full width
            return np.arange(n)
        return rng.choice(n, size=rng.integers(1, n), replace=False)  # any row set

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("batched", [False, True])
    def test_random_boxes_match_full_transforms(self, n, batched):
        cfg = ModelConfig(N=n)
        rng = np.random.default_rng((n, batched))
        states = np.stack([random_state(cfg, seed).psi for seed in (1, 2, 3)])
        if not batched:
            states = states[0]
        wrapped = (np.arange(n - 3, n + 4) % n, np.arange(n), np.arange(2, 5))
        masks = [self.box(n, wrapped), np.zeros((n,) * 3, dtype=bool)]
        assert self.by_matmul(masks[1])  # the empty box takes the partial DFTs
        masks += [self.box(n, [self.random_rows(rng, n) for _ in range(3)]) for _ in range(12)]
        for mask in masks:
            assert _box_of(mask) is not None
            ref = _to_momentum(_to_position(states) * mask)
            got = _conjugate_mask(cfg, states, [], mask)
            assert got.shape == states.shape
            assert np.max(np.abs(got - ref)) <= 1e-15

    @pytest.mark.parametrize("n", [16, 32])
    def test_batches_transform_bit_for_bit(self, n):
        # numpy.fft transforms each line alone, in any memory layout, and the
        # partial DFTs are one gemm per lattice plane: a batch equals its
        # stacked single states exactly (the batched drivers and the
        # stabilizer suite rely on it)
        cfg = ModelConfig(N=n)
        states = np.stack([random_state(cfg, seed).psi for seed in (5, 6, 7)])
        for transform in (_to_position, _to_momentum):  # the latter consumes its input
            got = transform(states.copy())
            assert np.array_equal(got, np.stack([transform(s) for s in states.copy()]))
        wrapped = np.arange(n - 3, n + 4) % n
        rows = [(wrapped, np.arange(n), np.arange(2, 5)), (np.arange(2), wrapped, np.arange(5))]
        # outer axis 5 of 16 rows: pruned numpy.fft lines only
        rows.append((np.arange(n // 4 + 1), np.arange(n // 2), np.arange(n // 4 + 2)))
        # the first two outer axes take the partial-DFT products, the third does not
        assert [self.by_matmul(self.box(n, r)) for r in rows] == [True, True, False]
        for mask in (self.box(n, r) for r in rows):
            box = _box_of(mask)

            def pruned(arr):
                return _to_momentum(_to_position(arr, box=box), box, n)

            assert np.array_equal(pruned(states), np.stack([pruned(s) for s in states]))

    # an outer axis of at most n/4 rows takes a partial DFT by matmul for the
    # first forward and the last back transform; it must agree with the full
    # pair on every outer axis, on a row set that wraps the torus
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("outer", [0, 1, 2])
    @pytest.mark.parametrize("batched", [False, True])
    def test_partial_dft_matches_full_transforms(self, n, outer, batched):
        cfg = ModelConfig(N=n)
        states = np.stack([random_state(cfg, seed).psi for seed in (1, 2)])
        if not batched:
            states = states[0]
        rows = [np.arange(3, 8), np.arange(n - 3, n + 3) % n]
        rows.insert(outer, np.array([n - 2, n - 1, 0, 1]))
        mask = self.box(n, rows)
        assert _box_of(mask)[0][0] == outer and self.by_matmul(mask)
        ref = _to_momentum(_to_position(states) * mask)
        got = _conjugate_mask(cfg, states, [], mask)
        assert got.shape == states.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - ref)) <= 1e-15

    # neither the sandwich nor the forward transform writes into the states,
    # on either path (the back transform consumes the sandwich's own cut)
    def test_read_only_input_comes_back_unwritten(self, cfg):
        states = np.stack([random_state(cfg, seed).psi for seed in (3, 4)])
        states.flags.writeable = False
        before = states.tobytes()
        n = cfg.N
        for rows in [(np.arange(4), np.arange(6), np.arange(n)), (np.arange(5),) * 3]:
            box = _box_of(self.box(n, rows))
            _conjugate_mask(cfg, states, [], self.box(n, rows))
            _to_position(states, box=box)
            assert states.tobytes() == before

    # the rule is on the box alone: an outer axis of more than n/4 rows makes
    # one numpy.fft line transform per axis each way, the partial-DFT box one
    # fewer each way
    @pytest.mark.parametrize("outer_rows, calls", [(5, 3), (4, 2)])
    def test_rule_counts_fft_calls(self, cfg, outer_rows, calls, monkeypatch):
        counts = {"ifft": 0, "fft": 0}
        for name in counts:

            def counting(*args, _name=name, _f=getattr(np.fft, name), **kwargs):
                counts[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        states = np.stack([random_state(cfg, seed).psi for seed in (3, 4)])
        mask = self.box(cfg.N, (np.arange(6), np.arange(outer_rows), np.arange(7)))
        _conjugate_mask(cfg, states, [], mask)
        assert counts == {"ifft": calls, "fft": calls}

    @pytest.mark.parametrize("kind", ["box", "two-boxes", "turned-frame", "multiplier-stack"])
    def test_only_box_masks_are_pruned(self, cfg, kind, monkeypatch):
        # one transform pair per projection; only a box's cuts rows
        calls = []

        def counting(arr, box=None):
            calls.append(box is not None and any(rows is not None for _, rows in box))
            return _to_position(arr, box)

        monkeypatch.setattr(pvm, "_to_position", counting)
        states = np.stack([random_state(cfg, seed).psi for seed in (3, 4)])
        box = cell_box(cfg, (-2, -2, -1), (2, 1, 1))
        if kind == "multiplier-stack":
            states, mask = states[:, None], position_multipliers(cfg, cfg.origin)
        elif kind == "turned-frame":
            turn = make_rotation(cfg.observer, cfg.basis[2], 0.5)
            reg = PoincareMap.from_homogeneous(turn, cfg.origin).transform_region(
                Region(cfg.instant, [box])
            )
            mask = rasterize(cfg, reg)
        else:
            boxes = [box] if kind == "box" else [box, cell_box(cfg, (4, 3, 3), (5, 4, 4))]
            mask = rasterize(cfg, Region(cfg.instant, boxes))
        ref = _to_momentum(_to_position(states) * mask)
        calls.clear()
        got = _conjugate_mask(cfg, states, [], mask)
        assert (_box_of(mask) is None) == (kind != "box")
        assert calls == [kind == "box"]
        assert np.max(np.abs(got - ref)) <= 1e-15


class TestWorkFields:
    # caller-owned work fields change where the sandwich writes, never its
    # bytes, and a read-only input comes back unwritten
    @pytest.mark.parametrize("kind", ["partial-dft", "pruned", "whole"])
    def test_back_transform_into_work_field(self, cfg, kind):
        n = cfg.N
        rows = {
            "partial-dft": (np.arange(6), np.arange(n - 2, n + 2) % n, np.arange(7)),
            "pruned": (np.arange(5), np.arange(6), np.arange(7)),
        }.get(kind)
        box = None if rows is None else _box_of(TestBoxPruning.box(n, rows))
        states = np.stack([random_state(cfg, seed).psi for seed in (3, 4, 5)])
        cut = _to_position(states, box=box)  # consumed by each _to_momentum: one copy each
        out = np.full(states.shape, np.nan, complex)
        got = _to_momentum(cut.copy(), box, n, out=out)
        assert np.shares_memory(got, out) == (kind == "partial-dft")
        assert got.tobytes() == _to_momentum(cut.copy(), box, n).tobytes()

    @pytest.mark.parametrize("kind", ["symmetry", "carry-then-symmetry", "two-symmetries",
                                      "identity", "lattice-shift"])
    @pytest.mark.parametrize("mask_kind", ["partial-dft", "union"])
    def test_conjugation_into_work_fields(self, cfg, kind, mask_kind):
        group = lattice_point_group(U0, cfg.basis)
        turn, flip = (PoincareMap.from_homogeneous(group[i], cfg.origin) for i in (7, 40))
        shift = PoincareMap.from_translation(cfg.lattice_vector((2, -1, 3)))
        boosted = boosted_velocity(0.2)
        carry = canonical_map(cfg, Instant(boosted, cfg.origin + boosted * seconds(0.5)))
        chain = {
            "symmetry": [shift.compose(turn)],
            "carry-then-symmetry": [carry, shift.compose(turn)],  # the covariance driver's
            "two-symmetries": [turn, flip],  # a permutation reads the work field it fills
            "identity": [PoincareMap.identity()],
            "lattice-shift": [shift],
        }[kind]
        box = cell_box(cfg, (-2, -1, -2), (2, 1, 1))
        boxes = [box] if mask_kind == "partial-dft" else [box, cell_box(cfg, (4, 3, 3), (5, 4, 4))]
        mask = rasterize(cfg, Region(cfg.instant, boxes))
        assert (_box_of(mask) is None) == (mask_kind == "union")
        states = np.stack([random_state(cfg, seed).psi for seed in (6, 7, 8)])
        states.flags.writeable = False
        before = states.tobytes()
        ref = _conjugate_mask(cfg, states, chain, mask)
        work = np.full((2, *states.shape), np.nan, complex)
        got = _conjugate_mask(cfg, states, chain, mask, work)
        assert got.tobytes() == ref.tobytes()
        assert states.tobytes() == before


class TestPreparedProjection:
    # a projection is the (carry, mask) that _conjugate_mask applies as the
    # chain [carry]: it must act like the one-shot definition (carry back,
    # mask, carry forward) and must not change between applications
    @staticmethod
    def labels(cfg, kind):
        if kind == "constructing":
            return cfg.instant
        u2 = U0 if kind == "later" else boosted_velocity(0.2)
        return Instant(u2, cfg.origin + u2 * seconds(0.5))

    @pytest.mark.parametrize("kind", ["constructing", "later", "boosted"])
    def test_matches_one_shot_definition(self, cfg, kind):
        inst = self.labels(cfg, kind)
        reg = Region(inst, [cell_box(cfg, (-2, -2, -2), (1, 1, 1))], anchor=inst.anchor)
        carry = canonical_map(cfg, inst)
        mask = rasterize(cfg, carry.inverse().transform_region(reg))
        got_carry, got_mask = _projection(reg, cfg)
        assert got_carry.approx_eq(carry, tol=0.0)
        assert np.array_equal(got_mask, mask)
        for seed in (11, 12):
            psi = random_state(cfg, seed).psi
            back, _ = represent_array(cfg, psi, carry.inverse())
            ref, _ = represent_array(cfg, _to_momentum(_to_position(back) * mask), carry)
            assert np.max(np.abs(_conjugate_mask(cfg, psi, [got_carry], mask) - ref)) <= 1e-15

    @pytest.mark.parametrize("kind", ["constructing", "later", "boosted"])
    def test_repeated_application_is_identical(self, cfg, kind):
        inst = self.labels(cfg, kind)
        reg = Region(inst, [cell_box(cfg, (-2, -2, -2), (1, 1, 1))], anchor=inst.anchor)
        carry, mask = _projection(reg, cfg)
        if kind == "constructing":
            assert np.array_equal(carry.linear.matrix, np.eye(4))
            assert not carry.translation._c.any()
        batch = np.stack([random_state(cfg, seed).psi for seed in (13, 14)])
        before = mask.tobytes(), batch.tobytes()
        first = _conjugate_mask(cfg, batch, [carry], mask)
        assert np.array_equal(first, _conjugate_mask(cfg, batch, [carry], mask))
        assert (mask.tobytes(), batch.tobytes()) == before


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs 2 CPUs: OpenBLAS runs one thread per CPU"
)
def test_partial_dft_sandwich_does_not_depend_on_blas_threads():
    # the stabilizer suite's box (outer axis 4 rows) takes one gemm per
    # lattice plane each way, whatever the batch size; the projected batch and
    # its residual norm must have the same bytes at 1 and 2 BLAS threads
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from minkabs.quantum import ModelConfig, rasterize\n"
        "from minkabs.quantum import verify as V\n"
        "from minkabs.quantum.pvm import _conjugate_mask\n"
        "for n in (32, 64):\n"
        "    cfg = ModelConfig(N=n)\n"
        "    lo, hi = (-n // 8, -n // 8 + 1, -2), (n // 8, n // 8 - 1, 1)\n"
        "    mask = rasterize(cfg, V.cell_region(cfg, lo, hi))\n"
        "    for count in (1, 10, 50):\n"
        "        rng = np.random.default_rng(count)\n"
        "        states = np.empty((count, n, n, n), complex)\n"
        "        states.real = rng.normal(size=states.shape)\n"
        "        states.imag = rng.normal(size=states.shape)\n"
        "        out = _conjugate_mask(cfg, states, [], mask)\n"
        "        del states\n"
        "        digest = hashlib.sha256(out.tobytes()).hexdigest()\n"
        "        print(n, count, digest, repr(V._batch_max_norm(out)))\n"
    )
    src = Path(minkabs.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 6
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs 2 CPUs: OpenBLAS runs one thread per CPU"
)
def test_localization_probability_does_not_depend_on_blas_threads():
    # a 12^3-cell box at N=32, where BLAS splits a dot product over its threads
    script = (
        "import numpy as np\n"
        "from minkabs.quantum import LatticeState, ModelConfig\n"
        "from minkabs.quantum import localization_probability\n"
        "from minkabs.quantum import verify as V\n"
        "cfg = ModelConfig(N=32)\n"
        "psi = V.random_states(cfg, np.random.default_rng(0), 1)[0]\n"
        "region = V.cell_region(cfg, (-6, -6, -6), (5, 5, 5))\n"
        "state = LatticeState(cfg, psi)\n"
        "print(repr(localization_probability(region, state)))\n"
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

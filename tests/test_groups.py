"""Lorentz/Poincare maps, observer subgroups, regions, causal growth."""

import math

import numpy as np
import pytest

from minkabs.geometry import (
    GeometryError,
    Instant,
    SpacetimePoint,
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
    Region,
    grow_region_causally,
    in_O_u,
    is_lorentz,
    is_orthochronous,
    is_proper,
    lattice_point_group,
    make_boost,
    make_rotation,
    stabilizes_instant,
    time_inversion,
)
from minkabs.groups import _boosts, _checked, _lorentz_rows, _rotations

U0 = normalize_velocity(vector(1, 0, 0, 0))
U_BOOSTED = normalize_velocity(vector(math.cosh(0.5), math.sinh(0.5), 0, 0))
E0, E1, E2, E3 = FRAME = tuple(vector(*row) for row in np.eye(4))
ORIGIN = fiducial_origin()


def coords(v):
    return np.array(v.coordinates_in_basis(FRAME))


def box_corners(region):
    """World events at the eight corners of each box of ``region``."""
    return [SpacetimePoint(p) for lo, hi in region.boxes for p in region._box_corners(lo, hi)]


def random_map(rng):
    """Random composite of boosts and rotations (orthochronous, proper)."""
    m = LorentzMap.identity()
    for _ in range(rng.integers(1, 4)):
        if rng.random() < 0.5:
            chi = rng.uniform(-1.0, 1.0)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            u2 = normalize_velocity(vector(math.cosh(chi), *(math.sinh(chi) * d)))
            m = make_boost(U0, u2).compose(m)
        else:
            axis_c = rng.normal(size=3)
            axis = axis_c[0] * E1 + axis_c[1] * E2 + axis_c[2] * E3
            m = make_rotation(U0, axis, rng.uniform(0, 2 * math.pi)).compose(m)
    return m


class TestRotations:
    def test_zero_angle_is_identity(self):
        r = make_rotation(U0, E3, 0.0)
        assert r.approx_eq(LorentzMap.identity())

    def test_quarter_turn_matrix_oracle(self):
        r = make_rotation(U0, E3, math.pi / 2)
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, -1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=float,
        )
        assert np.max(np.abs(r.matrix - expected)) <= 1e-12
        assert is_lorentz(r)
        # e1 -> e2, e2 -> -e1
        assert r(E1).approx_eq(E2)
        assert r(E2).approx_eq(-1.0 * E1)

    def test_fixes_observer(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            axis_c = rng.normal(size=3)
            axis = axis_c[0] * E1 + axis_c[1] * E2 + axis_c[2] * E3
            r = make_rotation(U0, axis, rng.uniform(0, 2 * math.pi))
            assert np.max(np.abs(r.matrix @ U0._c - U0._c)) <= 1e-12
            assert in_O_u(r, U0)

    def test_boosted_observer_rotation(self):
        axis = space_part(U_BOOSTED, vector(0, 0, 1, 1))
        r = make_rotation(U_BOOSTED, axis, 0.7)
        assert in_O_u(r, U_BOOSTED)
        assert is_lorentz(r)

    def test_non_simultaneous_axis_is_error(self):
        with pytest.raises(GeometryError):
            make_rotation(U0, vector(1, 1, 0, 0), 0.3)

    def test_zero_axis_is_error(self):
        with pytest.raises(GeometryError):
            make_rotation(U0, vector(0, 0, 0, 0), 0.3)


class TestBoosts:
    def test_same_velocity_is_identity(self):
        b = make_boost(U_BOOSTED, U_BOOSTED)
        assert b.approx_eq(LorentzMap.identity())

    def test_rapidity_matrix_oracle(self):
        chi = 0.8
        u2 = normalize_velocity(vector(math.cosh(chi), math.sinh(chi), 0, 0))
        b = make_boost(U0, u2)
        expected = np.eye(4)
        expected[0, 0] = expected[1, 1] = math.cosh(chi)
        expected[0, 1] = expected[1, 0] = math.sinh(chi)
        assert np.max(np.abs(b.matrix - expected)) <= 1e-12
        assert np.max(np.abs(b.matrix @ U0._c - u2._c)) <= 1e-10
        assert is_lorentz(b)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            chi = rng.uniform(0, 1.2)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            u2 = normalize_velocity(vector(math.cosh(chi), *(math.sinh(chi) * d)))
            comp = make_boost(U0, u2).compose(make_boost(u2, U0))
            assert comp.approx_eq(LorentzMap.identity(), tol=1e-10)

    def test_fixed_plane(self):
        b = make_boost(U0, U_BOOSTED)
        # directions simultaneous for both observers are untouched
        assert b(E2).approx_eq(E2)
        assert b(E3).approx_eq(E3)

    def test_orthochronous_and_proper(self):
        b = make_boost(U0, U_BOOSTED)
        assert is_orthochronous(b)
        assert is_proper(b)


class TestStacks:
    """The stack helpers behind the constructors, row for row."""

    def observers_axes_angles(self):
        rng = np.random.default_rng(3)
        # along E1 the frame skips the first fiducial axis, for both observers
        return [
            (U0, E1, 0.9),
            (U0, E3 * -2.0, 4.0),
            (U0, vector(0, *rng.normal(size=3)), rng.uniform(0, 2 * math.pi)),
            (U_BOOSTED, space_part(U_BOOSTED, vector(0, 0, 1, 1)), 0.7),
            (U_BOOSTED, space_part(U_BOOSTED, E1), 2.5),
        ]

    def test_rotation_rows_equal_make_rotation(self):
        rows = self.observers_axes_angles()
        stack = _rotations(
            np.array([u._c for u, _, _ in rows]),
            np.array([axis._c for _, axis, _ in rows]),
            np.array([angle for _, _, angle in rows]),
        )
        for m, (u, axis, angle) in zip(stack, rows):
            assert m.tobytes() == make_rotation(u, axis, angle).matrix.tobytes()

    def test_boost_rows_equal_make_boost(self):
        pairs = [(U0, U_BOOSTED), (U_BOOSTED, U0), (U_BOOSTED, U_BOOSTED), (U0, U0)]
        stack = _boosts(np.array([u._c for u, _ in pairs]), np.array([v._c for _, v in pairs]))
        for m, (u, v) in zip(stack, pairs):
            assert m.tobytes() == make_boost(u, v).matrix.tobytes()

    def test_lorentz_rows_equal_is_lorentz(self):
        rng = np.random.default_rng(8)
        stack = np.array(
            [make_boost(U0, U_BOOSTED).matrix, rng.normal(size=(4, 4)), np.eye(4), -np.eye(4)]
        )
        expected = [True, False, True, True]
        assert list(_lorentz_rows(stack)) == [is_lorentz(m) for m in stack] == expected

    def test_one_bad_row_fails_the_stack(self):
        good = make_boost(U0, U_BOOSTED).matrix
        with pytest.raises(GeometryError):
            _checked(np.array([good, good, 1.001 * good]))
        axes = np.array([E1._c, E2._c, (E2 + 1e-6 * E0)._c])
        with pytest.raises(GeometryError):
            _rotations(U0._c, axes, np.zeros(3))


class TestInversions:
    def test_time_inversion_rest_observer(self):
        t = time_inversion(U0)
        assert t(vector(1, 2, 3, 4)).approx_eq(vector(-1, 2, 3, 4))

    def test_involutions(self):
        for u in (U0, U_BOOSTED):
            t = time_inversion(u)
            assert t.compose(t).approx_eq(LorentzMap.identity(), tol=1e-12)

    def test_orientation_character(self):
        t = time_inversion(U0)
        assert not is_orthochronous(t)
        assert not is_proper(t)
        assert is_lorentz(t)


class TestPredicates:
    def test_identity_satisfies_all(self):
        ident = PoincareMap.identity()
        t0 = Instant(U0, ORIGIN)
        assert is_lorentz(ident.linear)
        assert is_orthochronous(ident.linear)
        assert is_proper(ident.linear)
        assert in_O_u(ident.linear, U0)
        assert stabilizes_instant(ident, t0)

    def test_boost_moves_observer(self):
        b = make_boost(U0, U_BOOSTED)
        assert not in_O_u(b, U0)

    def test_instant_stabilizer_example(self):
        # spatial translation composed with a rotation keeps the instant
        t0 = Instant(U0, ORIGIN)
        rot = PoincareMap.from_homogeneous(make_rotation(U0, E3, 0.4), ORIGIN)
        shift = PoincareMap.from_translation(vector(0, 1.5, -2.0, 0.25))
        both = shift.compose(rot)
        assert stabilizes_instant(both, t0)
        assert stabilizes_instant(rot, t0)
        # a time translation does not
        late = PoincareMap.from_translation(vector(1, 0, 0, 0))
        assert not stabilizes_instant(late, t0)

    def test_time_inversion_stabilizes_its_instant(self):
        anchor = ORIGIN + vector(2.0, 0.3, 0.0, -1.0)
        u = U_BOOSTED
        t = Instant(u, anchor)
        inv = PoincareMap.from_homogeneous(time_inversion(u), anchor)
        assert stabilizes_instant(inv, t)
        assert not inv.is_orthochronous()

    def test_stabilizer_restriction_is_isometry(self):
        rng = np.random.default_rng(9)
        t0 = Instant(U0, ORIGIN)
        rot = PoincareMap.from_homogeneous(make_rotation(U0, E1 + 2 * E2, 1.1), ORIGIN)
        shift = PoincareMap.from_translation(vector(0, 0.4, 1.0, -0.6))
        m = shift.compose(rot)
        for _ in range(50):
            a = ORIGIN + vector(0, *rng.uniform(-5, 5, 3))
            b = ORIGIN + vector(0, *rng.uniform(-5, 5, 3))
            d0 = lorentz_product(a - b, a - b).value
            d1 = lorentz_product(m(a) - m(b), m(a) - m(b)).value
            assert abs(d1 - d0) <= 1e-10 * max(1.0, abs(d0))

    def test_subgroups_differ_between_observers(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            chi = rng.uniform(0.2, 1.0)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            u2 = normalize_velocity(vector(math.cosh(chi), *(math.sinh(chi) * d)))
            # a generic rotation fixing U0 does not fix u2
            found = False
            for axis in (E1, E2, E3):
                r = make_rotation(U0, axis, 0.9)
                if in_O_u(r, U0) and not in_O_u(r, u2):
                    found = True
                    break
            assert found


class TestGroupLaws:
    def test_closure_and_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = random_map(rng)
            b = random_map(rng)
            ab = a.compose(b)
            assert is_lorentz(ab)
            assert ab.compose(ab.inverse()).approx_eq(LorentzMap.identity(), tol=1e-10)

    def test_associativity(self):
        rng = np.random.default_rng(19)
        a, b, c = (random_map(rng) for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.approx_eq(right, tol=1e-10)

    def test_poincare_affinity(self):
        rng = np.random.default_rng(23)
        m = PoincareMap(random_map(rng), vector(*rng.uniform(-3, 3, 4)))
        p = ORIGIN + vector(*rng.uniform(-5, 5, 4))
        q = ORIGIN + vector(*rng.uniform(-5, 5, 4))
        assert (m(p) - m(q)).approx_eq(m.linear(p - q), rel=1e-12)

    def test_orthochronous_composition(self):
        rng = np.random.default_rng(29)
        a = random_map(rng)
        b = random_map(rng)
        assert is_orthochronous(a.compose(b))
        t = time_inversion(U0)
        assert not is_orthochronous(t.compose(a))

    def test_deep_composition_stays_lorentz(self):
        rng = np.random.default_rng(31)
        m = LorentzMap.identity()
        for _ in range(100):
            m = random_map(rng).compose(m)
        assert is_lorentz(m)


class TestLatticePointGroup:
    def test_count_and_membership(self):
        group = lattice_point_group(U0)
        assert len(group) == 48
        for g in group:
            assert in_O_u(g, U0)
            assert is_lorentz(g)
            assert is_orthochronous(g)

    def test_closed_under_composition(self):
        group = lattice_point_group(U0)
        mats = {tuple(np.round(g.matrix.flatten()).astype(int)) for g in group}
        rng = np.random.default_rng(4)
        for _ in range(40):
            i, j = rng.integers(0, 48, 2)
            comp = group[i].compose(group[j])
            assert tuple(np.round(comp.matrix.flatten()).astype(int)) in mats


class TestPoincareApply:
    def test_identity_leaves_objects(self):
        ident = PoincareMap.identity()
        t0 = Instant(U0, ORIGIN)
        reg = Region(t0, [((0, 0, 0), (1, 1, 1))])
        assert ident(ORIGIN).approx_eq(ORIGIN)
        assert ident.transform_instant(t0) == t0
        out = ident.transform_region(reg)
        assert [(tuple(lo), tuple(hi)) for lo, hi in out.boxes] == [((0, 0, 0), (1, 1, 1))]

    def test_pure_translation_shifts_instant(self):
        shift = vector(2.5, 1, 0, 0)
        m = PoincareMap.from_translation(shift)
        t0 = Instant(U0, ORIGIN)
        t1 = m.transform_instant(t0)
        assert t1.observer.approx_eq(U0)
        assert (t1.anchor - t0.anchor).approx_eq(shift)

    def test_functorial_on_points(self):
        rng = np.random.default_rng(41)
        p1 = PoincareMap(random_map(rng), vector(*rng.uniform(-2, 2, 4)))
        p2 = PoincareMap(random_map(rng), vector(*rng.uniform(-2, 2, 4)))
        x = ORIGIN + vector(*rng.uniform(-4, 4, 4))
        lhs = p1.compose(p2)(x)
        rhs = p1(p2(x))
        assert lhs.approx_eq(rhs, rel=1e-10)

    def test_rotation_of_box_corner_oracle(self):
        # quarter turn about a box corner: corners land where geometry says
        t0 = Instant(U0, ORIGIN)
        reg = Region(t0, [((0, 0, 0), (1, 1, 1))])
        rot = PoincareMap.from_homogeneous(make_rotation(U0, E3, math.pi / 2), ORIGIN)
        out = rot.transform_region(reg)
        # the bounds stay, in the rotated basis
        assert [(tuple(lo), tuple(hi)) for lo, hi in out.boxes] == [((0, 0, 0), (1, 1, 1))]
        got = sorted(tuple(np.round(coords(c - ORIGIN), 10)) for c in box_corners(out))
        want = []
        for corner in box_corners(reg):
            want.append(tuple(np.round(coords(rot(corner) - ORIGIN), 10)))
        assert got == sorted(want)


class TestRegions:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_bound_refused(self, bad, side):
        # a NaN bound passes every ordering test, so it would rasterize to
        # no cell without an error
        box = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        box[side][1] = bad
        with pytest.raises(GeometryError, match="finite"):
            Region(Instant(U0, ORIGIN), [tuple(box)])


class TestCausalGrowth:
    def test_zero_interval_returns_region(self):
        t0 = Instant(U0, ORIGIN)
        reg = Region(t0, [((0, 0, 0), (1, 1, 1))])
        out = grow_region_causally(reg, t0)
        assert len(out.boxes) == 1
        lo, hi = out.boxes[0]
        assert np.max(np.abs(lo - 0.0)) <= 1e-12
        assert np.max(np.abs(hi - 1.0)) <= 1e-12

    def test_unit_speed_growth(self):
        t0 = Instant(U0, ORIGIN)
        reg = Region(t0, [((0, 0, 0), (1, 1, 1))])
        t1 = Instant(U0, ORIGIN + vector(1, 0, 0, 0))
        out = grow_region_causally(reg, t1)
        lo, hi = out.boxes[0]
        assert np.max(np.abs(lo + 1.0)) <= 1e-12
        assert np.max(np.abs(hi - 2.0)) <= 1e-12

    def test_past_instant_is_error(self):
        t0 = Instant(U0, ORIGIN)
        reg = Region(t0, [((0, 0, 0), (1, 1, 1))])
        t_past = Instant(U0, ORIGIN + vector(-1, 0, 0, 0))
        with pytest.raises(GeometryError):
            grow_region_causally(reg, t_past)

    def test_boosted_instant_cover_oracle(self):
        # brute force over cone rays from points of the region: every
        # causal arrival point on the tilted instant lies in the cover
        rng = np.random.default_rng(53)
        t0 = Instant(U0, ORIGIN)
        reg = Region(t0, [((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))])
        u2 = U_BOOSTED
        t2 = Instant(u2, ORIGIN + vector(3.0, 0, 0, 0))
        cover = grow_region_causally(reg, t2)
        lo, hi = cover.boxes[0]
        for _ in range(4000):
            start_coord = rng.uniform(-0.5, 0.5, 3)
            p = ORIGIN + vector(
                0.0, start_coord[0], start_coord[1], start_coord[2]
            )
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            speed = rng.uniform(0, 1) if rng.random() < 0.7 else 1.0
            ray = vector(1.0, *(speed * d))
            # land the ray on t2
            denom = time_part(u2, ray).value
            dist = time_part(u2, t2.anchor - p).value
            arrival = p + (dist / denom) * ray
            c = cover.coordinates_of(arrival)
            assert np.all(c >= lo - 1e-9) and np.all(c <= hi + 1e-9)

    def test_cover_is_tight_per_axis(self):
        # support in each axis direction is achieved by some cone ray
        rng = np.random.default_rng(59)
        t0 = Instant(U0, ORIGIN)
        reg = Region(t0, [((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))])
        u2 = U_BOOSTED
        t2 = Instant(u2, ORIGIN + vector(3.0, 0, 0, 0))
        cover = grow_region_causally(reg, t2)
        lo, hi = cover.boxes[0]
        best_lo = np.full(3, np.inf)
        best_hi = np.full(3, -np.inf)
        corners = box_corners(reg)
        for p in corners:
            for _ in range(3000):
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                ray = vector(1.0, *d)
                denom = time_part(u2, ray).value
                if denom <= 1e-9:
                    continue
                dist = time_part(u2, t2.anchor - p).value
                arrival = p + (dist / denom) * ray
                c = cover.coordinates_of(arrival)
                best_lo = np.minimum(best_lo, c)
                best_hi = np.maximum(best_hi, c)
        # sampled support approaches the cover bounds
        assert np.all(best_hi >= hi - 0.15 * (hi - lo))
        assert np.all(best_lo <= lo + 0.15 * (hi - lo))

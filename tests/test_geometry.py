"""Geometry kernel: products, splittings, observer time and space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkabs.geometry import (
    CausalClass,
    DimensionMismatchError,
    GeometryError,
    Instant,
    MeasureScalar,
    SpacePoint,
    SpacetimeVector,
    causal_class,
    fiducial_origin,
    instant_subtract,
    lorentz_product,
    normalize_velocity,
    point,
    seconds,
    space_part,
    space_subtract,
    spatial_basis_for,
    time_part,
    vector,
)
from minkabs.geometry import _METRIC, _check_velocity, _normalize, _product, _split

# the hidden orthonormal frame, as an explicit basis for coordinate queries
FRAME = (vector(1, 0, 0, 0), vector(0, 1, 0, 0), vector(0, 0, 1, 0), vector(0, 0, 0, 1))

test_velocities = [
    normalize_velocity(vector(1, 0, 0, 0)),
    normalize_velocity(vector(math.cosh(0.5), math.sinh(0.5), 0, 0)),
    normalize_velocity(vector(math.cosh(0.3), 0, math.sinh(0.3), 0)),
    normalize_velocity(vector(1.5, 0.3, -0.4, 0.8)),
]


def random_vectors(rng, n):
    return [vector(*c) for c in rng.uniform(-10, 10, size=(n, 4))]


def random_velocity(rng):
    chi = rng.uniform(0, 1.5)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return normalize_velocity(
        vector(math.cosh(chi), *(math.sinh(chi) * d))
    )


# ---------------------------------------------------------------------------
# measure scalars
# ---------------------------------------------------------------------------


class TestMeasureScalar:
    def test_add_same_dim(self):
        assert (seconds(2) + seconds(3)).value == 5.0

    def test_add_mixed_dim_is_error(self):
        with pytest.raises(DimensionMismatchError):
            seconds(1) + MeasureScalar(1, 2)

    def test_sub_mixed_dim_is_error(self):
        with pytest.raises(DimensionMismatchError):
            seconds(1) - MeasureScalar(1, 0)

    def test_mul_adds_dims(self):
        prod = seconds(2) * MeasureScalar(3, -1)
        assert prod.value == 6.0 and prod.dim == 0

    def test_compare_mixed_dim_is_error(self):
        # a measure has no order, so no comparison coerces its dimension
        with pytest.raises(TypeError):
            seconds(1) < MeasureScalar(2, 2)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.integers(-4, 4),
    )
    def test_add_commutes(self, a, b, dim):
        x = MeasureScalar(a, dim)
        y = MeasureScalar(b, dim)
        assert (x + y).value == (y + x).value


# ---------------------------------------------------------------------------
# product and causal structure
# ---------------------------------------------------------------------------


class TestLorentzProduct:
    def test_signature_time_axis(self):
        x = vector(1, 0, 0, 0)
        assert lorentz_product(x, x).value == -1.0
        assert lorentz_product(x, x).dim == 2

    def test_mixed_example(self):
        assert lorentz_product(vector(1, 2, 0, 0), vector(3, 0, 1, 0)).value == -3.0

    def test_lightlike_self_product(self):
        x = vector(1, 1, 0, 0)
        assert lorentz_product(x, x).value == 0.0

    def test_symmetric_and_bilinear(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y, z = random_vectors(rng, 3)
            a = rng.uniform(-3, 3)
            assert lorentz_product(x, y).value == lorentz_product(y, x).value
            lhs = lorentz_product(a * x + z, y).value
            rhs = a * lorentz_product(x, y).value + lorentz_product(z, y).value
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestComponents:
    # a vector owns one read-only float copy of exactly four components
    def test_copy_of_the_source_array(self):
        src = np.array([1.0, 2.0, 3.0, 4.0])
        x = SpacetimeVector(src)
        src[0] = 9.0
        assert x._c.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_components_are_read_only(self):
        x = SpacetimeVector(np.array([1.0, 2.0, 3.0, 4.0]))
        assert not x._c.flags.writeable
        with pytest.raises(ValueError):
            x._c[0] = 0.0

    def test_int_array_becomes_float(self):
        x = SpacetimeVector(np.array([1, 2, 3, 4]))
        assert x._c.dtype == np.float64
        assert x._c.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(GeometryError, match="four components"):
            SpacetimeVector(np.ones(shape))


class TestCausalClass:
    @pytest.mark.parametrize(
        "v, expected",
        [
            (vector(1, 0, 0, 0), CausalClass.TIMELIKE),
            (vector(0, 1, 0, 0), CausalClass.SPACELIKE),
            (vector(1, 1, 0, 0), CausalClass.LIGHTLIKE),
            (vector(0, 0, 0, 0), CausalClass.ZERO),
        ],
    )
    def test_examples(self, v, expected):
        assert causal_class(v) is expected

    def test_partition_of_random_vectors(self):
        rng = np.random.default_rng(3)
        for x in random_vectors(rng, 500):
            assert causal_class(x) in (
                CausalClass.TIMELIKE,
                CausalClass.SPACELIKE,
                CausalClass.LIGHTLIKE,
            )


class TestVelocity:
    def test_pure_rescale(self):
        u = normalize_velocity(vector(2, 0, 0, 0))
        assert (u * 1.0).coordinates_in_basis(FRAME) == (1.0, 0.0, 0.0, 0.0)

    def test_rapidity_vector_is_unit(self):
        # hyperbolic identity: cosh^2 - sinh^2 = 1 makes this exactly unit
        u = normalize_velocity(vector(math.cosh(0.5), math.sinh(0.5), 0, 0))
        v = u.as_vector()
        assert abs(lorentz_product(v, v).value + 1.0) <= 1e-12

    def test_spacelike_is_error(self):
        with pytest.raises(GeometryError):
            normalize_velocity(vector(0, 1, 0, 0))

    def test_past_directed_is_error(self):
        with pytest.raises(GeometryError):
            normalize_velocity(vector(-2, 0, 0, 0))


# ---------------------------------------------------------------------------
# observer splitting
# ---------------------------------------------------------------------------


class TestSplitting:
    def test_rest_observer_time(self):
        u = test_velocities[0]
        assert time_part(u, vector(5, 1, 2, 3)).value == 5.0
        assert time_part(u, vector(0, 1, 2, 3)).value == 0.0

    def test_moving_observer_time(self):
        # component oracle: -u.x = cosh(0.5) for x along the time axis
        u = test_velocities[1]
        got = time_part(u, vector(1, 0, 0, 0)).value
        assert abs(got - math.cosh(0.5)) <= 1e-12

    def test_rest_observer_space(self):
        u = test_velocities[0]
        p = space_part(u, vector(5, 1, 2, 3))
        assert p.coordinates_in_basis(FRAME) == (0.0, 1.0, 2.0, 3.0)

    def test_parallel_vector_has_no_space_part(self):
        u = test_velocities[1]
        x = u * seconds(3.25)
        assert space_part(u, x).approx_eq(vector(0, 0, 0, 0))

    def test_moving_observer_space_orthogonality(self):
        u = test_velocities[1]
        x = vector(1, 0, 0, 0)
        p = space_part(u, x)
        expected = x - math.cosh(0.5) * u.as_vector()
        assert p.approx_eq(expected)
        assert abs(lorentz_product(u.as_vector(), p).value) <= 1e-12

    def test_splitting_identity_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            u = random_velocity(rng)
            x = vector(*rng.uniform(-10, 10, 4))
            t = time_part(u, x)
            p = space_part(u, x)
            assert (u * t + p).approx_eq(x, rel=1e-12)
            assert abs(lorentz_product(u.as_vector(), p).value) <= 1e-12 * max(
                1.0, abs(t.value) ** 2
            )

    def test_space_restriction_positive_definite(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            u = random_velocity(rng)
            v = space_part(u, vector(*rng.uniform(-10, 10, 4)))
            if not v.approx_eq(vector(0, 0, 0, 0), rel=1e-14):
                assert lorentz_product(v, v).value > 0.0


class TestStackKernel:
    # the component kernel on a (n, 4) stack must give, row for row, exactly
    # the single-vector result and the np.dot form it replaced
    ROWS = 10_000

    @pytest.fixture(scope="class")
    def stacks(self):
        rng = np.random.default_rng(17)
        chi = rng.uniform(0, 1.5, self.ROWS)
        d = rng.normal(size=(self.ROWS, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        # future timelike rows of assorted lengths
        c = np.column_stack([np.cosh(chi), np.sinh(chi)[:, None] * d])
        c *= rng.uniform(0.1, 10.0, (self.ROWS, 1))
        return c, rng.uniform(-10, 10, (self.ROWS, 4))

    def test_product(self, stacks):
        a, b = stacks
        got = _product(a, b)
        assert got.shape == (self.ROWS,)
        assert got.tolist() == [_product(x, y) for x, y in zip(a, b)]
        assert got.tolist() == [float(np.dot(x * _METRIC, y)) for x, y in zip(a, b)]

    def test_split(self, stacks):
        c, x = stacks
        u = c / np.sqrt(-_product(c, c))[:, None]
        t, space = _split(u, x)
        for i in range(self.ROWS):
            ti, si = _split(u[i], x[i])
            ref = -float(np.dot(u[i] * _METRIC, x[i]))
            assert t[i] == ti == ref
            assert space[i].tolist() == si.tolist() == (x[i] - ref * u[i]).tolist()

    def test_normalize(self, stacks):
        c, _ = stacks
        u = _check_velocity(_normalize(c))
        for i in range(self.ROWS):
            ref = c[i] / math.sqrt(-float(np.dot(c[i] * _METRIC, c[i])))
            assert u[i].tolist() == _normalize(c[i]).tolist() == ref.tolist()
            assert u[i].tolist() == normalize_velocity(vector(*c[i]))._c.tolist()

    @pytest.mark.parametrize(
        "row, match",
        [((0.0, 2.0, 0.0, 0.0), "timelike"), ((-2.0, 0.5, 0.0, 0.0), "future")],
    )
    def test_one_bad_row_rejects_the_stack(self, stacks, row, match):
        c = stacks[0][:100].copy()
        c[37] = row
        with pytest.raises(GeometryError, match=match):
            _check_velocity(_normalize(c))
        # the guard of Velocity on rows that are unit but past directed or
        # not unit at all
        u = _normalize(stacks[0][:100])
        u[37] = -u[37] if match == "future" else 2.0 * u[37]
        with pytest.raises(GeometryError, match=match):
            _check_velocity(u)


# ---------------------------------------------------------------------------
# instants and space points
# ---------------------------------------------------------------------------


class TestInstants:
    def test_interval_example(self):
        u = test_velocities[0]
        o = fiducial_origin()
        t1 = Instant(u, o + vector(3, 0, 0, 0))
        t2 = Instant(u, o)
        assert instant_subtract(t1, t2).value == 3.0

    def test_zero_interval(self):
        u = test_velocities[0]
        t = Instant(u, fiducial_origin())
        assert instant_subtract(t, t).value == 0.0

    def test_reanchoring_does_not_change_interval(self):
        u = test_velocities[1]
        o = fiducial_origin()
        t1 = Instant(u, o + u * seconds(2.0))
        t2 = Instant(u, o)
        base = instant_subtract(t1, t2).value
        shift = space_part(u, vector(0.4, -1.2, 2.0, 0.7))
        t1b = Instant(u, t1.anchor + shift)
        assert t1 == t1b
        assert abs(instant_subtract(t1b, t2).value - base) <= 1e-12 * max(1, abs(base))

    def test_mismatched_observers_error(self):
        t1 = Instant(test_velocities[0], fiducial_origin())
        t2 = Instant(test_velocities[1], fiducial_origin())
        with pytest.raises(GeometryError):
            instant_subtract(t1, t2)


class TestSpacePoints:
    def test_displacement_example(self):
        u = test_velocities[0]
        o = fiducial_origin()
        q1 = SpacePoint(u, o + vector(0, 1, 0, 0))
        q2 = SpacePoint(u, o)
        d = space_subtract(q1, q2)
        assert d.coordinates_in_basis(FRAME) == (0.0, 1.0, 0.0, 0.0)

    def test_same_world_line(self):
        u = test_velocities[1]
        o = fiducial_origin()
        q1 = SpacePoint(u, o)
        q2 = SpacePoint(u, o + u * seconds(5.5))
        assert q1 == q2
        assert space_subtract(q1, q2).approx_eq(vector(0, 0, 0, 0))

    def test_reanchoring_does_not_change_displacement(self):
        u = test_velocities[1]
        o = fiducial_origin()
        q1 = SpacePoint(u, o + vector(0.3, 1.1, -0.2, 0.9))
        q2 = SpacePoint(u, o)
        base = space_subtract(q1, q2)
        q1b = SpacePoint(u, q1.anchor + u * seconds(-4.0))
        assert space_subtract(q1b, q2).approx_eq(base)

    def test_mismatched_observers_error(self):
        q1 = SpacePoint(test_velocities[0], fiducial_origin())
        q2 = SpacePoint(test_velocities[2], fiducial_origin())
        with pytest.raises(GeometryError):
            space_subtract(q1, q2)


class TestObserverLabels:
    def test_instant_never_equals_space_point(self):
        u, o = test_velocities[1], fiducial_origin()
        assert Instant(u, o) != SpacePoint(u, o)
        assert SpacePoint(u, o) != Instant(u, o)

    def test_containment_is_looser_than_equality(self):
        # contains() keeps its 1e-9 tolerance, == keeps 1e-12
        u, o = test_velocities[1], fiducial_origin()
        near = o + u * seconds(1e-10)
        assert Instant(u, o).contains(near)
        assert Instant(u, o) != Instant(u, near)


class TestSpatialBasis:
    @pytest.mark.parametrize("u", test_velocities)
    def test_orthonormal_and_simultaneous(self, u):
        basis = spatial_basis_for(u)
        for i, b in enumerate(basis):
            assert abs(lorentz_product(u.as_vector(), b).value) <= 1e-12
            for j, c in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(lorentz_product(b, c).value - want) <= 1e-12

    def test_rest_observer_gets_fiducial_axes(self):
        basis = spatial_basis_for(test_velocities[0])
        for b, e in zip(basis, FRAME[1:]):
            assert b.approx_eq(e, rel=0.0)


# deliberate cross-checks of the point/vector algebra surface
def test_point_arithmetic():
    p = point(1, 2, 3, 4)
    q = point(0, 1, 1, 1)
    d = p - q
    assert d.coordinates_in_basis(FRAME) == (1.0, 1.0, 2.0, 3.0)
    assert (q + d).approx_eq(p)


def test_hypothesis_splitting_identity():
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0, 1.2),
        st.tuples(*(st.floats(-5, 5) for _ in range(3))),
        st.tuples(*(st.floats(-8, 8) for _ in range(4))),
    )
    def run(chi, direction, comps):
        d = np.asarray(direction)
        n = np.linalg.norm(d)
        if n < 1e-3:
            d = np.array([1.0, 0.0, 0.0])
            n = 1.0
        d = d / n
        u = normalize_velocity(vector(math.cosh(chi), *(math.sinh(chi) * d)))
        x = vector(*comps)
        t = time_part(u, x)
        p = space_part(u, x)
        assert (u * t + p).approx_eq(x, rel=1e-12)

    run()

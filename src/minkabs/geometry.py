"""Coordinate-free Minkowski geometry with dimension-tagged scalars.

Spacetime vectors and points are opaque values: their components relative
to the internal fiducial frame are an implementation detail, and client
code observes them only through the Lorentz product, observer splittings
and explicit basis queries.  Every scalar produced by the kernel carries
an integer power of the time unit (seconds), and mixing unequal powers is
an error rather than a silent coercion.

Conventions baked into the internal frame:

* metric signature (-, +, +, +), stored in seconds squared;
* the arrow (future) orientation is fixed by a distinguished future
  timelike fiducial vector;
* orientation of the vector space is positive determinant in the
  fiducial frame;
* light speed is 1, so velocities are dimensionless.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "GeometryError",
    "MeasureScalar",
    "seconds",
    "CausalClass",
    "SpacetimeVector",
    "SpacetimePoint",
    "Velocity",
    "Instant",
    "SpacePoint",
    "vector",
    "point",
    "fiducial_origin",
    "lorentz_product",
    "causal_class",
    "normalize_velocity",
    "time_part",
    "space_part",
    "instant_subtract",
    "space_subtract",
    "spatial_basis_for",
]

# Signature of the product on the fiducial frame, in sec^2.
_METRIC = np.array([-1.0, 1.0, 1.0, 1.0])

# Relative tolerance for pure geometry predicates.
_REL_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Arithmetic attempted on scalars with different unit exponents."""


class GeometryError(ValueError):
    """Geometric precondition violated (causality, normalization, observers)."""


# ---------------------------------------------------------------------------
# dimension-tagged scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureScalar:
    """A real value together with an integer exponent of the time unit.

    ``dim=0`` is a pure number, ``dim=1`` seconds, ``dim=2`` seconds
    squared, ``dim=-1`` inverse seconds, and so on.  Addition and
    subtraction require equal ``dim``; multiplication adds the
    exponents, and a number scales the value alone.
    """

    value: float
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if self.dim != int(self.dim):
            raise DimensionMismatchError("unit exponent must be an integer")
        object.__setattr__(self, "dim", int(self.dim))

    def _require_same_dim(self, other: "MeasureScalar", op: str) -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot {op} sec^{self.dim} and sec^{other.dim}"
            )

    def __add__(self, other: "MeasureScalar") -> "MeasureScalar":
        if not isinstance(other, MeasureScalar):
            return NotImplemented
        self._require_same_dim(other, "add")
        return MeasureScalar(self.value + other.value, self.dim)

    def __sub__(self, other: "MeasureScalar") -> "MeasureScalar":
        if not isinstance(other, MeasureScalar):
            return NotImplemented
        self._require_same_dim(other, "subtract")
        return MeasureScalar(self.value - other.value, self.dim)

    def __mul__(self, other):
        if isinstance(other, MeasureScalar):
            return MeasureScalar(self.value * other.value, self.dim + other.dim)
        if isinstance(other, (int, float)):
            return MeasureScalar(self.value * other, self.dim)
        if isinstance(other, Velocity):
            return other * self
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.dim == 0:
            return f"{self.value!r}"
        return f"{self.value!r} sec^{self.dim}"


def seconds(value: float) -> MeasureScalar:
    """A duration or distance in seconds (light speed 1)."""
    return MeasureScalar(value, 1)


# ---------------------------------------------------------------------------
# vectors and points
# ---------------------------------------------------------------------------


def _as_components(values: Iterable[float]) -> np.ndarray:
    # one float copy of an array; any other iterable goes through a tuple
    c = np.array(values if isinstance(values, np.ndarray) else tuple(values), dtype=float)
    if c.shape != (4,):
        raise GeometryError("expected four components")
    c.flags.writeable = False
    return c


def _within(gap, rel: float, *points: np.ndarray) -> bool:
    """Whether the largest component of ``gap`` is at most ``rel`` times the
    largest component of ``points``, or ``rel`` when those are below one."""
    scale = max(1.0, *[abs(p).max() for p in points])
    return bool(np.abs(gap).max() <= rel * scale)


class _Components:
    """Four components relative to the hidden orthonormal fiducial frame."""

    __slots__ = ("_c",)

    def __init__(self, components: Iterable[float]):
        self._c = _as_components(components)

    def approx_eq(self, other, rel: float = _REL_TOL) -> bool:
        return _within(self._c - other._c, rel, self._c, other._c)


class SpacetimeVector(_Components):
    """A displacement between spacetime points, semantically in seconds.

    Components are stored relative to a hidden orthonormal fiducial frame;
    they are observable only through :func:`lorentz_product`, the observer
    splittings and :meth:`coordinates_in_basis`.
    """

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, SpacetimeVector):
            return SpacetimeVector(self._c + other._c)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SpacetimeVector):
            return SpacetimeVector(self._c - other._c)
        return NotImplemented

    def __radd__(self, other):
        # lets sum() start from 0
        if isinstance(other, (int, float)) and other == 0:
            return self
        return NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return SpacetimeVector(self._c * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def coordinates_in_basis(
        self, basis: Sequence["SpacetimeVector"]
    ) -> tuple[float, ...]:
        """Coefficients of this vector in an explicit basis of four vectors."""
        if len(basis) != 4:
            raise GeometryError("a basis of spacetime needs four vectors")
        mat = np.column_stack([b._c for b in basis])
        try:
            coeffs = np.linalg.solve(mat, self._c)
        except np.linalg.LinAlgError as exc:
            raise GeometryError("basis vectors are linearly dependent") from exc
        return tuple(float(v) for v in coeffs)

    def __repr__(self) -> str:
        return f"SpacetimeVector({tuple(self._c)!r} sec)"


class SpacetimePoint(_Components):
    """An event: element of the affine space over spacetime vectors.

    Its components are the displacement from the fiducial origin.
    """

    __slots__ = ()

    def __sub__(self, other):
        if isinstance(other, SpacetimePoint):
            return SpacetimeVector(self._c - other._c)
        if isinstance(other, SpacetimeVector):
            return SpacetimePoint(self._c - other._c)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, SpacetimeVector):
            return SpacetimePoint(self._c + other._c)
        return NotImplemented

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"SpacetimePoint({tuple(self._c)!r})"


def vector(t: float, x: float, y: float, z: float) -> SpacetimeVector:
    """Spacetime vector from fiducial-frame components, in seconds."""
    return SpacetimeVector((t, x, y, z))


def point(t: float, x: float, y: float, z: float) -> SpacetimePoint:
    """Spacetime point displaced from the fiducial origin, in seconds."""
    return SpacetimePoint((t, x, y, z))


def fiducial_origin() -> SpacetimePoint:
    return point(0.0, 0.0, 0.0, 0.0)


# The stored future vector fixing the arrow orientation.
_FUTURE = np.array([1.0, 0.0, 0.0, 0.0])
_AXES = np.eye(4)[1:]  # the fiducial spatial axes


def _product(a: np.ndarray, b: np.ndarray):
    # 4-vectors or (..., 4) stacks; vecdot rounds each row as np.dot does
    return np.vecdot(a * _METRIC, b)


def lorentz_product(x: SpacetimeVector, y: SpacetimeVector) -> MeasureScalar:
    """The symmetric bilinear product of signature (-, +, +, +), in sec^2."""
    return MeasureScalar(_product(x._c, y._c), 2)


class CausalClass(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"
    ZERO = "zero"


def causal_class(x: SpacetimeVector, rel: float = _REL_TOL) -> CausalClass:
    """Classify a vector by the sign of its self-product.

    The lightlike band is ``|x.x| <= rel * |x|^2`` with the Euclidean
    component norm as scale, so each nonzero vector lands in exactly one
    class.
    """
    scale = float(np.dot(x._c, x._c))
    if scale == 0.0:
        return CausalClass.ZERO
    s = _product(x._c, x._c)
    if abs(s) <= rel * scale:
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if s < 0.0 else CausalClass.SPACELIKE


class Velocity:
    """A future-directed unit timelike direction (dimensionless components).

    Instances satisfy ``u.u = -1`` within 1e-12 and are future directed;
    construct them through :func:`normalize_velocity`.
    """

    __slots__ = ("_c",)

    def __init__(self, components: Iterable[float]):
        self._c = _check_velocity(_as_components(components))

    def __mul__(self, scalar):
        # velocity times a duration is a displacement
        if isinstance(scalar, MeasureScalar):
            if scalar.dim != 1:
                raise DimensionMismatchError(
                    f"velocity scaled by sec^{scalar.dim}; need sec^1"
                )
            return SpacetimeVector(self._c * scalar.value)
        if isinstance(scalar, (int, float)):
            return SpacetimeVector(self._c * float(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def as_vector(self) -> SpacetimeVector:
        """The unit displacement covered per second along this velocity."""
        return SpacetimeVector(self._c)

    def approx_eq(self, other: "Velocity", rel: float = _REL_TOL) -> bool:
        return bool((abs(self._c - other._c) <= rel).all())

    def __repr__(self) -> str:
        return f"Velocity({tuple(self._c)!r})"


def _check_velocity(c: np.ndarray) -> np.ndarray:
    """``c`` (a 4-vector or a ``(..., 4)`` stack) once every row is a velocity."""
    if (abs(_product(c, c) + 1.0) > 1e-12 * np.maximum(1.0, np.vecdot(c, c))).any():
        raise GeometryError("velocity is not unit timelike")
    if (_product(c, _FUTURE) >= 0.0).any():
        raise GeometryError("velocity is not future directed")
    return c


def _normalize(c: np.ndarray) -> np.ndarray:
    """Each row of ``c`` over its Lorentz length, once every row is timelike."""
    s = _product(c, c)
    if not ((s < 0.0) & (abs(s) > _REL_TOL * np.vecdot(c, c))).all():  # as causal_class
        raise GeometryError("only a timelike vector defines a velocity")
    return c / np.sqrt(-s)[..., None]


def _velocities(chi, d) -> np.ndarray:
    """An (n, 4) stack of velocities of rapidities ``chi`` along the
    directions ``d``; cosh and sinh stay one ``math`` call per sample,
    because numpy's vector versions round some inputs differently."""
    d = d / np.sqrt(np.vecdot(d, d))[:, None]
    ch = np.array([math.cosh(x) for x in chi])
    sh = np.array([math.sinh(x) for x in chi])
    return _check_velocity(_normalize(np.column_stack([ch, sh[:, None] * d])))


def _split(u: np.ndarray, x: np.ndarray):
    """The time part of ``x`` for ``u`` and its ``u``-simultaneous rest, row by row."""
    t = -_product(u, x)
    return t, x - t[..., None] * u


def normalize_velocity(x: SpacetimeVector) -> Velocity:
    """The absolute velocity along a future-directed timelike vector."""
    return Velocity(_normalize(x._c))


def time_part(u: Velocity, x: SpacetimeVector) -> MeasureScalar:
    """Duration of ``x`` as seen by observer ``u`` (in seconds).

    This is the coefficient of ``u`` in the unique splitting of ``x``
    into a part along ``u`` plus a part simultaneous for ``u``.
    """
    return MeasureScalar(-_product(u._c, x._c), 1)


def space_part(u: Velocity, x: SpacetimeVector) -> SpacetimeVector:
    """The ``u``-simultaneous component of ``x``.

    Satisfies ``time_part(u, x) * u + space_part(u, x) == x`` and is
    orthogonal to ``u`` in the Lorentz product.
    """
    return SpacetimeVector(_split(u._c, x._c)[1])


# ---------------------------------------------------------------------------
# observer time and space
# ---------------------------------------------------------------------------


class _ObserverLabel:
    """An inertial observer plus an anchor event.

    Two labels of the same kind and observer compare equal when the
    ``_gap`` of their anchor difference vanishes to relative 1e-12.
    """

    __slots__ = ("observer", "anchor")

    def __init__(self, observer: Velocity, anchor: SpacetimePoint):
        self.observer = observer
        self.anchor = anchor

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self.observer.approx_eq(other.observer):
            return False
        gap = self._gap(self.anchor - other.anchor)
        return _within(gap, _REL_TOL, self.anchor._c, other.anchor._c)

    __hash__ = None  # tolerance-based equality

    def __repr__(self) -> str:
        return f"{type(self).__name__}(observer={self.observer!r}, anchor={self.anchor!r})"


class Instant(_ObserverLabel):
    """A simultaneity hyperplane of an inertial observer.

    Stored as the observer plus any anchor event on the hyperplane; two
    instants with the same observer compare equal when their anchors are
    simultaneous for that observer.
    """

    __slots__ = ()

    def _gap(self, x: SpacetimeVector) -> float:
        return time_part(self.observer, x).value

    def contains(self, p: SpacetimePoint, rel: float = 1e-9) -> bool:
        return _within(self._gap(p - self.anchor), rel, p._c, self.anchor._c)


class SpacePoint(_ObserverLabel):
    """A point of an inertial observer's space: a straight world line.

    Two space points of the same observer compare equal when their
    anchors differ by a multiple of the observer velocity.
    """

    __slots__ = ()

    def _gap(self, x: SpacetimeVector) -> np.ndarray:
        return space_part(self.observer, x)._c


def instant_subtract(t1: Instant, t2: Instant) -> MeasureScalar:
    """Time interval between two instants of the same observer.

    Independent of the anchors chosen within each hyperplane.
    """
    if not t1.observer.approx_eq(t2.observer):
        raise GeometryError("instants of different observers have no interval")
    return time_part(t1.observer, t1.anchor - t2.anchor)


def space_subtract(q1: SpacePoint, q2: SpacePoint) -> SpacetimeVector:
    """Displacement between two space points of the same observer.

    The result is simultaneous for the observer and independent of the
    anchor events chosen on each world line.
    """
    if not q1.observer.approx_eq(q2.observer):
        raise GeometryError("space points of different observers have no difference")
    return space_part(q1.observer, q1.anchor - q2.anchor)


def _complete_frame(u: np.ndarray, basis: list[np.ndarray]) -> list[np.ndarray]:
    """Extend an orthonormal ``u``-simultaneous ``basis`` to three vectors,
    row by row for ``(..., 4)`` stacks.

    Gram-Schmidt over the projections of the fiducial spatial axes, in
    fixed order; each row skips an axis whose remainder (nearly) vanishes.
    """
    u, *basis = np.broadcast_arrays(u, *basis)
    frame = np.stack(basis + [np.zeros(u.shape)] * (3 - len(basis)), axis=-2)
    filled = np.full(u.shape[:-1], len(basis))
    for cand in _AXES:
        if (filled == 3).all():
            break
        v = cand + _product(u, cand)[..., None] * u  # project off u
        for k in range(2):  # a row with three vectors takes no more
            if not (filled > k).any():
                break
            b = frame[..., k, :]
            v = np.where((filled > k)[..., None], v - _product(b, v)[..., None] * b, v)
        n = _product(v, v)
        take = (filled < 3) & (n > 1e-12)
        unit = v / np.sqrt(np.where(take, n, 1.0))[..., None]
        slot = take[..., None] & (filled[..., None] == np.arange(3))
        frame = np.where(slot[..., None], unit[..., None, :], frame)
        filled = filled + take
    if (filled < 3).any():
        raise GeometryError("degenerate spatial projection")
    return [frame[..., k, :] for k in range(3)]


def spatial_basis_for(
    u: Velocity,
) -> tuple[SpacetimeVector, SpacetimeVector, SpacetimeVector]:
    """Deterministic orthonormal basis of the space simultaneous for ``u``.

    Gram-Schmidt over the projections of the fiducial spatial axes, in
    fixed order, so lattice constructions downstream are reproducible.
    For the fiducial rest observer this returns the fiducial spatial axes
    exactly.
    """
    return tuple(SpacetimeVector(b) for b in _complete_frame(u._c, []))

"""Lorentz and Poincare transformations and observer-tied subgroups.

Linear maps act on spacetime vectors, affine maps on spacetime points.
Constructors produce rotations about an observer-simultaneous axis,
canonical velocity-to-velocity boosts, and the per-observer time
inversion.  Membership predicates realize the observer-dependent
subgroups: maps fixing a velocity, maps stabilizing an instant.

Regions are plain lists of axis-aligned boxes, read as their union, in
an orthonormal basis of an instant's direction space: exactly
representable, closed under the transformations the verification suites
need, and sufficient to exercise localization.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    GeometryError,
    Instant,
    SpacetimePoint,
    SpacetimeVector,
    Velocity,
    spatial_basis_for,
)
from .geometry import _METRIC, _complete_frame, _product  # shared internal frame

__all__ = [
    "LorentzMap",
    "PoincareMap",
    "Region",
    "make_rotation",
    "make_boost",
    "time_inversion",
    "frame_map",
    "lattice_point_group",
    "is_lorentz",
    "is_orthochronous",
    "is_proper",
    "in_O_u",
    "stabilizes_instant",
    "grow_region_causally",
]

_MEMBER_TOL = 1e-9

_GRAM = np.diag(_METRIC)  # the Gram matrix that every Lorentz map preserves
_GRAM.flags.writeable = False
_CORNER_BITS = (np.arange(8)[:, None] >> np.arange(3)) & 1 == 1  # box corner k: hi on k's set bits


def _lorentz_rows(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of a ``(..., 4, 4)`` stack preserves the product to 1e-9."""
    gram = np.swapaxes(m, -1, -2) @ _GRAM @ m
    # float_power squares with the C pow as Python's ``**`` does
    scale = np.maximum(1.0, np.float_power(np.abs(m).max(axis=(-2, -1)), 2))
    return np.abs(gram - _GRAM).max(axis=(-2, -1)) <= _MEMBER_TOL * scale


def _checked(m: np.ndarray) -> np.ndarray:
    """``m`` once every matrix of the stack preserves the product."""
    if not _lorentz_rows(m).all():
        raise GeometryError("matrix does not preserve the Lorentz product")
    return m


class LorentzMap:
    """A linear map preserving the Lorentz product.

    Wraps a 4x4 matrix in the hidden fiducial frame; construction checks
    product preservation to relative 1e-9 unless ``check=False``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray, check: bool = True):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise GeometryError("a Lorentz map needs a 4x4 matrix")
        if check:
            _checked(m)
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m

    @staticmethod
    def identity() -> "LorentzMap":
        return LorentzMap(np.eye(4), check=False)

    def __call__(self, x: SpacetimeVector) -> SpacetimeVector:
        return SpacetimeVector(self.matrix @ x._c)

    def transform_velocity(self, u: Velocity) -> Velocity:
        """Push a velocity forward; requires an orthochronous map."""
        c = self.matrix @ u._c
        if c[0] <= 0.0:
            raise GeometryError(
                "map reverses the time arrow; no image velocity exists"
            )
        return Velocity(c)

    def compose(self, other: "LorentzMap") -> "LorentzMap":
        return LorentzMap(self.matrix @ other.matrix, check=False)

    def inverse(self) -> "LorentzMap":
        # metric-transpose inverse is exact for product-preserving maps,
        # but the numeric inverse tracks accumulated rounding better
        return LorentzMap(np.linalg.inv(self.matrix), check=False)

    def approx_eq(self, other: "LorentzMap", tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.matrix - other.matrix)) <= tol)

    def __repr__(self) -> str:
        return f"LorentzMap({self.matrix!r})"


def is_lorentz(candidate) -> bool:
    """Whether a map (or raw matrix) preserves the product to 1e-9."""
    m = candidate.matrix if isinstance(candidate, LorentzMap) else np.asarray(candidate, float)
    return bool(_lorentz_rows(m))


def is_orthochronous(L: LorentzMap) -> bool:
    """Whether the map preserves the arrow orientation."""
    return bool(L.matrix[0, 0] > 0.0)


def is_proper(L: LorentzMap) -> bool:
    """Whether the map preserves the orientation of spacetime."""
    return bool(np.linalg.det(L.matrix) > 0.0)


def in_O_u(L: LorentzMap, u: Velocity) -> bool:
    """Whether the map fixes the observer velocity ``u``."""
    image = L.matrix @ u._c
    return bool(np.max(np.abs(image - u._c)) <= _MEMBER_TOL)


def _outer_dual(out_vec: np.ndarray, in_vec: np.ndarray) -> np.ndarray:
    # rank-one map x -> (in_vec . x) out_vec, with the metric pairing, row by row
    return out_vec[..., :, None] * (_METRIC * in_vec)[..., None, :]


def frame_map(
    u: Velocity,
    basis: Sequence[SpacetimeVector],
    spatial_matrix: np.ndarray,
) -> LorentzMap:
    """The map fixing ``u`` that acts by an orthogonal 3x3 matrix on a basis.

    ``basis`` must be an orthonormal basis of the ``u``-simultaneous
    space; ``spatial_matrix`` is applied to coordinates in that basis.
    """
    s = np.asarray(spatial_matrix, dtype=float)
    if s.shape != (3, 3):
        raise GeometryError("spatial matrix must be 3x3")
    m = _outer_dual(u._c, -u._c)
    cols = [b._c for b in basis]
    for j in range(3):
        image = sum(s[i, j] * cols[i] for i in range(3))
        m = m + _outer_dual(image, cols[j])
    return LorentzMap(m)


def _rotations(u: np.ndarray, axis: np.ndarray, angle) -> np.ndarray:
    """The matrices of :func:`make_rotation`, row by row over ``(..., 4)``
    stacks of observers and axes and ``(...)`` angles."""
    n2 = _product(axis, axis)
    if (n2 <= 0.0).any():
        raise GeometryError("rotation axis must be a nonzero spacelike vector")
    if (abs(_product(u, axis)) > 1e-10 * np.maximum(1.0, np.sqrt(n2))).any():
        raise GeometryError("rotation axis must be simultaneous for the observer")
    u = np.broadcast_to(u, axis.shape)
    # complete (u, n) to an orthonormal frame, deterministically
    n, a, b = _complete_frame(u, [axis / np.sqrt(n2)[..., None]])
    # right-handed orientation of (a, b, n) with u first
    flip = (np.linalg.det(np.stack([u, a, b, n], axis=-1)) < 0.0)[..., None]
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    # one math call per angle: numpy's cos and sin round some angles differently
    c, s = (np.vectorize(f, otypes=[float])(angle)[..., None] for f in (math.cos, math.sin))
    m = (
        _outer_dual(u, -u)
        + _outer_dual(n, n)
        + _outer_dual(c * a + s * b, a)
        + _outer_dual(-s * a + c * b, b)
    )
    return _checked(m)


def make_rotation(u: Velocity, axis: SpacetimeVector, angle: float) -> LorentzMap:
    """Rotation by ``angle`` about ``axis`` inside the space of observer ``u``.

    ``axis`` must be a nonzero vector simultaneous for ``u`` (orthogonal
    to it within 1e-10).  The result fixes ``u`` and restricts to the
    familiar right-handed rotation on the observer's space.
    """
    return LorentzMap(_rotations(u._c, axis._c, angle), check=False)


def _boosts(u: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The matrices of :func:`make_boost`, row by row over ``(..., 4)`` stacks."""
    one_g = (1.0 - _product(u, u2))[..., None, None]  # 1 + g, with g = -u.u2
    w = u + u2
    return _checked(np.eye(4) - 2.0 * _outer_dual(u2, u) + _outer_dual(w, w) / one_g)


def make_boost(u: Velocity, u2: Velocity) -> LorentzMap:
    """The canonical boost carrying observer ``u`` to observer ``u2``.

    Orthochronous, proper, and the identity on directions simultaneous
    for both observers.  Built from the double-reflection formula

        x -> x - 2 (x.u) u2 + (x.(u + u2)) (u + u2) / (1 + g),

    with g = -u.u2 >= 1, which never degenerates on future-directed unit
    velocities.
    """
    return LorentzMap(_boosts(u._c, u2._c), check=False)


def time_inversion(u: Velocity) -> LorentzMap:
    """Reverse the observer's time while fixing the observer's space."""
    return LorentzMap(np.eye(4) + 2.0 * _outer_dual(u._c, u._c), check=False)


def _signed_perm(perm, signs) -> np.ndarray:
    m = np.zeros((3, 3))
    for i, (p, s) in enumerate(zip(perm, signs)):
        m[p, i] = s
    return m


def lattice_point_group(
    u: Velocity, basis: Sequence[SpacetimeVector] | None = None
) -> list[LorentzMap]:
    """The 48 maps fixing ``u`` that permute the axes of a cubic lattice.

    These are the signed permutations of an orthonormal basis of the
    observer's space: all axis-aligned right-angle rotations and
    reflections.
    """
    if basis is None:
        basis = spatial_basis_for(u)
    return [
        frame_map(u, basis, _signed_perm(perm, signs))
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1.0, -1.0), repeat=3)
    ]


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------


class PoincareMap:
    """An affine map of spacetime points over a Lorentz map.

    Acts as ``x -> o_f + linear(x - o_f) + translation`` with ``o_f`` the
    fiducial origin, so differences of images equal the linear image of
    differences exactly.
    """

    __slots__ = ("linear", "translation")

    def __init__(self, linear: LorentzMap, translation: SpacetimeVector):
        self.linear = linear
        self.translation = translation

    @staticmethod
    def identity() -> "PoincareMap":
        return PoincareMap(LorentzMap.identity(), SpacetimeVector((0, 0, 0, 0)))

    @staticmethod
    def from_translation(v: SpacetimeVector) -> "PoincareMap":
        return PoincareMap(LorentzMap.identity(), v)

    @staticmethod
    def from_homogeneous(L: LorentzMap, center: SpacetimePoint) -> "PoincareMap":
        """The affine map with linear part ``L`` fixing ``center``."""
        shift = center._c - L.matrix @ center._c
        return PoincareMap(L, SpacetimeVector(shift))

    def __call__(self, p: SpacetimePoint) -> SpacetimePoint:
        return SpacetimePoint(self.linear.matrix @ p._c + self.translation._c)

    def compose(self, other: "PoincareMap") -> "PoincareMap":
        lin = self.linear.compose(other.linear)
        tr = SpacetimeVector(
            self.linear.matrix @ other.translation._c + self.translation._c
        )
        return PoincareMap(lin, tr)

    def inverse(self) -> "PoincareMap":
        inv = self.linear.inverse()
        return PoincareMap(inv, SpacetimeVector(-(inv.matrix @ self.translation._c)))

    def transform_instant(self, t: Instant) -> Instant:
        """Image hyperplane, labeled by the pushed-forward observer."""
        return Instant(self.linear.transform_velocity(t.observer), self(t.anchor))

    def transform_region(self, region: "Region") -> "Region":
        """Image region, with boxes re-expressed in the pushed-forward basis."""
        new_instant = self.transform_instant(region.instant)
        new_basis = tuple(self.linear(b) for b in region.basis)
        return Region(
            new_instant,
            [(lo.copy(), hi.copy()) for lo, hi in region.boxes],
            basis=new_basis,
            anchor=self(region.anchor),
        )

    def is_orthochronous(self) -> bool:
        return is_orthochronous(self.linear)

    def approx_eq(self, other: "PoincareMap", tol: float = 1e-10) -> bool:
        return self.linear.approx_eq(other.linear, tol) and bool(
            np.max(np.abs(self.translation._c - other.translation._c)) <= tol
        )

    def __repr__(self) -> str:
        return f"PoincareMap(linear={self.linear!r}, translation={self.translation!r})"


def stabilizes_instant(P: PoincareMap, t: Instant) -> bool:
    """Whether the affine map carries the hyperplane ``t`` onto itself.

    Requires the anchor image to stay on the hyperplane and the linear
    part to map the hyperplane's direction space into itself (it then
    sends the observer velocity to plus or minus itself).  Time
    inversions about an event of ``t`` qualify, as they must.
    """
    image_anchor = P(t.anchor)
    if not t.contains(image_anchor, rel=_MEMBER_TOL):
        return False
    lu = P.linear.matrix @ t.observer._c
    keeps = np.max(np.abs(lu - t.observer._c)) <= _MEMBER_TOL
    flips = np.max(np.abs(lu + t.observer._c)) <= _MEMBER_TOL
    return bool(keeps or flips)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


class Region:
    """A finite union of half-open axis-aligned boxes on one instant.

    Boxes are stored as coordinate intervals ``[lo, hi)`` relative to an
    anchor event on the instant, in an orthonormal basis of the
    instant's direction space, kept also as the ``(3, 4)`` stack ``axes``.
    ``boxes`` is the given list with the empty boxes dropped; boxes may
    overlap, and every consumer reads the region as the union (a
    rasterization ORs one mask per box).  A bound that is not finite
    raises ``GeometryError``.
    """

    __slots__ = ("instant", "basis", "axes", "anchor", "boxes")

    def __init__(
        self,
        instant: Instant,
        boxes: Iterable[tuple[np.ndarray, np.ndarray]],
        basis: Sequence[SpacetimeVector] | None = None,
        anchor: SpacetimePoint | None = None,
    ):
        self.instant = instant
        self.basis = spatial_basis_for(instant.observer) if basis is None else tuple(basis)
        if len(self.basis) != 3:
            raise GeometryError("a region basis needs three vectors")
        self.axes = np.stack([b._c for b in self.basis])
        self.axes.flags.writeable = False
        if basis is not None:
            if (abs(_product(self.axes, instant.observer._c)) > 1e-9).any():
                raise GeometryError("region basis must lie in the instant")
            if (abs(_product(self.axes[:, None], self.axes) - np.eye(3)) > 1e-9).any():
                raise GeometryError("region basis must be orthonormal")
        self.anchor = anchor if anchor is not None else instant.anchor
        if not instant.contains(self.anchor):
            raise GeometryError("region anchor must lie on the instant")
        self.boxes = []
        for lo, hi in boxes:
            lo = np.asarray(lo, dtype=float).reshape(3)
            hi = np.asarray(hi, dtype=float).reshape(3)
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise GeometryError("region box bounds must be finite")
            if not np.any(hi <= lo):
                self.boxes.append((lo, hi))

    def _box_corners(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Fiducial components of the eight corners of the box ``[lo, hi)``,
        as an ``(8, 4)`` stack."""
        c = np.where(_CORNER_BITS, hi, lo)
        return self.anchor._c + sum(c[:, i, None] * self.axes[i] for i in range(3))

    def coordinates_of(self, p: SpacetimePoint) -> np.ndarray:
        """Coordinates of an event of the instant in this region's frame."""
        return _product(self.axes, p._c - self.anchor._c)

    def __repr__(self) -> str:
        return f"Region({len(self.boxes)} boxes)"


def grow_region_causally(region: Region, t2: Instant) -> Region:
    """Intersect the causal shadow of a region with a later instant.

    The shadow is the region plus the closed future cone (timelike and
    lightlike directions).  Its slice on ``t2`` is covered exactly per
    axis by boxes spanned over the original box corners: from a corner
    ``p`` the cone meets ``t2`` in the ball of radius ``T_p`` around the
    arrival point of ``p`` along the ``t2`` observer, where ``T_p`` is
    the observer duration from ``p`` to ``t2``; both vary affinely over
    a box, so corner extremes bound the whole box.

    ``t2`` must not precede any part of the region.
    """
    u2, o2 = t2.observer._c, t2.anchor._c
    axes2 = np.stack(_complete_frame(u2, []))  # the basis of spatial_basis_for(t2.observer)
    out_boxes = []
    for lo, hi in region.boxes:
        p = region._box_corners(lo, hi)
        arrival = -_product(u2, o2 - p)
        if (arrival < -1e-12 * np.maximum(1.0, np.abs(p).max(axis=1))).any():
            raise GeometryError("instant is not in the region's future")
        arrival = np.where(0.0 > arrival, 0.0, arrival)[:, None]  # as max(t, 0.0), -0.0 kept
        coords = _product((p + arrival * u2)[:, None] - o2, axes2)
        out_boxes.append(((coords - arrival).min(axis=0), (coords + arrival).max(axis=0)))
    return Region(t2, out_boxes, anchor=t2.anchor)

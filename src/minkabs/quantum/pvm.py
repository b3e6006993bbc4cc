"""Localization projections and the generalized position family.

A localization projection family is labeled by an instant alone: the
instant is a simultaneity hyperplane of one observer, so it fixes the
observer too.  Every region sits on its instant, so the region alone
names its projection.  Every projection is one ``(carry, mask)`` pair: the
canonical map carrying the constructing instant to the region's instant,
and the cell mask of the region carried back.  It is *defined* by
covariance: carry back, keep the amplitudes whose cells lie in the mask
on the position lattice, carry forward.  On the constructing instant the
carry is the identity, which every lattice frame represents exactly, so
there the projection is the cell indicator conjugated by the position
transform.  The verification drivers then test that this definition
coheres with the transform numerics.

Cells are half-open boxes centered on the position lattice points, and
membership is evaluated on the torus (coordinates wrap at the box
length), which keeps lattice symmetries exact at the seam.  Position
multipliers use the same wrapped branch, centered at each operator's
own origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry import (
    GeometryError,
    Instant,
    MeasureScalar,
    SpacetimePoint,
    Velocity,
    spatial_basis_for,
    time_part,
)
from ..geometry import _METRIC, _product
from ..groups import LorentzMap, PoincareMap, Region, make_boost
from .config import ModelConfig
from .state import LatticeState, _act, _represented, _to_momentum, _to_position
from .state import represent_array

__all__ = [
    "NwPosition",
    "NwComponentStats",
    "rasterize",
    "canonical_map",
    "pvm_project",
    "localization_probability",
    "position_multipliers",
    "nw_component_stats",
]

_SNAP = 1e-9  # fraction of a lattice spacing


@dataclass(frozen=True)
class PvmHandle:
    """The instant of one localization projection family, as the benchmark
    tracer's ``_project_raw`` hook reads it."""

    instant: Instant

    def is_constructing(self, cfg: ModelConfig) -> bool:
        return self.instant == cfg.instant


@dataclass(frozen=True)
class NwPosition:
    """Labels of one member of the generalized position family.

    The member is the integral of (identity - origin) against the
    localization projections of its instant; on the lattice this is the
    Newton-Wigner position of the instant's observer.
    """

    instant: Instant
    origin: SpacetimePoint


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------


def rasterize(cfg: ModelConfig, region: Region, inflate: float = 0.0) -> np.ndarray:
    """Boolean cell mask of a region on the constructing position lattice.

    A cell belongs to the mask when its center falls in one of the
    region's boxes, with coordinates compared on the torus and a snap
    tolerance of 1e-9 spacings so exactly aligned boundaries rasterize
    stably.  ``inflate`` grows every box by that amount per side first
    (used for conservative causal covers).  Any box, grown or not, wider
    than the lattice box raises ``GeometryError``.
    """
    if not region.instant == cfg.instant:
        raise GeometryError("region instant differs from the constructing instant")
    boxes = [(lo - inflate, hi + inflate) for lo, hi in region.boxes]
    if any(np.any(hi - lo > cfg.box_length + _SNAP * cfg.spacing.value) for lo, hi in boxes):
        raise GeometryError("region box wider than the lattice box")
    # affine map from lattice coordinates to the region frame
    mat = _product(cfg.axes[:, None], region.axes)
    off = region.coordinates_of(cfg.origin)
    xs = np.ix_(cfg.x1d, cfg.x1d, cfg.x1d)
    L = cfg.box_length
    snap = _SNAP * cfg.spacing.value
    mask = np.zeros((cfg.N,) * 3, dtype=bool)
    for lo, hi in boxes:
        box_mask = None
        for m in range(3):
            # a zero coefficient adds nothing, so an axis-aligned box stays
            # separable and only the final ``&`` spans the whole lattice
            c = off[m]
            for x, coef in zip(xs, mat[:, m]):
                if coef != 0.0:
                    c = c + x * coef
            length = hi[m] - lo[m]
            if length >= L:
                cond = np.ones((cfg.N,) * 3, dtype=bool)
            else:
                cond = np.mod(c - lo[m] + snap, L) < length
            box_mask = cond if box_mask is None else (box_mask & cond)
        mask |= box_mask
    return mask


# ---------------------------------------------------------------------------
# covariance plumbing
# ---------------------------------------------------------------------------


def canonical_map(cfg: ModelConfig, instant: Instant) -> PoincareMap:
    """The canonical affine map from the constructing instant to ``instant``:
    the identity for any instant equal to the constructing one, else the
    canonical velocity-to-velocity transform fixing the lattice origin, then
    a step along the target observer to the target instant."""
    if instant == cfg.instant:
        return PoincareMap.identity()
    observer = instant.observer
    if observer.approx_eq(cfg.observer):
        linear = LorentzMap.identity()
    else:
        linear = make_boost(cfg.observer, observer)
    hom = PoincareMap.from_homogeneous(linear, cfg.origin)
    gap = time_part(observer, instant.anchor - cfg.origin)
    return PoincareMap.from_translation(observer * gap).compose(hom)


def _pullback_region(P: PoincareMap, region: Region) -> Region:
    """Region carried back to the constructing instant by ``P`` inverse."""
    return P.inverse().transform_region(region)


def _box_of(mask: np.ndarray):
    """The kept rows of a box mask, in transform order, or ``None``.

    A box is a boolean ``(N, N, N)`` field that is exactly the outer product
    of its per-axis ``any`` projections.  Each entry is ``(axis, rows)``,
    narrowest axis first: ``rows`` is the ``np.flatnonzero`` index array of
    that axis's projection (it may wrap the torus, and is empty for an empty
    mask), or ``None`` on a full-width axis.
    """
    if mask.dtype != bool or mask.ndim != 3:
        return None
    plane = mask.any(axis=0)  # the contiguous reduction first
    rows = [mask.any(axis=(1, 2)), plane.any(axis=1), plane.any(axis=0)]
    rows = [np.flatnonzero(r) for r in rows]
    if np.count_nonzero(mask) != math.prod(map(len, rows)):
        return None
    # narrowest first; of equal widths the innermost, whose lines are contiguous
    order = sorted(range(3), key=lambda i: (len(rows[i]), -i))
    return [(i, None if len(rows[i]) == mask.shape[i] else rows[i]) for i in order]


def _conjugate_mask(cfg: ModelConfig, states: np.ndarray, chain, mask, work=(None, None)):
    """U M U^-1 on raw amplitudes: M is the position-space multiplier ``mask``
    (any real field broadcasting against the amplitudes), U represents the
    composite of ``chain`` (first element acts first).  Each map is prepared
    when it is reached, so one phase is alive at a time.  ``work`` is two
    complex fields of the states' shape (``None``: new arrays).  The inverse
    steps and the back transform write into the first, dead once the forward
    transform has cut, and the outer steps into the second (``None``: over the
    back transform's output); the result may be either; ``states`` is never written.

    M is one ``_to_position``/``_to_momentum`` pair.  When ``mask`` is a box
    (``_box_of``: a boolean field equal to the outer product of its per-axis
    rows, as a one-box region along the lattice axes rasterizes), the pair
    keeps only the box's rows (FFT pruning: Markel, IEEE Trans. Audio
    Electroacoust. 19 (1971) 305), multiplying nothing: a cut copy after each
    forward line transform and an embed in zeros before each back one, or,
    by a rule on the box alone, partial-DFT matmuls for the outer axis when
    it keeps at most a quarter of its rows.  Every other multiplier (float
    fields, stacks, non-box unions, turned frames) multiplies the whole field."""
    inverse = _represented(cfg, (P.inverse() for P in reversed(chain)))
    arr, _ = _act(cfg, states, inverse, out=work[0])
    box = _box_of(mask)
    arr = _to_position(arr, box)
    if box is None:
        arr = arr * mask
    arr = _to_momentum(arr, box, cfg.N, out=work[0])
    return _act(cfg, arr, _represented(cfg, chain), out=arr if work[1] is None else work[1])[0]


def _projection(region: Region, cfg: ModelConfig):
    """The localization projection of ``region`` as ``(carry, mask)``, which
    ``_conjugate_mask`` applies with the chain ``[carry]``: ``carry`` is the
    ``canonical_map`` to the region's instant (the identity on the
    constructing one) and ``mask`` rasterizes the region carried back."""
    carry = canonical_map(cfg, region.instant)
    return carry, rasterize(cfg, _pullback_region(carry, region))


def _project_raw(
    handle: PvmHandle, region: Region, psi: np.ndarray, cfg: ModelConfig
) -> np.ndarray:
    carry, mask = _projection(region, cfg)
    return _conjugate_mask(cfg, psi, [carry], mask)


def pvm_project(region: Region, state: LatticeState) -> LatticeState:
    """Apply the localization projection of ``region`` (unnormalized).

    The region's instant labels the family.  On the constructing
    instant this is the exact cell indicator conjugated by the position
    transform: idempotent, self-adjoint and additive over disjoint
    regions.  On other instants it is the covariance-pulled version,
    exact for lattice-symmetric label changes and convergent for
    velocity changes.
    """
    # PvmHandle is built only for the benchmark tracer's _project_raw hook
    psi = _project_raw(PvmHandle(region.instant), region, state.psi, state.cfg)
    return LatticeState(state.cfg, psi)


def localization_probability(region: Region, state: LatticeState) -> float:
    """Squared norm of the projected state; in [0, 1] for unit states
    and monotone in the region."""
    raw = pvm_project(region, state).psi
    # a ufunc reduction: BLAS's vdot rounds by its thread count from N=32
    return float(np.add.reduce((raw.real**2 + raw.imag**2).ravel()))


# ---------------------------------------------------------------------------
# position family
# ---------------------------------------------------------------------------


def position_multipliers(cfg: ModelConfig, origin: SpacetimePoint) -> np.ndarray:
    """Fiducial components of (cell center - origin) over the lattice.

    Shape (4, N, N, N).  Each coordinate wraps to the centered
    fundamental domain of the torus, and the row exactly opposite the
    origin is assigned coordinate zero: that is the unique branch choice
    that is odd on the torus, so axis symmetries and lattice shifts
    about the origin conjugate these multipliers exactly.
    """
    disp = cfg.origin - origin
    base = _product(cfg.axes, disp._c)
    L = cfg.box_length
    seam = _SNAP * cfg.spacing.value
    wrapped = []
    for m in range(3):
        w = np.mod(base[m] + cfg.x1d + 0.5 * L, L) - 0.5 * L
        w[np.abs(w + 0.5 * L) <= seam] = 0.0
        wrapped.append(w)
    tau0 = time_part(cfg.observer, disp).value
    u = cfg.observer._c
    out = np.empty((4, cfg.N, cfg.N, cfg.N))
    for mu in range(4):
        out[mu] = (
            tau0 * u[mu]
            + wrapped[0][:, None, None] * cfg.axes[0, mu]
            + wrapped[1][None, :, None] * cfg.axes[1, mu]
            + wrapped[2][None, None, :] * cfg.axes[2, mu]
        )
    return out


@dataclass(frozen=True)
class NwComponentStats:
    """Mean and variance of the split components of the position family."""

    time_mean: MeasureScalar
    time_variance: MeasureScalar
    space_means: tuple[MeasureScalar, MeasureScalar, MeasureScalar]
    space_variances: tuple[MeasureScalar, MeasureScalar, MeasureScalar]


def _stats_weights(w: NwPosition, state: LatticeState):
    cfg = state.cfg
    carry = canonical_map(cfg, w.instant)
    back, _ = represent_array(cfg, state.psi, carry.inverse())
    prob = LatticeState(cfg, back).position_probability()
    mult = position_multipliers(cfg, carry.inverse()(w.origin))
    return prob, mult, carry.linear


def nw_component_stats(
    w: NwPosition, u2: Velocity, state: LatticeState
) -> NwComponentStats:
    """Statistics of the duration and space components relative to ``u2``.

    When ``u2`` is the family observer every cell shares the instant's
    duration coordinate, so the duration variance vanishes (exactly on the
    fiducial lattice frame, to a few ulps on a lattice on a moving instant);
    for other observers it is generally positive.  Space components are
    taken in the deterministic basis attached to ``u2``, carried back to
    the constructing frame by the family's canonical map.
    """
    prob, mult, push = _stats_weights(w, state)
    u2 = push.inverse().transform_velocity(u2)
    gu2 = _METRIC * u2._c
    fields = [-np.tensordot(gu2, mult, axes=(0, 0))]
    for bvec in spatial_basis_for(u2):
        gb = _METRIC * bvec._c
        # basis vectors are u2-orthogonal, so this is the simultaneous part
        fields.append(np.tensordot(gb, mult, axes=(0, 0)))
    means, variances = [], []
    for f in fields:
        m = float(np.sum(f * prob))
        v = float(np.sum((f - m) ** 2 * prob))
        means.append(m)
        variances.append(v)
    return NwComponentStats(
        time_mean=MeasureScalar(means[0], 1),
        time_variance=MeasureScalar(variances[0], 2),
        space_means=tuple(MeasureScalar(m, 1) for m in means[1:]),
        space_variances=tuple(MeasureScalar(v, 2) for v in variances[1:]),
    )

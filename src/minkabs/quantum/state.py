"""States on the momentum lattice and the unitary spacetime actions.

Amplitudes live on the periodic momentum lattice of a
:class:`~minkabs.quantum.config.ModelConfig`; their unitary discrete
Fourier transform (``_to_position``/``_to_momentum``: per-axis
``numpy.fft`` line transforms, pruned to a box of kept rows when given
one, but partial-DFT matmuls for the full-size pair of a box's outer axis
cut to at most a quarter of its rows) gives amplitudes on the dual position
lattice of the constructing instant (kernel ``exp(+i k.x)``, so a packet
built with mean momentum ``k`` drifts along ``+k`` under time evolution).

Two public entry points act on states: ``represent`` applies the
covariance representation of an affine map, and ``apply_boost`` a
homogeneous map at the lattice origin.  Three flavors of action sit
underneath:

* translations act by momentum-space phases
  ``exp(-i omega(k) dt) exp(-i k . dx)`` and are exactly unitary; lattice
  steps become exact cyclic shifts of the position amplitudes.  The
  spatial factor is the outer product of three 1-D exponentials, and the
  time factor is taken on the labels 0..N/2 and mirrored, since omega is
  even in each label.  There is one convention: ``represent`` takes the
  phase of the time-inverted shift (see ``represent_array``);
* maps fixing the constructing observer whose spatial restriction is a
  signed permutation of the lattice axes act by exact index
  permutations;
* remaining orthochronous maps (velocity changes) act by pulling the
  amplitudes back along the mass shell with the on-shell measure weight
  ``sqrt(omega(source)/omega(target))``, evaluating the trigonometric
  interpolant of the amplitudes at the pulled-back labels.  When two of
  the three labels stay on their lattice points (a velocity change
  along a lattice axis) the interpolant is summed exactly: a 1-D
  transform along the moving axis, then the sum over its positions.  The
  moving label depends on the fixed ones only through the sum of their
  squares, so the transverse columns with the same unordered pair of
  absolute labels share their nodes ``z``, and the sum is one matrix
  product per class with the Vandermonde matrix of the signed powers
  ``z**m``, ``|m| <= N/2`` (the negative ones conjugates), batched over
  blocks of classes and over states.  Every other direction uses quintic
  spline interpolation on a twice-oversampled grid, a pruned embed in
  zeros (``scipy.ndimage``, imported on the first such boost).  Neither
  path is exactly unitary; the norm drift is reported and the result
  rescaled to the input norm.  The state-independent part of each velocity
  change (labels, real weight, nodes) is cached per lattice and map, built
  from its value key.

Every represented map, and every projection that ``pvm`` defines by
covariance as ``U M U^-1``, is applied through one loop, ``_act``, over
the steps one generator, ``_represented``, builds from a chain of maps
(homogeneous part and translation phase).

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry import (
    GeometryError,
    MeasureScalar,
    SpacetimePoint,
    SpacetimeVector,
    Velocity,
)
from ..geometry import _METRIC, Instant, _product, _split, fiducial_origin
from ..groups import LorentzMap, PoincareMap, in_O_u, is_orthochronous, make_boost, time_inversion
from .config import ModelConfig

__all__ = [
    "LatticeState",
    "BoostReport",
    "make_gaussian",
    "apply_boost",
    "represent",
    "signed_permutation_of",
    "rapidity_of",
]


class LatticeState:
    """An amplitude field on the momentum lattice.

    Physical states are unit vectors; projections hand back shorter
    ones.  All representation operations preserve the norm.
    """

    __slots__ = ("cfg", "psi")

    def __init__(self, cfg: ModelConfig, psi: np.ndarray):
        arr = np.asarray(psi, dtype=complex)
        if arr.shape != (cfg.N, cfg.N, cfg.N):
            raise GeometryError("amplitude array does not match the lattice")
        if not np.all(np.isfinite(arr)):
            raise GeometryError("amplitudes must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        self.cfg = cfg
        self.psi = arr

    def norm(self) -> float:
        return float(np.linalg.norm(self.psi))

    def normalized(self) -> "LatticeState":
        n = self.norm()
        if n == 0.0:
            raise GeometryError("cannot normalize the zero field")
        return LatticeState(self.cfg, self.psi / n)

    def position_probability(self) -> np.ndarray:
        pos = _to_position(self.psi)
        return pos.real**2 + pos.imag**2

    def __repr__(self) -> str:
        return f"LatticeState(N={self.cfg.N}, norm={self.norm():.6g})"


@dataclass(frozen=True)
class BoostReport:
    """Diagnostics of one velocity-transform application."""

    norm_drift: float  # relative norm change before rescaling


# ---------------------------------------------------------------------------
# transforms on raw arrays (leading batch axes allowed)
# ---------------------------------------------------------------------------


# numpy.fft is slow on short strided lines, so each cut or embed copy below
# is made through a view with the axis of the next line transform last: the
# copy's lines along it are contiguous, and it is handed on as a view in
# lattice order.  The layout moves no value, since each line is transformed
# alone.
def _lines_last(arr: np.ndarray, line: int, axis: int) -> tuple[np.ndarray, int]:
    """``arr`` viewed with lattice axis ``line`` moved last, and the position
    of lattice axis ``axis`` in that view."""
    order = [a for a in range(3) if a != line] + [line]
    return np.moveaxis(arr, line - 3, -1), arr.ndim - 3 + order.index(axis)


_WHOLE = ((0, None), (1, None), (2, None))  # every row, lattice axes in order


@functools.lru_cache(maxsize=32)
def _dft_rows(n: int, rows: bytes, sign: int) -> np.ndarray:
    """Rows ``rows`` (``intp`` bytes) of the unitary DFT ``exp(sign 2 pi i r j / n)``, read
    from one table of roots of unity at ``(j r) mod n``: a row's bits ignore the row set."""
    roots = np.exp(sign * 2j * np.pi * np.arange(n) / n) / math.sqrt(n)
    mat = roots[np.outer(np.frombuffer(rows, np.intp), np.arange(n)) % n]
    mat.flags.writeable = False
    return mat


def _outer_dft(arr: np.ndarray, axis: int, rows, n: int, sign: int, out=None) -> np.ndarray:
    """``rows`` of the ``+1`` transform along lattice ``axis``, or the ``-1``
    one from ``rows`` to all ``n`` into ``out``: FFT output or input pruning
    (Sorensen & Burrus, IEEE Trans. Signal Process. 41 (1993) 1184) as a gemm
    per lattice plane through ``axis`` and the last axis, too small to thread."""
    mat = _dft_rows(n, np.asarray(rows, np.intp).tobytes(), sign)
    mat = mat if sign > 0 else mat.T  # (rows out, rows in)
    if axis == 2:
        return np.matmul(arr, mat.T, out=out)
    planes = None if out is None else np.moveaxis(out, axis - 3, -2)
    return np.moveaxis(np.matmul(mat, np.moveaxis(arr, axis - 3, -2), out=planes), -2, axis - 3)


# One line transform per axis into one buffer: ``numpy.fft.ifftn`` would allocate
# a new array per axis; ``_to_momentum`` transforms in place, ``_to_position`` from
# its second axis on, so it never writes its input.  A ``box`` (see ``pvm._box_of``)
# lists ``(axis, rows)`` per lattice axis, ``rows=None`` keeping every row.
def _to_position(arr: np.ndarray, box=None) -> np.ndarray:
    """Position amplitudes, cut to the cells of ``box``: one line transform
    per axis in the box's order, each output cut to the box's rows before
    the next (pruned output).  The first is ``_outer_dft`` when it keeps at
    most a quarter of the rows (a rule on the box alone)."""
    box = _WHOLE if box is None else box
    lead = arr.ndim - 3
    for k, (axis, rows) in enumerate(box):
        if k == 0 and rows is not None and 4 * len(rows) <= arr.shape[lead + axis]:
            arr = _outer_dft(arr, axis, rows, arr.shape[lead + axis], 1)
            rows = np.arange(len(rows))  # kept already: the cut below lays out
        else:
            arr = np.fft.ifft(arr, axis=lead + axis, norm="ortho", out=arr if k else None)
        if rows is not None:
            line = box[k + 1][0] if k + 1 < len(box) else axis
            view, at = _lines_last(arr, line, axis)
            arr = np.moveaxis(view[(slice(None),) * at + (rows,)], -1, line - 3)
    return arr


def _to_momentum(arr: np.ndarray, box=None, n=None, out=None):
    """Momentum amplitudes of the zero extension of the cells of ``box`` to
    the ``n``-point lattice: per axis in reverse box order, embed the rows
    in zeros and line-transform (pruned input); the last is ``_outer_dft``
    into ``out`` (a new field if ``None``) by ``_to_position``'s rule, or its
    embed is laid out in lattice order, so the result is C-contiguous
    whenever it cuts.  Other paths ignore ``out``: use the return value, as
    the complex input ``arr`` is consumed (line-transformed in place)."""
    box = _WHOLE if box is None else box[::-1]
    lead = arr.ndim - 3
    for k, (axis, rows) in enumerate(box):
        if k + 1 == len(box) and rows is not None and 4 * len(rows) <= n:
            shape = arr.shape[: lead + axis] + (n,) + arr.shape[lead + axis + 1 :]
            out = np.empty(shape, complex) if out is None else out
            return _outer_dft(arr, axis, rows, n, -1, out=out)
        if rows is not None:
            line = axis if k + 1 < len(box) else 2
            view, at = _lines_last(arr, line, axis)
            # an index assignment from a strided view is several times slower than from a copy
            view = view if view.strides[-1] == view.itemsize else np.ascontiguousarray(view)
            full = np.zeros(view.shape[:at] + (n,) + view.shape[at + 1 :], complex)
            full[(slice(None),) * at + (rows,)] = view
            arr = np.moveaxis(full, -1, line - 3)
        arr = np.fft.fft(arr, axis=lead + axis, norm="ortho", out=arr)
    return arr


def _row_norms(flat: np.ndarray) -> np.ndarray:
    """Row 2-norms, ``c_einsum`` on the float view: no ``conj`` copy, no BLAS call."""
    v = np.ascontiguousarray(flat).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _translation_phase(cfg: ModelConfig, v: SpacetimeVector) -> np.ndarray:
    dt, spatial = _split(cfg.observer._c, v._c)
    d = _product(cfg.axes, spatial)
    # exp(-1j omega dt) exp(-1j k.d) with no N^3 transcendental, built one
    # first-axis plane at a time.  omega is even in each signed label, bit
    # for bit, so the time factor is taken on the labels 0..N/2 and copied to
    # the mirrored ones (label -n at index N - n, as in _apply_perm).  The
    # spatial factor is the outer product of three 1-D exp(-1j k d_a), built
    # row by row: a broadcast complex product takes a ufunc buffer of up to
    # 8192 values, so every product here is of one shape or by a scalar
    h = cfg.N // 2 + 1
    timed, moved = dt != 0.0, bool(np.any(d != 0.0))
    phase = np.empty(cfg.omega.shape, complex)
    if timed or not moved:
        for plane, w in zip(phase, cfg.omega[:h, :h, :h]):
            t = np.exp(-1j * (w * dt))
            plane[:h, :h] = t
            plane[:h, h:] = t[:, h - 2 : 0 : -1]
            plane[h:] = plane[h - 2 : 0 : -1]
        phase[h:] = phase[h - 2 : 0 : -1]
    if moved:
        x1, x2, x3 = (np.exp(-1j * (cfg.k1d * x)) for x in d)
        x23 = np.empty(cfg.omega.shape[1:], complex)
        for row, x in zip(x23, x2):
            np.multiply(x3, x, out=row)
        for plane, x in zip(phase, x1):
            if timed:
                plane *= x23
                plane *= x
            else:
                np.multiply(x23, x, out=plane)
    phase.flags.writeable = False
    return phase


def signed_permutation_of(cfg: ModelConfig, L: LorentzMap) -> np.ndarray | None:
    """The integer signed-permutation matrix of ``L`` on the lattice axes.

    ``None`` when ``L`` does not fix the constructing observer or does
    not permute the axes (within 1e-10).
    """
    if not in_O_u(L, cfg.observer):
        return None
    images = np.stack([L.matrix @ b for b in cfg.axes])
    r = _product(cfg.axes[:, None], images)  # r[i, j] = b_i . L(b_j)
    rounded = np.round(r)
    if np.max(np.abs(r - rounded)) > 1e-10:
        return None
    rounded = rounded.astype(int)
    if not (
        np.all(np.abs(rounded).sum(axis=0) == 1)
        and np.all(np.abs(rounded).sum(axis=1) == 1)
    ):
        return None
    return rounded


def _apply_perm(arr: np.ndarray, r3: np.ndarray, out=None) -> np.ndarray:
    """``out[k] = arr[r3.T k]`` on signed labels (batch axes allowed), as one
    strided copy of the transposed last three axes into ``out`` (a new array
    if ``None``, never ``arr``): a flipped axis reads index ``-k mod N``,
    index 0 in place and indices 1..N-1 reversed."""
    lead = arr.ndim - 3
    src = np.abs(r3).argmax(axis=1)  # out axis i reads arr axis src[i]
    view = arr.transpose(*range(lead), *(lead + src))
    if out is None:
        out = np.empty(view.shape, arr.dtype)  # empty_like would keep the transposed layout
    same = [(slice(None), slice(None))]  # (out, view) slice pairs along one axis
    flipped = [(slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1))]
    for cut in itertools.product(*(flipped if r3[i, j] < 0 else same for i, j in enumerate(src))):
        out[(..., *(o for o, _ in cut))] = view[(..., *(v for _, v in cut))]
    return out


def rapidity_of(cfg: ModelConfig, L: LorentzMap) -> float:
    """Rapidity between the constructing observer and its image."""
    u = cfg.observer._c
    g = -float(np.dot((L.matrix @ u) * _METRIC, u))
    return math.acosh(max(g, 1.0))


_LABEL_TOL = 1e-12  # lattice steps within which a pulled-back label stays fixed
_PAD = 2  # oversampling of the spline grid
# classes per Vandermonde block: N * 32 * N complex powers, 2 MiB at N=64,
# so a block stays in the L2 cache between its build and its products
_CLASS_CHUNK = 32


@dataclass(frozen=True)
class _PullbackPlan:
    """The state-independent part of one velocity change on one lattice.

    ``axis`` is the one lattice axis whose pulled-back labels leave the
    lattice (exact path), or ``None`` (spline path).  On the spline path
    ``nodes`` holds the coordinates on the ``_PAD``-refined grid.  On the
    exact path a transverse column (the flat index of the two fixed
    labels) is pulled back at nodes ``z = exp(-i q a)`` that depend only
    on the column's class, the unordered pair of its absolute labels:
    ``order`` lists the columns by class size, then by class, with the
    members of a class adjacent; ``inverse`` undoes it; ``sizes`` gives
    (class size, number of classes) in that order; and ``nodes`` holds one
    row of ``z`` per class, shape (classes, N).  ``weight`` is the real
    on-shell weight ``sqrt(omega(q) / omega)`` on both paths, divided on the
    exact path by the interpolant's ``sqrt(N)``.
    """

    axis: int | None
    nodes: np.ndarray
    weight: np.ndarray
    order: np.ndarray | None = None
    inverse: np.ndarray | None = None
    sizes: tuple[tuple[int, int], ...] = ()


def _free_axes(cfg: ModelConfig, q: np.ndarray) -> list[int]:
    """The lattice axes along which some label of ``q`` leaves its lattice point."""
    own = np.ix_(cfg.signed_index, cfg.signed_index, cfg.signed_index)
    return [i for i in range(3) if np.max(np.abs(q[..., i] / cfg.dk - own[i])) > _LABEL_TOL]


def _pulled_labels(cfg: ModelConfig, li: np.ndarray, weight=None) -> np.ndarray:
    """Labels of the image under the matrix ``li`` of each on-shell four-momentum,
    and into the float field ``weight``, when given, the on-shell measure weight
    ``sqrt(omega(labels) / omega)``.  Built one first-axis plane at a time, with
    each plane's energies, so neither ``cfg.omega`` nor an N^3 four-momentum
    field is made; every matmul is still one (N, 4) matrix per row of labels."""
    u, m2, to_labels = cfg.observer._c, cfg.mass.value**2, (cfg.axes * _METRIC).T
    _, k2, k3 = np.ix_(cfg.k1d, cfg.k1d, cfg.k1d)
    k2, k3 = k2[0], k3[0]
    q = np.empty((cfg.N,) * 3 + (3,))
    for i, (k1, plane) in enumerate(zip(cfg.k1d[:, None, None], q)):
        omega = np.sqrt(m2 + k1**2 + k2**2 + k3**2)
        four = (
            omega[..., None] * u
            - k1[..., None] * cfg.axes[0]
            - k2[..., None] * cfg.axes[1]
            - k3[..., None] * cfg.axes[2]
        )
        np.negative((four @ li.T) @ to_labels, out=plane)
        if weight is not None:
            np.sqrt(np.sqrt(m2 + np.sum(plane * plane, axis=-1)) / omega, out=weight[i])
    return q


def moves_labels(cfg: ModelConfig, u2: Velocity) -> bool:
    """Whether the pullback along the boost from the constructing observer
    to ``u2`` moves some momentum label by more than ``_LABEL_TOL`` steps."""
    return bool(_free_axes(cfg, _pulled_labels(cfg, make_boost(u2, cfg.observer).matrix)))


def _build_plan(cfg: ModelConfig, L: LorentzMap) -> _PullbackPlan:
    # labels of the inverse image of each on-shell four-momentum
    weight = np.empty((cfg.N,) * 3)
    q = _pulled_labels(cfg, L.inverse().matrix, weight)
    free = _free_axes(cfg, q)
    if len(free) != 1:
        dk_fine = cfg.dk / _PAD
        coords = np.moveaxis(np.mod(q / dk_fine, cfg.N * _PAD), -1, 0)
        return _PullbackPlan(None, coords, weight)
    axis = free[0]
    # the two fixed labels stay on the lattice, so L acts on the moving axis
    # and the time axis alone and q_a depends on k_a and k_b^2 + k_c^2 only:
    # columns with the same unordered pair (|n_b|, |n_c|) share their nodes
    n = np.abs(cfg.signed_index)
    nb, nc = n[:, None], n[None, :]
    key = (np.minimum(nb, nc) * cfg.N + np.maximum(nb, nc)).ravel()
    _, cls, size = np.unique(key, return_inverse=True, return_counts=True)
    order = np.lexsort((cls, size[cls]))
    first = order[np.flatnonzero(np.diff(cls[order], prepend=-1))]
    rows = np.moveaxis(q[..., axis], axis, 0).reshape(cfg.N, -1)[:, first] * cfg.spacing.value
    counts = np.unique(size[cls[first]], return_counts=True)
    return _PullbackPlan(
        axis,
        np.ascontiguousarray(np.exp(-1j * rows).T),
        np.divide(weight, math.sqrt(cfg.N), out=weight),  # the interpolant's 1/sqrt(N)
        order,
        np.argsort(order),
        tuple((int(s), int(c)) for s, c in zip(*counts)),
    )


@functools.lru_cache(maxsize=4)  # two maps (a boost and its inverse) at two lattice sizes
def _plan_of(N: int, spacing: float, mass: float, observer: bytes, matrix: bytes) -> _PullbackPlan:
    """The plan of ``matrix`` on a lattice rebuilt from the key alone (any origin will
    do), which never builds its ``omega`` field."""
    instant = Instant(Velocity(np.frombuffer(observer)), fiducial_origin())
    cfg = ModelConfig(N, MeasureScalar(spacing, 1), MeasureScalar(mass, -1), instant)
    return _build_plan(cfg, LorentzMap(np.frombuffer(matrix).reshape(4, 4), check=False))


def _pullback_plan(cfg: ModelConfig, L: LorentzMap) -> _PullbackPlan:
    """The plan of ``L`` on ``cfg``'s lattice, from a small cache keyed by value."""
    key = (cfg.N, cfg.spacing.value, cfg.mass.value, cfg.observer._c.tobytes(), L.matrix.tobytes())
    return _plan_of(*key)


def _class_products(coef: np.ndarray, plan: _PullbackPlan) -> None:
    """Replace the coefficients ``coef`` (states, moving axis, columns in
    class order) by the interpolant at each class's nodes, in place: one
    matmul per block of ``_CLASS_CHUNK`` classes of one size."""
    states, n, _ = coef.shape
    vander = np.empty((n, min(_CLASS_CHUNK, len(plan.nodes)), n), dtype=complex)
    col = cls = 0
    for size, count in plan.sizes:
        for lo in range(cls, cls + count, _CLASS_CHUNK):
            hi = min(lo + _CLASS_CHUNK, cls + count)
            w, z = vander[:, : hi - lo], plan.nodes[lo:hi]
            # row m mod N holds z**m, |m| <= N/2, the negatives as conjugates (|z| = 1)
            w[0] = 1.0
            for m in range(1, n // 2 + 1):
                np.multiply(w[m - 1], z, out=w[m])
            np.conjugate(w[n // 2], out=w[n // 2])
            np.conjugate(w[n // 2 - 1 : 0 : -1], out=w[n // 2 + 1 :])
            block = coef[:, :, col : col + (hi - lo) * size]
            block = block.reshape(states, n, hi - lo, size).transpose(0, 2, 1, 3)
            # in place: numpy buffers an output that overlaps an input
            np.matmul(w.transpose(1, 2, 0), block, out=block)
            col += (hi - lo) * size
        cls += count


def _exact_pullback(arr: np.ndarray, plan: _PullbackPlan) -> np.ndarray:
    """Trigonometric interpolant of each field of the batch ``arr`` at labels
    that leave the lattice along one axis only.

    A 1-D transform along that axis gives the coefficients of each
    transverse column; the columns of one class share their nodes ``z``,
    so a class is one product of the Vandermonde matrix ``z**m`` (signed
    powers, ``z**m`` in row ``m mod N``) with the coefficient block of its
    members in every state.  Returns a view in lattice index order of the
    batch laid out with the moving axis first.
    """
    states, n = len(arr), arr.shape[-1]
    coef = np.empty((states, n, n, n), dtype=complex)
    # the pinned kernel error holds for numpy.fft's rounding (scipy's FFT moves it)
    np.fft.ifft(arr, axis=plan.axis + 1, norm="ortho", out=np.moveaxis(coef, 1, plan.axis + 1))
    coef = np.take(coef.reshape(states, n, n * n), plan.order, axis=2)
    _class_products(coef, plan)
    out = np.take(coef, plan.inverse, axis=2).reshape(states, n, n, n)
    return np.moveaxis(out, 1, plan.axis + 1)


def _spline_pullback(
    cfg: ModelConfig, arr: np.ndarray, plan: _PullbackPlan
) -> np.ndarray:
    """Trigonometric interpolant at general labels: quintic spline on the
    ``_PAD``-refined grid."""
    from scipy import ndimage  # loaded by off-axis velocity changes only

    # the zero extension to the refined lattice, walked back along axes 0, 1, 2
    ix = np.mod(cfg.signed_index, cfg.N * _PAD)
    box = [(axis, ix) for axis in (2, 1, 0)]
    fine = _to_momentum(_to_position(arr), box, cfg.N * _PAD) * _PAD**1.5
    return ndimage.map_coordinates(fine, plan.nodes, order=5, mode="grid-wrap", prefilter=True)


def _boost_array(
    cfg: ModelConfig, arr: np.ndarray, L: LorentzMap
) -> tuple[np.ndarray, float]:
    """Mass-shell pullback of a batch of amplitude fields along ``L``.

    Returns the transformed fields, each rescaled to its input norm (a zero
    field comes back as it is), plus the largest relative norm drift of the
    raw pullbacks.
    """
    plan = _pullback_plan(cfg, L)
    if plan.axis is None:
        raws = (_spline_pullback(cfg, one, plan) for one in arr)
    else:
        raws = _exact_pullback(arr, plan)
    out = np.empty(arr.shape, dtype=complex)
    drift = 0.0
    for one, raw, res in zip(arr, raws, out):
        norm_in = float(np.linalg.norm(one))
        if norm_in == 0.0:
            res[...] = one
            continue
        np.multiply(raw, plan.weight, out=raw)
        norm_out = float(np.linalg.norm(raw))
        if norm_out == 0.0:
            raise GeometryError("velocity transform annihilated the state")
        np.multiply(raw, norm_in / norm_out, out=res)
        drift = max(drift, abs(norm_out / norm_in - 1.0))
    return out, drift


def _apply_linear(
    cfg: ModelConfig, arr: np.ndarray, L: LorentzMap, out=None
) -> tuple[np.ndarray, float]:
    """Apply a homogeneous map at the lattice origin to raw amplitudes.

    Classifies ``L`` as the identity (``arr`` itself comes back), a signed
    permutation of the lattice axes (exact, into ``out`` when given), or an
    orthochronous velocity change under the rapidity cap (pullback of each
    state).  Returns the result and the worst norm drift, 0 on exact paths.
    """
    if np.array_equal(L.matrix, np.eye(4)):
        return arr, 0.0
    r3 = signed_permutation_of(cfg, L)
    if r3 is not None:
        return _apply_perm(arr, r3, out), 0.0
    if not is_orthochronous(L):
        raise GeometryError("only orthochronous maps are represented")
    chi = rapidity_of(cfg, L)
    if chi > cfg.chi_max + 1e-12:
        raise GeometryError(
            f"rapidity {chi:.4f} exceeds the band-limit cap {cfg.chi_max:.4f}"
        )
    out, drift = _boost_array(cfg, arr.reshape(-1, cfg.N, cfg.N, cfg.N), L)
    return out.reshape(arr.shape), drift


def _act(cfg: ModelConfig, arr: np.ndarray, steps, out=None):
    """Apply ``_represented`` steps, first step first, to raw amplitudes (batch
    axes allowed): the result and the worst norm drift of any step.  Phases go in
    place into complex arrays the steps made.  A complex work field ``out`` of the
    result's shape, or ``arr`` itself to give it up, takes a permutation whose input
    is not ``out`` and a phase of the caller's ``arr`` (an identity step hands it
    back); the result may be ``out``.  With ``None``, ``arr`` is never written.  Each
    step is dropped once applied, so a generator keeps one phase alive at a time."""
    keep = arr
    drift = 0.0
    for linear, phase in steps:
        arr, step_drift = _apply_linear(cfg, arr, linear, None if arr is out else out)
        if phase is not None:
            fresh = arr is not keep and arr.dtype == phase.dtype
            arr = np.multiply(arr, phase, out=arr if fresh else out)
        drift = max(drift, step_drift)
        del linear, phase
    return arr, drift


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def check_packet_width(cfg: ModelConfig, width: float) -> None:
    """The width rule of ``make_gaussian``: three spacings to a quarter box."""
    if width < 3.0 * cfg.spacing.value:
        raise GeometryError("width must be at least three lattice spacings")
    if width > 0.25 * cfg.box_length:
        raise GeometryError("packet too wide for the lattice box")


def make_gaussian(
    cfg: ModelConfig,
    center: SpacetimePoint | None = None,
    width: MeasureScalar | None = None,
    mean_momentum: Sequence[float] | Sequence[MeasureScalar] = (0.0, 0.0, 0.0),
) -> LatticeState:
    """A normalized gaussian wave packet on the constructing instant.

    ``center`` must lie on the constructing instant, far enough from the
    lattice boundary; ``width`` is the position standard deviation per
    axis (at least three lattice spacings); ``mean_momentum`` gives
    coordinates in the lattice basis, in inverse seconds, bounded by
    half the momentum cutoff so the packet stays band limited.
    """
    return LatticeState(cfg, _gaussian(cfg, center, width, mean_momentum))


def _gaussian(cfg: ModelConfig, center, width, mean_momentum, out=None) -> np.ndarray:
    """The amplitudes of ``make_gaussian``, checked as there, in the complex field
    ``out`` (a new one if ``None``): the envelope ``exp(-sigma^2 |k - kbar|^2)`` and
    the phase ``exp(-i (k - kbar).c)`` go through one float and one complex
    field in place, with the expressions and their order of the plain form."""
    if center is None:
        center = cfg.origin
    if width is None:
        width = cfg.spacing * 3.0
    if not isinstance(width, MeasureScalar) or width.dim != 1:
        raise GeometryError("width must carry sec^1")
    check_packet_width(cfg, width.value)
    if any(isinstance(m, MeasureScalar) and m.dim != -1 for m in mean_momentum):
        raise GeometryError("mean momentum must carry sec^-1")
    kbar = np.array(
        [m.value if isinstance(m, MeasureScalar) else float(m) for m in mean_momentum]
    )
    if np.linalg.norm(kbar) > 0.5 * cfg.cutoff:
        raise GeometryError("band limit violated: mean momentum beyond half cutoff")
    if not cfg.instant.contains(center):
        raise GeometryError("packet center must lie on the constructing instant")
    c = _product(cfg.axes, center._c - cfg.origin._c)
    half = 0.5 * cfg.box_length
    if np.any(np.abs(c) > half - width.value):
        raise GeometryError("packet center too close to the lattice boundary")

    d1, d2, d3 = (k - m for k, m in zip(np.ix_(cfg.k1d, cfg.k1d, cfg.k1d), kbar))
    real = np.empty((cfg.N,) * 3)
    out = np.empty(real.shape, complex) if out is None else out
    np.add(d1 * c[0] + d2 * c[1], d3 * c[2], out=real)
    np.multiply(-1j, real, out=out)
    np.exp(out, out=out)
    np.add(d1**2 + d2**2, d3**2, out=real)
    np.multiply(-(width.value**2), real, out=real)
    np.exp(real, out=real)
    np.multiply(real, out, out=out)
    out /= np.linalg.norm(out)
    return out


def apply_boost(state: LatticeState, L: LorentzMap, return_report: bool = False):
    """Apply an orthochronous map by mass-shell pullback.

    The rapidity between the constructing observer and its image must
    stay under the configuration's cap so band-limited packets remain in
    band.  Lattice symmetries (signed permutations of the lattice axes,
    see ``signed_permutation_of``) take the exact permutation path.  The
    result keeps the input norm; the measured relative norm drift is
    available through ``return_report=True``.
    """
    psi, drift = _apply_linear(state.cfg, state.psi, L)
    out = LatticeState(state.cfg, psi)
    return (out, BoostReport(drift)) if return_report else out


# ---------------------------------------------------------------------------
# the covariance representation
# ---------------------------------------------------------------------------


def represent_array(cfg: ModelConfig, arr: np.ndarray, P: PoincareMap):
    """The unitary of the covariance representation applied to raw amplitudes.

    The phase convention ``exp(-i(omega dt + k.dx))`` pushes spatial
    localization labels forward but time labels backward under
    conjugation; twisting the argument by the observer's time inversion
    (an automorphism that is the identity on the instant's stabilizer)
    restores the geometric label motion: conjugating a localization
    projection by ``represent(P)`` carries its region by ``P`` for every
    represented map.  In particular ``represent`` of a step to a later
    instant has the forward evolution ``exp(-i omega dt)`` as its
    inverse, so localization probabilities at later instants see the
    spread packet.  With ``T`` the time inversion, ``P`` twists to ``T L T``
    (``L`` itself when exactly ``np.eye(4)``) with the shift ``T(P(o) - o)``
    of the lattice origin ``o``: the identity hands back ``arr`` on every frame.
    """
    return _act(cfg, arr, _represented(cfg, [P]))


def _represented(cfg: ModelConfig, chain):
    """The steps that ``_act`` applies for the representation of each map of
    ``chain``, first map first, each built when it is reached: ``P``, with
    linear part ``L``, conjugated by the constructing observer's time inversion
    ``T`` about the lattice origin ``o``, as its homogeneous part ``T L T`` at
    ``o`` (``L`` itself when exactly ``np.eye(4)``, so exact on every frame)
    and the read-only phase of its shift of ``o``, ``T(P(o) - o)`` since ``T``
    fixes ``o``, or ``None`` for no shift."""
    T = time_inversion(cfg.observer)
    for P in chain:
        L = P.linear
        linear = L if np.array_equal(L.matrix, np.eye(4)) else T.compose(L).compose(T)
        shift = T(P(cfg.origin) - cfg.origin)
        yield linear, _translation_phase(cfg, shift) if np.any(shift._c != 0.0) else None


def represent(state: LatticeState, P: PoincareMap) -> LatticeState:
    """Covariance-representation unitary on states, exact for the identity on
    every lattice frame (see ``represent_array``)."""
    out, _ = represent_array(state.cfg, state.psi, P)
    return LatticeState(state.cfg, out)

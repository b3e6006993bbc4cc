"""Numerical verification drivers for covariance and causality claims.

Each driver measures a residual against a stated tolerance and returns a
plain record.  Exactness split: label changes inside the constructing
instant's stabilizer (lattice translations, axis permutations,
reflections) and steps along the constructing observer run on exact
phase/permutation paths and must sit at rounding level; velocity
changes run on the interpolated path and must shrink under lattice
refinement.

Velocity-change covariance cannot be probed by comparing the canonical
definition against itself, so the driver compares two factorizations of
the same labeled projection, ``shift then transform`` against
``transform then shifted-shift``, which agree exactly in the continuum
and differ on the lattice only by interpolation error.

Drivers that draw states are deterministic given a seed; the causality
experiment and the commutator witness draw nothing.  Trial fan-out may
run on threads (capped by ``worker_cap()``) and results merge in trial
order.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..geometry import GeometryError, Instant, Velocity, seconds
from ..geometry import _METRIC, _velocities
from ..groups import (
    LorentzMap,
    PoincareMap,
    Region,
    grow_region_causally,
    lattice_point_group,
    make_boost,
)
from ..report import CheckResult, Checks
from .config import ModelConfig
from .pvm import (
    NwPosition,
    _conjugate_mask,
    _conjugation,
    _projection,
    _sandwich,
    localization_probability,
    nw_component_stats,
    position_multipliers,
    pvm_project,
    rasterize,
)
from .pvm import canonical_map  # noqa: F401  for the benchmark tracer
from .state import LatticeState, _act, _apply_linear, _gaussian, _represented, _row_norms
from .state import _to_position, make_gaussian, represent_array
from .state import _to_momentum  # noqa: F401  for the benchmark tracer

__all__ = [
    "cell_region",
    "random_states",
    "smooth_states",
    "boosted_velocity",
    "worker_cap",
    "stabilizer_elements",
    "stabilizer_covariance_residual",
    "run_stabilizer_suite",
    "factorization_residual",
    "boost_convergence_rows",
    "position_family_stabilizer_residual",
    "fixed_label_boost_witness",
    "space_component_residual",
    "own_time_variance",
    "time_variance_witness",
    "causal_shadow",
    "localized_state",
    "causality_experiment",
    "causality_leakages",
    "commutator_witness",
    "region_covariance_residual",
    "equivariance_residual",
]

# widths (s) of the standard and the time-variance witness packets; cli checks both fit
STANDARD_PACKET_WIDTH = 0.75
WIDE_PACKET_WIDTH = 1.0
_CAUSAL_CELLS = ((-2, -2, -2), (1, 1, 1))  # the causality trials' source box, inclusive cells
# the commutator witness's boxes a and b, inclusive cells; b sits half a second later
WITNESS_CELLS = (((-5, -2, -2), (-2, 1, 1)), ((2, -2, -2), (5, 1, 1)))


def worker_cap() -> int:
    """Thread cap for trial fan-out: ``MINKABS_THREADS`` when set, else the
    CPUs this process may run on."""
    raw = os.environ.get("MINKABS_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        pass
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _fan_out(job, items) -> list:
    """``[job(x) for x in items]``, on up to ``worker_cap()`` threads, in item order."""
    items = list(items)
    cap = min(worker_cap(), len(items))
    if cap <= 1:
        return [job(x) for x in items]
    with ThreadPoolExecutor(max_workers=cap) as pool:
        return list(pool.map(job, items))


# ---------------------------------------------------------------------------
# state and region factories
# ---------------------------------------------------------------------------


def cell_region(cfg: ModelConfig, lo_cells, hi_cells, instant: Instant | None = None) -> Region:
    """Cell-edge aligned box from inclusive cell index ranges.

    Edges sit between lattice points, so every lattice symmetry carries
    the rasterized cell set exactly onto the rasterization of the
    carried region.
    """
    a = cfg.spacing.value
    lo = (np.asarray(lo_cells, float) - 0.5) * a
    hi = (np.asarray(hi_cells, float) + 0.5) * a
    target = instant if instant is not None else cfg.instant
    return Region(target, [(lo, hi)], anchor=target.anchor)


def random_states(cfg: ModelConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Unit-norm white random momentum amplitudes, stacked (count, N, N, N): the real
    parts, then the imaginary ones, drawn and normalized in place field by field."""
    psi = np.empty((count, cfg.N, cfg.N, cfg.N), dtype=complex)
    for part in (psi.real, psi.imag):
        for field in part:
            field[...] = rng.normal(size=field.shape)
    for row in psi.reshape(count, 1, -1):
        row /= np.linalg.norm(row, axis=1)
    return psi


def smooth_states(cfg: ModelConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Band-limited gaussian-mixture states for interpolated paths.

    Mixture parameters are drawn from the generator, so two lattices at
    different resolution realize the same physical states when fed the
    same seed.  Each state sums its two packets in its own row of the
    result, through one more complex field.
    """
    w_hi = min(1.1, 0.25 * cfg.box_length)
    w_lo = min(0.75, w_hi)
    out = np.empty((count, cfg.N, cfg.N, cfg.N), dtype=complex)
    g = np.empty(out.shape[1:], dtype=complex)
    for acc in out:
        for first in (True, False):
            width = rng.uniform(w_lo, w_hi)
            center_coords = rng.uniform(-0.75, 0.75, 3)
            kbar = rng.uniform(-1.2, 1.2, 3)
            amp = rng.normal() + 1j * rng.normal()
            center = cfg.origin + sum(
                float(c) * b for c, b in zip(center_coords, cfg.basis)
            )
            packet = _gaussian(cfg, center, seconds(width), tuple(kbar), acc if first else g)
            np.multiply(amp, packet, out=packet)
            if not first:
                acc += g
        acc /= np.linalg.norm(acc)
    return out


def boosted_velocity(chi: float, axis=(1.0, 0.0, 0.0)) -> Velocity:
    """The velocity of rapidity ``chi`` along ``axis`` from the fiducial rest
    observer; ``axis`` is read in fiducial components, not in a lattice's
    basis.  From a rapidity of about 14 the normalization rejects the
    velocity as not timelike (``GeometryError``)."""
    return Velocity(_velocities([chi], np.array([axis], float))[0])


# ---------------------------------------------------------------------------
# stabilizer covariance (exact paths)
# ---------------------------------------------------------------------------


def stabilizer_elements(cfg: ModelConfig, rng: np.random.Generator, translations: int = 4):
    """Labeled elements of the instant's stabilizer that preserve the lattice:
    the 48 axis symmetries about the origin plus sampled lattice
    translations and mixed products."""
    group = lattice_point_group(cfg.observer, cfg.basis)
    elements = []
    for i, L in enumerate(group):
        elements.append((f"axis-symmetry-{i:02d}", PoincareMap.from_homogeneous(L, cfg.origin)))
    for j in range(translations):
        shift = cfg.lattice_vector(rng.integers(-cfg.N // 4, cfg.N // 4 + 1, 3))
        t = PoincareMap.from_translation(shift)
        elements.append((f"lattice-shift-{j}", t))
        r = group[int(rng.integers(0, len(group)))]
        elements.append(
            (f"shifted-symmetry-{j}", t.compose(PoincareMap.from_homogeneous(r, cfg.origin)))
        )
    return elements


def _batch_max_norm(diff: np.ndarray) -> float:
    flat = diff.reshape(diff.shape[0], -1) if diff.ndim > 3 else diff.reshape(1, -1)
    return float(np.max(_row_norms(flat)))


def stabilizer_covariance_residual(
    cfg: ModelConfig, conjugation, states: np.ndarray, carried, work=(None, None)
) -> float:
    """Max residual of conjugation-vs-carried-region on the given states: ``conjugation``
    is ``_conjugation(cfg, [S], rasterize(cfg, region))`` of an element ``S``, ``carried``
    the projection of ``S.transform_region(region)`` applied to ``states`` (elements that
    carry the region onto the same cells share it), ``work`` ``_conjugate_mask``'s pair."""
    lhs = _sandwich(cfg, states, *conjugation, work)
    lhs -= carried
    return _batch_max_norm(lhs)


def _state_blocks(n: int, n_states: int) -> list[slice]:
    """Near-equal blocks of states, of at most 2 MiB of ``n``-point fields where two
    states fit (a suite job's right side and work pair then take 6 MiB), and never of one
    state out of several: ``_row_norms`` of one row rounds differently in a batch."""
    count = max(1, min(math.ceil(16 * n**3 * n_states / (2 << 20)), n_states // 2))
    ends = [n_states * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def run_stabilizer_suite(
    cfg: ModelConfig, n_states: int = 50, seed: int = 42, translations: int = 4
) -> list[CheckResult]:
    """Covariance of the localization family under every lattice-preserving
    stabilizer element, on white random states.

    The elements draw from a generator of their own, ``default_rng((seed, 1))``, and the
    states from ``default_rng(seed)``, so ``n_states`` does not change which elements are
    checked.  Elements are grouped by the cells they carry the region onto (the suite's box
    is symmetric, so the 48 axis symmetries share 12 carried masks; at the default config
    all 56 elements share 20).  A group job prepares each member's conjugation once
    (``_conjugation`` with ``list``), then walks the ``_state_blocks`` blocks: per block it
    computes the group's right side for that block only, runs every member's left side
    through two work fields of one block, and drops the right side.  A member's residual is
    the max over blocks, which is exact.  The groups fan out over ``worker_cap()`` threads;
    results come back in element order.  Each check is timed over its own left sides, and a
    group's first check also over the group's preparation and right sides.  Every check
    must stay at or below 1e-10.
    """
    states = random_states(cfg, np.random.default_rng(seed), n_states)
    region = cell_region(
        cfg, (-cfg.N // 8, -cfg.N // 8 + 1, -2), (cfg.N // 8, cfg.N // 8 - 1, 1)
    )
    elements = stabilizer_elements(cfg, np.random.default_rng((seed, 1)), translations)
    mask = rasterize(cfg, region)
    groups: dict[bytes, tuple[np.ndarray, list]] = {}
    for idx, (name, S) in enumerate(elements):
        carried_mask = rasterize(cfg, S.transform_region(region))
        groups.setdefault(carried_mask.tobytes(), (carried_mask, []))[1].append((idx, name, S))

    blocks = _state_blocks(cfg.N, n_states)
    size = max(b.stop - b.start for b in blocks)

    def job(group):
        since = time.perf_counter()
        carried_mask, members = group
        right = _conjugation(cfg, [], carried_mask, list)
        lefts = [_conjugation(cfg, [S], mask, list) for _, _, S in members]
        work = np.empty((2, size, *states.shape[1:]), complex)
        res, spent = [0.0] * len(members), [0.0] * len(members)
        for b in blocks:
            part = (states[b], _sandwich(cfg, states[b], *right), work[:, : b.stop - b.start])
            for i, left in enumerate(lefts):
                res[i] = max(res[i], stabilizer_covariance_residual(cfg, left, *part))
                now = time.perf_counter()
                spent[i], since = spent[i] + now - since, now
            del part
        check = Checks(cfg.N)
        for (_, name, _), r, s in zip(members, res, spent):
            check(f"stabilizer-covariance/{name}", r, 1e-10, seconds=s, states=n_states)
        return zip([idx for idx, _, _ in members], check)

    done = _fan_out(job, groups.values())
    results = sorted((pair for part in done for pair in part), key=lambda pair: pair[0])
    return [r for _, r in results]


# ---------------------------------------------------------------------------
# velocity changes (factorization probe)
# ---------------------------------------------------------------------------


def factorization_residual(
    cfg: ModelConfig,
    linear: LorentzMap,
    region: Region,
    states: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Factorization coherence of one labeled projection, worst over two
    random lattice steps.

    For a velocity change ``B`` and a lattice step ``T_d``, the two
    factorizations ``B T_d`` and ``T_{B d} B`` carry the same region to
    the same labels, so the conjugated projections agree exactly in the
    continuum; on the lattice they differ by the interpolation error of
    phase-modulated pullbacks.  This is the residual that must shrink
    under lattice refinement.
    """
    mask = rasterize(cfg, region)
    hom = PoincareMap.from_homogeneous(linear, cfg.origin)
    # the first leg of every shift-then-transform side
    back, _ = represent_array(cfg, states, hom.inverse())
    worst = 0.0
    for _ in range(2):
        d = cfg.lattice_vector(rng.integers(1, max(2, cfg.N // 8) + 1, 3) * rng.choice([-1, 1], 3))
        t_d = PoincareMap.from_translation(d)
        t_bd = PoincareMap.from_translation(linear(d))
        # the same map factored two ways: shift-then-transform equals
        # transform-then-shifted-shift
        lhs, _ = represent_array(cfg, _conjugate_mask(cfg, back, [t_d], mask), hom)
        lhs -= _conjugate_mask(cfg, states, [hom, t_bd], mask)
        worst = max(worst, _batch_max_norm(lhs))
    return worst


def boost_convergence_rows(
    base: ModelConfig,
    chi: float = 0.25,
    seeds=(42, 43, 44),
    n_states: int = 2,
    refinements: int = 1,
) -> list[dict]:
    """Factorization residual at N, 2N, ... for each seed, with ratios.

    Seeds fan out over ``worker_cap()`` threads; rows come back in seed
    order."""
    u2 = boosted_velocity(chi)

    def seed_rows(seed):
        rows = []
        cfg = base
        prev = None
        for step in range(refinements + 1):
            rng = np.random.default_rng(seed)
            states = smooth_states(cfg, rng, n_states)
            region = cell_region(cfg, (-3, -3, -3), (2, 2, 2))
            boost = make_boost(cfg.observer, u2)
            res = factorization_residual(cfg, boost, region, states, rng)
            row = dict(seed=int(seed), N=cfg.N, rapidity=chi, residual=res)
            rows.append(dict(row, ratio_to_previous=res / prev if prev else None))
            prev = res
            if step < refinements:
                cfg = cfg.refined()
        return rows

    return [row for rows in _fan_out(seed_rows, seeds) for row in rows]


# ---------------------------------------------------------------------------
# position family covariance
# ---------------------------------------------------------------------------


def _family_residual(
    cfg: ModelConfig,
    S: PoincareMap,
    states: np.ndarray,
    mult: np.ndarray,
    rhs_mult: np.ndarray,
    mix: np.ndarray,
) -> float:
    """Conjugate the four component fields of ``mult`` by the unitary of
    ``S`` and compare with the fields of ``rhs_mult`` mixed by ``mix``.

    The norm aggregates over the four vector components and takes the
    max over the batch ``states``.
    """
    moved = _conjugate_mask(cfg, states[:, None], [S], mult)
    rhs = np.einsum("mn,bn...->bm...", mix, _conjugate_mask(cfg, states[:, None], [], rhs_mult))
    return _batch_max_norm(moved - rhs)


def position_family_stabilizer_residual(
    cfg: ModelConfig, S: PoincareMap, states: np.ndarray
) -> float:
    """Covariance of the position family under a lattice stabilizer element.

    Conjugating the component fields equals carrying the origin with the
    map and mixing the components with the inverse linear part; both
    sides are exact lattice paths.
    """
    mult = position_multipliers(cfg, cfg.origin)
    mult_carried = position_multipliers(cfg, S(cfg.origin))
    return _family_residual(cfg, S, states, mult, mult_carried, S.linear.inverse().matrix)


def fixed_label_boost_witness(cfg: ModelConfig, chi: float = 0.25) -> float:
    """Residual of the fixed-label transformation guess under a velocity
    change: conjugation against plainly mixing the components.

    The family member with frozen labels is not a spacetime-vector
    operator, so this residual is bounded away from zero on the
    standard packet (``STANDARD_PACKET_WIDTH``).
    """
    boost = make_boost(cfg.observer, boosted_velocity(chi))
    hom = PoincareMap.from_homogeneous(boost, cfg.origin)
    s = make_gaussian(cfg, width=seconds(STANDARD_PACKET_WIDTH)).psi[None]
    mult = position_multipliers(cfg, cfg.origin)
    return _family_residual(cfg, hom, s, mult, mult, boost.matrix)


def space_component_residual(
    cfg: ModelConfig, u2: Velocity, S: PoincareMap, states: np.ndarray
) -> float:
    """Covariance residual of the ``u2``-simultaneous component of the
    position family under an origin-fixing stabilizer element.

    Vanishes (exact path) when ``u2`` is the constructing observer;
    bounded away from zero for witness elements when it is not.
    """
    mult = position_multipliers(cfg, cfg.origin)
    dot = np.einsum("m,m...->...", _METRIC * u2._c, mult)
    pia = mult + dot[None, ...] * u2._c[:, None, None, None]
    return _family_residual(cfg, S, states, pia, pia, S.linear.inverse().matrix)


def own_time_variance(cfg: ModelConfig, n_states: int = 100, seed: int = 42) -> float:
    """Largest duration variance of the family's own observer over random
    states: exactly zero on the fiducial lattice frame, a few ulps on a
    lattice drawn on a moving instant."""
    w = NwPosition(cfg.instant, cfg.origin)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for one in random_states(cfg, rng, n_states):
        stats = nw_component_stats(w, cfg.observer, LatticeState(cfg, one))
        worst = max(worst, abs(stats.time_variance.value))
    return worst


def time_variance_witness(cfg: ModelConfig, witness_chi: float = 0.5) -> float:
    """Duration variance of the wide packet (``WIDE_PACKET_WIDTH``) relative
    to a tilted observer (must be positive)."""
    w = NwPosition(cfg.instant, cfg.origin)
    witness_state = make_gaussian(cfg, width=seconds(WIDE_PACKET_WIDTH))
    u2 = boosted_velocity(witness_chi)
    return nw_component_stats(w, u2, witness_state).time_variance.value


# ---------------------------------------------------------------------------
# causality and commutators
# ---------------------------------------------------------------------------


def causal_shadow(cfg: ModelConfig, delta_t=2.0, u2=None, margin=None):
    """The shadow of one trial of ``causality_experiment``: the ``(carry,
    mask)`` projection of the causally grown ``_CAUSAL_CELLS`` box on the
    later instant, inflated first so the mask is conservative: every cell
    within half a spacing plus ``margin`` (default 0.2 spacings) of the
    cover counts as inside, so leakage can only be under-reported.  No
    transform; raises ``GeometryError`` where the geometry does not fit the
    lattice box."""
    if delta_t < 0.0:
        raise GeometryError("the later instant must not precede the region")
    a = cfg.spacing.value
    region = cell_region(cfg, *_CAUSAL_CELLS)
    if margin is None:
        margin = 0.2 * a
    observer2 = cfg.observer if u2 is None else u2
    t2 = Instant(observer2, cfg.origin + cfg.observer * seconds(delta_t))
    grown = grow_region_causally(region, t2)
    pad = 0.5 * a * (1.0 + 1e-9) + margin
    boxes = [(lo - pad, hi + pad) for lo, hi in grown.boxes]
    return _projection(Region(t2, boxes, basis=grown.basis, anchor=grown.anchor), cfg)


def localized_state(cfg: ModelConfig) -> np.ndarray:
    """The state of every causality trial: a packet three spacings wide
    projected into the region of ``causal_shadow`` and renormalized, so it
    is localized there exactly."""
    region = cell_region(cfg, *_CAUSAL_CELLS)
    lo, hi = region.boxes[0]
    box_center = region.anchor + sum(
        float(0.5 * (lo[m] + hi[m])) * b for m, b in enumerate(region.basis)
    )
    packet = make_gaussian(cfg, center=box_center, width=cfg.spacing * 3.0)
    return pvm_project(region, packet).normalized().psi


def causality_experiment(cfg: ModelConfig, phi: np.ndarray, shadow) -> float:
    """Leakage of the localized state ``phi`` outside a ``causal_shadow``:
    the probability outside the shadow's mask at the later labels.  Any
    strictly positive leakage exhibits superluminal spreading of this
    localization notion."""
    carry, mask = shadow
    arr, _ = represent_array(cfg, phi, carry.inverse())
    return 1.0 - float(np.sum((np.abs(_to_position(arr)) ** 2) * mask))


def causality_leakages(cfg: ModelConfig, phi: np.ndarray, shadows) -> list[float]:
    """``[causality_experiment(cfg, phi, s) for s in shadows]``, bit for bit, with
    each distinct linear step of the carries applied to ``phi`` once.  The trials
    run grouped by the bytes of their carry's linear part, so one group's moved
    field is alive at a time; each trial's phase goes on a copy, and trials with
    equal carries share one position probability."""
    carries = [carry for carry, _ in shadows]

    def key(i):
        return carries[i].linear.matrix.tobytes(), carries[i].translation._c.tobytes()

    leakage = [0.0] * len(shadows)
    for _, group in itertools.groupby(sorted(range(len(shadows)), key=key), lambda i: key(i)[0]):
        moved = None  # phi under the group's linear step, made by its first carry
        for _, same in itertools.groupby(group, key):
            same = list(same)
            ((linear, phase),) = _represented(cfg, [carries[same[0]].inverse()])
            if moved is None:
                moved, _ = _apply_linear(cfg, phi, linear)
            arr = moved if phase is None else moved * phase
            del phase  # one trial's fields at a time, as in causality_experiment
            prob = np.abs(_to_position(arr)) ** 2
            for i in same:
                leakage[i] = 1.0 - float(np.sum(prob * shadows[i][1]))
            del arr, prob
    return leakage


def commutator_witness(
    cfg: ModelConfig, region_a: Region | None = None, region_b: Region | None = None
) -> float:
    """Commutator norm ``|[Pa, Pb]|`` of two localization projections.

    Defaults: two boxes on instants half a second apart, displaced so
    every pair of their points is separated faster than light.  A
    strictly positive value exhibits the failure of local commutativity
    for this localization family.

    By the two-subspace theorem (Halmos, Trans. AMS 144 (1969) 381), the
    norm is ``max sigma * sqrt(1 - sigma^2)`` over the singular values
    ``sigma`` of the overlap ``G = A^H B``, where ``A`` and ``B`` hold the
    images of the cell deltas of each projection's mask under its carry
    (orthonormal bases of the two ranges).  So the value is exact, up to
    rounding, from one SVD of ``G``: 0 when ``G`` is 0 (disjoint boxes on
    one instant) or unitary (identical boxes), and 0 for a region that
    rasterizes to no cell.  The SVD's last bits do not depend on the BLAS
    thread count up to 64 x 64 (the default boxes) but can from 66 x 66.

    Both regions must lie on instants of the constructing observer, so
    every carry is a time step (a pure phase, which keeps the cell bases
    orthonormal), and ``|a| * |b| <= N^3``, so ``G`` is no larger than
    one field; otherwise ``GeometryError``.
    """
    if region_a is None:
        region_a = cell_region(cfg, *WITNESS_CELLS[0])
    if region_b is None:
        t2 = Instant(cfg.observer, cfg.origin + cfg.observer * seconds(0.5))
        region_b = cell_region(cfg, *WITNESS_CELLS[1], instant=t2)
    if not all(r.instant.observer.approx_eq(cfg.observer) for r in (region_a, region_b)):
        raise GeometryError("commutator witness needs instants of the constructing observer")
    proj_a = _projection(region_a, cfg)
    proj_b = _projection(region_b, cfg)
    sigma = np.linalg.svd(_overlap(cfg, proj_a, proj_b), compute_uv=False)
    # sigma may round to 1 or above (identical boxes: K[0] is exactly 1.0)
    return float(np.max(sigma * np.sqrt(np.maximum(0.0, 1.0 - sigma * sigma)), initial=0.0))


def _overlap(cfg: ModelConfig, proj_a, proj_b) -> np.ndarray:
    """``G = A^H B`` of two ``(carry, mask)`` projections whose carries are
    pure phases.

    ``A^H B`` is the position-space convolution by ``K``, the position
    image of the phase ``D`` of ``Ua^-1 Ub``, so ``G[i, j]`` is
    ``K[(x_i - x_j) mod N]`` over the cells ``x_i`` of mask a and
    ``x_j`` of mask b.
    """
    n = cfg.N
    (carry_a, mask_a), (carry_b, mask_b) = proj_a, proj_b
    cells_a, cells_b = np.nonzero(mask_a), np.nonzero(mask_b)
    if cells_a[0].size * cells_b[0].size > n**3:
        raise GeometryError("commutator witness regions: overlap matrix larger than one field")
    steps = _represented(cfg, [carry_b, carry_a.inverse()])
    D = np.ones((n, n, n), complex)
    D, _ = _act(cfg, D, steps, D)
    # the default-normalized inverse: its 1/n per axis is exact for the
    # power-of-two N, so identical boxes keep K[0] at exactly 1.0
    K = np.fft.ifftn(D)
    del D
    flat = 0
    for xa, xb in zip(cells_a, cells_b):
        flat = flat * n + (xa[:, None] - xb) % n
    return K.ravel()[flat]


def _project_arr(cfg, region, arr):
    from .pvm import PvmHandle, _project_raw

    # PvmHandle is built only for the benchmark tracer's _project_raw hook
    return _project_raw(PvmHandle(region.instant), region, arr, cfg)


# ---------------------------------------------------------------------------
# covariance on any instant and global equivariance
# ---------------------------------------------------------------------------


def region_covariance_residual(
    cfg: ModelConfig, S: PoincareMap, region: Region, states: np.ndarray
) -> float:
    """Residual of the projection of ``region``, on any instant, conjugated
    by ``S`` against the projection of the carried region.

    Exact (rounding level) for stabilizer elements and steps along the
    constructing observer; near zero by construction for canonical
    velocity changes, whose genuine check is the factorization probe.
    """
    if not S.is_orthochronous():
        raise GeometryError("covariance drivers take orthochronous maps")
    carry, mask = _projection(region, cfg)
    lhs = _conjugate_mask(cfg, states, [carry, S], mask)
    return _batch_max_norm(lhs - _project_arr(cfg, S.transform_region(region), states))


def _random_lattice_map(cfg: ModelConfig, rng: np.random.Generator) -> PoincareMap:
    group = lattice_point_group(cfg.observer, cfg.basis)
    R = group[int(rng.integers(0, len(group)))]
    shift = cfg.lattice_vector(rng.integers(-cfg.N // 8, cfg.N // 8 + 1, 3))
    shift = shift + cfg.observer * seconds(float(rng.uniform(-1.0, 1.0)))
    return PoincareMap.from_translation(shift).compose(
        PoincareMap.from_homogeneous(R, cfg.origin)
    )


def _probe_bundle(cfg: ModelConfig, P: PoincareMap, seed: int) -> dict[str, float]:
    """Reported numbers with every input carried by ``P``.

    All quantities go through the region-labeled projections, so a carried
    bundle exercises exactly the same public surface as the identity's, with
    transformed observers, instants, origins, regions and states.
    """
    rng = np.random.default_rng(seed)
    states = random_states(cfg, rng, 3)
    moved_states, _ = represent_array(cfg, states, P)
    region = cell_region(cfg, (-3, -2, -4), (2, 3, 1))
    moved_region = P.transform_region(region)
    t1 = P.transform_instant(cfg.instant)
    out: dict[str, float] = {}
    for i in range(3):
        out[f"localization-{i}"] = localization_probability(
            moved_region, LatticeState(cfg, moved_states[i])
        )
    gauss = make_gaussian(cfg, width=seconds(STANDARD_PACKET_WIDTH))
    mg, _ = represent_array(cfg, gauss.psi, P)
    mg_state = LatticeState(cfg, mg)
    out["localization-gauss"] = localization_probability(moved_region, mg_state)

    w = NwPosition(t1, P(cfg.origin))
    own = nw_component_stats(w, t1.observer, mg_state)
    for m, val in enumerate(own.space_variances):
        out[f"space-variance-{m}"] = val.value
    tilted = P.linear.transform_velocity(boosted_velocity(0.5))
    out["time-variance-witness"] = nw_component_stats(w, tilted, mg_state).time_variance.value

    S = PoincareMap.from_homogeneous(lattice_point_group(cfg.observer, cfg.basis)[9], cfg.origin)
    moved_S = P.compose(S).compose(P.inverse())
    out["covariance-residual"] = region_covariance_residual(
        cfg, moved_S, moved_region, moved_states
    )

    # causal leakage with a non-cell-aligned horizon
    phi = pvm_project(moved_region, mg_state).normalized()
    dt = 0.8
    t2 = P.transform_instant(
        Instant(cfg.observer, cfg.origin + cfg.observer * seconds(dt))
    )
    shadow = grow_region_causally(moved_region, t2)
    out["causality-leakage"] = 1.0 - localization_probability(shadow, phi)
    return out


def equivariance_residual(cfg: ModelConfig, seed: int = 42) -> float:
    """Worst change of any probed number when all inputs are carried by a
    random lattice-compatible orthochronous map."""
    rng = np.random.default_rng(seed + 100)
    P = _random_lattice_map(cfg, rng)
    base = _probe_bundle(cfg, PoincareMap.identity(), seed)
    moved = _probe_bundle(cfg, P, seed)
    return max(abs(base[k] - moved[k]) for k in base)

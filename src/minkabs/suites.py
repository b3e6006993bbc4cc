"""Randomized invariant suites for the geometry and group layers.

``run_geometry_suite`` measures each invariant's residual (or exercises
one error path) over seeded random inputs and records it as one timed
check; its list of checks backs the ``verify-geometry`` command.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    CausalClass,
    DimensionMismatchError,
    Instant,
    MeasureScalar,
    SpacePoint,
    Velocity,
    causal_class,
    fiducial_origin,
    instant_subtract,
    lorentz_product,
    normalize_velocity,
    point,
    seconds,
    space_part,
    space_subtract,
    vector,
)
from .geometry import _check_velocity, _normalize, _product, _split  # stack kernel
from .geometry import _AXES, _FUTURE as _REST  # the rest observer's components
from .groups import (
    LorentzMap,
    PoincareMap,
    Region,
    grow_region_causally,
    in_O_u,
    is_lorentz,
    is_orthochronous,
    is_proper,
    make_boost,  # noqa: F401  bound here for the benchmark tracer
    make_rotation,
    stabilizes_instant,
    time_inversion,
)
from .groups import _boosts, _lorentz_rows, _rotations  # stack kernel
from .report import CheckResult, Checks

__all__ = ["run_geometry_suite"]

_HEAVY_SAMPLES = 10_000  # random inputs of the observer-splitting checks
_MAX_RAPIDITY = 1.5  # the bound of every random velocity's uniform rapidity


def _velocities(chi, d) -> np.ndarray:
    """An (n, 4) stack of velocities of rapidities ``chi`` along the
    directions ``d``; cosh and sinh stay one ``math`` call per sample,
    because numpy's vector versions round some inputs differently."""
    d = d / np.sqrt(np.vecdot(d, d))[:, None]
    ch = np.array([math.cosh(x) for x in chi])
    sh = np.array([math.sinh(x) for x in chi])
    return _check_velocity(_normalize(np.column_stack([ch, sh[:, None] * d])))


def _random_velocity(rng):
    """A velocity of rapidity uniform below ``_MAX_RAPIDITY``, direction uniform on the sphere."""
    return Velocity(_velocities([rng.uniform(0, _MAX_RAPIDITY)], rng.normal(size=(1, 3)))[0])


def _observed_vectors(rng, n):
    """``n`` random velocities and vectors in [-10, 10]^4, drawn pair by pair
    as ``_random_velocity`` and ``vector`` would, as two (n, 4) stacks."""
    chi, d, x = np.empty(n), np.empty((n, 3)), np.empty((n, 4))
    for i in range(n):
        chi[i] = rng.uniform(0, _MAX_RAPIDITY)
        d[i] = rng.normal(size=3)
        x[i] = rng.uniform(-10, 10, 4)
    return _velocities(chi, d), x


def _draw_map(rng):
    """The factors of a random composite of one to three boosts and rotations,
    in draw order: ``(True, rapidity, direction)`` for a boost of the rest
    observer, ``(False, angle, axis components)`` for a rotation in its space."""
    factors = []
    for _ in range(rng.integers(1, 4)):
        if rng.random() < 0.5:
            factors.append((True, rng.uniform(0, 1.0), rng.normal(size=3)))
        else:
            axis = rng.normal(size=3)
            factors.append((False, rng.uniform(0, 2 * math.pi), axis))
    return factors


def _maps(draws) -> np.ndarray:
    """The (n, 4, 4) matrices of ``n`` drawn maps. The factors of one depth
    level are built as one stack per kind, then composed onto the levels
    before them, starting from the identity."""
    acc = np.tile(np.eye(4), (len(draws), 1, 1))
    for level in range(max(map(len, draws))):
        rows = [i for i, f in enumerate(draws) if len(f) > level]
        boost, param, vec = (np.array(v) for v in zip(*(draws[i][level] for i in rows)))
        factor = np.empty((len(rows), 4, 4))
        factor[boost] = _boosts(_REST, _velocities(param[boost], vec[boost]))
        c = vec[~boost]  # the axis as the sum of its fiducial parts
        axis = c[:, :1] * _AXES[0] + c[:, 1:2] * _AXES[1] + c[:, 2:] * _AXES[2]
        factor[~boost] = _rotations(_REST, axis, param[~boost])
        acc[rows] = factor @ acc[rows]
    return acc


def run_geometry_suite(seed: int = 42) -> list[CheckResult]:
    """All geometry and group invariants at their stated tolerances."""
    check = Checks()
    rng = np.random.default_rng(seed)

    # observer splitting, each check over one stack of all its samples
    u, x = _observed_vectors(rng, _HEAVY_SAMPLES)
    t, space = _split(u, x)
    scale = np.maximum(1.0, np.abs(x).max(axis=1))
    worst = (np.abs(u * t[:, None] + space - x).max(axis=1) / scale).max(initial=0.0)
    check("splitting-reconstruction", worst, 1e-12, samples=_HEAVY_SAMPLES)
    # float_power squares with the C pow as Python's ``**`` does; t * t may differ
    worst = (abs(_product(u, space)) / np.maximum(1.0, np.float_power(t, 2))).max(initial=0.0)
    check("splitting-orthogonality", worst, 1e-12, samples=_HEAVY_SAMPLES)

    # product preservation under composed maps
    draws, xy = [], np.empty((1000, 2, 4))
    for i in range(1000):
        draws.append(_draw_map(rng))
        xy[i, 0] = rng.uniform(-5, 5, 4)
        xy[i, 1] = rng.uniform(-5, 5, 4)
    mxy = (_maps(draws)[:, None] @ xy[..., None])[..., 0]
    x, y, mx, my = xy[:, 0], xy[:, 1], mxy[:, 0], mxy[:, 1]
    scale = np.maximum(1.0, np.maximum(abs(_product(x, x)), abs(_product(y, y))))
    worst = (abs(_product(mx, my) - _product(x, y)) / scale).max()
    check("product-preservation", worst, 1e-9, samples=1000)

    # restriction to a simultaneity space is positive definite
    u, x = _observed_vectors(rng, 1000)
    v = _split(u, x)[1]
    v = v[np.abs(v).max(axis=1) > 1e-10]
    min_norm = _product(v, v).min(initial=math.inf)
    check("simultaneous-space-positive", min_norm, 1e-12, below=False, samples=1000)

    # causal classification partitions nonzero vectors
    bad = 0
    for _ in range(1000):
        x = vector(*rng.uniform(-3, 3, 4))
        if causal_class(x) not in (
            CausalClass.TIMELIKE,
            CausalClass.SPACELIKE,
            CausalClass.LIGHTLIKE,
        ):
            bad += 1
    light = vector(1, 1, 0, 0)
    if causal_class(light) is not CausalClass.LIGHTLIKE:
        bad += 1
    check("causal-partition", float(bad), 0.0, samples=1001)

    # dimensional safety must be an error, not a coercion
    caught = 0
    try:
        seconds(1.0) + MeasureScalar(1.0, 2)
    except DimensionMismatchError:
        caught += 1
    try:
        MeasureScalar(1.0, 0) - seconds(2.0)
    except DimensionMismatchError:
        caught += 1
    check("dimension-safety-error-path", float(2 - caught), 0.0, samples=2)

    # group laws over random composites
    a, b, c = _maps([_draw_map(rng) for _ in range(300)]).reshape(100, 3, 4, 4).swapaxes(0, 1)
    ab = a @ b
    worst = max(
        0.0 if _lorentz_rows(ab).all() else 1.0,
        np.abs(a @ np.linalg.inv(a) - np.eye(4)).max(),
        np.abs(ab @ c - a @ (b @ c)).max(),
    )
    check("group-laws", worst, 1e-10, samples=100)

    # orientation characters compose as expected
    u0 = normalize_velocity(vector(1, 0, 0, 0))
    a, b = _maps([_draw_map(rng) for _ in range(100)]).reshape(50, 2, 4, 4).swapaxes(0, 1)
    bad = int((~((a @ b)[:, 0, 0] > 0.0)).sum())
    if is_orthochronous(time_inversion(u0)):
        bad += 1
    flip = time_inversion(_random_velocity(rng))
    if is_orthochronous(flip.compose(LorentzMap(_maps([_draw_map(rng)])[0], check=False))):
        bad += 1
    check("orientation-characters", float(bad), 0.0, samples=52)

    # velocity stabilizers of different observers differ
    misses = 0
    rotations = [make_rotation(u0, vector(*axis), 0.9) for axis in _AXES]
    for _ in range(50):
        u2 = _random_velocity(rng)
        if abs(u2._c[0] - 1.0) < 1e-6:
            continue
        if not any(in_O_u(r, u0) and not in_O_u(r, u2) for r in rotations):
            misses += 1
    check("velocity-stabilizers-differ", float(misses), 0.0, samples=50)

    # instant stabilizers restrict to isometries of the hyperplane
    worst = 0.0
    o = fiducial_origin()
    t_inst = Instant(u0, o)
    for _ in range(50):
        axis = vector(0, *rng.normal(size=3))
        rot = PoincareMap.from_homogeneous(
            make_rotation(u0, axis, rng.uniform(0, 2 * math.pi)), o
        )
        shift = PoincareMap.from_translation(vector(0, *rng.uniform(-3, 3, 3)))
        m = shift.compose(rot)
        if not stabilizes_instant(m, t_inst):
            worst = max(worst, 1.0)
            continue
        p = o + vector(0, *rng.uniform(-5, 5, 3))
        q = o + vector(0, *rng.uniform(-5, 5, 3))
        d0 = lorentz_product(p - q, p - q).value
        d1 = lorentz_product(m(p) - m(q), m(p) - m(q)).value
        worst = max(worst, abs(d1 - d0) / max(1.0, abs(d0)))
    check("instant-stabilizer-isometry", worst, 1e-10, samples=50)

    # the time inversion about an instant stabilizes it
    bad = 0
    for _ in range(20):
        u = _random_velocity(rng)
        anchor = o + vector(*rng.uniform(-3, 3, 4))
        inst = Instant(u, anchor)
        inv = PoincareMap.from_homogeneous(time_inversion(u), anchor)
        if not stabilizes_instant(inv, inst):
            bad += 1
        if inv.is_orthochronous():
            bad += 1
    check("time-inversion-stabilizes-instant", float(bad), 0.0, samples=20)

    # causal growth: light-speed box growth and the no-interval limit
    reg = Region(t_inst, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])
    t_later = Instant(u0, o + vector(1, 0, 0, 0))
    grown = grow_region_causally(reg, t_later)
    lo, hi = grown.boxes[0]
    worst = max(float(np.max(np.abs(lo + 1.0))), float(np.max(np.abs(hi - 2.0))))
    same = grow_region_causally(reg, t_inst)
    lo0, hi0 = same.boxes[0]
    worst = max(worst, float(np.max(np.abs(lo0))), float(np.max(np.abs(hi0 - 1.0))))
    check("causal-growth-unit-speed", worst, 1e-10, samples=2)

    # an observer's time and space, carried by Poincare maps, keep their differences
    draws, chi, d, samples = [], np.empty(20), np.empty((20, 3)), []
    for i in range(20):
        draws.append(_draw_map(rng))
        shift = vector(*rng.uniform(-3, 3, 4))
        chi[i], d[i] = rng.uniform(0, _MAX_RAPIDITY), rng.normal(size=3)  # as _random_velocity
        # two anchors, a move of each within its instant, a slide of each along u
        anchors, moves = rng.uniform(-5, 5, (2, 4)), rng.uniform(-3, 3, (2, 4))
        samples.append((shift, anchors, moves, rng.uniform(-3, 3, 2)))
    worst = 0.0
    for m, c, (shift, anchors, moves, slides) in zip(_maps(draws), _velocities(chi, d), samples):
        P, u = PoincareMap(LorentzMap(m, check=False), shift), Velocity(c)
        a = [point(*x) for x in anchors]
        moved = [Instant(u, p + space_part(u, vector(*w))) for p, w in zip(a, moves)]
        t1, t2 = map(P.transform_instant, moved)
        d0 = instant_subtract(Instant(u, a[0]), Instant(u, a[1])).value
        worst = max(worst, abs(instant_subtract(t1, t2).value - d0) / max(1.0, abs(d0)))
        u2 = t1.observer
        carried = [SpacePoint(u2, P(p + u * seconds(s))) for p, s in zip(a, slides)]
        diff = space_subtract(SpacePoint(u, a[0]), SpacePoint(u, a[1]))
        r = space_subtract(*carried) - P.linear(diff)
        size = max(1.0, lorentz_product(diff, diff).value) ** 0.5
        worst = max(worst, abs(lorentz_product(r, r).value) ** 0.5 / size)
        line = SpacePoint(u2, P(a[0]) + u2 * seconds(slides[0]))
        if carried[0] != line or not (is_lorentz(P.linear) and is_proper(P.linear)):
            worst = max(worst, 1.0)
    check("observer-time-space-covariance", worst, 1e-10, samples=20)

    return check

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
from .geometry import _product, _split, _velocities  # stack kernel
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


def _random_velocities(rng, n) -> np.ndarray:
    """``n`` velocities of rapidity uniform below ``_MAX_RAPIDITY`` and
    direction uniform on the sphere, as an (n, 4) stack: one draw of the
    rapidities, then one of the directions."""
    return _velocities(rng.uniform(0, _MAX_RAPIDITY, n), rng.normal(size=(n, 3)))


def _observed_vectors(rng, n):
    """``n`` random velocities and vectors in [-10, 10]^4 as two (n, 4)
    stacks, drawn as three stacks: rapidities, directions, then vectors."""
    return _random_velocities(rng, n), rng.uniform(-10, 10, (n, 4))


def _random_maps(rng, n) -> np.ndarray:
    """The (n, 4, 4) matrices of ``n`` random composites of one to three
    factors, each a boost of the rest observer (rapidity uniform below 1) or
    a rotation in its space (angle uniform below 2 pi), drawn as four stacks
    over all three levels: depths, kinds, parameters, then directions or
    axes; a map's draws past its depth go unused.  The factors of one level
    are built as one stack per kind, then composed onto the levels before
    them, starting from the identity."""
    depth = rng.integers(1, 4, n)
    boost, param, vec = rng.random((3, n)) < 0.5, rng.random((3, n)), rng.normal(size=(3, n, 3))
    acc = np.tile(np.eye(4), (n, 1, 1))
    for level, (kind, p, c) in enumerate(zip(boost, param, vec)):
        b, r = (depth > level) & kind, (depth > level) & ~kind
        acc[b] = _boosts(_REST, _velocities(p[b], c[b])) @ acc[b]
        c = c[r]  # the axis as the sum of its fiducial parts
        axis = c[:, :1] * _AXES[0] + c[:, 1:2] * _AXES[1] + c[:, 2:] * _AXES[2]
        acc[r] = _rotations(_REST, axis, 2 * math.pi * p[r]) @ acc[r]
    return acc


def run_geometry_suite(seed: int = 42) -> list[CheckResult]:
    """All geometry and group invariants at their stated tolerances.

    Each row draws all of its random inputs on the one generator, one
    call per quantity, before it computes anything; the rows draw in
    report order, so a row's draws come after every earlier row's."""
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
    maps, xy = _random_maps(rng, 1000), rng.uniform(-5, 5, (1000, 2, 4))
    mxy = (maps[:, None] @ xy[..., None])[..., 0]
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
    classes = (CausalClass.TIMELIKE, CausalClass.SPACELIKE, CausalClass.LIGHTLIKE)
    bad = sum(causal_class(vector(*x)) not in classes for x in rng.uniform(-3, 3, (1000, 4)))
    if causal_class(vector(1, 1, 0, 0)) is not CausalClass.LIGHTLIKE:
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
    a, b, c = _random_maps(rng, 300).reshape(100, 3, 4, 4).swapaxes(0, 1)
    ab = a @ b
    worst = max(
        0.0 if _lorentz_rows(ab).all() else 1.0,
        np.abs(a @ np.linalg.inv(a) - np.eye(4)).max(),
        np.abs(ab @ c - a @ (b @ c)).max(),
    )
    check("group-laws", worst, 1e-10, samples=100)

    # orientation characters compose as expected
    u0 = normalize_velocity(vector(1, 0, 0, 0))
    maps, flip = _random_maps(rng, 101), Velocity(_random_velocities(rng, 1)[0])
    a, b = maps[:100].reshape(50, 2, 4, 4).swapaxes(0, 1)
    bad = int((~((a @ b)[:, 0, 0] > 0.0)).sum())
    if is_orthochronous(time_inversion(u0)):
        bad += 1
    if is_orthochronous(time_inversion(flip).compose(LorentzMap(maps[100], check=False))):
        bad += 1
    check("orientation-characters", float(bad), 0.0, samples=52)

    # velocity stabilizers of different observers differ
    misses = 0
    rotations = [make_rotation(u0, vector(*axis), 0.9) for axis in _AXES]
    for c in _random_velocities(rng, 50):
        if abs(c[0] - 1.0) < 1e-6:
            continue
        u2 = Velocity(c)
        if not any(in_O_u(r, u0) and not in_O_u(r, u2) for r in rotations):
            misses += 1
    check("velocity-stabilizers-differ", float(misses), 0.0, samples=50)

    # instant stabilizers restrict to isometries of the hyperplane
    axes, angles = rng.normal(size=(50, 3)), rng.uniform(0, 2 * math.pi, 50)
    shifts, points = rng.uniform(-3, 3, (50, 3)), rng.uniform(-5, 5, (50, 2, 3))
    rots = _rotations(_REST, np.column_stack([np.zeros(50), axes]), angles)
    worst = 0.0
    o = fiducial_origin()
    t_inst = Instant(u0, o)
    for rot, shift, (p, q) in zip(rots, shifts, points):
        rot = PoincareMap.from_homogeneous(LorentzMap(rot, check=False), o)
        m = PoincareMap.from_translation(vector(0, *shift)).compose(rot)
        if not stabilizes_instant(m, t_inst):
            worst = max(worst, 1.0)  # the sample's points go unused
            continue
        p, q = o + vector(0, *p), o + vector(0, *q)
        d0 = lorentz_product(p - q, p - q).value
        d1 = lorentz_product(m(p) - m(q), m(p) - m(q)).value
        worst = max(worst, abs(d1 - d0) / max(1.0, abs(d0)))
    check("instant-stabilizer-isometry", worst, 1e-10, samples=50)

    # the time inversion about an instant stabilizes it
    bad = 0
    for c, x in zip(_random_velocities(rng, 20), rng.uniform(-3, 3, (20, 4))):
        u, anchor = Velocity(c), o + vector(*x)
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
    maps, shifts = _random_maps(rng, 20), rng.uniform(-3, 3, (20, 4))
    velocities = _random_velocities(rng, 20)
    # two anchors, a move of each within its instant, a slide of each along u
    ends, steps = rng.uniform(-5, 5, (20, 2, 4)), rng.uniform(-3, 3, (20, 2, 4))
    samples = zip(maps, shifts, velocities, ends, steps, rng.uniform(-3, 3, (20, 2)))
    worst = 0.0
    for m, shift, c, anchors, moves, slides in samples:
        P, u = PoincareMap(LorentzMap(m, check=False), vector(*shift)), Velocity(c)
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

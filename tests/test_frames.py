"""Frame stacks against the per-vector formulas they replace.

A lattice or region frame keeps its three axes as one ``(3, 4)`` stack,
``axes``, and reads coordinates with one stacked product.  The loops
below are the per-vector formulas those stacks replaced, kept as the
reference; every comparison is bit for bit, on random boosted frames
where the products are not exact.
"""

import math

import numpy as np
import pytest

from minkabs.geometry import (
    GeometryError,
    Instant,
    SpacetimePoint,
    lorentz_product,
    point,
    seconds,
    spatial_basis_for,
    time_part,
)
from minkabs.geometry import _product
from minkabs.groups import (
    Region,
    grow_region_causally,
    in_O_u,
    lattice_point_group,
    make_boost,
    make_rotation,
)
from minkabs.quantum import ModelConfig
from minkabs.quantum.state import signed_permutation_of
from minkabs.quantum.verify import boosted_velocity


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def random_frame(rng):
    """A boosted observer, an instant of it and a turned basis of its space."""
    u = boosted_velocity(rng.uniform(0.1, 0.6), rng.normal(size=3))
    instant = Instant(u, point(*rng.uniform(-1.0, 1.0, 4)))
    canon = spatial_basis_for(u)
    turn = make_rotation(u, canon[0] + 0.5 * canon[2], rng.uniform(0.0, 2.0 * math.pi))
    return instant, tuple(turn(b) for b in canon)


def random_region(rng) -> Region:
    instant, basis = random_frame(rng)
    shift = sum(float(c) * b for c, b in zip(rng.uniform(-1.0, 1.0, 3), basis))
    boxes = []
    for _ in range(3):
        lo = rng.uniform(-1.0, 0.5, 3)
        boxes.append((lo, lo + rng.uniform(0.1, 1.0, 3)))
    return Region(instant, boxes, basis=basis, anchor=instant.anchor + shift)


def coordinates_reference(region, p) -> np.ndarray:
    return np.array([lorentz_product(b, p - region.anchor).value for b in region.basis])


def grow_reference(region, t2):
    """``grow_region_causally`` one corner at a time, as it was written."""
    u2 = t2.observer
    basis2 = spatial_basis_for(u2)
    out = []
    for lo, hi in region.boxes:
        b_lo, b_hi = np.full(3, np.inf), np.full(3, -np.inf)
        for mask in range(8):
            c = np.where([(mask >> ax) & 1 for ax in range(3)], hi, lo)
            p = region.anchor + sum(float(c[i]) * region.basis[i] for i in range(3))
            arrival = time_part(u2, t2.anchor - p).value
            arrival = max(arrival, 0.0)
            center = p + u2 * seconds(arrival)
            ccoord = np.array([lorentz_product(b, center - t2.anchor).value for b in basis2])
            b_lo = np.minimum(b_lo, ccoord - arrival)
            b_hi = np.maximum(b_hi, ccoord + arrival)
        out.append((b_lo, b_hi))
    return out


def signed_permutation_reference(cfg, L):
    """``signed_permutation_of`` with the 3x3 double loop of products."""
    if not in_O_u(L, cfg.observer):
        return None
    r = np.empty((3, 3))
    for j, bj in enumerate(cfg.basis):
        image = L(bj)
        for i, bi in enumerate(cfg.basis):
            r[i, j] = lorentz_product(bi, image).value
    rounded = np.round(r)
    if np.max(np.abs(r - rounded)) > 1e-10:
        return None
    rounded = rounded.astype(int)
    ones = np.abs(rounded)
    if not (np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1)):
        return None
    return rounded


@pytest.mark.parametrize("seed", range(6))
def test_region_coordinates_match_the_loop(seed):
    rng = np.random.default_rng(seed)
    region = random_region(rng)
    for lo, hi in region.boxes:
        for p in map(SpacetimePoint, region._box_corners(lo, hi)):
            assert _bits(region.coordinates_of(p)) == _bits(coordinates_reference(region, p))


@pytest.mark.parametrize("seed", range(6))
def test_stacked_gram_matches_the_loop(seed):
    region = random_region(np.random.default_rng(seed))
    u = region.instant.observer.as_vector()
    gram = [[lorentz_product(b, c).value for c in region.basis] for b in region.basis]
    simultaneity = [lorentz_product(u, b).value for b in region.basis]
    assert _bits(_product(region.axes[:, None], region.axes)) == _bits(gram)
    assert _bits(_product(region.axes, region.instant.observer._c)) == _bits(simultaneity)


@pytest.mark.parametrize("seed", range(6))
def test_causal_growth_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    region = random_region(rng)
    u2 = boosted_velocity(rng.uniform(0.0, 0.4), rng.normal(size=3))
    t2 = Instant(u2, region.anchor + u2 * seconds(rng.uniform(3.0, 4.0)))
    grown = grow_region_causally(region, t2)
    want = Region(t2, grow_reference(region, t2), anchor=t2.anchor)
    assert len(grown.boxes) == len(want.boxes)
    for (lo, hi), (w_lo, w_hi) in zip(grown.boxes, want.boxes):
        assert _bits(lo) == _bits(w_lo) and _bits(hi) == _bits(w_hi)


@pytest.mark.parametrize("seed", range(3))
def test_signed_permutations_match_the_loop(seed):
    rng = np.random.default_rng(seed)
    instant, _ = random_frame(rng)
    cfg = ModelConfig(N=8, instant=instant)
    for L in lattice_point_group(cfg.observer, cfg.basis):
        got, want = signed_permutation_of(cfg, L), signed_permutation_reference(cfg, L)
        assert want is not None
        assert got.dtype == want.dtype and np.array_equal(got, want)
    boost = make_boost(cfg.observer, boosted_velocity(0.2))
    assert signed_permutation_of(cfg, boost) is None
    assert signed_permutation_reference(cfg, boost) is None


def test_basis_off_the_instant_is_refused():
    instant, _ = random_frame(np.random.default_rng(7))
    other = spatial_basis_for(boosted_velocity(0.5, (0.0, 1.0, 0.0)))
    with pytest.raises(GeometryError, match="must lie in the instant"):
        Region(instant, [((0, 0, 0), (1, 1, 1))], basis=other)


def test_basis_not_orthonormal_is_refused():
    instant, basis = random_frame(np.random.default_rng(8))
    stretched = (basis[0], basis[1], basis[2] * 2.0)
    with pytest.raises(GeometryError, match="must be orthonormal"):
        Region(instant, [((0, 0, 0), (1, 1, 1))], basis=stretched)

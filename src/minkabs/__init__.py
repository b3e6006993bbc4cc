"""Coordinate-free special relativity with a desk-scale localization lab.

Layers:

* :mod:`minkabs.geometry` -- dimension-tagged scalars, spacetime vectors
  and points, the Lorentz product, observer splittings;
* :mod:`minkabs.groups` -- Lorentz and Poincare maps, observer-tied
  subgroups, box regions, causal growth;
* :mod:`minkabs.quantum` -- the mass-m scalar particle on a periodic
  momentum lattice, localization projections, the generalized position
  family, and numerical verification of their covariance and causality
  behavior;
* :mod:`minkabs.cli` -- verification suites and experiment sweeps with
  machine-readable reports.
"""

from .geometry import (
    CausalClass,
    DimensionMismatchError,
    GeometryError,
    Instant,
    MeasureScalar,
    SpacePoint,
    SpacetimePoint,
    SpacetimeVector,
    Velocity,
    causal_class,
    fiducial_frame,
    fiducial_origin,
    instant_subtract,
    is_future_directed,
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
from .groups import (
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

__version__ = "0.1.0"

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

The package root re-exports the ``__all__`` of ``geometry`` and ``groups``.
"""

from . import geometry, groups
from .geometry import *  # noqa: F403
from .groups import *  # noqa: F403

__all__ = geometry.__all__ + groups.__all__

__version__ = "0.1.0"

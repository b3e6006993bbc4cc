"""Lattice realization of the scalar particle and its localization."""

from .config import ModelConfig
from .state import (
    BoostReport,
    LatticeState,
    apply_boost,
    make_gaussian,
    rapidity_of,
    represent,
    signed_permutation_of,
)
from .pvm import (
    NwComponentStats,
    NwPosition,
    PvmHandle,
    canonical_map,
    localization_probability,
    nw_component_stats,
    position_multipliers,
    pvm_project,
    rasterize,
)

__all__ = [
    "ModelConfig",
    "LatticeState",
    "BoostReport",
    "make_gaussian",
    "apply_boost",
    "represent",
    "rapidity_of",
    "signed_permutation_of",
    "PvmHandle",
    "NwPosition",
    "NwComponentStats",
    "rasterize",
    "canonical_map",
    "pvm_project",
    "localization_probability",
    "position_multipliers",
    "nw_component_stats",
]

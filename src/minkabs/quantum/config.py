"""Lattice realization parameters for the mass-m scalar particle.

The one-particle Hilbert space is realized as complex amplitudes on a
periodic cubic momentum lattice dual to a spatial lattice drawn on one
instant of a constructing observer.  Natural units: light speed and the
quantum of action are 1, so masses and momenta carry inverse seconds.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from ..geometry import (
    GeometryError,
    Instant,
    MeasureScalar,
    SpacetimeVector,
    fiducial_origin,
    normalize_velocity,
    seconds,
    spatial_basis_for,
    vector,
)

__all__ = ["ModelConfig"]


class ModelConfig:
    """Geometry and resolution of the lattice realization.

    Parameters
    ----------
    N:
        Lattice points per axis; a power of two, at least 8 (a float
        must be integral), whose N^3 complex field numpy can index.
    spacing:
        Lattice spacing in seconds (dim 1), positive and finite.
    mass:
        Particle mass in inverse seconds (dim -1), positive and finite.
        The momentum cutoff ``pi/spacing`` must be at least eight masses
        so wave packets stay band limited, and its square must not
        underflow a float.
    instant:
        The instant carrying the spatial lattice: its observer is the
        constructing observer, and its anchor is the lattice origin event
        (``origin``).  Default: the fiducial rest observer's instant
        through the fiducial origin.
    """

    def __init__(
        self,
        N: int = 32,
        spacing: MeasureScalar = seconds(0.25),
        mass: MeasureScalar = MeasureScalar(1.0, -1),
        instant: Instant | None = None,
    ):
        if not (abs(N) <= sys.float_info.max and float(N).is_integer()):
            raise GeometryError("lattice size must be an integer in the float range")
        N = int(N)
        if N < 8 or (N & (N - 1)) != 0:
            raise GeometryError("lattice size must be a power of two, at least 8")
        if N**3 * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
            raise GeometryError("lattice size too large: an N^3 field exceeds numpy's array limit")
        if not isinstance(spacing, MeasureScalar) or spacing.dim != 1:
            raise GeometryError("spacing must carry sec^1")
        if not 0 < spacing.value < math.inf:
            raise GeometryError("spacing must be positive and finite")
        if not isinstance(mass, MeasureScalar) or mass.dim != -1:
            raise GeometryError("mass must carry sec^-1")
        if not 0 < mass.value < math.inf:
            raise GeometryError("mass must be positive and finite")
        if mass.value**2 < sys.float_info.min:
            raise GeometryError("mass too small: its square underflows a float")
        cutoff = math.pi / spacing.value
        if cutoff < 8.0 * mass.value:
            raise GeometryError(
                "momentum cutoff pi/spacing must be at least eight masses"
            )
        # the largest lattice energy squared, 3 cutoff^2 + mass^2, is below 4 cutoff^2
        if not math.isfinite(4.0 * cutoff * cutoff):
            raise GeometryError("spacing too small: lattice energies overflow a float")

        self.N = N
        self.spacing = spacing
        self.mass = mass
        if instant is None:
            instant = Instant(normalize_velocity(vector(1, 0, 0, 0)), fiducial_origin())
        self.instant = instant
        self.observer = instant.observer
        self.origin = instant.anchor
        self.basis = spatial_basis_for(self.observer)
        self.axes = np.stack([b._c for b in self.basis])  # (3, 4), read-only as each b._c
        self.axes.flags.writeable = False

        a = spacing.value
        n = self.N
        idx = np.arange(n)
        self.signed_index = np.where(idx < n // 2, idx, idx - n)  # fft layout
        self.dk = 2.0 * math.pi / (n * a)
        self.k1d = self.signed_index * self.dk
        self.x1d = self.signed_index * a
        self.box_length = n * a
        self.cutoff = math.pi / a

        # band-limit energy assuming packet support within half the cutoff,
        # which the gaussian factory enforces; caps usable rapidity
        band_energy = math.sqrt(3.0 * (0.5 * self.cutoff) ** 2 + mass.value**2)
        self.chi_max = math.asinh(0.25 * self.cutoff / band_energy)

    @functools.cached_property
    def omega(self) -> np.ndarray:
        """The on-shell energy at each lattice label, built on first use: a lattice
        that a pullback plan rebuilds from its key never holds it."""
        k1, k2, k3 = np.ix_(self.k1d, self.k1d, self.k1d)
        return np.sqrt(self.mass.value**2 + k1**2 + k2**2 + k3**2)

    def refined(self) -> "ModelConfig":
        """Same physics on a lattice with twice the points per axis."""
        return ModelConfig(self.N * 2, self.spacing, self.mass, self.instant)

    def lattice_vector(self, steps) -> SpacetimeVector:
        """The spatial displacement of integer ``steps`` along the lattice axes."""
        a = self.spacing.value
        return sum(int(s) * a * b for s, b in zip(steps, self.basis))

    def echo(self) -> dict:
        """Configuration summary for reports."""
        return {
            "N": self.N,
            "spacing_sec": self.spacing.value,
            "mass_inv_sec": self.mass.value,
            "box_length_sec": self.box_length,
            "momentum_cutoff_inv_sec": self.cutoff,
            "rapidity_cap": self.chi_max,
        }

    def __repr__(self) -> str:
        return f"ModelConfig(N={self.N}, spacing={self.spacing!r}, mass={self.mass!r})"

"""Direct-sum reference for velocity changes along one lattice axis.

``apply_boost`` pulls momentum amplitudes back along the mass shell and
evaluates the trigonometric interpolant of the input at the pulled-back
labels with a pad-oversampled spline, an approximate type-2 non-uniform
FFT.  A boost along a lattice axis keeps the two transverse labels on
the lattice, so the interpolant can be evaluated exactly: a partial FFT
over the two fixed axes, then a direct trigonometric sum along the
boost axis.  The reference uses the same on-shell weight
``sqrt(omega_q / omega)`` and the same rescale to the input norm, so
``|apply_boost(psi) - exact_boost(psi)|`` is the interpolation error of
the program's kernel alone.
"""

from __future__ import annotations

import numpy as np

from minkabs.geometry import lorentz_product

LABEL_TOL = 1e-12  # fixed labels must sit on the lattice to this many steps


def pulled_labels(cfg, L) -> np.ndarray:
    """Lattice-basis momentum labels of ``L^-1`` applied to each on-shell
    four-momentum of the lattice, shape (N, N, N, 3).

    The four-momentum of label ``k`` is ``omega(k) u - sum_j k_j b_j``
    and labels are read back as ``q_i = -<p, b_i>``, the program's
    convention.
    """
    inv = L.inverse()
    u = cfg.observer.as_vector()
    a = np.array([lorentz_product(inv(u), b).value for b in cfg.basis])
    m = np.array(
        [[lorentz_product(inv(bj), bi).value for bj in cfg.basis] for bi in cfg.basis]
    )
    k = np.stack(np.meshgrid(cfg.k1d, cfg.k1d, cfg.k1d, indexing="ij"), axis=-1)
    return -cfg.omega[..., None] * a + k @ m.T


def moving_axis(cfg, q: np.ndarray) -> int:
    """The one lattice axis whose labels leave the lattice.

    Raises ``ValueError`` unless exactly two labels stay on their own
    lattice points to ``LABEL_TOL`` steps.
    """
    steps = q / cfg.dk
    own = np.stack(
        np.meshgrid(*(cfg.signed_index,) * 3, indexing="ij"), axis=-1
    ).astype(float)
    drift = np.max(np.abs(steps - own), axis=(0, 1, 2))
    fixed = [i for i in range(3) if drift[i] <= LABEL_TOL]
    if len(fixed) != 2:
        raise ValueError(
            "the direct-sum reference covers boosts along one lattice axis only "
            f"(label drift per axis in steps: {drift.tolist()})"
        )
    return 3 - sum(fixed)


def exact_boost(cfg, psi: np.ndarray, L) -> np.ndarray:
    """Reference mass-shell pullback of one amplitude field along ``L``."""
    q = pulled_labels(cfg, L)
    axis = moving_axis(cfg, q)
    n = cfg.N
    pos = np.fft.ifftn(psi, norm="ortho")
    fixed = tuple(i for i in range(3) if i != axis)
    # on-lattice labels: the transverse sums are ordinary DFTs
    part = np.moveaxis(np.fft.fftn(pos, axes=fixed, norm="ortho"), axis, 0)
    qm = np.moveaxis(q[..., axis], axis, 0)
    x = cfg.x1d  # signed positions, as in the program's interpolant
    out = np.empty((n, n, n), dtype=complex)
    for j in range(n):
        phase = np.exp(-1j * qm[j][..., None] * x)
        out[j] = np.einsum("fgn,nfg->fg", phase, part) / np.sqrt(n)
    out = np.moveaxis(out, 0, axis)
    omega_q = np.sqrt(cfg.mass.value**2 + np.sum(q * q, axis=-1))
    out *= np.sqrt(omega_q / cfg.omega)
    return out * (np.linalg.norm(psi) / np.linalg.norm(out))


def brute_force_boost(cfg, psi: np.ndarray, L) -> np.ndarray:
    """The same reference by a full 3-D direct sum; for small lattices."""
    q = pulled_labels(cfg, L).reshape(-1, 3)
    pos = np.fft.ifftn(psi, norm="ortho").reshape(-1)
    x = np.stack(np.meshgrid(*(cfg.x1d,) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = np.exp(-1j * (q @ x.T)) @ pos / cfg.N**1.5
    omega_q = np.sqrt(cfg.mass.value**2 + np.sum(q * q, axis=-1))
    out = (vals * np.sqrt(omega_q / cfg.omega.reshape(-1))).reshape(psi.shape)
    return out * (np.linalg.norm(psi) / np.linalg.norm(out))

"""Exact 2x2 complex algebra for spin-1/2 operators, states and unitaries.

Natural units (hbar = 1) throughout. Basis ordering is (|+1/2>, |-1/2>)
and the ladder convention is fixed to S+ = [[0, 1], [0, 0]], so that
S+ |-1/2> = |+1/2> and S+- = S1 +- i S2 hold exactly.

Both exponentials, the frame rotation `rotation_stack` (the only SU(2)
rotation; its columns are the states V |sigma>) and the oracle's steps
`spin_rotation_propagators`, are closed forms: a traceless 2x2 generator A
satisfies A^2 = -det(A) * 1, which collapses the series to a cosine/sine pair.
"""

from __future__ import annotations

import numpy as np

SIGMA_UP = 0.5
SIGMA_DOWN = -0.5


def validate_sigma(sigma: float) -> float:
    """Check that sigma is one of the two admitted spin projections."""
    if sigma == SIGMA_UP or sigma == SIGMA_DOWN:
        return float(sigma)
    raise ValueError(f"sigma must be +0.5 or -0.5, got {sigma!r}")


def rotation_stack(lam: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """V = exp(beta S+ - beta* S-), beta = -(lam/2) e^{-i gamma}, per sample: (N,) -> (N, 2, 2).

    V takes S3 into the spin direction: V S3 V^dag = sin(lam)(cos(gamma) S1
    + sin(gamma) S2) + cos(lam) S3.
    """
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    c = np.cos(lam / 2.0)
    s = np.sin(lam / 2.0)
    phase = np.exp(1j * gamma)
    out = np.empty(lam.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s * np.conj(phase)
    out[..., 1, 0] = s * phase
    out[..., 1, 1] = c
    return out


def spin_rotation_propagators(omegas: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i (w . S) dt) per row of w, in closed form: (N, 3) -> (N, 2, 2).

    With a = |w| dt / 2 and unit direction n = w/|w|:
    U = cos(a) 1 - i sin(a) (n . sigma_pauli).
    """
    omegas = np.asarray(omegas, dtype=float)
    wn = np.linalg.norm(omegas, axis=1)
    a = 0.5 * wn * dt
    c = np.cos(a)
    # sin(a)/|w|, with the w -> 0 limit dt/2 (finite, multiplies zero components)
    safe = np.where(wn == 0.0, 1.0, wn)
    s = np.where(wn == 0.0, 0.5 * dt, np.sin(a) / safe)
    wx, wy, wz = omegas[:, 0], omegas[:, 1], omegas[:, 2]
    out = np.empty((omegas.shape[0], 2, 2), dtype=complex)
    out[:, 0, 0] = c - 1j * s * wz
    out[:, 0, 1] = -1j * s * (wx - 1j * wy)
    out[:, 1, 0] = -1j * s * (wx + 1j * wy)
    out[:, 1, 1] = c + 1j * s * wz
    return out

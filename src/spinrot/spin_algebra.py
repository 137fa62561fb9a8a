"""Exact 2x2 complex algebra for spin-1/2 operators, states and unitaries.

Natural units (hbar = 1) throughout. Basis ordering is (|+1/2>, |-1/2>)
and the ladder convention is fixed to S+ = [[0, 1], [0, 0]], so that
S+ |-1/2> = |+1/2> and S+- = S1 +- i S2 hold exactly.

All exponentials here are evaluated in closed form: a traceless 2x2
generator A satisfies A^2 = -det(A) * 1, which collapses the series to a
cosine/sine pair. No generic matrix-exponential routine is involved.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

SIGMA_UP = 0.5
SIGMA_DOWN = -0.5


def _frozen(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False
    return m


S1 = _frozen([[0.0, 0.5], [0.5, 0.0]])
S2 = _frozen([[0.0, -0.5j], [0.5j, 0.0]])
S3 = _frozen([[0.5, 0.0], [0.0, -0.5]])
S_PLUS = _frozen([[0.0, 1.0], [0.0, 0.0]])
S_MINUS = _frozen([[0.0, 0.0], [1.0, 0.0]])
IDENTITY2 = _frozen([[1.0, 0.0], [0.0, 1.0]])


def validate_sigma(sigma: float) -> float:
    """Check that sigma is one of the two admitted spin projections."""
    if sigma == SIGMA_UP or sigma == SIGMA_DOWN:
        return float(sigma)
    raise ValueError(f"sigma must be +0.5 or -0.5, got {sigma!r}")


def basis_state(sigma: float) -> np.ndarray:
    """Eigenvector of S3 for the given projection, |+1/2> = (1, 0)."""
    validate_sigma(sigma)
    if sigma > 0:
        return np.array([1.0 + 0.0j, 0.0 + 0.0j])
    return np.array([0.0 + 0.0j, 1.0 + 0.0j])


def exp_su2(beta: complex) -> np.ndarray:
    """exp(beta S+ - conj(beta) S-), exactly unitary.

    The exponent A = [[0, beta], [-beta*, 0]] satisfies A^2 = -|beta|^2 1,
    hence exp(A) = cos|beta| 1 + (sin|beta|/|beta|) A.
    """
    b = complex(beta)
    if not (math.isfinite(b.real) and math.isfinite(b.imag)):
        raise ValueError(f"beta must be finite, got {beta!r}")
    r = abs(b)
    s = 1.0 if r == 0.0 else math.sin(r) / r
    c = math.cos(r)
    return np.array([[c, s * b], [-s * b.conjugate(), c]])


def rotation_from_angles(lam: float, gamma: float) -> np.ndarray:
    """exp(beta S+ - beta* S-) with beta = -(lam/2) exp(-i gamma).

    This is the rotation taking S3 into the (lam, gamma) spin direction:
    V S3 V^dag = sin(lam)(cos(gamma) S1 + sin(gamma) S2) + cos(lam) S3.
    """
    return exp_su2(-(lam / 2.0) * cmath.exp(-1j * gamma))


def rotation_stack(lam: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Vectorized rotation_from_angles: (N,) angles -> (N, 2, 2) unitaries."""
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

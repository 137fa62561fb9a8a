"""Exact SU(2) algebra for spin-1/2 states and unitaries.

Natural units (hbar = 1) throughout. Basis ordering is (|+1/2>, |-1/2>)
and the ladder convention is fixed to S+ = [[0, 1], [0, 0]], so that
S+ |-1/2> = |+1/2> and S+- = S1 +- i S2 hold exactly.

Every SU(2) element is held as its pair (a, b), U = [[a, b], [-b*, a*]].
Both exponentials are closed forms, since a traceless 2x2 generator A
satisfies A^2 = -det(A) * 1, which collapses the series to a cosine/sine
pair: the oracle's steps `spin_rotation_propagators`, as pairs, and the
frame rotation V, as the state `frame_state` = V|+1/2>. The time reversal
`time_reverse` commutes with every such propagator and defines
V|-1/2> = Theta V|+1/2>, so a spin-down state is derived, never built.
"""

from __future__ import annotations

import numpy as np

def validate_sigma(sigma: float) -> float:
    """Check that sigma is one of the two admitted spin projections."""
    if sigma == 0.5 or sigma == -0.5:
        return float(sigma)
    raise ValueError(f"sigma must be +0.5 or -0.5, got {sigma!r}")


def frame_state(lam: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """V|+1/2> = (cos(lam/2), sin(lam/2) e^{i gamma}) per sample: (...) -> (..., 2).

    V = exp(beta S+ - beta* S-), beta = -(lam/2) e^{-i gamma}, takes S3 into
    the spin direction: V S3 V^dag = sin(lam)(cos(gamma) S1 + sin(gamma) S2)
    + cos(lam) S3.
    """
    lam = np.asarray(lam, dtype=float)
    out = np.empty(lam.shape + (2,), dtype=complex)
    out[..., 0] = np.cos(lam / 2.0)
    out[..., 1] = np.sin(lam / 2.0) * np.exp(1j * np.asarray(gamma, dtype=float))
    return out


def time_reverse(states: np.ndarray) -> np.ndarray:
    """Theta = -i sigma_y K over the last axis: (psi0, psi1) -> (-psi1*, psi0*).

    Theta commutes with every SU(2) propagator and takes V|+1/2> to
    V|-1/2>, so it maps a spin-up run onto the spin-down run. The `+ 0.0`
    turns the -0.0 parts of the conjugates into the 0.0 a direct run holds.
    """
    states = np.asarray(states, dtype=complex)
    return np.stack((-states[..., 1].conj(), states[..., 0].conj()), axis=-1) + 0.0


def spin_rotation_propagators(omegas: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i (w . S) dt) per row of w, in closed form, as its pair: (N, 3) -> (a, b), each (N,).

    With a = |w| dt / 2 and unit direction n = w/|w|:
    U = cos(a) 1 - i sin(a) (n . sigma_pauli).
    """
    wx, wy, wz = np.asarray(omegas, dtype=float).T
    wn = np.sqrt(wx * wx + wy * wy + wz * wz)  # np.linalg.norm's sum, in its order
    a = 0.5 * wn * dt
    c = np.cos(a)
    # sin(a)/|w|, with the w -> 0 limit dt/2 (finite, multiplies zero components)
    safe = np.where(wn == 0.0, 1.0, wn)
    s = np.where(wn == 0.0, 0.5 * dt, np.sin(a) / safe)
    return c - 1j * s * wz, -1j * s * (wx - 1j * wy)

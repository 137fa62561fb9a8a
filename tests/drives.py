"""Test drives, states, spin matrices and exact references.

`spline_drive` builds a cubic-spline table through given angle functions;
`basis_state` is an S3 eigenvector; `cone_propagators` is the exact
propagator of a constant-precession cone. The read-only spin-1/2 matrices
S1, S2, S3, S_PLUS, S_MINUS and IDENTITY2 follow the basis ordering
(|+1/2>, |-1/2>) and the ladder convention of `spinrot.spin_algebra`, and
`su2_matrix` and `frame_matrix` are the 2x2 matrices of its pair form and
of its frame states.
"""

import numpy as np

from spinrot.spin_algebra import frame_state, spin_rotation_propagators, time_reverse
from spinrot.trajectory import OmegaTrajectory, omega_from_angles


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


def su2_matrix(a, b):
    """U = [[a, b], [-b*, a*]] per pair: (...), (...) -> (..., 2, 2)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return np.stack((np.stack((a, b), axis=-1), np.stack((-b.conj(), a.conj()), axis=-1)), axis=-2)


def frame_matrix(lam, gamma):
    """The frame rotation V(lam, gamma) per sample: (...) -> (..., 2, 2).

    Its columns are V|+1/2> and V|-1/2> = Theta V|+1/2>.
    """
    up = frame_state(lam, gamma)
    return np.stack((up, time_reverse(up)), axis=-1)


def spline_drive(omega0, theta_fn, phi_fn, t_end, n, t0=0.0):
    """OmegaTrajectory.from_table through theta_fn(t), phi_fn(t) at n points on [t0, t_end].

    theta_fn and phi_fn take and return numpy arrays.
    """
    t = np.linspace(t0, t_end, n)
    return OmegaTrajectory.from_table(omega0, t, theta_fn(t), phi_fn(t))


def basis_state(sigma):
    """Eigenvector of S3 for the projection sigma: |+1/2> = (1, 0), |-1/2> = (0, 1)."""
    assert sigma in (0.5, -0.5)
    return np.array([1.0 + 0.0j, 0.0j]) if sigma > 0 else np.array([0.0j, 1.0 + 0.0j])


def cone_propagators(omega0, Omega, theta, phi0, t):
    """Exact U(t) from time 0 for the cone w(t) = R_z(Omega t) w(0): shape (N, 2, 2).

    In the frame that rotates with the cone the field is static, so
    U(t) = exp(-i Omega t S3) exp(-i (w(0) . S - Omega S3) t): two closed-form
    exponentials per time and no step size (Rabi, Ramsey & Schwinger,
    Rev. Mod. Phys. 26, 167 (1954)).
    """
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    axis = np.array([0.0, 0.0, Omega])
    frame = su2_matrix(*spin_rotation_propagators(axis * t, 1.0))
    rotating = su2_matrix(*spin_rotation_propagators(
        (omega_from_angles(omega0, theta, phi0) - axis) * t, 1.0))
    return frame @ rotating

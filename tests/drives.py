"""Test drives, states and exact references.

`spline_drive` builds a cubic-spline table through given angle functions;
`basis_state` is an S3 eigenvector; `cone_propagators` is the exact
propagator of a constant-precession cone.
"""

import numpy as np

from spinrot.spin_algebra import spin_rotation_propagators
from spinrot.trajectory import OmegaTrajectory, omega_from_angles


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
    frame = spin_rotation_propagators(axis * t, 1.0)
    rotating = spin_rotation_propagators((omega_from_angles(omega0, theta, phi0) - axis) * t, 1.0)
    return frame @ rotating

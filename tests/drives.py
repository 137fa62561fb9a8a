"""Smooth test drives: a cubic-spline table through given angle functions."""

import numpy as np

from spinrot.trajectory import OmegaTrajectory


def spline_drive(omega0, theta_fn, phi_fn, t_end, n, t0=0.0):
    """OmegaTrajectory.from_table through theta_fn(t), phi_fn(t) at n points on [t0, t_end].

    theta_fn and phi_fn take and return numpy arrays.
    """
    t = np.linspace(t0, t_end, n)
    return OmegaTrajectory.from_table(omega0, t, theta_fn(t), phi_fn(t))

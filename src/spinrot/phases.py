"""Dynamical and geometric phase accumulation over an auxiliary solution.

Both phases are running integrals over the dense ODE output, evaluated
with composite Simpson quadrature on the same grid (no interpolation):

    phi_dyn(t) = sigma * int_0^t w0 [cos(lam) cos(th)
                                     + sin(lam) sin(th) cos(gamma - ph)] dt'
    phi_geo(t) = sigma * int_0^t dgamma/dt (1 - cos(lam)) dt'

phi_geo depends only on the (lam, gamma) path, not on how fast it is
traversed, and reduces per closed adiabatic cycle to the solid-angle value
2 pi sigma (1 - cos th) returned by `berry_limit_check`.

The particular solution carrying these phases is

    |psi_sigma(t)> = exp(-i [phi_dyn + phi_geo]) V(t) |sigma>,

assembled on the whole grid by `lr_states`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .invariant import AuxiliarySolution
from .spin_algebra import rotation_stack, validate_sigma
from .trajectory import OmegaTrajectory


@dataclass(frozen=True)
class PhaseRecord:
    """Accumulated phases for one spin projection at one time."""

    sigma: float
    phi_dyn: float
    phi_geo: float
    t: float

    @property
    def phi_total(self) -> float:
        return self.phi_dyn + self.phi_geo


@dataclass
class PhaseHistory:
    """Phase series on the auxiliary solution grid."""

    sigma: float
    t: np.ndarray
    phi_dyn: np.ndarray
    phi_geo: np.ndarray

    @property
    def phi_total(self) -> np.ndarray:
        return self.phi_dyn + self.phi_geo

    def final(self) -> PhaseRecord:
        return PhaseRecord(self.sigma, float(self.phi_dyn[-1]),
                           float(self.phi_geo[-1]), float(self.t[-1]))


def _check_series(sol: AuxiliarySolution, traj: OmegaTrajectory) -> None:
    if traj is sol.traj:
        return
    # Allow a distinct but equivalent trajectory object: same w0 and the
    # solution's drive angles at three probe times.
    if traj.omega0 != sol.traj.omega0:
        raise ValueError("trajectory does not match the auxiliary series (omega0 differs)")
    probes = [0, sol.n_samples // 2, -1]
    th, ph = traj.angles(sol.t[probes])
    if max(np.abs(th - sol.theta[probes]).max(), np.abs(ph - sol.phi[probes]).max()) > 1e-9:
        raise ValueError("trajectory does not match the auxiliary series (angles differ)")


def dynamical_phase(sol: AuxiliarySolution, sigma: float) -> np.ndarray:
    """Running dynamical phase on the solution grid, from its drive samples."""
    validate_sigma(sigma)
    if sol.n_samples == 1:
        return np.zeros(1)
    integrand = sol.traj.omega0 * (
        np.cos(sol.lam) * np.cos(sol.theta)
        + np.sin(sol.lam) * np.sin(sol.theta) * np.cos(sol.gamma - sol.phi)
    )
    return sigma * cumulative_simpson(integrand, x=sol.t, initial=0.0)


def geometric_phase(sol: AuxiliarySolution, sigma: float) -> np.ndarray:
    """Running geometric phase; independent of w0 given the angle history."""
    validate_sigma(sigma)
    if sol.n_samples == 1:
        return np.zeros(1)
    integrand = sol.gamma_dot * (1.0 - np.cos(sol.lam))
    return sigma * cumulative_simpson(integrand, x=sol.t, initial=0.0)


def accumulate_phases(sol: AuxiliarySolution, traj: OmegaTrajectory, sigma: float) -> PhaseHistory:
    """Both running phases; traj must be the solution's drive or an equivalent one."""
    _check_series(sol, traj)
    return PhaseHistory(
        sigma=validate_sigma(sigma),
        t=sol.t,
        phi_dyn=dynamical_phase(sol, sigma),
        phi_geo=geometric_phase(sol, sigma),
    )


def berry_limit_check(theta: float, sigma: float) -> float:
    """Adiabatic per-cycle reference 2 pi sigma (1 - cos theta)."""
    validate_sigma(sigma)
    if not (0.0 <= theta <= np.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return 2.0 * np.pi * sigma * (1.0 - np.cos(theta))


def lr_states(sol: AuxiliarySolution, history: PhaseHistory) -> np.ndarray:
    """Particular-solution states on the solution grid, shape (N, 2)."""
    if history.t.shape != sol.t.shape or not np.array_equal(history.t, sol.t):
        raise ValueError("phase history is not on the solution grid")
    v = rotation_stack(sol.lam, sol.gamma)
    col = 0 if history.sigma > 0 else 1
    return np.exp(-1j * history.phi_total)[:, None] * v[:, :, col]


def quadrature_error_estimate(y: np.ndarray, t: np.ndarray) -> float:
    """Richardson error bar for the Simpson integral of y over t.

    Compares the full-resolution Simpson result with the one on every
    second sample; for a fourth-order rule the difference over 15 bounds
    the fine-grid error.
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if y.size < 5:
        raise ValueError("need at least 5 samples for a Richardson estimate")
    n = y.size if y.size % 2 == 1 else y.size - 1  # odd count: clean halving
    fine = simpson(y[:n], x=t[:n])
    coarse = simpson(y[:n:2], x=t[:n:2])
    return abs(fine - coarse) / 15.0

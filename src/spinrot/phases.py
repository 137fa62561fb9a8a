"""Dynamical and geometric phase accumulation over an auxiliary solution.

Both phases are running integrals over the dense ODE output, evaluated
with composite Simpson quadrature on the same grid (no interpolation):

    phi_dyn(t) = sigma * int_0^t w0 [cos(lam) cos(th)
                                     + sin(lam) sin(th) cos(gamma - ph)] dt'
    phi_geo(t) = sigma * int_0^t dgamma/dt (1 - cos(lam)) dt'

phi_geo depends only on the (lam, gamma) path, not on how fast it is
traversed, and reduces per closed adiabatic cycle to the solid-angle value
2 pi sigma (1 - cos th) returned by `berry_limit_check`.

Near lam = pi that integrand spikes like 2 cot(lam), narrower than a step:
the Dirac string of the north-pole gauge of V (Wu & Yang, Phys. Rev. D 12,
3845 (1975)). On samples with cos(lam) < -cos(pi/4) phi_geo therefore takes
the increments of the south chart 2 (gamma - gamma_0) - int dgamma/dt (1 + cos lam),
which equals the north one exactly and has no spike at lam = pi.

The particular solution carrying these phases is

    |psi_sigma(t)> = exp(-i [phi_dyn + phi_geo]) V(t) |sigma>,

assembled on the whole grid by `lr_states`.

The quadratures are numpy ports of scipy 1.17's `cumulative_simpson` and
`simpson`, same formulas in the same order and so the same bits, so no
run needs scipy (the tabulated spline is ported in `trajectory`). Both rest on
Cartwright's unequal-interval Simpson rule (K. V. Cartwright,
J. Math. Sci. Math. Educ. 12(2), 1 (2017), eqn. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .invariant import AuxiliarySolution
from .spin_algebra import rotation_stack, validate_sigma
from .trajectory import OmegaTrajectory


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


def _intervals(x: np.ndarray) -> np.ndarray:
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("quadrature samples must be strictly increasing in x")
    return dx


def _first_interval_integrals(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integral over the first interval of each pair of intervals (eqn. 8)."""
    x21, x32 = dx[..., :-1], dx[..., 1:]
    x21_x31 = x21/(x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21/x32)
    return x21/6 * ((3 - x21_x31)*y[..., :-2] + (3 + x21x21_x31x32 + x21_x31)*y[..., 1:-1]
                    - x21x21_x31x32*y[..., 2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of y over the 1-D grid x along y's last axis, from 0.

    scipy.integrate.cumulative_simpson(y, x=x, axis=-1, initial=0.0).
    """
    dx = _intervals(x)
    if y.shape[-1] < 3:  # the trapezoid rule
        res = np.cumsum(dx * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    else:
        h1 = _first_interval_integrals(y, dx)
        h2 = _first_interval_integrals(y[..., ::-1], dx[::-1])[..., ::-1]
        sub = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
        sub[..., :-1:2] = h1[..., ::2]
        sub[..., 1::2] = h2[..., ::2]
        sub[..., -1] = h2[..., -1]  # the last interval has only a second-half formula
        res = np.cumsum(sub, axis=-1)
    # scipy adds the initial value, which turns -0.0 into 0.0
    return np.concatenate((np.zeros(y.shape[:-1] + (1,)), res + 0.0), axis=-1)


def _basic_simpson(y: np.ndarray, dx: np.ndarray, stop: int):
    """Composite Simpson over the pairs of intervals that start below index stop."""
    h0, h1 = dx[0:stop:2], dx[1:stop + 1:2]
    hsum, h0divh1 = h0 + h1, h0 / h1
    tmp = hsum/6.0 * (y[..., 0:stop:2] * (2.0 - 1.0 / h0divh1)
                      + y[..., 1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                      + y[..., 2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp, axis=-1)


def _simpson(y: np.ndarray, x: np.ndarray):
    """Integral of y over the 1-D grid x along y's last axis.

    scipy.integrate.simpson(y, x=x, axis=-1): with an even sample count,
    Simpson on all but the last interval plus Cartwright's correction.
    """
    dx = _intervals(x)
    n = y.shape[-1]
    if n % 2 == 1:
        return _basic_simpson(y, dx, n - 2)
    if n == 2:  # scipy adds this to a zero start, so -0.0 comes out 0.0
        return 0.0 + 0.5 * dx[-1] * (y[..., -1] + y[..., -2])
    alpha, beta, eta = _last_interval_weights(dx)
    last = alpha*y[..., -1] + beta*y[..., -2] - eta*y[..., -3]
    return _basic_simpson(y, dx, n - 3) + last + 0.0


def _last_interval_weights(dx: np.ndarray):
    """Cartwright's correction: the weights of y[-1], y[-2] and -y[-3]."""
    h0, h1 = dx[-2, ...], dx[-1, ...]  # 0-d arrays, so ** runs the ufunc as in scipy
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    return alpha, beta, eta


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with w @ y equal to _simpson(y, x) up to rounding: the same
    per-pair coefficients, and Cartwright's correction for an even count."""
    n = x.size
    w = np.zeros(n)
    if n < 2:
        return w
    dx = _intervals(x)
    if n == 2:
        return w + 0.5 * dx[-1]
    stop = n - 2 if n % 2 == 1 else n - 3
    h0, h1 = dx[0:stop:2], dx[1:stop + 1:2]
    hsum, h0divh1 = h0 + h1, h0 / h1
    w[0:stop:2] += hsum/6.0 * (2.0 - 1.0 / h0divh1)
    w[1:stop + 1:2] += hsum/6.0 * (hsum * (hsum / (h0 * h1)))
    w[2:stop + 2:2] += hsum/6.0 * (2.0 - h0divh1)
    if n % 2 == 0:
        alpha, beta, eta = _last_interval_weights(dx)
        w[-1] += alpha
        w[-2] += beta
        w[-3] -= eta
    return w


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
    return sigma * _cumulative_simpson(integrand, sol.t)


def geometric_phase(sol: AuxiliarySolution, sigma: float) -> np.ndarray:
    """Running geometric phase; independent of w0 given the angle history.

    Each maximal run of samples on one side of the chart threshold takes its
    increments from that side's chart, both integrated over the whole grid;
    neighbouring runs share their edge sample. A run that never crosses it
    is the north chart alone.
    """
    validate_sigma(sigma)
    if sol.n_samples == 1:
        return np.zeros(1)
    cos_lam = np.cos(sol.lam)
    north = _cumulative_simpson(sol.gamma_dot * (1.0 - cos_lam), sol.t)
    south = cos_lam < -np.cos(np.pi / 4.0)
    if not south.any():
        return sigma * north
    south_chart = 2.0 * (sol.gamma - sol.gamma[0]) - _cumulative_simpson(
        sol.gamma_dot * (1.0 + cos_lam), sol.t)
    edges = [0, *(np.flatnonzero(south[1:] != south[:-1]) + 1), sol.n_samples - 1]
    phase = np.zeros(sol.n_samples)
    for a, b in zip(edges[:-1], edges[1:]):
        chart = south_chart if south[a] else north
        phase[a:b + 1] = phase[a] + (chart[a:b + 1] - chart[a])
    return sigma * phase


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


def _on_grid(sol: AuxiliarySolution, history: PhaseHistory) -> PhaseHistory:
    """history, or GridMismatchError when its t is not exactly sol.t, which it carries."""
    if not np.array_equal(history.t, sol.t):
        raise GridMismatchError("phase history is not on the solution grid")
    return history


def lr_states(sol: AuxiliarySolution, history: PhaseHistory) -> np.ndarray:
    """Particular-solution states on the solution grid, shape (N, 2)."""
    _on_grid(sol, history)
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
    fine = _simpson(y[:n], t[:n])
    coarse = _simpson(y[:n:2], t[:n:2])
    return abs(fine - coarse) / 15.0

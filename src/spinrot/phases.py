"""Dynamical and geometric phase accumulation over an auxiliary solution.

Both phases are running integrals over the dense ODE output, evaluated
with composite Simpson quadrature on the same grid (no interpolation):

    phi_dyn(t) = sigma * int_0^t w0 [cos(lam) cos(th)
                                     + sin(lam) sin(th) cos(gamma - ph)] dt'
    phi_geo(t) = sigma * int_0^t dgamma/dt (1 - cos(lam)) dt'

Both are integrated once per solution: sigma only scales them, so the
sigma = -1/2 series are the exact negation of the sigma = +1/2 ones.

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

assembled on the whole grid by `lr_states`, with V|-1/2> = Theta V|+1/2>.

The running quadrature is a numpy port of scipy 1.17's `cumulative_simpson`,
same formulas in the same order and so the same bits; a whole integral is a
dot product with the weights of scipy's `simpson`, equal to it up to
rounding. So no run needs scipy (the tabulated spline is ported in
`trajectory`). Both rest on Cartwright's unequal-interval Simpson rule
(K. V. Cartwright, J. Math. Sci. Math. Educ. 12(2), 1 (2017), eqn. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .invariant import AuxiliarySolution
from .spin_algebra import frame_state, time_reverse, validate_sigma
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


def _first_interval_integrals(y0, y1, y2, x21, x32, out: np.ndarray) -> None:
    """Simpson integral over the first interval, x21 wide, of each pair of intervals x21,
    x32 with samples y0, y1, y2 at their ends (eqn. 8), into out.

    scipy's expression, its terms summed in its order, so its bits.
    """
    x21_x31 = x21/(x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21/x32)
    np.multiply(3 - x21_x31, y0, out=out)
    out += (3 + x21x21_x31x32 + x21_x31)*y1
    out -= x21x21_x31x32*y2
    out *= x21/6


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of y over the 1-D grid x along y's last axis, from 0.

    scipy.integrate.cumulative_simpson(y, x=x, axis=-1, initial=0.0). scipy
    forms the first-interval integral of every pair of intervals, forwards
    and backwards, and uses every other one; only those are formed here.
    """
    dx = _intervals(x)
    out = np.zeros(y.shape)
    run = out[..., 1:]  # each interval's integral, then their running sum, in place
    if y.shape[-1] < 3:  # the trapezoid rule
        run[...] = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        y0, y1, y2, a, b = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2], dx[:-1:2], dx[1::2]
        _first_interval_integrals(y0, y1, y2, a, b, run[..., :-1:2])
        _first_interval_integrals(y2, y1, y0, b, a, run[..., 1::2])  # the second, backwards
        if y.shape[-1] % 2 == 0:  # an odd count of intervals: the last has only a second half
            _first_interval_integrals(y[..., -1:], y[..., -2:-1], y[..., -3:-2], dx[-1:],
                                      dx[-2:-1], run[..., -1:])
    np.cumsum(run, axis=-1, out=run)
    run += 0.0  # scipy adds the initial value, which turns -0.0 into 0.0
    return out


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with w @ y the Simpson integral of y over the 1-D grid x.

    scipy.integrate.simpson(y, x=x) up to rounding: its per-pair
    coefficients, and Cartwright's correction on the last interval for an
    even count.
    """
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
    if n % 2 == 0:  # Cartwright's correction
        h0, h1 = dx[-2, ...], dx[-1, ...]  # 0-d arrays, so ** runs the ufunc as in scipy
        w[-1] += (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
        w[-2] += (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
        w[-3] -= h1 ** 3 / (6 * h0 * (h0 + h1))
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


def _phase_series(sol: AuxiliarySolution, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi_dyn, phi_geo) at sigma, integrated once per solution.

    The sigma = +1/2 series are kept on the solution, read-only, and
    returned as they are. The sigma = -1/2 ones are their negation, which
    is -1/2 * integral bit for bit.
    """
    if sol.n_samples == 1:
        return np.zeros(1), np.zeros(1)
    if sol._phase_series is None:
        dyn, geo = (0.5 * x for x in _running_integrals(sol))
        dyn.flags.writeable = geo.flags.writeable = False
        sol._phase_series = (dyn, geo)
    dyn, geo = sol._phase_series
    return (dyn, geo) if sigma > 0 else (-dyn, -geo)


def _running_integrals(sol: AuxiliarySolution) -> tuple[np.ndarray, np.ndarray]:
    """The running dynamical and geometric phases at sigma = 1, in one quadrature call.

    The dynamical integrand comes from the solution's drive samples. The
    geometric one takes its increments, on each maximal run of samples on
    one side of the chart threshold, from that side's chart; neighbouring
    runs share their edge sample. The south chart's integrand joins the
    stack only when some sample is south; then a run that never crosses
    the threshold is the north chart alone. Each row of the stack is
    integrated as alone, bit for bit.
    """
    cos_lam, sin_lam = np.cos(sol.lam), np.sin(sol.lam)
    dyn = sol.traj.omega0 * (
        cos_lam * np.cos(sol.theta) + sin_lam * np.sin(sol.theta) * np.cos(sol.gamma - sol.phi))
    rows = [dyn, sol.gamma_dot * (1.0 - cos_lam)]
    south = cos_lam < -np.cos(np.pi / 4.0)
    if south.any():
        rows.append(sol.gamma_dot * (1.0 + cos_lam))
    dyn, north, *rest = _cumulative_simpson(np.stack(rows), sol.t)
    if not rest:
        return dyn, north
    south_chart = 2.0 * (sol.gamma - sol.gamma[0]) - rest[0]
    edges = [0, *(np.flatnonzero(south[1:] != south[:-1]) + 1), sol.n_samples - 1]
    phase = np.zeros(sol.n_samples)
    for a, b in zip(edges[:-1], edges[1:]):
        chart = south_chart if south[a] else north
        phase[a:b + 1] = phase[a] + (chart[a:b + 1] - chart[a])
    return dyn, phase


def accumulate_phases(sol: AuxiliarySolution, traj: OmegaTrajectory, sigma: float) -> PhaseHistory:
    """Both running phases; traj must be the solution's drive or an equivalent one."""
    _check_series(sol, traj)
    sigma = validate_sigma(sigma)
    phi_dyn, phi_geo = _phase_series(sol, sigma)
    return PhaseHistory(sigma=sigma, t=sol.t, phi_dyn=phi_dyn, phi_geo=phi_geo)


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
    v = frame_state(sol.lam, sol.gamma)
    if history.sigma < 0:
        v = time_reverse(v)
    return np.exp(-1j * history.phi_total)[:, None] * v

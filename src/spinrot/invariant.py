"""Hermitian invariant of w(t).S dynamics and its auxiliary angle ODEs.

For H(t) = w(t) . S the operator

    I(t) = (1/2) sin(lam) e^{-i gamma} S+ + (1/2) sin(lam) e^{i gamma} S-
           + cos(lam) S3

keeps its eigenvalues +-1/2 at all times (dI/dt - i [I, H] = 0) provided
the angles obey

    dlam/dt   = w0 sin(th) sin(ph - gamma)
    dgamma/dt = w0 [cos(th) - sin(th) cot(lam) cos(ph - gamma)]

where (th, ph) parametrize w(t). The rotation V = exp(beta S+ - beta* S-),
beta = -(lam/2) e^{-i gamma}, diagonalizes it: V^dag I V = S3.

Equivalently I = n . S with n = (sin lam cos gamma, sin lam sin gamma, cos lam).
With [a.S, b.S] = i (a x b).S the LvN residual dI/dt - i [I, H] is
(dn/dt + n x w).S, whose Frobenius norm is |dn/dt + n x w| / sqrt(2).

cot(lam) makes lam = 0 and lam = pi singular; integration runs inside a
guard band and aborts (rather than regularizing) if the solution reaches
it, since a clipped cot corrupts dgamma/dt and with it the geometric phase.

The special cone solution: for th const and ph = Omega t, the angles
lam = const, gamma = Omega t solve the system exactly when
Omega = w0 sin(lam - th)/sin(lam); `solve_precession_lambda` inverts that
relation for the cone angle lam.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import NoSolutionError, SingularityError
from .io_utils import write_csv
from .trajectory import OmegaTrajectory, _grid_steps, check_sample_cap, omega_from_angles

EPS_LAMBDA = 1e-6  # guard band (rad) around the cot(lambda) singularities

_BLOCK = 512  # RK4 steps per kernel chain, their drive samples from one vectorized call


@dataclass
class AuxiliarySolution:
    """Dense output of one auxiliary-ODE integration on a uniform grid."""

    traj: OmegaTrajectory
    t: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    lam_dot: np.ndarray
    gamma_dot: np.ndarray
    theta: np.ndarray  # the drive's angles on the grid, sampled once by the integrator
    phi: np.ndarray
    step: float
    n_halvings: int = 0
    max_error_rate: float = 0.0  # adaptive mode: max local error per unit time
    meta: dict = field(default_factory=dict)
    # (phi_dyn, phi_geo) at sigma = +1/2, kept by `phases`
    _phase_series: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_samples(self) -> int:
        return int(self.t.size)

    def csv_table(self, residual: np.ndarray) -> tuple[list[str], list[np.ndarray]]:
        """Header and columns: t, lambda, gamma, lambda_dot, gamma_dot and the given lvn_residual."""
        return (["t", "lambda", "gamma", "lambda_dot", "gamma_dot", "lvn_residual"],
                [self.t, self.lam, self.gamma, self.lam_dot, self.gamma_dot, residual])

    def to_csv(self, path, comments: list[str] | None = None, *, residual: np.ndarray) -> None:
        """Emit `csv_table(residual)`."""
        write_csv(path, *self.csv_table(residual), comments)


def _guard_error(lam: float, eps_lambda: float, t: float) -> SingularityError:
    return SingularityError(
        f"lambda = {lam:.6g} reached the cot(lambda) guard "
        f"(eps = {eps_lambda:g}) at t = {t:.12g}", time=t)


def _rk4_step(t, lam, gam, h, a, b, c, w0, eps, lam_out, gam_out, starts=None):
    """A chain of RK4 steps, one per entry of the step times t; returns the last result.

    a, b, c are the drive's (sin th, cos th, ph) lists at t, t + h/2 and
    t + h. Step k starts from the result of step k - 1, the first from
    (lam, gam), or, given starts = (lams, gams), from (lams[k], gams[k]).
    Each result is appended to lam_out and gam_out. Every stage's lambda,
    the start's included, must sit inside the cot guard band; the first
    that does not raises, after the results before it were appended.
    """
    sin, cos = math.sin, math.cos
    hi = math.pi - eps
    hh, h6 = 0.5 * h, h / 6.0
    sa, ca, pa = a
    sb, cb, pb = b
    sc, cc, pc = c
    lams, gams = starts if starts is not None else (None, None)
    put_lam, put_gam = lam_out.append, gam_out.append
    for k in range(len(t)):
        if lams is not None:
            lam, gam = lams[k], gams[k]
        if not eps < lam < hi:
            raise _guard_error(lam, eps, t[k])
        s = sa[k]
        d = pa[k] - gam
        k1l = w0 * s * sin(d)
        k1g = w0 * (ca[k] - s * cos(d) * cos(lam) / sin(lam))
        y = lam + hh * k1l
        if not eps < y < hi:
            raise _guard_error(y, eps, t[k] + hh)
        s, co, ph = sb[k], cb[k], pb[k]
        d = ph - (gam + hh * k1g)
        k2l = w0 * s * sin(d)
        k2g = w0 * (co - s * cos(d) * cos(y) / sin(y))
        y = lam + hh * k2l
        if not eps < y < hi:
            raise _guard_error(y, eps, t[k] + hh)
        d = ph - (gam + hh * k2g)
        k3l = w0 * s * sin(d)
        k3g = w0 * (co - s * cos(d) * cos(y) / sin(y))
        y = lam + h * k3l
        if not eps < y < hi:
            raise _guard_error(y, eps, t[k] + h)
        s = sc[k]
        d = pc[k] - (gam + h * k3g)
        k4l = w0 * s * sin(d)
        k4g = w0 * (cc[k] - s * cos(d) * cos(y) / sin(y))
        lam, gam = (lam + h6 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l),
                    gam + h6 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g))
        put_lam(lam)
        put_gam(gam)
    return lam, gam


def _drive_stages(traj: OmegaTrajectory, times: list) -> list:
    """Per stage-time array, the drive's (sin th, cos th, ph) there as three float lists."""
    q = np.stack(times)
    th, ph = traj.angles(q.ravel())
    th = np.reshape(th, q.shape)
    return list(zip(np.sin(th).tolist(), np.cos(th).tolist(), np.reshape(ph, q.shape).tolist()))


def _interleave(x: list, y: list) -> list:
    """[x0, y0, x1, y1, ...] for lists of one length."""
    z = x + y
    z[::2] = x
    z[1::2] = y
    return z


def _adaptive_block(traj, tb, h, lk, gk, w0, eps, tol, may_halve, worst_rate, lam, gam):
    """One block of adaptive steps from (lk, gk); appends the accepted samples to lam, gam.

    The block's half steps run as one chain: its even samples are the
    accepted ones, and each full step then runs from its accepted start.
    A pass stops at its first guard hit. The outcomes are then read step by
    step in the order of a step-by-step loop: the full step's guard, the
    half steps' guards, the rate test, and (as the next step's start) the
    accepted sample's guard. Returns (lk, gk, worst_rate, ok); ok is False
    when a rate above tol calls for a halving, which may_halve allows.
    """
    mid = tb + 0.5 * h
    a, b, c, aq, bq, c2 = _drive_stages(
        traj, [tb, mid, tb + h, tb + 0.25 * h, mid + 0.25 * h, mid + 0.5 * h])
    tl = tb.tolist()
    acc_l, acc_g = array("d", [lk]), array("d", [gk])
    half_hit = full_hit = None
    half = [tuple(map(_interleave, x, y)) for x, y in ((a, b), (aq, bq), (b, c2))]
    try:
        _rk4_step(_interleave(tl, mid.tolist()), lk, gk, 0.5 * h, *half, w0, eps, acc_l, acc_g)
    except SingularityError as hit:
        half_hit = hit
    nf = min(len(tl), (len(acc_l) + 1) // 2)  # the steps whose start the chain reached
    full_l, full_g = array("d"), array("d")
    try:
        _rk4_step(tl[:nf], lk, gk, h, a, b, c, w0, eps, full_l, full_g,
                  starts=(acc_l[:2 * nf:2], acc_g[:2 * nf:2]))
    except SingularityError as hit:
        full_hit = hit
    for k in range(nf):
        if k == len(full_l):
            raise full_hit
        if 2 * k + 2 >= len(acc_l):
            raise half_hit
        lk, gk = acc_l[2 * k + 2], acc_g[2 * k + 2]
        err = max(abs(full_l[k] - lk), abs(full_g[k] - gk))
        rate = err / abs(h)
        worst_rate = max(worst_rate, rate)
        if rate > tol and may_halve:
            return lk, gk, worst_rate, False
        lam.append(lk)
        gam.append(gk)
    return lk, gk, worst_rate, True


def integrate_auxiliary(traj: OmegaTrajectory, lambda0: float, gamma0: float,
                        t_end: float, step: float, *, t0: float = 0.0,
                        adaptive: bool = False, max_halvings: int = 16) -> AuxiliarySolution:
    """Integrate the auxiliary angle ODEs with fixed-step RK4.

    Parameters
    ----------
    traj : OmegaTrajectory
        Drives (th(t), ph(t), w0).
    lambda0, gamma0 : float
        Initial angles; lambda0 must sit strictly inside the guard band.
    t_end, step : float
        Final time and requested step magnitude. Backward runs (t_end < t0)
        are supported; the step count is n = rint(|t_end - t0| / step).
    adaptive : bool
        When set, each step is also taken as two half steps; if the
        worst-case local error rate max|y_h - y_{h/2}| / |h| ever exceeds
        1e-9 * w0 (the accuracy at which the dense output keeps the
        invariant condition), the whole run is rerun at half the step,
        preserving the uniform output grid, at most `max_halvings` times.

    The drive is never evaluated per RK4 stage. The grid is walked in
    blocks of `_BLOCK` steps; for each block one vectorized `traj.angles`
    call samples the drive at every stage time of its steps (the same
    floats t_k + h/2, t_k + h, ... the step arithmetic produces), and one
    `_rk4_step` call runs the block's steps as a chain, doing only the
    (lambda, gamma) arithmetic on Python floats. An adaptive block has
    half as many steps: its half steps run as one chain, then each full
    step from its accepted start, and the outcomes are read in step order
    (`_adaptive_block`). The cot guard still applies to every stage's
    lambda and to every accepted sample. A tabulated drive checks its
    domain once, on [t0, t_end], before the first step. One more vectorized call samples the drive on
    the output grid; those angles are kept on the solution, and the stored
    rates are the right-hand side evaluated on them.

    Raises
    ------
    SingularityError
        If lambda0 starts inside the cot guard band (EPS_LAMBDA from 0 or
        pi), or lambda reaches it; the message names the time.
    OutOfDomainError
        If [t0, t_end] leaves a tabulated drive's domain.
    ValueError
        On a step that is not positive and finite; a ConfigError when the
        first or a halved grid is above the sample cap.
    """
    eps_lambda = EPS_LAMBDA
    if not (eps_lambda < lambda0 < math.pi - eps_lambda):
        raise SingularityError(
            f"lambda0 = {lambda0!r} outside the integrable band "
            f"({eps_lambda:g}, pi - {eps_lambda:g}) of the cot(lambda) guard", time=t0)
    w0 = traj.omega0
    tol = 1e-9 * w0
    traj.angles(np.array([t0, t_end]))  # a tabulated drive checks its domain here, once
    n = _grid_steps(t0, t_end, step)
    size = (_BLOCK + 1) // 2 if adaptive else _BLOCK  # a half-step chain of about _BLOCK steps
    halvings = 0
    while True:
        t = np.linspace(t0, t_end, n + 1)
        h = (t_end - t0) / n if n else step
        lam = array("d", [lambda0])
        gam = array("d", [gamma0])
        lk, gk = lambda0, gamma0
        worst_rate = 0.0
        ok = True
        for k0 in range(0, n, size):
            tb = t[k0:min(k0 + size, n)]
            if adaptive:
                lk, gk, worst_rate, ok = _adaptive_block(
                    traj, tb, h, lk, gk, w0, eps_lambda, tol, halvings < max_halvings,
                    worst_rate, lam, gam)
                if not ok:
                    break
            else:
                lk, gk = _rk4_step(tb.tolist(), lk, gk, h,
                                   *_drive_stages(traj, [tb, tb + 0.5 * h, tb + h]),
                                   w0, eps_lambda, lam, gam)
        if ok:
            break
        n *= 2
        halvings += 1
        check_sample_cap(n + 1, abs(t_end - t0) / n, "halved step")
    if not (eps_lambda < lk < math.pi - eps_lambda):  # each other sample was a step's start
        raise _guard_error(lk, eps_lambda, float(t[n]))
    meta = {}
    if adaptive and worst_rate > tol:
        meta["error_rate_tol_exceeded"] = True

    lam = np.array(lam)
    gam = np.array(gam)
    th, ph = traj.angles(t)
    s_th = np.sin(th)
    d = ph - gam
    lam_dot = w0 * s_th * np.sin(d)
    gam_dot = w0 * (np.cos(th) - s_th * np.cos(d) * np.cos(lam) / np.sin(lam))
    return AuxiliarySolution(
        traj, t, lam, gam, lam_dot, gam_dot, th, ph, step=h, n_halvings=halvings,
        max_error_rate=worst_rate, meta=meta)


def solve_precession_lambda(omega0: float, Omega: float, theta: float) -> float:
    """Cone angle lam with Omega = w0 sin(lam - th)/sin(lam), in (0, pi).

    Closed form: lam = atan2(sin th, cos th - Omega/w0). Degenerate
    th in {0, pi} admits a solution only for Omega = 0 (lam = th).
    """
    if not (math.isfinite(omega0) and omega0 >= 0.0):
        raise ValueError(f"omega0 must be finite and >= 0, got {omega0!r}")
    s_th = math.sin(theta)
    if omega0 == 0.0 or abs(s_th) < 1e-12:
        if Omega == 0.0:
            return float(theta)
        raise NoSolutionError(
            f"no cone angle exists for theta = {theta!r} with Omega = {Omega!r} "
            f"and omega0 = {omega0!r}")
    c_rel = math.cos(theta) - Omega / omega0
    lam = math.atan2(s_th, c_rel)
    if not (0.0 < lam < math.pi):
        raise NoSolutionError(f"cone angle left (0, pi): lam = {lam!r}")
    # internal consistency in the unamplified linear form
    # sin(lam) (cos th - Omega/w0) = cos(lam) sin th
    resid = abs(math.sin(lam) * c_rel - math.cos(lam) * s_th)
    if resid > 1e-12 * math.hypot(s_th, c_rel):
        raise ArithmeticError(f"cone-angle inversion residual {resid:g} too large")
    return lam


def _residual_norms(lam, gamma, lam_dot, gamma_dot, omegas) -> np.ndarray:
    """|dI/dt - i[I, H]|_F = |dn/dt + n x w| / sqrt(2) over stacked samples."""
    cl, sl = np.cos(lam), np.sin(lam)
    cg, sg = np.cos(gamma), np.sin(gamma)
    n = np.stack([sl * cg, sl * sg, cl], axis=-1)
    dn = np.stack([lam_dot * cl * cg - gamma_dot * sl * sg,
                   lam_dot * cl * sg + gamma_dot * sl * cg,
                   -lam_dot * sl], axis=-1)
    return np.linalg.norm(dn + np.cross(n, omegas), axis=-1) / math.sqrt(2.0)


def _grid_omega(sol: AuxiliarySolution) -> np.ndarray:
    return omega_from_angles(sol.traj.omega0, sol.theta, sol.phi)


def lvn_residual_samples(sol: AuxiliarySolution) -> np.ndarray:
    """Residual at every sample using the stored (RHS-evaluated) rates."""
    return _residual_norms(sol.lam, sol.gamma, sol.lam_dot, sol.gamma_dot, _grid_omega(sol))


def _fd_derivative_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference dy/dt on a uniform grid (>= 5 points)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 5:
        return np.gradient(y, h)
    d = np.empty(n)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
    d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    return d


def lvn_residual_series(sol: AuxiliarySolution) -> np.ndarray:
    """A-posteriori residual: rates re-estimated by finite differences.

    Unlike the stored-rate residual (which checks algebraic consistency
    and sits at rounding level for any integrator output), this one sees
    the integration error itself and scales as O(step^4) for RK4.
    """
    lam_fd = _fd_derivative_uniform(sol.lam, sol.step)
    gam_fd = _fd_derivative_uniform(sol.gamma, sol.step)
    return _residual_norms(sol.lam, sol.gamma, lam_fd, gam_fd, _grid_omega(sol))

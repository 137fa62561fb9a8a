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

cot(lam) makes lam = 0 and lam = pi singular in the angle ODEs, so
`integrate_auxiliary` steps n instead, by the same condition dn/dt = w x n,
in a frame turning about z with the drive, and reads the angles off each
sample. It aborts (rather than regularizing) when a sample's lam enters a
guard band around a pole, or gamma turns by more than pi/2 in one step.

The special cone solution: for th const and ph = Omega t, the angles
lam = const, gamma = Omega t solve the system exactly when
Omega = w0 sin(lam - th)/sin(lam); `solve_precession_lambda` inverts that
relation for the cone angle lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NoSolutionError, SingularityError
from .io_utils import write_csv
from .trajectory import KIND_CONSTANT_PRECESSION, OmegaTrajectory, _grid_steps, check_sample_cap

EPS_LAMBDA = 1e-6  # guard band (rad) around the poles lambda = 0 and lambda = pi

_BLOCK = 1024  # RK4 steps per block; 2048 is 5% faster but holds 0.7 MB more at once


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


def _frame(traj: OmegaTrajectory, t0: float, t_end: float) -> tuple[float, float]:
    """(c, rate) of the frame angle alpha(t) = c + rate t: a cone's ph, bit for bit, or from
    ph(t0) at a table's mean rate over the run, whose domain on [t0, t_end] is checked here."""
    if traj.kind == KIND_CONSTANT_PRECESSION:
        return traj.params["phi0"], traj.params["Omega"]
    ph0, ph1 = traj.angles(np.array([t0, t_end]))[1]
    rate = (ph1 - ph0) / (t_end - t0) if t_end != t0 else 0.0
    return ph0 - rate * t0, rate


def _cross(b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """b x v, component by component, for b of shape (3, N) and v of shape (3, 3, N)."""
    bx, by, bz = b
    x, y, z = v
    out = np.empty(v.shape)  # filled in place: np.stack costs as much as the products
    np.subtract(by * z, bz * y, out=out[0])
    np.subtract(bz * x, bx * z, out=out[1])
    np.subtract(bx * y, by * x, out=out[2])
    return out


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b per sample for 3x3 matrices in component form, a[i, j, ...] and b[j, k, ...].

    Elementwise products, not np.matmul, whose first BLAS call maps some
    0.4 MB of code and buffers, for matrices too small to gain from it.
    """
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1] + a[:, 2, None] * b[2]


def _rk4_step(b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step matrices M of dn'/dt = b x n' for one block, shape (3, 3, N).

    b1, b2, b3 are b at each step's t, t + h/2 and t + h, shape (3, N).
    RK4 runs on the three basis vectors at once: column j of M[..., k] is
    step k's image of e_j.
    """
    eye = np.eye(3)[:, :, None]
    bx, by, bz = b1
    zero = np.zeros_like(bx)
    k1 = np.stack(((zero, -bz, by), (bz, zero, -bx), (-by, bx, zero)))  # b1 x e_j
    k2 = _cross(b2, eye + (0.5 * h) * k1)
    k3 = _cross(b2, eye + (0.5 * h) * k2)
    k4 = _cross(b3, eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _field(w0: float, th: np.ndarray, ph: np.ndarray, times: np.ndarray, c: float,
           rate: float) -> np.ndarray:
    """b = w' - rate z, shape (3, N), from the drive's angles th, ph at times.

    w' is w(t) turned by -alpha(t) = -(c + rate t) about z.
    """
    s = w0 * np.sin(th)
    d = ph - (c + rate * times)
    return np.stack((s * np.cos(d), s * np.sin(d), w0 * np.cos(th) - rate))


def _field_is_static(traj: OmegaTrajectory) -> bool:
    """Whether b is one vector at every time: a cone's, (w0 sin th, 0, w0 cos th - Omega).

    In a cone's frame ph - (c + rate t) is a float expression minus
    itself, exactly 0, so every step of a pass has the same matrix.
    """
    return traj.kind == KIND_CONSTANT_PRECESSION


def _block_steps(traj: OmegaTrajectory, tg: np.ndarray, h: float, c: float, rate: float,
                 adaptive: bool) -> tuple:
    """(th, ph, m, dm) of the steps between the grid points tg.

    One `traj.angles` call samples tg and the stage times between its
    points; th, ph are the drive's angles at tg. m[k] takes step k's start
    to its sample: the RK4 step, or in adaptive mode the product of two
    half steps, when dm is the whole step minus m (else None).
    """
    tb = tg[:-1]
    mid = tb + 0.5 * h
    times = np.concatenate([tg, mid, tb + 0.25 * h, mid + 0.25 * h] if adaptive else [tg, mid])
    th, ph = traj.angles(times)
    b = _field(traj.omega0, th, ph, times, c, rate)
    n = len(tb)
    start, end, centre = b[:, :n], b[:, 1:n + 1], b[:, n + 1:2 * n + 1]
    if not adaptive:
        _check_stable(h, b)
        return th[:n + 1], ph[:n + 1], _rk4_step(start, centre, end, h), None
    full = _rk4_step(start, centre, end, h)
    first = _rk4_step(start, b[:, 2 * n + 1:3 * n + 1], centre, 0.5 * h)
    second = _rk4_step(centre, b[:, 3 * n + 1:], end, 0.5 * h)
    m = _compose(second, first)
    return th[:n + 1], ph[:n + 1], m, full - m


def _check_stable(h: float, b: np.ndarray) -> None:
    """ConfigError when h |b| reaches 2 sqrt(2) at some column of b, shape (3, N).

    dn'/dt = b x n' has eigenvalues 0 and +-i|b|, and RK4's stability
    region meets the imaginary axis at 2 sqrt(2): beyond it the fixed-step
    samples grow off the unit sphere. An adaptive pass is left to its rate
    test, which halves such a pass.
    """
    x, y, z = b
    hb = abs(h) * float(np.sqrt((x * x + y * y) + z * z).max())
    if hb >= 2.0 * math.sqrt(2.0):
        raise ConfigError(f"step = {abs(h):g} gives h*|b| = {hb:.4g}, "
                          "beyond RK4's stability limit 2*sqrt(2)")


def _static_steps(b: np.ndarray, h: float, adaptive: bool, n: int) -> tuple:
    """(powers, dm) of a pass whose field is the one column b, shape (3, 1).

    Every step of the pass is one matrix M, as `_block_steps` forms it, and
    dm is its whole step minus M in adaptive mode (else None). powers holds
    M, M^2, ..., M^s, shape (s, 3, 3, 1), each the product `_chain` forms,
    for the sub-block length s of a block of n steps, the pass's longest.
    The powers are multiplied in Python floats, each entry summed in
    `_compose`'s order, so they hold its bits without its dozen numpy
    calls per 3x3 product.
    """
    full = _rk4_step(b, b, b, h)
    m, dm = full, None
    if adaptive:
        half = _rk4_step(b, b, b, 0.5 * h)
        m = _compose(half, half)
        dm = full - m
    else:
        _check_stable(h, b)
    rows = m[:, :, 0].tolist()
    powers = [rows]
    for _ in range(1, _sub_block(n)):
        p = powers[-1]
        powers.append([[r[0] * p[0][k] + r[1] * p[1][k] + r[2] * p[2][k] for k in range(3)]
                       for r in rows])
    return np.array(powers)[..., None], dm


def _sub_block(n: int) -> int:
    """Steps per sub-block of `_chain` for a block of n steps."""
    return math.isqrt(n // 4) + 1


def _chain(m: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The vectors after each of n steps, (3, n), of the steps m applied in turn to v.

    m is the steps, shape (3, 3, n), or, when all are one matrix, its
    powers from `_static_steps`, shape (s', 3, 3, 1) with s' at least the
    sub-block length, whose prefix is broadcast over the sub-blocks.
    A blocked two-level product: the running products inside sub-blocks
    of about sqrt(n/4) steps, then the sub-blocks' start vectors one after
    the other, then each running product applied to its start. (A product
    across the sub-blocks costs about as much as ten start-vector steps.)
    A last sub-block shorter than the others is padded; its samples past
    the n-th are dropped, so the padding's products are never used.
    """
    s = _sub_block(n)
    q = -(-n // s)
    if m.ndim == 4:
        p = np.broadcast_to(m[:s], (s, 3, 3, q))
    else:
        p = np.empty((3, 3, q * s))
        p[:, :, :n] = m
        p[:, :, n:] = np.eye(3)[:, :, None]
        p = p.reshape(3, 3, q, s).transpose(3, 0, 1, 2).copy()  # p[i]: step i of every sub-block
        for i in range(1, s):
            p[i] = _compose(p[i], p[i - 1])
    starts = []
    x, y, z = v
    for r0, r1, r2 in np.moveaxis(p[-1], 2, 0).tolist():
        starts.append((x, y, z))
        x, y, z = (r0[0] * x + r0[1] * y + r0[2] * z, r1[0] * x + r1[1] * y + r1[2] * z,
                   r2[0] * x + r2[1] * y + r2[2] * z)
    out = _compose(p.transpose(1, 2, 0, 3), np.array(starts).T[:, None])[:, 0]  # (3, s, q)
    return out.transpose(0, 2, 1).reshape(3, q * s)[:, :n]


def integrate_auxiliary(traj: OmegaTrajectory, lambda0: float, gamma0: float,
                        t_end: float, step: float, *, t0: float = 0.0,
                        adaptive: bool = False, max_halvings: int = 16) -> AuxiliarySolution:
    """Integrate the auxiliary angle ODEs by fixed-step RK4 on the Bloch vector.

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
        When set, each step is also taken as two half steps, which give the
        sample; if a local error rate |(M_h - M_{h/2} M_{h/2}) n'| / |h|, an
        error in n, not in (lambda, gamma), exceeds 1e-9 * w0 (at which the
        dense output keeps the invariant condition), the whole run is rerun
        at half the step, at most `max_halvings` times, and sampled on the
        last grid: each halving doubles the samples (2^k n + 1 after k).

    n' = R_z(-alpha) n, the invariant's direction in the frame turned about
    z by alpha(t) (`_frame`), obeys dn'/dt = b x n', b = w' - (dalpha/dt) z.
    That ODE is linear, so each RK4 step is a 3x3 matrix of b at t, t + h/2
    and t + h (`_rk4_step`). Per block of `_BLOCK` steps (adaptive: half as
    many), one `traj.angles` call samples the grid points and stage times,
    the matrices come from whole-array operations, and the samples are
    their running products applied to the vector carried in (`_chain`).
    A cone's b is one vector at every time (`_field_is_static`): per pass
    (the run, or one halving) its one step matrix and that matrix's powers
    are built once (`_static_steps`), bit for bit the matrices and products
    of the per-step scheme, and a block samples the drive on its grid only.
    Then lam = atan2(hypot(n'x, n'y), n'z) and gamma = alpha + psi, with
    psi = atan2(n'y, n'x) unwrapped from gamma0 - alpha(t0), both as
    increments from the start (a sample equal to the start gives lambda0
    and gamma0 back). The drive's angles on the grid are kept on the
    solution, and the stored rates are the angle ODEs' right-hand side on
    them.

    Raises
    ------
    SingularityError
        If lambda0 starts inside the guard band (EPS_LAMBDA from 0 or pi),
        or at the first sample whose lambda is inside it or whose gamma
        turned by more than pi/2 since the sample before (then its unwrapping
        is ambiguous), naming its time; in adaptive mode only if the step's
        error rate calls for no halving.
    OutOfDomainError
        If [t0, t_end] leaves a tabulated drive's domain.
    ValueError
        On a step that is not positive and finite; a ConfigError when the
        first or a halved grid is above the sample cap, or when a fixed
        step is beyond RK4's stability: h |b| at least 2 sqrt(2) at a
        field sample of a block, checked before the block is stepped
        (`_check_stable`).
    """
    eps_lambda = EPS_LAMBDA
    if not (eps_lambda < lambda0 < math.pi - eps_lambda):
        raise SingularityError(
            f"lambda0 = {lambda0!r} outside the integrable band "
            f"({eps_lambda:g}, pi - {eps_lambda:g}) of the pole guard", time=t0)
    w0 = traj.omega0
    tol = 1e-9 * w0
    c, rate = _frame(traj, t0, t_end)
    n = _grid_steps(t0, t_end, step)
    psi0 = gamma0 - (c + rate * t0)
    v0 = np.array([math.sin(lambda0) * math.cos(psi0), math.sin(lambda0) * math.sin(psi0),
                   math.cos(lambda0)])
    lam_0, a_0 = math.atan2(math.hypot(v0[0], v0[1]), v0[2]), math.atan2(v0[1], v0[0])
    static = _field_is_static(traj)
    halvings = 0
    while True:
        t = np.linspace(t0, t_end, n + 1)
        h = (t_end - t0) / n if n else step
        lam, gam, th, ph = (np.empty(n + 1) for _ in range(4))
        lam[0], gam[0] = lambda0, gamma0
        if not n:
            th, ph = traj.angles(t)
        v, a_prev, winding = v0, a_0, 0.0
        worst_rate = 0.0
        size = (_BLOCK + 1) // 2 if adaptive else _BLOCK  # an adaptive step holds three matrices
        steps = None
        # a pass that may yet be halved can overflow: its rate and pole tests, not numpy's
        # warnings, refuse the inf and nan
        may_halve = adaptive and halvings < max_halvings
        with np.errstate(**({"over": "ignore", "invalid": "ignore"} if may_halve else {})):
            for k0 in range(0, n, size):
                k1 = min(k0 + size, n)
                tg = t[k0:k1 + 1]
                if static:
                    th[k0:k1 + 1], ph[k0:k1 + 1] = traj.angles(tg)
                    if steps is None:  # from the pass's first block, its longest
                        b = _field(w0, th[:1], ph[:1], tg[:1], c, rate)
                        steps = _static_steps(b, h, adaptive, k1 - k0)
                    m, dm = steps
                else:
                    th[k0:k1 + 1], ph[k0:k1 + 1], m, dm = _block_steps(traj, tg, h, c, rate,
                                                                       adaptive)
                nb = _chain(m, v, k1 - k0)
                x, y, z = nb
                a = np.arctan2(y, x)
                d = np.diff(a, prepend=a_prev)
                wraps = np.rint(d / (2.0 * math.pi))
                turn = d - 2.0 * math.pi * wraps  # gamma's turn since the sample before
                winding = winding + np.cumsum(wraps)
                lb = lambda0 + (np.arctan2(np.hypot(x, y), z) - lam_0)
                lam[k0 + 1:k1 + 1] = lb
                gam[k0 + 1:k1 + 1] = (c + rate * t[k0 + 1:k1 + 1]) + (
                    psi0 + ((a - a_0) - 2.0 * math.pi * winding))
                bad = np.flatnonzero(~((eps_lambda < lb) & (lb < math.pi - eps_lambda))
                                     | (np.abs(turn) > 0.5 * math.pi))
                if adaptive:
                    err = _compose(dm, np.column_stack((v, nb[:, :-1]))[:, None])[:, 0]
                    rates = np.sqrt(np.sum(err * err, axis=0)) / abs(h)
                    rates[np.isnan(rates)] = np.inf  # an undefined error exceeds any tolerance
                    worst_rate = max(worst_rate, float(rates.max()))
                    over = np.flatnonzero(rates > tol)
                    if may_halve and over.size and not (bad.size and bad[0] < over[0]):
                        break
                if bad.size:
                    j = bad[0]
                    tj = float(t[k0 + 1 + j])
                    if eps_lambda < lb[j] < math.pi - eps_lambda:
                        msg = f"gamma turned by {turn[j]:.6g} rad in one step, beyond pi/2"
                    else:
                        pole = "0" if lb[j] < 1.0 else "pi"
                        msg = f"lambda came within {eps_lambda:g} of the pole at {pole}"
                    raise SingularityError(f"{msg} at t = {tj:.12g}", time=tj)
                v, a_prev, winding = nb[:, -1], a[-1], winding[-1]
            else:
                break
        n *= 2
        halvings += 1
        check_sample_cap(n + 1, abs(t_end - t0) / n, "halved step")
    meta = {}
    if adaptive and worst_rate > tol:
        meta["error_rate_tol_exceeded"] = True

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


def _residual_norms(sol: AuxiliarySolution, lam_dot: np.ndarray,
                    gamma_dot: np.ndarray) -> np.ndarray:
    """|dI/dt - i[I, H]|_F = |dn/dt + n x w| / sqrt(2) at every sample, for the given rates.

    w is formed from the solution's stored drive angles, and the sum in
    component form: the bits of np.linalg.norm(dn + np.cross(n, w), axis=-1),
    which sums the squares as (x^2 + y^2) + z^2.
    """
    cl, sl = np.cos(sol.lam), np.sin(sol.lam)
    cg, sg = np.cos(sol.gamma), np.sin(sol.gamma)
    s = np.sin(sol.theta)
    w0 = sol.traj.omega0
    wx, wy, wz = w0 * (s * np.cos(sol.phi)), w0 * (s * np.sin(sol.phi)), w0 * np.cos(sol.theta)
    nx, ny = sl * cg, sl * sg
    # each square is summed as soon as it is formed, in place: fewer arrays held at once
    r = (lam_dot * cl * cg - gamma_dot * sl * sg) + (ny * wz - cl * wy)
    r *= r
    sq = (lam_dot * cl * sg + gamma_dot * sl * cg) + (cl * wx - nx * wz)
    sq *= sq
    r += sq
    sq = -lam_dot * sl + (nx * wy - ny * wx)
    sq *= sq
    r += sq
    np.sqrt(r, out=r)
    r /= math.sqrt(2.0)
    return r


def lvn_residual_samples(sol: AuxiliarySolution) -> np.ndarray:
    """Residual at every sample using the stored (RHS-evaluated) rates."""
    return _residual_norms(sol, sol.lam_dot, sol.gamma_dot)


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
    return _residual_norms(sol, lam_fd, gam_fd)

"""Angular-velocity histories w(t) of constant magnitude.

A trajectory is the spherical-angle parametrization

    w(t) = w0 (sin th(t) cos ph(t), sin th(t) sin ph(t), cos th(t)),

with w0 fixed, so |w(t)| = w0 holds by construction. Every consumer
reads the drive through the two angle callables alone.

Angles are kept continuous: ph is never reduced mod 2pi (tabulated input
is unwrapped on load), since downstream ODEs need smooth ph - gamma.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import ConfigError, OutOfDomainError

KIND_CONSTANT_PRECESSION = "constant_precession"
KIND_TABULATED = "tabulated"

MAX_SAMPLES = 4_000_000  # cap on the samples of one time grid


class OmegaTrajectory:
    """Immutable w(t) history from two vectorized angle callables; use the factories."""

    def __init__(self, omega0, kind, theta, phi, t_min=-math.inf, t_max=math.inf, params=None):
        omega0 = float(omega0)
        if not math.isfinite(omega0) or omega0 < 0.0:
            raise ValueError(f"omega0 must be finite and >= 0, got {omega0!r}")
        self.omega0 = omega0
        self.kind = kind
        self.t_min = t_min
        self.t_max = t_max
        self.params = dict(params or {})
        self._theta = theta
        self._phi = phi

    # -- factories ---------------------------------------------------------

    @classmethod
    def constant_precession(cls, omega0, Omega, theta, phi0=0.0):
        """Cone of half-angle theta precessing about z at rate Omega.

        th(t) = theta, ph(t) = phi0 + Omega t.
        """
        Omega = float(Omega)
        theta = float(theta)
        phi0 = float(phi0)
        if not (0.0 <= theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        return cls(
            omega0, KIND_CONSTANT_PRECESSION,
            theta=lambda t: np.full(np.shape(t), theta),
            phi=lambda t: phi0 + Omega * t,
            params={"Omega": Omega, "theta": theta, "phi0": phi0},
        )

    @classmethod
    def from_table(cls, omega0, t, theta, phi):
        """Not-a-knot cubic-spline interpolant through sampled angles.

        t must be strictly increasing with at least 4 samples and every
        sample finite; phi is unwrapped so the interpolant never jumps by
        2pi. The samples should resolve the motion. The spline is a numpy
        port of scipy 1.17's default `CubicSpline`: the same values to the
        bit (see `_not_a_knot_coefficients` and `_evaluate_pieces`).
        """
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if t.ndim != 1 or t.size < 4:
            raise ValueError("tabulated trajectory needs at least 4 samples")
        if theta.shape != t.shape or phi.shape != t.shape:
            raise ValueError("t, theta, phi must have matching shapes")
        for name, column in (("t", t), ("theta", theta), ("phi", phi)):
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                raise ValueError(f"{name} samples must be finite, got {column[bad[0]]} "
                                 f"in data row {bad[0] + 1}")
        if not np.all(np.diff(t) > 0):
            raise ValueError("tabulated times must be strictly increasing")
        if np.any(theta < -1e-12) or np.any(theta > math.pi + 1e-12):
            raise ValueError("theta samples must lie in [0, pi]")
        theta = np.clip(theta, 0.0, math.pi)
        phi = np.unwrap(phi)
        th_c, ph_c = _not_a_knot_coefficients(t, (theta, phi))
        return cls(
            omega0, KIND_TABULATED,
            theta=lambda x: _evaluate_pieces(t, th_c, x),
            phi=lambda x: _evaluate_pieces(t, ph_c, x),
            t_min=float(t[0]), t_max=float(t[-1]),
            params={"n_samples": int(t.size)},
        )

    @classmethod
    def from_csv(cls, path, omega0):
        """Load a tabulated trajectory from CSV with header t,theta,phi (SI units).

        Every ValueError names the path once, first.
        """
        try:
            with open(path, newline="") as fh:
                data = _read_angle_table(fh)
            return cls.from_table(omega0, data[:, 0], data[:, 1], data[:, 2])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    # -- evaluation --------------------------------------------------------

    def _check_time(self, t: np.ndarray) -> None:
        slack = 1e-9 * (self.t_max - self.t_min)
        tmin, tmax = self.t_min - slack, self.t_max + slack
        if t.size and (t.min() < tmin or t.max() > tmax):
            bad = float(t.min() if t.min() < tmin else t.max())
            raise OutOfDomainError(
                f"t={bad} outside tabulated domain [{self.t_min}, {self.t_max}]"
            )

    def angles(self, t):
        """(theta, phi) at scalar or array t."""
        t = np.asarray(t, dtype=float)
        if self.kind == KIND_TABULATED:
            self._check_time(t)
        return self._theta(t), self._phi(t)

    def angles_scalar(self, t: float) -> tuple[float, float]:
        """(theta, phi) at one time, as plain floats."""
        th, ph = self.angles(t)
        return float(th), float(ph)

    def omega(self, t):
        """w(t); shape (3,) for scalar t, (N, 3) for array t."""
        return omega_from_angles(self.omega0, *self.angles(t))

    def period(self) -> float | None:
        """Precession period 2pi/|Omega|, when defined."""
        if self.kind == KIND_CONSTANT_PRECESSION and self.params["Omega"] != 0.0:
            return 2.0 * math.pi / abs(self.params["Omega"])
        return None


def _read_angle_table(fh) -> np.ndarray:
    """(N, 3) rows of t,theta,phi from an open CSV; '#' lines and blank lines are skipped."""
    rows = []
    reader = csv.reader(fh)
    header = None
    for rec in reader:
        if not rec or rec[0].lstrip().startswith("#"):
            continue
        if header is None:
            header = [c.strip() for c in rec]
            if header[:3] != ["t", "theta", "phi"]:
                raise ValueError(f"expected header 't,theta,phi', got {','.join(header)}")
            continue
        try:
            rows.append([float(rec[0]), float(rec[1]), float(rec[2])])
        except (IndexError, ValueError):
            raise ValueError(f"line {reader.line_num}: expected three numbers "
                             f"t,theta,phi, got {','.join(rec)!r}") from None
    if header is None:
        raise ValueError("missing required header 't,theta,phi'")
    if not rows:
        raise ValueError("no data rows")
    return np.array(rows, dtype=float)


# -- not-a-knot cubic spline --------------------------------------------------
#
# Ports of scipy 1.17's `CubicSpline(x, y)` (bc_type "not-a-knot"; de Boor,
# A Practical Guide to Splines, ch. IV), of the reference LAPACK `dgtsv` its
# `solve_banded` calls, and of `PPoly.__call__`. Each keeps scipy's formulas
# and operation order, so the coefficients and values are the same bits as
# scipy's; the tests check this against scipy.


def _not_a_knot_coefficients(x, ys):
    """Piecewise-cubic coefficients, shape (4, n-1), of the not-a-knot spline through each y.

    Row k of a result multiplies s**(3 - k), s = t - x[i] on piece i, as in
    scipy's `PPoly.c`. The knot slopes solve one tridiagonal system whose
    matrix depends on x only, so every y shares one elimination.
    """
    dx = np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    slopes = [np.diff(y) / dx for y in ys]
    rhs = []
    for slope in slopes:
        b = np.empty(x.size)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0
        b[-1] = (dx[-1]**2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        rhs.append(b.tolist())
    # scipy's banded matrix: the interior rows (dx[i], 2 (dx[i-1] + dx[i]), dx[i-1])
    # between the not-a-knot end rows (dx[1], d0) and (d1, dx[-2])
    lower = [*dx[1:].tolist(), float(d1)]
    diag = [float(dx[1]), *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])]
    upper = [float(d0), *dx[:-1].tolist()]
    _gtsv(lower, diag, upper, rhs)
    coefficients = []
    for y, slope, s in zip(ys, slopes, rhs):
        s = np.array(s)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        coefficients.append(np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])))
    return coefficients


def _gtsv(dl, d, du, bs):
    """Solve the tridiagonal system with sub-, main and super-diagonals dl, d, du for each b in bs.

    Reference LAPACK dgtsv in plain Python floats: Gaussian elimination
    with partial pivoting, rows i and i+1 swapped when |d[i]| < |dl[i]|,
    then back substitution, in which dl holds the second super-diagonal
    that the swaps fill in. Like LAPACK it overwrites its lists: each b
    ends up holding its solution, dl, d and du the factors.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for b in bs:
                b[i + 1] = b[i + 1] - fact * b[i]
            if i < n - 2:
                dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for b in bs:
                temp = b[i]
                b[i] = b[i + 1]
                b[i + 1] = temp - fact * b[i + 1]
    for b in bs:
        b[n - 1] = b[n - 1] / d[n - 1]
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]


def _evaluate_pieces(x, c, t):
    """The piecewise polynomial with knots x and coefficients c at t (any shape, 0-d too).

    Piece i serves x[i] <= t < x[i+1]; the first and last pieces extend
    past the ends, and the last knot belongs to the last piece. The powers
    are summed from the constant term up, as scipy's `evaluate_poly1` does:
    its leading `0.0 +` turns a -0.0 constant into 0.0.
    """
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    s = t - x[i]
    ci = c[:, i]
    value = 0.0 + ci[-1]
    power = s
    for k in range(c.shape[0] - 2, -1, -1):
        value = value + ci[k] * power
        if k:
            power = power * s
    return np.asarray(value)


def omega_from_angles(omega0: float, th, ph) -> np.ndarray:
    """w0 (sin th cos ph, sin th sin ph, cos th), stacked on a last axis of 3."""
    s = np.sin(th)
    return omega0 * np.stack([s * np.cos(ph), s * np.sin(ph), np.cos(th)], axis=-1)


def check_sample_cap(samples: float, step: float, key: str) -> None:
    """The one sample-cap test: ConfigError, naming `key = step`, above MAX_SAMPLES samples.

    MAX_SAMPLES is read here, at call time. samples is a float, inf for a
    subnormal step, so the count cannot overflow; from 1e15 on it is printed
    to four digits, not as an integer of up to 309 digits.
    """
    if not samples <= MAX_SAMPLES:  # also true for inf and nan
        count = f"{samples:.0f}" if samples < 1e15 else f"{samples:.4g}"
        raise ConfigError(
            f"{key} = {float(step)!r} gives {count} samples, above the cap of {MAX_SAMPLES}")


def _grid_steps(t0: float, t_end: float, step: float) -> int:
    """Step count max(1, rint(|t_end - t0| / step)) of a uniform grid, 0 when t_end == t0.

    A step not positive and finite is a ValueError; the cap is checked before any grid exists.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if t_end == t0:
        return 0
    n = np.rint(abs(t_end - t0) / step)
    check_sample_cap(n + 1, step, "step")
    return max(1, int(n))

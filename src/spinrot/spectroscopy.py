"""Transition phases, first-order amplitudes and spectral line shifts.

An electron level (n, sigma) with bare energy eps_{n,sigma} evolving under
the spin-rotation coupling carries the combined phase
phi_sigma(t) + eps_{n,sigma} t / hbar. A perturbation H'(t) then drives
transitions with matrix element

    <m,sigma'| V^dag(t) H'(t) V(t) |n,sigma> * exp(-i phi_tot(t)),
    phi_tot = [phi_sigma + eps_{n,sigma} t] - [phi_sigma' + eps_{m,sigma'} t],

and first-order amplitude a(t) = -i int_0^t (element/hbar) e^{-i phi_tot} dt'.

For the constant-precession cone the total-phase rate is linear in t and
every line between (k, sigma) and (m, sigma') sits at the bare gap shifted
by

    (sigma - sigma') [w0 cos(lam - th) + Omega (1 - cos lam)] * hbar,

computed by `spectral_shift` (in eV). `line_table` enumerates those
positions; `transition_amplitude` / `resonance_scan` validate them
operationally via the drive-frequency response.

Energies cross the eV boundary here and nowhere else: levels and matrix
elements are stated in eV and divided by HBAR_EV_S internally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_EV_S
from .invariant import AuxiliarySolution, solve_precession_lambda
from .phases import PhaseHistory, _on_grid, _simpson_weights
from .spin_algebra import frame_state, time_reverse, validate_sigma

_FIRST_ORDER_WARN = 0.1  # |a| beyond this leaves the first-order regime
_GRID_ULPS = 8  # a scan frequency may sit this many ulps off f0 + k df


@dataclass(frozen=True)
class EnergyLevel:
    """Unperturbed level (n, sigma) with energy in eV."""

    n: int
    sigma: float
    epsilon_ev: float

    def __post_init__(self):
        validate_sigma(self.sigma)
        if not math.isfinite(self.epsilon_ev):
            raise ValueError(f"epsilon_ev must be finite, got {self.epsilon_ev!r}")

    @property
    def epsilon_rad_s(self) -> float:
        return self.epsilon_ev / HBAR_EV_S

    @property
    def key(self) -> tuple[int, float]:
        return (self.n, self.sigma)


@dataclass(frozen=True)
class SpectralLine:
    """One transition with its unshifted gap and rotation-induced shift (eV)."""

    from_state: tuple[int, float]
    to_state: tuple[int, float]
    bare_gap_ev: float
    shift_ev: float

    @property
    def shifted_position_ev(self) -> float:
        return self.bare_gap_ev + self.shift_ev


def _spin_index(sigma: float) -> int:
    return 0 if sigma > 0 else 1


class PerturbationModel:
    """Hermitian perturbation with one 2x2 spin block per orbital pair.

    blocks[(m, n)][i, j] = <m, s_i| H' |n, s_j> in eV with spin ordering
    (+1/2, -1/2). Hermiticity requires blocks[(n, m)] = blocks[(m, n)]^dag;
    a missing reverse block is filled in automatically, a present one is
    checked.
    """

    def __init__(self, blocks: dict):
        filled: dict[tuple[int, int], np.ndarray] = {}
        for (m, n), block in blocks.items():
            b = np.asarray(block, dtype=complex)
            if b.shape != (2, 2):
                raise ValueError(f"block ({m},{n}) must be 2x2, got {b.shape}")
            filled[(m, n)] = b
        for (m, n), b in list(filled.items()):
            rev = filled.get((n, m))
            if rev is None:
                filled[(n, m)] = b.conj().T
            elif not np.allclose(rev, b.conj().T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(b).max()))):
                raise ValueError(f"perturbation is not Hermitian across blocks ({m},{n})/({n},{m})")
        self.blocks = filled

    def block(self, m: int, n: int) -> np.ndarray:
        b = self.blocks.get((m, n))
        if b is None:
            return np.zeros((2, 2), dtype=complex)
        return b


def spectral_shift(sigma: float, sigma_p: float, omega0: float, Omega: float,
                   theta: float) -> float:
    """Line displacement (sigma - sigma')[w0 cos(lam-th) + Omega (1-cos lam)], in eV."""
    validate_sigma(sigma)
    validate_sigma(sigma_p)
    if sigma == sigma_p:
        return 0.0
    lam = solve_precession_lambda(omega0, Omega, theta)
    rate = omega0 * math.cos(lam - theta) + Omega * (1.0 - math.cos(lam))
    return (sigma - sigma_p) * rate * HBAR_EV_S


def _phase_history_for(sol, phase_histories, sigma: float) -> PhaseHistory:
    for hist in phase_histories:
        if hist.sigma == sigma:
            return _on_grid(sol, hist)
    raise ValueError(f"missing phase history for sigma = {sigma}")


def _amplitude_integrand(pert, from_level, to_level, sol, phase_histories):
    """-i (dressed element / hbar) e^{-i phi_tot} on the solution grid, sans drive."""
    hist_from = _phase_history_for(sol, phase_histories, from_level.sigma)
    hist_to = _phase_history_for(sol, phase_histories, to_level.sigma)
    b = pert.block(to_level.n, from_level.n)
    up = frame_state(sol.lam, sol.gamma)
    fr, to = (up if lv.sigma > 0 else time_reverse(up) for lv in (from_level, to_level))
    to = to.conj()
    # <to| V^dag b V |from>: the two states V|sigma'>, V|sigma> around the block
    elem = (to[:, 0] * (b[0, 0] * fr[:, 0] + b[0, 1] * fr[:, 1])
            + to[:, 1] * (b[1, 0] * fr[:, 0] + b[1, 1] * fr[:, 1])) / HBAR_EV_S
    phi_tot = (hist_from.phi_total + from_level.epsilon_rad_s * sol.t) \
        - (hist_to.phi_total + to_level.epsilon_rad_s * sol.t)
    return -1j * elem * np.exp(-1j * phi_tot)


def transition_amplitude(pert: PerturbationModel, from_level: EnergyLevel,
                         to_level: EnergyLevel, sol: AuxiliarySolution,
                         phase_histories, t_end: float | None = None) -> complex:
    """First-order amplitude a_{to}(t_end) starting from a_{from}(0) = 1.

    Simpson quadrature on the auxiliary solution grid; t_end must be a
    grid sample (defaults to the last). Warns when |a| leaves the
    first-order validity window.
    """
    g = _amplitude_integrand(pert, from_level, to_level, sol, phase_histories)
    if t_end is None:
        i_end = sol.n_samples - 1
    else:
        i_end = int(round((t_end - sol.t[0]) / sol.step))
        if i_end < 0 or i_end >= sol.n_samples or abs(sol.t[i_end] - t_end) > 1e-9 * max(1.0, abs(t_end)):
            raise ValueError(f"t_end = {t_end} is not a solution grid sample")
    tt, y = sol.t[: i_end + 1], g[: i_end + 1]
    a = complex(_simpson_weights(tt) @ y)
    if abs(a) > _FIRST_ORDER_WARN:
        warnings.warn(
            f"|a| = {abs(a):.3g} exceeds the first-order validity window",
            stacklevel=2)
    return a


def resonance_scan(pert: PerturbationModel, from_level: EnergyLevel,
                   to_level: EnergyLevel, sol: AuxiliarySolution,
                   phase_histories, frequencies) -> np.ndarray:
    """|a(t_end)|^2 versus monochromatic drive frequency, by chirp-z transforms.

    One flat entry per frequency. With y = w g, g the amplitude integrand
    on the uniform grid t_n = t0 + n h and w the weights of the Simpson
    rule (`_simpson_weights`), the drive cos(f t) gives
    |1/2 (G(f_k) + G(-f_k))|^2, G(f) = sum_n y_n e^{i f t_n}. On a uniform
    frequency grid f_k = f0 + k df, nk = (n^2 + k^2 - (k - n)^2)/2 turns
    each G into one Bluestein chirp-z: a convolution with the chirp
    e^{-i a j^2/2}, a = df h, done by FFTs of length >= N + M - 1. The
    cost is O((N + M) log(N + M)) time and O(N + M) memory for N samples
    and M frequencies.

    The frequencies (any shape, flattened) must be uniform: each within
    a few ulps of f0 + k df, as `np.linspace` makes them, or ValueError.
    The chirp phase a j^2/2, j up to max(N, M), is rounded with an
    absolute error of about eps |a| max(N, M)^2 / 2 rad (eps = 2.2e-16),
    which bounds the phase error of each term of G.
    """
    freqs = np.asarray(frequencies, dtype=float).ravel()
    g = _amplitude_integrand(pert, from_level, to_level, sol, phase_histories)
    return _cosine_response(g, sol.t, freqs)


def _cosine_response(g: np.ndarray, t: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """|Simpson integral of g(t) cos(f t)|^2 for each f of a flat uniform grid."""
    m, n = freqs.size, t.size
    if m == 0:
        return np.empty(0)
    f0 = freqs[0]
    df = (freqs[-1] - f0) / (m - 1) if m > 1 else 0.0
    k = np.arange(m)
    tol = _GRID_ULPS * np.finfo(float).eps * max(abs(f0), abs(freqs[-1]))
    if not np.all(np.abs(freqs - (f0 + k * df)) <= tol):
        raise ValueError("scan frequencies must be finite and uniformly spaced")
    h = (t[-1] - t[0]) / (n - 1) if n > 1 else 0.0
    a = df * h
    j = np.arange(max(m, n), dtype=float)
    chirp = np.exp(1j * (0.5 * a * (j * j)))  # e^{i a j^2/2}
    y = _simpson_weights(t) * g
    pre = np.exp(1j * f0 * t) * chirp[:n]
    post = np.exp(1j * (k * df) * t[0]) * chirp[:m]
    size = 1 << (n + m - 2).bit_length()  # >= n + m - 1
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()  # e^{-i a j^2/2}, j = 0 .. m - 1
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()  # j = -(n - 1) .. -1
    spec = np.fft.fft(kernel)
    # G(-f) = conj(sum conj(y) e^{ift}): both transforms share the chirp
    gs = []
    for u in (y, y.conj()):
        x = np.fft.fft(u * pre, size)
        x *= spec
        gs.append(post * np.fft.ifft(x)[:m])
    z = 0.5 * (gs[0] + gs[1].conj())
    return z.real**2 + z.imag**2


def peak_frequency(frequencies, response) -> float:
    """Parabolic refinement of the response maximum on the scan grid."""
    freqs = np.asarray(frequencies, dtype=float)
    resp = np.asarray(response, dtype=float)
    i = int(np.argmax(resp))
    if i == 0 or i == resp.size - 1:
        return float(freqs[i])
    y0, y1, y2 = resp[i - 1], resp[i], resp[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(freqs[i])
    delta = 0.5 * (y0 - y2) / denom
    return float(freqs[i] + delta * (freqs[i + 1] - freqs[i]))


def line_table(levels, omega0: float, Omega: float, theta: float,
               pert: PerturbationModel | None = None) -> list[SpectralLine]:
    """All transition lines between distinct (n, sigma) states, eV positions.

    Each unordered pair contributes one line, oriented so the shifted
    position is non-negative (the photon energy exchanged). When a
    perturbation model is given, pairs whose spin block vanishes
    identically are dropped. Sorted by shifted position.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("level set must be nonempty")
    keys = set()
    for lv in levels:
        if lv.key in keys:
            raise ValueError(f"duplicate level {lv.key}")
        keys.add(lv.key)
    states = sorted(levels, key=lambda lv: (lv.n, -lv.sigma))
    lines = []
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            a, b = states[i], states[j]
            if pert is not None:
                blk = pert.block(b.n, a.n)
                if not np.any(blk[_spin_index(b.sigma), _spin_index(a.sigma)]):
                    continue
            shift = spectral_shift(a.sigma, b.sigma, omega0, Omega, theta)
            bare = a.epsilon_ev - b.epsilon_ev
            if bare + shift < 0.0:
                a, b = b, a
                shift, bare = -shift, -bare
            lines.append(SpectralLine(a.key, b.key, bare, shift))
    lines.sort(key=lambda ln: (ln.shifted_position_ev, ln.from_state, ln.to_state))
    return lines

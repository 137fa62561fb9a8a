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
from .errors import GridMismatchError
from .invariant import AuxiliarySolution, solve_precession_lambda
from .phases import PhaseHistory, _simpson
from .spin_algebra import rotation_stack, validate_sigma

_FIRST_ORDER_WARN = 0.1  # |a| beyond this leaves the first-order regime
_SCAN_BLOCK = 1 << 16  # elements of the (frequencies x samples) table per block


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


def _phase_history_for(phase_histories, sigma: float) -> PhaseHistory:
    for hist in phase_histories:
        if hist.sigma == sigma:
            return hist
    raise ValueError(f"missing phase history for sigma = {sigma}")


def _amplitude_integrand(pert, from_level, to_level, sol, phase_histories):
    """-i (dressed element / hbar) e^{-i phi_tot} on the solution grid, sans drive."""
    hist_from = _phase_history_for(phase_histories, from_level.sigma)
    hist_to = _phase_history_for(phase_histories, to_level.sigma)
    for hist in (hist_from, hist_to):
        if hist.t.shape != sol.t.shape or not np.allclose(
                hist.t, sol.t, rtol=0.0, atol=1e-12 * max(1.0, float(abs(sol.t[-1])))):
            raise GridMismatchError("phase history is not on the solution grid")
    block = pert.block(to_level.n, from_level.n)
    v = rotation_stack(sol.lam, sol.gamma)
    dressed = np.einsum("nji,jk,nkl->nil", v.conj(), block, v)
    elem = dressed[:, _spin_index(to_level.sigma), _spin_index(from_level.sigma)] / HBAR_EV_S
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
    if i_end < 2:
        return 0.0 + 0.0j
    tt, y = sol.t[: i_end + 1], g[: i_end + 1]
    a = complex(_simpson(y.real, tt) + 1j * _simpson(y.imag, tt))
    if abs(a) > _FIRST_ORDER_WARN:
        warnings.warn(
            f"|a| = {abs(a):.3g} exceeds the first-order validity window",
            stacklevel=2)
    return a


def resonance_scan(pert: PerturbationModel, from_level: EnergyLevel,
                   to_level: EnergyLevel, sol: AuxiliarySolution,
                   phase_histories, frequencies) -> np.ndarray:
    """|a(t_end)|^2 versus monochromatic drive frequency, in frequency blocks.

    One flat entry per frequency. Each block of the cos(f t) table holds
    about _SCAN_BLOCK elements, and Simpson reduces every row on its own,
    so the result does not depend on the block size.
    """
    freqs = np.asarray(frequencies, dtype=float).ravel()
    g = _amplitude_integrand(pert, from_level, to_level, sol, phase_histories)
    g_re, g_im = np.ascontiguousarray(g.real), np.ascontiguousarray(g.imag)
    out = np.empty(freqs.size)
    rows = max(1, _SCAN_BLOCK // sol.t.size)
    for k in range(0, freqs.size, rows):
        c = np.outer(freqs[k:k + rows], sol.t)
        np.cos(c, out=c)
        out[k:k + rows] = _simpson(c * g_re, sol.t)**2 + _simpson(c * g_im, sol.t)**2
    return out


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

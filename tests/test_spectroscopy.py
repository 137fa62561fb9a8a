"""Transition phases, first-order amplitudes, spectral line shifts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from drives import basis_state, frame_matrix, spline_drive
from spinrot import spectroscopy
from spinrot.constants import HBAR_EV_S
from spinrot.errors import GridMismatchError, NoSolutionError
from spinrot.invariant import integrate_auxiliary, solve_precession_lambda
from spinrot.oracle import fidelity, propagate
from spinrot.phases import PhaseHistory, _simpson_weights, accumulate_phases, lr_states
from spinrot.spectroscopy import (EnergyLevel, PerturbationModel,
                                  line_table, peak_frequency,
                                  resonance_scan, spectral_shift,
                                  transition_amplitude, _amplitude_integrand)
from spinrot.trajectory import OmegaTrajectory


def _rad(x):
    """Energy in eV whose angular frequency is x rad/s."""
    return x * HBAR_EV_S


def _locked(w0=1.0, Om=0.5, th=math.pi / 3.0, periods=2.0, step=0.01):
    traj = OmegaTrajectory.constant_precession(w0, Om, th)
    lam = solve_precession_lambda(w0, Om, th)
    t_end = periods * 2.0 * math.pi / Om
    sol = integrate_auxiliary(traj, lam, 0.0, t_end, step)
    hists = [accumulate_phases(sol, traj, s) for s in (0.5, -0.5)]
    return traj, sol, hists


# -- total phase -----------------------------------------------------------------

def _phi_tot(from_level, to_level, sol, hists):
    """phi_tot on the grid, unwrapped from the phase of the amplitude integrand.

    The spin block is sigma_z for a flip (dressed element sin(lam) e^{...},
    nonzero inside the guard band) and the identity otherwise; the dressed
    element is built as the integrand builds it, so its phase cancels exactly.
    """
    block = np.diag([1.0, -1.0]) if from_level.sigma != to_level.sigma else np.eye(2)
    pert = PerturbationModel({(to_level.n, from_level.n): block})
    g = _amplitude_integrand(pert, from_level, to_level, sol, hists)
    v = frame_matrix(sol.lam, sol.gamma)
    to = v[:, :, 0 if to_level.sigma > 0 else 1].conj()
    fr = v[:, :, 0 if from_level.sigma > 0 else 1]
    elem = (to[:, 0] * (block[0, 0] * fr[:, 0] + block[0, 1] * fr[:, 1])
            + to[:, 1] * (block[1, 0] * fr[:, 0] + block[1, 1] * fr[:, 1])) / HBAR_EV_S
    return -np.unwrap(np.angle(1j * g) - np.angle(elem))


def test_total_phase_identical_states_zero():
    _, sol, hists = _locked(periods=0.5)
    levels = [EnergyLevel(1, 0.5, _rad(2.0)), EnergyLevel(2, 0.5, _rad(2.0))]
    assert np.all(_phi_tot(levels[0], levels[1], sol, hists) == 0.0)


def test_total_phase_precession_rate():
    # flip transition, zero bare gap: rate is
    # (sigma - sigma')[w0 cos(lam - th) + Omega (1 - cos lam)]
    _, sol, hists = _locked(w0=1.0, Om=0.5, th=math.pi / 3.0)
    levels = [EnergyLevel(1, 0.5, 0.0), EnergyLevel(1, -0.5, 0.0)]
    phi = _phi_tot(levels[0], levels[1], sol, hists)
    assert phi[-1] / sol.t[-1] == pytest.approx(1.3660254037844386, rel=1e-9)


def test_total_phase_missing_record():
    traj, sol, hists = _locked(periods=0.25)
    levels = [EnergyLevel(1, 0.5, 0.0), EnergyLevel(1, -0.5, 0.0)]
    pert = PerturbationModel({(1, 1): np.diag([1.0, -1.0])})
    with pytest.raises(ValueError, match="missing phase history"):
        _amplitude_integrand(pert, levels[0], levels[1], sol, hists[:1])  # no sigma' history
    other = integrate_auxiliary(traj, sol.lam[0], 0.0, float(sol.t[-1]), 0.02)
    with pytest.raises(GridMismatchError):
        _amplitude_integrand(pert, levels[0], levels[1], sol,
                             [hists[0], accumulate_phases(other, traj, -0.5)])


def test_total_phase_matches_oracle_reconstruction():
    # general (nutating) trajectory: phi_tot from the quadrature pipeline
    # agrees with phases pulled out of the brute-force propagator
    w0 = 1.0
    t_end = 6.0
    traj = spline_drive(w0, lambda t: 1.1 + 0.2 * np.sin(0.8 * t),
                        lambda t: 0.6 * t + 0.25 * np.sin(1.1 * t), t_end, 601)
    sol = integrate_auxiliary(traj, 1.1, 0.0, t_end, 0.002)
    levels = [EnergyLevel(1, 0.5, _rad(1.7)), EnergyLevel(2, -0.5, _rad(0.4))]
    oracle_phase = {}
    hists = {}
    n = sol.n_samples - 1
    v = frame_matrix(sol.lam, sol.gamma)
    for sigma in (0.5, -0.5):
        hists[sigma] = accumulate_phases(sol, traj, sigma)
        psi0 = frame_matrix(1.1, 0.0) @ basis_state(sigma)
        run = propagate(traj, psi0, t_end, t_end / (n * 4), thin=4)
        # <sigma| V^dag(t) psi(t)> = e^{-i phi_sigma(t)}
        col = 0 if sigma > 0 else 1
        amp = np.sum(np.conj(v[:, :, col]) * run.states, axis=1)
        oracle_phase[sigma] = -np.unwrap(np.angle(amp))
    phi_pipe = _phi_tot(levels[0], levels[1], sol, list(hists.values()))
    phi_orc = (oracle_phase[0.5] + levels[0].epsilon_rad_s * sol.t) \
        - (oracle_phase[-0.5] + levels[1].epsilon_rad_s * sol.t)
    assert np.abs(phi_pipe - phi_orc).max() < 1e-7


# -- spectral shift ----------------------------------------------------------------

def test_shift_zero_for_same_sigma():
    assert spectral_shift(0.5, 0.5, 1e11, 1e12, math.pi / 4.0) == 0.0
    assert spectral_shift(-0.5, -0.5, 1e11, 1e12, math.pi / 4.0) == 0.0


def test_shift_fast_precession_magnitude():
    # w0 = 1e11, Omega = 1e12, th = pi/4: about 1.27e-3 eV
    shift = spectral_shift(0.5, -0.5, 1e11, 1e12, math.pi / 4.0)
    lam = solve_precession_lambda(1e11, 1e12, math.pi / 4.0)
    assert lam == pytest.approx(math.pi - 0.0759448, abs=1e-6)
    expected = (1e11 * math.cos(lam - math.pi / 4.0) + 1e12 * (1.0 - math.cos(lam)))
    assert shift == pytest.approx(expected * HBAR_EV_S, rel=1e-15)
    assert shift == pytest.approx(1.2716e-3, rel=1e-3)


def test_shift_pure_rotation_limit():
    # Omega = 0: lam = th and the shift is the bare spin-rotation splitting
    for th in (0.3, 1.0, 2.5):
        shift = spectral_shift(0.5, -0.5, 2e10, 0.0, th)
        assert shift == pytest.approx(2e10 * HBAR_EV_S, rel=1e-14)


def test_shift_continuous_as_precession_vanishes():
    w0, th = 1e11, 0.9
    base = spectral_shift(0.5, -0.5, w0, 0.0, th)
    prev = None
    for Om in (1e9, 1e8, 1e7, 1e6):
        d = abs(spectral_shift(0.5, -0.5, w0, Om, th) - base)
        if prev is not None:
            assert d < prev
        prev = d
    assert d / base < 1e-4


def test_shift_antisymmetric_in_sigma():
    s = spectral_shift(0.5, -0.5, 1e11, 3e11, 1.1)
    assert spectral_shift(-0.5, 0.5, 1e11, 3e11, 1.1) == -s


def test_shift_degenerate_theta_propagates():
    with pytest.raises(NoSolutionError):
        spectral_shift(0.5, -0.5, 1e11, 1e10, 0.0)


# -- perturbation model ---------------------------------------------------------------

def test_hermiticity_enforced():
    good = PerturbationModel({(1, 2): np.array([[0.1, 0.2], [0.3, 0.4]])})
    assert np.allclose(good.block(2, 1), good.block(1, 2).conj().T)
    with pytest.raises(ValueError):
        PerturbationModel({
            (1, 2): np.array([[0.1, 0.2], [0.3, 0.4]]),
            (2, 1): np.array([[0.1, 0.2], [0.3, 0.4]]),
        })
    with pytest.raises(ValueError):
        PerturbationModel({(1, 1): np.array([[0.0, 1j], [1j, 0.0]])})


def test_element_indexing():
    # block (m, n) holds <m, sigma'| H' |n, sigma> at [sigma' index, sigma index],
    # spin order (+1/2, -1/2); the reverse block is its conjugate transpose
    b = np.array([[1.0, 2.0j], [3.0, 4.0]])
    pert = PerturbationModel({(2, 1): b})
    assert np.array_equal(pert.block(2, 1), b)
    assert np.array_equal(pert.block(1, 2), b.conj().T)
    assert not pert.block(3, 1).any()  # absent block
    levels = [EnergyLevel(1, 0.5, 0.0), EnergyLevel(2, -0.5, 1.0), EnergyLevel(2, 0.5, 1.0)]
    only_down_up = PerturbationModel({(2, 1): np.array([[0.0, 0.0], [0.1, 0.0]])})
    lines = line_table(levels, 1e11, 0.0, 1.0, pert=only_down_up)
    assert [(ln.from_state, ln.to_state) for ln in lines] == [((2, -0.5), (1, 0.5))]


# -- transition amplitude ---------------------------------------------------------------

def test_zero_perturbation_zero_amplitude():
    _, sol, hists = _locked(periods=0.5)
    pert = PerturbationModel({(2, 1): np.zeros((2, 2))})
    lv_from = EnergyLevel(1, 0.5, 0.0)
    lv_to = EnergyLevel(2, -0.5, 0.0)
    a = transition_amplitude(pert, lv_from, lv_to, sol, hists)
    assert a == 0.0


def test_first_order_sinc_form():
    # spin-independent element between same-sigma levels: the dressing is
    # constant and the standard |a|^2 = |h|^2 sin^2(D t/2)/(D/2)^2 emerges
    _, sol, hists = _locked(periods=1.0, step=0.005)
    delta = 1.3  # bare gap, rad/s
    h_rad = 0.01
    levels = (EnergyLevel(1, 0.5, _rad(delta)), EnergyLevel(2, 0.5, 0.0))
    pert = PerturbationModel({(2, 1): h_rad * HBAR_EV_S * np.eye(2)})
    for i in (sol.n_samples // 3, sol.n_samples - 1):
        t = float(sol.t[i])
        a = transition_amplitude(pert, levels[0], levels[1], sol, hists, t_end=t)
        expected = h_rad**2 * math.sin(delta * t / 2.0) ** 2 / (delta / 2.0) ** 2
        assert abs(a) ** 2 == pytest.approx(expected, rel=1e-8, abs=1e-16)


def test_amplitude_warns_outside_first_order_window():
    _, sol, hists = _locked(periods=1.0, step=0.005)
    levels = (EnergyLevel(1, 0.5, 0.0), EnergyLevel(2, 0.5, 0.0))
    pert = PerturbationModel({(2, 1): 0.2 * HBAR_EV_S * np.eye(2)})  # resonant
    with pytest.warns(UserWarning, match="first-order"):
        transition_amplitude(pert, levels[0], levels[1], sol, hists)


def test_amplitude_t_end_must_be_on_grid():
    _, sol, hists = _locked(periods=0.5)
    levels = (EnergyLevel(1, 0.5, 0.0), EnergyLevel(2, 0.5, 0.0))
    pert = PerturbationModel({(2, 1): 0.001 * np.eye(2)})
    with pytest.raises(ValueError):
        transition_amplitude(pert, levels[0], levels[1], sol, hists,
                             t_end=float(sol.t[3]) + 0.3 * sol.step)


def test_amplitude_over_the_first_steps():
    # the Simpson weights that the scan uses too, one step the trapezoid
    # rule; only t_end at the first sample gives 0
    _, sol, hists = _locked(periods=0.5)
    levels = (EnergyLevel(1, 0.5, _rad(1.3)), EnergyLevel(2, -0.5, 0.0))
    pert = PerturbationModel({(2, 1): 0.01 * HBAR_EV_S * np.array([[1.0, 0.5], [0.5, -1.0]])})
    g = _amplitude_integrand(pert, *levels, sol, hists)
    assert transition_amplitude(pert, *levels, sol, hists, t_end=float(sol.t[0])) == 0.0
    for i in (1, 2, 3):
        a = transition_amplitude(pert, *levels, sol, hists, t_end=float(sol.t[i]))
        t, y = sol.t[:i + 1], g[:i + 1]
        assert a == complex(_simpson_weights(t) @ y) != 0.0
        assert a == pytest.approx(simpson(y, x=t), rel=1e-15)


def test_total_transition_probability_bounded():
    # complete final basis: sum of |a|^2 stays within first-order unitarity
    _, sol, hists = _locked(periods=1.0, step=0.005)
    h_ev = 0.02 * HBAR_EV_S
    pert = PerturbationModel({
        (2, 1): h_ev * np.array([[1.0, 0.5], [0.5, -1.0]]),
        (1, 1): h_ev * np.array([[0.3, 0.2], [0.2, 0.3]]),
        (2, 2): h_ev * np.array([[0.1, 0.0], [0.0, 0.1]]),
    })
    levels = {
        (1, 0.5): EnergyLevel(1, 0.5, _rad(1.0)),
        (1, -0.5): EnergyLevel(1, -0.5, _rad(1.0)),
        (2, 0.5): EnergyLevel(2, 0.5, _rad(0.2)),
        (2, -0.5): EnergyLevel(2, -0.5, _rad(0.2)),
    }
    start = levels[(1, 0.5)]
    total = 0.0
    for key, lv in levels.items():
        if key == (1, 0.5):
            continue
        a = transition_amplitude(pert, start, lv, sol, hists)
        total += abs(a) ** 2
    assert total <= 1.0 + 1e-6
    assert total > 0.0


def test_resonance_scan_peaks_at_shift():
    # drive-frequency response peaks at the closed-form line position
    w0, Om, th = 1.0, 0.1, math.pi / 6.0
    traj = OmegaTrajectory.constant_precession(w0, Om, th)
    lam = solve_precession_lambda(w0, Om, th)
    t_end = 60.0
    sol = integrate_auxiliary(traj, lam, 0.0, t_end, 0.01)
    hists = [accumulate_phases(sol, traj, s) for s in (0.5, -0.5)]
    bare = 1.0  # rad/s
    levels = (EnergyLevel(1, 0.5, _rad(bare)), EnergyLevel(2, -0.5, 0.0))
    flip = 0.002 * HBAR_EV_S * np.array([[0.0, 1.0], [1.0, 0.0]])
    pert = PerturbationModel({(2, 1): flip})
    shift_rad = spectral_shift(0.5, -0.5, w0, Om, th) / HBAR_EV_S
    expected = bare + shift_rad
    freqs = np.linspace(expected - 0.4, expected + 0.4, 161)
    resp = resonance_scan(pert, levels[0], levels[1], sol, hists, freqs)
    peak = peak_frequency(freqs, resp)
    spacing = freqs[1] - freqs[0]
    assert abs(peak - expected) <= spacing


def _one_shot_scan(pert, from_level, to_level, sol, hists, frequencies):
    """The whole (frequencies x samples) cosine table at once: the direct reference."""
    g = _amplitude_integrand(pert, from_level, to_level, sol, hists)
    return _direct_response(g, sol.t, frequencies)


def _direct_response(g, t, frequencies):
    y = g[None, :] * np.cos(np.outer(frequencies, t))
    return simpson(y.real, x=t)**2 + simpson(y.imag, x=t)**2


def _assert_near_table(got, want):
    # the chirp-z sums in another order than the table: 1e-12 of the peak response
    assert got.shape == want.shape
    if want.size:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("t_end", [0.0, 0.01, 0.02, 10.0, 10.01])  # 1, 2, 3, 1001, 1002 samples
def test_resonance_scan_matches_direct_table(t_end):
    traj = OmegaTrajectory.constant_precession(1.0, 0.1, math.pi / 6.0)
    sol = integrate_auxiliary(traj, solve_precession_lambda(1.0, 0.1, math.pi / 6.0),
                              0.0, t_end, 0.01)
    assert sol.n_samples == round(t_end / 0.01) + 1
    hists = [accumulate_phases(sol, traj, s) for s in (0.5, -0.5)]
    levels = (EnergyLevel(1, 0.5, _rad(1.0)), EnergyLevel(2, -0.5, 0.0))
    pert = PerturbationModel({(2, 1): 0.002 * HBAR_EV_S * np.array([[0.3, 1.0], [1.0, -0.2]])})
    for count in (0, 1, 2, 200):
        for freqs in (np.linspace(0.5, 1.5, count), np.linspace(1.5, 0.5, count)):
            got = resonance_scan(pert, levels[0], levels[1], sol, hists, freqs)
            assert got.shape == (count,)
            _assert_near_table(got, _one_shot_scan(pert, levels[0], levels[1], sol, hists, freqs))
    # a 0-d frequency and a 2-D grid come back flat, as np.outer made them
    for freqs in (np.float64(1.05), np.linspace(0.5, 1.5, 30).reshape(3, 10)):
        got = resonance_scan(pert, levels[0], levels[1], sol, hists, freqs)
        want = _one_shot_scan(pert, levels[0], levels[1], sol, hists, freqs)
        assert got.shape == want.shape == (np.size(freqs),)
        _assert_near_table(got, want)
    if sol.n_samples == 1:  # no interval to integrate over
        freqs = np.linspace(0.5, 1.5, 200)
        assert not resonance_scan(pert, levels[0], levels[1], sol, hists, freqs).any()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(0, 250),
       t0=st.floats(-5.0, 5.0), h=st.floats(1e-3, 0.05),
       f0=st.floats(-5.0, 5.0), df=st.floats(-0.05, 0.05),
       seed=st.integers(0, 2**32 - 1))
def test_cosine_response_matches_table_on_uniform_grids(n, m, t0, h, f0, df, seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(t0, t0 + (n - 1) * h, n)
    freqs = np.linspace(f0, f0 + (m - 1) * df, m)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    _assert_near_table(spectroscopy._cosine_response(g, t, freqs), _direct_response(g, t, freqs))


def test_resonance_scan_rejects_non_uniform_grid():
    _, sol, hists = _locked(periods=0.25)
    levels = (EnergyLevel(1, 0.5, _rad(1.0)), EnergyLevel(2, -0.5, 0.0))
    pert = PerturbationModel({(2, 1): 0.002 * HBAR_EV_S * np.eye(2)})
    freqs = np.linspace(0.5, 1.5, 50)
    freqs[17] = np.nextafter(freqs[17], 2.0)  # an ulp off the line is still uniform
    resonance_scan(pert, levels[0], levels[1], sol, hists, freqs)
    for bad in (1e-9, np.nan):
        grid = freqs.copy()
        grid[17] += bad
        with pytest.raises(ValueError, match="uniformly spaced"):
            resonance_scan(pert, levels[0], levels[1], sol, hists, grid)


@pytest.mark.parametrize("to_sigma, from_sigma", [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)])
def test_dressed_element_matches_einsum(to_sigma, from_sigma):
    # the element from two columns of V equals the (N, 2, 2) einsum form, to
    # 1e-15 of |b|/hbar, the scale of <to| V^dag b V |from> for unit columns
    _, sol, hists = _locked(periods=0.5)
    rng = np.random.default_rng(7)
    levels = (EnergyLevel(1, from_sigma, _rad(0.3)), EnergyLevel(1, to_sigma, _rad(0.3)))
    v = frame_matrix(sol.lam, sol.gamma)
    hist = {h.sigma: h for h in hists}
    phi_tot = (hist[from_sigma].phi_total + levels[0].epsilon_rad_s * sol.t) \
        - (hist[to_sigma].phi_total + levels[1].epsilon_rad_s * sol.t)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        block = 0.01 * HBAR_EV_S * (a + a.conj().T)
        pert = PerturbationModel({(1, 1): block})
        dressed = np.einsum("nji,jk,nkl->nil", v.conj(), block, v)
        elem = dressed[:, 0 if to_sigma > 0 else 1, 0 if from_sigma > 0 else 1] / HBAR_EV_S
        want = -1j * elem * np.exp(-1j * phi_tot)
        got = _amplitude_integrand(pert, levels[0], levels[1], sol, hists)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(block).max() / HBAR_EV_S


def test_amplitude_with_oracle_extracted_phases():
    # swapping the quadrature phase histories for oracle-extracted ones
    # changes the amplitude by < 1e-6 relative
    traj, sol, hists = _locked(w0=1.0, Om=0.5, th=math.pi / 3.0, periods=1.0, step=0.005)
    levels = (EnergyLevel(1, 0.5, _rad(0.7)), EnergyLevel(2, -0.5, 0.0))
    pert = PerturbationModel(
        {(2, 1): 0.005 * HBAR_EV_S * np.array([[0.2, 1.0], [1.0, -0.2]])})
    a_pipe = transition_amplitude(pert, levels[0], levels[1], sol, hists)

    v = frame_matrix(sol.lam, sol.gamma)
    n = sol.n_samples - 1
    t_end = float(sol.t[-1])
    oracle_hists = []
    for sigma, col in ((0.5, 0), (-0.5, 1)):
        psi0 = v[0] @ basis_state(sigma)
        run = propagate(traj, psi0, t_end, t_end / (n * 8), thin=8)
        amp = np.sum(np.conj(v[:, :, col]) * run.states, axis=1)
        phases = -np.unwrap(np.angle(amp))
        oracle_hists.append(PhaseHistory(sigma, sol.t, phases, np.zeros_like(phases)))
    a_oracle = transition_amplitude(pert, levels[0], levels[1], sol, oracle_hists)
    assert abs(a_pipe - a_oracle) / abs(a_pipe) < 1e-6


# -- line tables -------------------------------------------------------------------------

def test_single_level_flip_line():
    w0 = 2e10
    levels = [EnergyLevel(1, 0.5, 0.0), EnergyLevel(1, -0.5, 0.0)]
    lines = line_table(levels, w0, 0.0, 0.7)
    assert len(lines) == 1
    ln = lines[0]
    assert ln.bare_gap_ev == 0.0
    assert ln.shifted_position_ev == pytest.approx(w0 * HBAR_EV_S, rel=1e-14)
    assert ln.shifted_position_ev >= 0.0


def test_sigma_preserving_lines_unshifted():
    levels = [EnergyLevel(1, 0.5, 1.0), EnergyLevel(2, 0.5, 3.5)]
    lines = line_table(levels, 1e11, 2e11, 1.0)
    assert len(lines) == 1
    assert lines[0].shift_ev == 0.0
    assert lines[0].bare_gap_ev == pytest.approx(2.5)
    assert lines[0].shifted_position_ev == pytest.approx(2.5)


def test_two_levels_spin_flip_four_lines():
    w0, Om, th = 1e11, 3e10, 1.0
    gap = 2.0
    levels = [EnergyLevel(1, 0.5, 0.0), EnergyLevel(1, -0.5, 0.0),
              EnergyLevel(2, 0.5, gap), EnergyLevel(2, -0.5, gap)]
    lines = line_table(levels, w0, Om, th)
    shift = abs(spectral_shift(0.5, -0.5, w0, Om, th))
    flips = [ln for ln in lines if ln.from_state[1] != ln.to_state[1]]
    preserved = [ln for ln in lines if ln.from_state[1] == ln.to_state[1]]
    assert len(flips) == 4 and len(preserved) == 2
    # same-n flip doublet at +-shift around zero -> split 2*shift
    zero_gap = sorted(ln.shifted_position_ev for ln in flips if ln.bare_gap_ev in (0.0,))
    assert zero_gap == pytest.approx([shift, shift])
    cross = sorted(ln.shifted_position_ev for ln in flips if abs(ln.bare_gap_ev) == gap)
    assert cross[1] - cross[0] == pytest.approx(2.0 * shift, rel=1e-12)
    # sorted output
    pos = [ln.shifted_position_ev for ln in lines]
    assert pos == sorted(pos)
    assert all(ln.shifted_position_ev >= 0.0 for ln in lines)
    assert all(ln.shifted_position_ev == ln.bare_gap_ev + ln.shift_ev for ln in lines)


def test_line_table_requires_levels():
    with pytest.raises(ValueError):
        line_table([], 1e11, 0.0, 1.0)
    with pytest.raises(ValueError, match="duplicate level"):
        line_table([EnergyLevel(1, 0.5, 0.0), EnergyLevel(1, 0.5, 1.0)], 1e11, 0.0, 1.0)


def test_line_table_perturbation_filter():
    levels = [EnergyLevel(1, 0.5, 0.0), EnergyLevel(1, -0.5, 0.0),
              EnergyLevel(2, 0.5, 1.0)]
    # only the (2,1) up-up element is nonzero
    pert = PerturbationModel({(2, 1): np.array([[0.1, 0.0], [0.0, 0.0]])})
    lines = line_table(levels, 1e11, 0.0, 1.0, pert=pert)
    assert len(lines) == 1
    # oriented downhill so the line position is the positive photon energy
    assert lines[0].from_state == (2, 0.5) and lines[0].to_state == (1, 0.5)
    assert lines[0].shifted_position_ev == pytest.approx(1.0)

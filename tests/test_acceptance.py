"""Acceptance suite: one test per exit criterion, with a printed verdict.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines
in a passing run; they are always shown for failures).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spinrot.constants import EV_IN_JOULES, HBAR_EV_S
from spinrot.invariant import (AuxiliarySolution, integrate_auxiliary,
                               lvn_residual_samples, lvn_residual_series,
                               solve_precession_lambda)
from spinrot.oracle import fidelity, propagate
from spinrot.phases import (accumulate_phases, berry_limit_check,
                            dynamical_phase, geometric_phase, lr_states)
from spinrot.scenario import (c60_model, free_rotation_correlation_time,
                              precession_from_torque, regime_presets)
from spinrot.spectroscopy import (EnergyLevel, PerturbationModel,
                                  peak_frequency, resonance_scan,
                                  spectral_shift)
from spinrot.trajectory import OmegaTrajectory

W0, OM, TH = 1.0, 0.5, math.pi / 3.0  # reference precession case


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL — {text}")
        raise
    print(f"[acceptance] criterion {num}: PASS — {text}")


def _locked_run(periods=10.0, step=0.01):
    traj = OmegaTrajectory.constant_precession(W0, OM, TH)
    lam_star = solve_precession_lambda(W0, OM, TH)
    t_end = periods * 2.0 * math.pi / OM
    sol = integrate_auxiliary(traj, lam_star, 0.0, t_end, step)
    return traj, lam_star, sol


def test_criterion_1_exact_case_reproduction():
    with criterion(1, "locked cone: lambda const and gamma = Omega t to 1e-9 "
                      "over 10 periods in < 1 s"):
        start = time.perf_counter()
        _, lam_star, sol = _locked_run()
        elapsed = time.perf_counter() - start
        assert np.abs(sol.lam - lam_star).max() < 1e-9
        assert np.abs(sol.gamma - OM * sol.t).max() < 1e-9
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_phase_rates():
    with criterion(2, "phase rates w0 s cos(lam-th) and Omega s (1-cos lam) "
                      "to 1e-9 relative"):
        traj, lam_star, sol = _locked_run(periods=2.0)
        t_end = float(sol.t[-1])
        for sigma in (0.5, -0.5):
            d_rate = dynamical_phase(sol, sigma)[-1] / t_end
            g_rate = geometric_phase(sol, sigma)[-1] / t_end
            assert d_rate == pytest.approx(
                sigma * W0 * math.cos(lam_star - TH), rel=1e-9)
            assert g_rate == pytest.approx(
                sigma * OM * (1.0 - math.cos(lam_star)), rel=1e-9)


def test_criterion_3_berry_limit_sweep():
    with criterion(3, "per-cycle phi_geo -> pi as Omega/w0 drops 1e-1 to 1e-3 "
                      "(rel err < 0.1% at 1e-3) in < 10 s"):
        start = time.perf_counter()
        theta = math.pi / 2.0
        ref = berry_limit_check(theta, 0.5)
        assert ref == pytest.approx(math.pi, abs=1e-15)
        errs = []
        for ratio in np.logspace(-1.0, -3.0, 7):
            Om = ratio * W0
            traj = OmegaTrajectory.constant_precession(W0, Om, theta)
            lam = solve_precession_lambda(W0, Om, theta)
            sol = integrate_auxiliary(traj, lam, 0.0, 2.0 * math.pi / Om, 0.05)
            phi_g = geometric_phase(sol, 0.5)[-1]
            errs.append(abs(phi_g - ref) / ref)
        elapsed = time.perf_counter() - start
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1)), errs
        assert errs[-1] < 1e-3, errs[-1]
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def _random_tabulated(seed, t_end=8.0):
    rng = np.random.default_rng(seed)
    th0 = rng.uniform(1.0, 1.6)
    a_th = rng.uniform(0.1, 0.25)
    f1 = int(rng.integers(1, 3))
    p1 = rng.uniform(0.0, 2.0 * math.pi)
    b = rng.uniform(0.3, 0.7)
    a_ph = rng.uniform(0.1, 0.3)
    f2 = int(rng.integers(1, 3))
    p2 = rng.uniform(0.0, 2.0 * math.pi)
    t = np.linspace(0.0, t_end, 4001)
    theta = th0 + a_th * np.sin(2.0 * math.pi * f1 * t / t_end + p1)
    phi = b * t + a_ph * np.sin(2.0 * math.pi * f2 * t / t_end + p2)
    return OmegaTrajectory.from_table(1.0, t, theta, phi)


def _oracle_agreement(traj, lam0, gam0, t_end, sigma, step=0.002, thin=4):
    sol = integrate_auxiliary(traj, lam0, gam0, t_end, step)
    hist = accumulate_phases(sol, traj, sigma)
    states = lr_states(sol, hist)
    n = sol.n_samples - 1
    run = propagate(traj, states[0], t_end, t_end / (n * thin), thin=thin)
    fid, phase = fidelity(run, sol.t, states)
    return float(fid.min()), float(np.abs(phase).max())


def test_criterion_4_oracle_equivalence():
    with criterion(4, "invariant-method states match the brute-force propagator: "
                      "fidelity >= 1 - 1e-8, overlap phase < 1e-6 rad"):
        # exact precession case, both spin projections
        traj = OmegaTrajectory.constant_precession(W0, OM, TH)
        lam_star = solve_precession_lambda(W0, OM, TH)
        t_end = 2.0 * 2.0 * math.pi / OM
        for sigma in (0.5, -0.5):
            fid_min, phase_max = _oracle_agreement(traj, lam_star, 0.0, t_end, sigma)
            assert fid_min >= 1.0 - 1e-8
            assert phase_max < 1e-6
        # three randomized tabulated trajectories
        for seed in (1, 2, 3):
            rtraj = _random_tabulated(seed)
            th0, ph0 = rtraj.angles_scalar(0.0)
            fid_min, phase_max = _oracle_agreement(rtraj, th0, ph0, 8.0, 0.5)
            assert fid_min >= 1.0 - 1e-8, f"seed {seed}"
            assert phase_max < 1e-6, f"seed {seed}"


def test_criterion_5_lvn_residual_and_rk4_order():
    with criterion(5, "LvN residual < 1e-9 w0 at all accepted steps; RK4 order "
                      ">= 3.8 by step-halving"):
        _, _, sol = _locked_run(periods=2.0)
        assert lvn_residual_samples(sol).max() < 1e-9 * W0
        assert lvn_residual_series(sol).max() < 1e-9 * W0
        # order study on the same trajectory, started off the locked cone so
        # the solution is nontrivial (on the cone RK4 is exact by symmetry)
        traj = OmegaTrajectory.constant_precession(W0, OM, TH)
        lam0 = solve_precession_lambda(W0, OM, TH) + 0.4
        t_end = 5.0
        ref = integrate_auxiliary(traj, lam0, 0.3, t_end, t_end / 2**13)
        errs = []
        for k in (6, 7, 8, 9):
            s = integrate_auxiliary(traj, lam0, 0.3, t_end, t_end / 2**k)
            errs.append(max(abs(s.lam[-1] - ref.lam[-1]),
                            abs(s.gamma[-1] - ref.gamma[-1])))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 3.8, orders


def test_criterion_6_spectral_shift_operational():
    with criterion(6, "closed-form line shift matches the 200-point detuning-scan "
                      "peak within the scan resolution, < 30 s"):
        start = time.perf_counter()
        w0, Om, th = 1.0, 0.1, math.pi / 6.0
        traj = OmegaTrajectory.constant_precession(w0, Om, th)
        lam = solve_precession_lambda(w0, Om, th)
        t_end = 60.0
        sol = integrate_auxiliary(traj, lam, 0.0, t_end, 0.01)
        hists = [accumulate_phases(sol, traj, s) for s in (0.5, -0.5)]
        bare = 1.0  # rad/s
        levels = (EnergyLevel(1, 0.5, bare * HBAR_EV_S), EnergyLevel(2, -0.5, 0.0))
        pert = PerturbationModel(
            {(2, 1): 0.002 * HBAR_EV_S * np.array([[0.0, 1.0], [1.0, 0.0]])})
        shift_rad = spectral_shift(0.5, -0.5, w0, Om, th) / HBAR_EV_S
        expected = bare + shift_rad
        freqs = np.linspace(expected - 0.5, expected + 0.5, 200)
        resp = resonance_scan(pert, levels[0], levels[1], sol, hists, freqs)
        peak = peak_frequency(freqs, resp)
        spacing = float(freqs[1] - freqs[0])
        elapsed = time.perf_counter() - start
        assert abs(peak - expected) <= spacing, (peak, expected, spacing)
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_7_scenario_numbers():
    with criterion(7, "inertia 1.0e-43 kg m^2 (2%), free-rotor tau(283 K) ~ 3.0 ps "
                      "(5%), disordered-phase Omega in 1e10..1e12 rad/s"):
        model = c60_model()
        assert abs(model.moment_of_inertia - 1.0e-43) / 1.0e-43 < 0.02
        tau = free_rotation_correlation_time(model, 283.0)
        assert abs(tau - 3.0e-12) / 3.0e-12 < 0.05
        presets = {r.phase: r for r in regime_presets()}
        dis = presets["disordered"]
        assert dis.omega0 == 1e11
        assert 1e10 <= dis.Omega <= 1e12
        # the same window follows from the torque range itself
        for ev in (0.001, 0.01, 0.1):
            om = precession_from_torque(model, 1e11, ev * EV_IN_JOULES)
            assert 1e10 <= om <= 2e12


def test_criterion_8_randomized_properties():
    with criterion(8, "sigma-antisymmetry (exact) and geometric-phase "
                      "reparametrization invariance (1e-10) on 50 random cases"):
        rng = np.random.default_rng(2024)

        # 50 sigma-antisymmetry cases on real integrations
        for _ in range(50):
            w0 = rng.uniform(0.3, 3.0)
            Om = rng.uniform(-1.5, 1.5)
            th = rng.uniform(0.3, math.pi - 0.3)
            traj = OmegaTrajectory.constant_precession(w0, Om, th, phi0=rng.uniform(0, 2))
            lam0 = rng.uniform(0.4, math.pi - 0.4)
            sol = integrate_auxiliary(traj, lam0, rng.uniform(-1, 1), 6.0, 0.02)
            up = accumulate_phases(sol, traj, 0.5)
            down = accumulate_phases(sol, traj, -0.5)
            assert np.array_equal(up.phi_dyn, -down.phi_dyn)
            assert np.array_equal(up.phi_geo, -down.phi_geo)

        # 50 reparametrization cases on synthetic smooth paths
        for _ in range(50):
            a1, a2 = rng.uniform(0.05, 0.35, 2)
            w1, w2 = rng.uniform(0.5, 2.5, 2)
            drift = rng.uniform(0.5, 2.0)
            lam_mid = rng.uniform(0.8, 2.0)

            def lam_path(s):
                return lam_mid + a1 * np.sin(w1 * 2.0 * math.pi * s)

            def gam_path(s):
                return drift * s + a2 * np.sin(w2 * 2.0 * math.pi * s)

            def gam_rate(s):
                return drift + a2 * w2 * 2.0 * math.pi * np.cos(w2 * 2.0 * math.pi * s)

            T = rng.uniform(2.0, 6.0)
            traj = OmegaTrajectory.constant_precession(1.0, 0.0, 1.0)
            t1 = np.linspace(0.0, T, 2001)
            s1 = AuxiliarySolution(
                traj=traj, t=t1, lam=lam_path(t1 / T), gamma=gam_path(t1 / T),
                lam_dot=np.gradient(lam_path(t1 / T), t1),
                gamma_dot=gam_rate(t1 / T) / T, theta=np.full_like(t1, 1.0),
                phi=np.zeros_like(t1), step=float(t1[1] - t1[0]))
            t2 = np.linspace(0.0, T / 2.0, 1501)
            s2 = AuxiliarySolution(
                traj=traj, t=t2, lam=lam_path(2.0 * t2 / T), gamma=gam_path(2.0 * t2 / T),
                lam_dot=np.gradient(lam_path(2.0 * t2 / T), t2),
                gamma_dot=gam_rate(2.0 * t2 / T) * 2.0 / T, theta=np.full_like(t2, 1.0),
                phi=np.zeros_like(t2), step=float(t2[1] - t2[0]))
            g1 = geometric_phase(s1, 0.5)[-1]
            g2 = geometric_phase(s2, 0.5)[-1]
            assert abs(g1 - g2) < 1e-10

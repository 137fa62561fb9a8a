"""Dynamical/geometric phase accumulation, Berry limit, state assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, cumulative_trapezoid, simpson

from drives import basis_state, cone_propagators, frame_matrix, spline_drive
from spinrot import phases
from spinrot.invariant import (AuxiliarySolution, integrate_auxiliary,
                               solve_precession_lambda)
from spinrot.phases import (_cumulative_simpson, _simpson_weights, accumulate_phases,
                            berry_limit_check, lr_states)
from spinrot.spin_algebra import validate_sigma
from spinrot.trajectory import OmegaTrajectory

W0, OM, TH = 1.0, 0.5, math.pi / 3.0
LAM_STAR = solve_precession_lambda(W0, OM, TH)  # pi/2 for this case


def _locked_solution(periods=2.0, step=0.01, w0=W0, Om=OM, th=TH):
    traj = OmegaTrajectory.constant_precession(w0, Om, th)
    lam = solve_precession_lambda(w0, Om, th)
    t_end = periods * 2.0 * math.pi / Om
    return traj, integrate_auxiliary(traj, lam, 0.0, t_end, step)


def _synthetic_solution(traj, t, lam, gamma, gamma_dot):
    """Direct series construction (paths need not solve the ODEs)."""
    theta, phi = traj.angles(t)
    return AuxiliarySolution(
        traj=traj, t=t, lam=lam, gamma=gamma,
        lam_dot=np.gradient(lam, t), gamma_dot=gamma_dot,
        theta=theta, phi=phi, step=float(t[1] - t[0]))


# -- test-local references ---------------------------------------------------------

def assemble_state(lam, gamma, phi_total, sigma):
    """exp(-i phi_total) V(lam, gamma) |sigma>, one sample at a time."""
    validate_sigma(sigma)
    return np.exp(-1j * phi_total) * (frame_matrix(lam, gamma) @ basis_state(sigma))


def trapezoid_geo_phase(sol, sigma):
    """Trapezoid-rule counterpart of the Simpson geometric phase."""
    return sigma * cumulative_trapezoid(sol.gamma_dot * (1.0 - np.cos(sol.lam)), x=sol.t,
                                        initial=0.0)


# -- closed-form rates -----------------------------------------------------------

def test_static_fixed_point_rate():
    # aligned invariant on a static field: integrand collapses to w0 sigma
    traj = OmegaTrajectory.constant_precession(2.0, 0.0, 0.9, 0.3)
    sol = integrate_auxiliary(traj, 0.9, 0.3, 10.0, 0.01)
    phi_d = accumulate_phases(sol, sol.traj, 0.5).phi_dyn
    assert np.abs(phi_d - 0.5 * 2.0 * sol.t).max() < 1e-10
    assert np.abs(accumulate_phases(sol, sol.traj, 0.5).phi_geo).max() < 1e-12


def test_precession_dynamical_rate():
    traj, sol = _locked_solution()
    phi_d = accumulate_phases(sol, sol.traj, 0.5).phi_dyn
    rate = phi_d[-1] / sol.t[-1]
    assert rate == pytest.approx(0.5 * W0 * math.cos(LAM_STAR - TH), rel=1e-9)
    assert rate == pytest.approx(0.4330127018922193, rel=1e-9)


def test_precession_geometric_rate():
    traj, sol = _locked_solution()
    phi_g = accumulate_phases(sol, sol.traj, 0.5).phi_geo
    rate = phi_g[-1] / sol.t[-1]
    assert rate == pytest.approx(0.5 * OM * (1.0 - math.cos(LAM_STAR)), rel=1e-9)
    assert rate == pytest.approx(0.25, rel=1e-9)


def test_zero_coupling_zero_phases():
    traj = OmegaTrajectory.constant_precession(0.0, 0.0, 1.0)
    sol = integrate_auxiliary(traj, 0.8, 0.1, 5.0, 0.05)
    assert np.abs(accumulate_phases(sol, sol.traj, 0.5).phi_dyn).max() == 0.0
    assert np.abs(accumulate_phases(sol, sol.traj, 0.5).phi_geo).max() == 0.0


def test_adiabatic_cycle_is_pi():
    # equatorial cone, one slow cycle: phi_g(T) -> pi for sigma = +1/2
    w0, Om, th = 1.0, 1e-3, math.pi / 2.0
    traj, sol = _locked_solution(periods=1.0, step=0.5, w0=w0, Om=Om, th=th)
    phi_g = accumulate_phases(sol, sol.traj, 0.5).phi_geo
    assert phi_g[-1] == pytest.approx(math.pi, rel=2e-3)


def test_mismatched_trajectory_rejected():
    traj, sol = _locked_solution(periods=0.5)
    other = OmegaTrajectory.constant_precession(2.0, OM, TH)
    with pytest.raises(ValueError):
        accumulate_phases(sol, other, 0.5)
    shifted = OmegaTrajectory.constant_precession(W0, OM, TH + 0.2)
    with pytest.raises(ValueError):
        accumulate_phases(sol, shifted, 0.5)


def test_equivalent_trajectory_object_accepted():
    traj, sol = _locked_solution(periods=0.5)
    clone = OmegaTrajectory.constant_precession(W0, OM, TH)
    assert np.array_equal(accumulate_phases(sol, clone, 0.5).phi_dyn,
                          accumulate_phases(sol, traj, 0.5).phi_dyn)


# -- sigma structure ---------------------------------------------------------------

def test_sigma_antisymmetry_exact():
    traj, sol = _locked_solution(periods=1.0)
    up = accumulate_phases(sol, traj, 0.5)
    down = accumulate_phases(sol, traj, -0.5)
    assert np.array_equal(up.phi_dyn, -down.phi_dyn)
    assert np.array_equal(up.phi_geo, -down.phi_geo)


@pytest.mark.parametrize("Om, th", [(OM, TH), (2.0, math.pi / 6.0)])  # north, south chart
def test_phases_integrated_once_per_solution(Om, th, monkeypatch):
    # one quadrature call per solution, south chart or not; the sigma = -1/2 series negate
    # the +1/2 ones, asked first or not: bit for bit what a direct integration at that
    # sigma gives, signed zeros included
    traj, sol = _locked_solution(periods=1.0, Om=Om, th=th)
    _, fresh = _locked_solution(periods=1.0, Om=Om, th=th)
    calls = []
    monkeypatch.setattr(phases, "_cumulative_simpson",
                        lambda *args: calls.append(1) or _cumulative_simpson(*args))
    down = accumulate_phases(sol, traj, -0.5)
    n_calls = len(calls)
    up = accumulate_phases(sol, traj, 0.5)
    assert len(calls) == n_calls == 1
    direct = {s: accumulate_phases(fresh, traj, s) for s in (0.5, -0.5)}
    for hist in (up, down):
        for key in ("phi_dyn", "phi_geo"):
            got, want = getattr(hist, key), getattr(direct[hist.sigma], key)
            assert got.tobytes() == want.tobytes(), (hist.sigma, key)
    with pytest.raises(ValueError):
        up.phi_geo[0] = 1.0  # the kept series are read-only


def test_phase_total_is_sum():
    traj, sol = _locked_solution(periods=0.25)
    hist = accumulate_phases(sol, traj, 0.5)
    assert np.array_equal(hist.phi_total, hist.phi_dyn + hist.phi_geo)
    assert hist.phi_total[-1] == hist.phi_dyn[-1] + hist.phi_geo[-1]


def test_geometric_phase_vanishes_at_small_lambda():
    # lam -> 0 limit path: zero enclosed solid angle, phi_geo -> 0 even
    # though gamma winds
    traj = OmegaTrajectory.constant_precession(1.0, 0.0, 1.0)
    t = np.linspace(0.0, 10.0, 1001)
    lam = np.full_like(t, 1e-8)
    sol = _synthetic_solution(traj, t, lam, 3.0 * t, np.full_like(t, 3.0))
    assert np.abs(accumulate_phases(sol, sol.traj, 0.5).phi_geo).max() < 1e-15


def test_geometric_phase_independent_of_omega0():
    # same (lam, gamma) history, different w0 labels: phi_geo identical
    traj1 = OmegaTrajectory.constant_precession(1.0, OM, TH)
    traj2 = OmegaTrajectory.constant_precession(7.0, OM, TH)
    t = np.linspace(0.0, 5.0, 1001)
    lam = 1.0 + 0.2 * np.sin(t)
    gam = 0.8 * t
    gdot = np.full_like(t, 0.8)
    s1 = _synthetic_solution(traj1, t, lam, gam, gdot)
    s2 = _synthetic_solution(traj2, t, lam, gam, gdot)
    assert np.array_equal(accumulate_phases(s1, s1.traj, 0.5).phi_geo,
                          accumulate_phases(s2, s2.traj, 0.5).phi_geo)


# -- Berry limit -------------------------------------------------------------------

def test_berry_values():
    assert berry_limit_check(0.0, 0.5) == 0.0
    assert berry_limit_check(math.pi, 0.5) == pytest.approx(2.0 * math.pi, abs=1e-15)
    assert berry_limit_check(math.pi / 2.0, 0.5) == pytest.approx(math.pi, abs=1e-15)
    assert berry_limit_check(1.0, -0.5) == -berry_limit_check(1.0, 0.5)
    with pytest.raises(ValueError):
        berry_limit_check(-0.1, 0.5)


def test_berry_convergence_sweep():
    # per-cycle phi_g approaches the adiabatic value monotonically as the
    # precession slows; < 0.1% at ratio 1e-3
    th = math.pi / 2.0
    ref = berry_limit_check(th, 0.5)
    errs = []
    for ratio in (1e-1, 1e-2, 1e-3):
        traj, sol = _locked_solution(periods=1.0, step=0.05, w0=1.0, Om=ratio, th=th)
        phi_g = accumulate_phases(sol, sol.traj, 0.5).phi_geo[-1]
        errs.append(abs(phi_g - ref) / ref)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


# -- reparametrization invariance ---------------------------------------------------

def test_geometric_phase_reparametrization_invariant():
    # same (lam, gamma) path traversed at twice the speed over half the
    # duration: phi_geo at path end unchanged, phi_dyn halves
    rng = np.random.default_rng(42)
    a1, a2 = rng.uniform(0.1, 0.4, 2)
    w1, w2 = rng.uniform(0.5, 2.0, 2)

    def lam_path(s):
        return 1.2 + a1 * np.sin(w1 * 2.0 * math.pi * s)

    def gam_path(s):
        return 2.0 * s + a2 * np.sin(w2 * 2.0 * math.pi * s)

    def gam_rate(s):
        return 2.0 + a2 * w2 * 2.0 * math.pi * np.cos(w2 * 2.0 * math.pi * s)

    T = 4.0
    th_of_s = lambda s: 1.0 + 0.1 * np.sin(2.0 * math.pi * s)
    ph_of_s = lambda s: 1.5 * s

    # unit-speed history on [0, T], N1 samples
    t1 = np.linspace(0.0, T, 2001)
    traj1 = spline_drive(1.0, lambda t: th_of_s(t / T), lambda t: ph_of_s(t / T), T, 2001)
    sol1 = _synthetic_solution(traj1, t1, lam_path(t1 / T), gam_path(t1 / T),
                               gam_rate(t1 / T) / T)

    # double-speed history on [0, T/2], different sample count
    t2 = np.linspace(0.0, T / 2.0, 1501)
    traj2 = spline_drive(1.0, lambda t: th_of_s(2.0 * t / T),
                         lambda t: ph_of_s(2.0 * t / T), T / 2.0, 1501)
    sol2 = _synthetic_solution(traj2, t2, lam_path(2.0 * t2 / T), gam_path(2.0 * t2 / T),
                               gam_rate(2.0 * t2 / T) * 2.0 / T)

    g1 = accumulate_phases(sol1, sol1.traj, 0.5).phi_geo[-1]
    g2 = accumulate_phases(sol2, sol2.traj, 0.5).phi_geo[-1]
    assert abs(g1 - g2) < 1e-10

    d1 = accumulate_phases(sol1, sol1.traj, 0.5).phi_dyn[-1]
    d2 = accumulate_phases(sol2, sol2.traj, 0.5).phi_dyn[-1]
    assert d2 == pytest.approx(d1 / 2.0, rel=1e-8)
    assert abs(d1 - d2) > 1e-3  # the dynamical part is genuinely rate-dependent


# -- quadrature quality ---------------------------------------------------------------

def test_simpson_beats_trapezoid_by_h2():
    # on a resolved smooth integrand the Simpson error is O(h^2) smaller
    traj = OmegaTrajectory.constant_precession(1.0, 0.7, 1.1)
    lam0 = solve_precession_lambda(1.0, 0.7, 1.1) + 0.3
    ratios = []
    for step in (0.2, 0.1, 0.05):
        sol = integrate_auxiliary(traj, lam0, 0.0, 8.0, step)
        fine = integrate_auxiliary(traj, lam0, 0.0, 8.0, 0.002)
        ref = accumulate_phases(fine, fine.traj, 0.5).phi_geo[-1]
        simp = accumulate_phases(sol, sol.traj, 0.5).phi_geo[-1]
        trap = trapezoid_geo_phase(sol, 0.5)[-1]
        ratios.append(abs(trap - ref) / abs(simp - ref))
    # error ratio grows like h^-2 as h shrinks; at the finest step the
    # Simpson result is orders of magnitude closer
    assert ratios[-1] > 100.0
    assert ratios[-1] > ratios[0]


def _assert_ports_equal_scipy(n, random_grid, rows, seed):
    rng = np.random.default_rng(seed)
    x = (np.cumsum(rng.uniform(1e-3, 1.0, n)) if random_grid
         else np.linspace(-1.0, 2.0, n))
    y = rng.normal(size=(rows, n) if rows else n)
    running = _cumulative_simpson(y, x)
    assert np.array_equal(running, cumulative_simpson(y, x=x, axis=-1, initial=0.0))
    assert running.shape == y.shape
    for row, got in zip(y if rows else [], running):  # a stacked row: the bits it gets alone
        assert got.tobytes() == _cumulative_simpson(row, x).tobytes()
    w = _simpson_weights(x)
    total = y @ w
    assert np.allclose(total, simpson(y, x=x, axis=-1), rtol=0.0,
                       atol=1e-14 * max(1e-300, float(np.max(np.abs(y) @ np.abs(w)))))
    assert np.shape(total) == np.shape(y)[:-1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.booleans(), st.sampled_from([0, 3]), st.integers(0, 2**32 - 1))
def test_quadrature_ports_equal_scipy(n, random_grid, rows, seed):
    # the running port keeps scipy's formulas and operation order: same bits;
    # the weights sum scipy's per-pair terms in another order: the same up to
    # rounding. 1-D and along the last axis of 2-D (rows = 0 means 1-D)
    _assert_ports_equal_scipy(n, random_grid, rows, seed)


@pytest.mark.parametrize("n", [2000, 6001, 12567])
def test_quadrature_ports_equal_scipy_long(n):
    for random_grid in (False, True):
        for rows in (0, 3):
            _assert_ports_equal_scipy(n, random_grid, rows, seed=n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quadrature_ports_keep_scipy_signed_zeros(n):
    # a zero integrand of -0.0 samples gives +0.0 after the zero initial value
    x, y = np.linspace(0.0, 1.0, n), np.full(n, -0.0)
    assert _cumulative_simpson(y, x).tobytes() == \
        cumulative_simpson(y, x=x, initial=0.0).tobytes()
    assert (_simpson_weights(x) @ y).tobytes() == np.asarray(simpson(y, x=x)).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 1001, 1002])
def test_simpson_weights_reproduce_simpson(n):
    # w @ y is scipy's simpson(y, x=x) summed in another order, odd and even counts
    rng = np.random.default_rng(n)
    for x in (np.linspace(-1.0, 2.0, n), np.cumsum(rng.uniform(1e-3, 1.0, n))):
        w = _simpson_weights(x)
        assert w.shape == (n,)
        for _ in range(5):
            y = rng.normal(size=n)
            assert w @ y == pytest.approx(simpson(y, x=x), rel=0.0,
                                          abs=1e-14 * max(1e-300, np.abs(w) @ np.abs(y)))
    if n == 1:
        assert not w.any()


def test_quadrature_ports_reject_unordered_grid():
    with pytest.raises(ValueError, match="strictly increasing"):
        _cumulative_simpson(np.ones(4), np.array([0.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        _simpson_weights(np.array([0.0, 1.0, 0.5, 2.0, 3.0]))


# -- near the poles ---------------------------------------------------------------------

# lambda passes within 0.005 of pi; the mirror image through the equator
# (theta, lambda -> pi - theta, pi - lambda; Omega, phi0, gamma0 -> minus) within 0.005 of 0
_SOUTH_POLE_RUN = (1.670, 1.230, 1.066, 3.192, 1.811, 4.539)
_MIRRORED_RUN = (1.670, -1.230, math.pi - 1.066, -3.192, math.pi - 1.811, -4.539)


def _exact_cone_phase_error(w0, Om, th, ph0, lam0, gam0, step, sigma):
    """Largest overlap phase between lr_states and the exact cone propagation over w0 t = 10."""
    traj = OmegaTrajectory.constant_precession(w0, Om, th, ph0)
    sol = integrate_auxiliary(traj, lam0, gam0, 10.0 / w0, step)
    states = lr_states(sol, accumulate_phases(sol, traj, sigma))
    exact = cone_propagators(w0, Om, th, ph0, sol.t) @ states[0]
    return float(np.abs(np.angle(np.sum(np.conj(exact) * states, axis=1))).max())


@pytest.mark.parametrize("sigma", [0.5, -0.5])
@pytest.mark.parametrize("run", [_SOUTH_POLE_RUN, _MIRRORED_RUN], ids=["south", "mirrored"])
def test_geometric_phase_near_a_pole_converges(run, sigma):
    # the north-chart integrand spikes like 2 cot(lambda) near lambda = pi,
    # narrower than a step; the south chart keeps the phase at fourth order,
    # and the Bloch-vector steps no cot(lambda) at all: 1.4e-10 (south) and
    # 2.2e-9 (mirrored) at the first step
    errs = [_exact_cone_phase_error(*run, 0.00697 / k, sigma) for k in (1, 2, 4)]
    assert errs[0] <= 1e-8
    assert errs[0] / errs[1] >= 14.0 and errs[1] / errs[2] >= 14.0


# -- state assembly --------------------------------------------------------------------

def test_assemble_state_initial():
    psi = assemble_state(0.0, 0.0, 0.0, 0.5)
    assert np.array_equal(psi, basis_state(0.5))


def test_assemble_state_norm_and_structure():
    rng = np.random.default_rng(9)
    for _ in range(25):
        lam = rng.uniform(0.0, math.pi)
        gam = rng.uniform(-5.0, 5.0)
        phi = rng.uniform(-20.0, 20.0)
        psi = assemble_state(lam, gam, phi, -0.5)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        # equals V |sigma> up to the phase factor
        ref = frame_matrix(lam, gam) @ basis_state(-0.5)
        assert np.abs(psi - np.exp(-1j * phi) * ref).max() < 1e-14


def test_lr_states_match_assemble_state():
    traj, sol = _locked_solution(periods=0.3)
    hist = accumulate_phases(sol, traj, 0.5)
    states = lr_states(sol, hist)
    for i in (0, sol.n_samples // 2, sol.n_samples - 1):
        ref = assemble_state(float(sol.lam[i]), float(sol.gamma[i]), float(hist.phi_total[i]), 0.5)
        assert np.abs(states[i] - ref).max() < 1e-13
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12

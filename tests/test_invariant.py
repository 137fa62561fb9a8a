"""Auxiliary ODE integration, invariant construction, residual checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drives import S1, S2, S3, spline_drive
from spinrot.errors import NoSolutionError, OutOfDomainError, SingularityError
from spinrot.invariant import (EPS_LAMBDA, AuxiliarySolution, integrate_auxiliary,
                               lvn_residual_samples, lvn_residual_series,
                               solve_precession_lambda)
from spinrot.spin_algebra import rotation_stack
from spinrot.trajectory import OmegaTrajectory, omega_from_angles

W0, OM, TH = 1.0, 0.5, math.pi / 3.0  # reference precession case; lam* = pi/2


def _precession(w0=W0, Om=OM, th=TH):
    return OmegaTrajectory.constant_precession(w0, Om, th)


# -- test-local references ------------------------------------------------------

def invariant_matrix(lam, gamma):
    """I(lam, gamma) = (1/2) sin(lam) (e^{-i gamma} S+ + e^{i gamma} S-) + cos(lam) S3."""
    c, s = math.cos(lam), math.sin(lam)
    e = complex(math.cos(gamma), -math.sin(gamma))  # e^{-i gamma}
    return np.array([[0.5 * c, 0.5 * s * e], [0.5 * s * e.conjugate(), -0.5 * c]])


def auxiliary_rhs(traj, t, lam, gamma, eps_lambda=EPS_LAMBDA):
    """Scalar (dlam/dt, dgamma/dt) with the drive sampled at t; fails inside the guard band."""
    assert eps_lambda < lam < math.pi - eps_lambda
    th, ph = traj.angles_scalar(t)
    w0 = traj.omega0
    s_th = math.sin(th)
    d = ph - gamma
    lam_dot = w0 * s_th * math.sin(d)
    gamma_dot = w0 * (math.cos(th) - s_th * math.cos(d) * math.cos(lam) / math.sin(lam))
    return lam_dot, gamma_dot


def _residual(traj, t, lam, gamma, lam_dot, gamma_dot):
    """The library's vectorized LvN residual at given angles and rates."""
    t, lam, gamma, lam_dot, gamma_dot = (np.atleast_1d(np.asarray(x, dtype=float))
                                         for x in (t, lam, gamma, lam_dot, gamma_dot))
    th, ph = traj.angles(t)
    sol = AuxiliarySolution(traj, t, lam, gamma, lam_dot, gamma_dot, th, ph, step=1.0)
    return lvn_residual_samples(sol)


# -- solve_precession_lambda ---------------------------------------------------

def test_lambda_adiabatic_limit():
    assert solve_precession_lambda(2.0, 0.0, 0.9) == pytest.approx(0.9, abs=0)


def test_lambda_reference_case():
    lam = solve_precession_lambda(1.0, 0.5, math.pi / 3.0)
    assert lam == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert math.sin(lam - math.pi / 3.0) / math.sin(lam) == pytest.approx(0.5, abs=1e-15)


def test_lambda_fast_precession_case():
    lam = solve_precession_lambda(1.0, 2.0, math.pi / 6.0)
    assert lam == pytest.approx(math.atan2(0.5, math.cos(math.pi / 6.0) - 2.0), abs=0)
    assert lam == pytest.approx(2.7263, abs=1e-4)
    resid = abs(1.0 * math.sin(lam - math.pi / 6.0) / math.sin(lam) - 2.0)
    assert resid < 1e-12 * 2.0


@settings(max_examples=80, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(-5.0, 5.0),
       st.floats(0.05, math.pi - 0.05))
def test_lambda_satisfies_defining_relation(w0, ratio, th):
    # ratio = Omega/w0 kept moderate: far beyond it, lam -> pi and the
    # division by sin(lam) amplifies rounding past any fixed tolerance
    Om = ratio * w0
    lam = solve_precession_lambda(w0, Om, th)
    assert 0.0 < lam < math.pi
    assert abs(w0 * math.sin(lam - th) / math.sin(lam) - Om) <= 1e-12 * max(w0, abs(Om))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(-1e6, 1e6),
       st.floats(0.01, math.pi - 0.01))
def test_lambda_linear_relation_any_ratio(w0, Om, th):
    # unamplified form of the same relation holds at rounding level always
    lam = solve_precession_lambda(w0, Om, th)
    c_rel = math.cos(th) - Om / w0
    resid = abs(math.sin(lam) * c_rel - math.cos(lam) * math.sin(th))
    assert resid <= 1e-12 * math.hypot(math.sin(th), c_rel)


def test_lambda_degenerate_theta():
    with pytest.raises(NoSolutionError):
        solve_precession_lambda(1.0, 0.5, 0.0)
    with pytest.raises(NoSolutionError):
        solve_precession_lambda(1.0, 0.5, math.pi)
    assert solve_precession_lambda(1.0, 0.0, 0.0) == 0.0
    with pytest.raises(NoSolutionError):
        solve_precession_lambda(0.0, 0.5, 1.0)  # w0 = 0 cannot precess
    with pytest.raises(ValueError):
        solve_precession_lambda(-1.0, 0.5, 1.0)


# -- invariant matrix and diagonalizing rotation --------------------------------

def test_invariant_polar_is_s3():
    assert np.allclose(invariant_matrix(0.0, 1.23), S3, atol=1e-16)


def test_invariant_equatorial_is_s1():
    assert np.allclose(invariant_matrix(math.pi / 2.0, 0.0), S1, atol=1e-16)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, math.pi), st.floats(-20.0, 20.0))
def test_invariant_eigenvalues_are_half(lam, gam):
    m = invariant_matrix(lam, gam)
    assert np.allclose(m, m.conj().T, atol=1e-16)
    vals = np.sort(np.linalg.eigvalsh(m))
    assert np.abs(vals - [-0.5, 0.5]).max() < 1e-13


def test_transform_identity_at_zero():
    assert np.allclose(rotation_stack(0.0, 0.7), np.eye(2), atol=1e-16)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, math.pi), st.floats(-20.0, 20.0))
def test_transform_diagonalizes_invariant(lam, gam):
    v = rotation_stack(lam, gam)
    m = invariant_matrix(lam, gam)
    assert np.linalg.norm(v.conj().T @ m @ v - S3) < 1e-11


def test_transform_maps_s1_eigenvectors():
    v = rotation_stack(math.pi / 2.0, 0.0)
    plus_x = np.array([1.0, 1.0]) / math.sqrt(2.0)  # S1 eigenvector, +1/2
    mapped = v.conj().T @ plus_x
    assert abs(abs(mapped[0]) - 1.0) < 1e-14 and abs(mapped[1]) < 1e-14


# -- integration: exact solutions ------------------------------------------------

def test_static_fixed_point():
    traj = OmegaTrajectory.constant_precession(2.0, 0.0, 1.1, 0.4)
    sol = integrate_auxiliary(traj, 1.1, 0.4, 10.0, 0.01)
    assert np.abs(sol.lam - 1.1).max() < 1e-12
    assert np.abs(sol.gamma - 0.4).max() < 1e-12
    assert np.abs(sol.lam_dot).max() < 1e-14
    assert np.abs(sol.gamma_dot).max() < 1e-14


def test_precession_locked_cone_ten_periods():
    traj = _precession()
    lam_star = solve_precession_lambda(W0, OM, TH)
    t_end = 10.0 * 2.0 * math.pi / OM
    sol = integrate_auxiliary(traj, lam_star, 0.0, t_end, 0.01)
    assert np.abs(sol.lam - lam_star).max() < 1e-9
    assert np.abs(sol.gamma - OM * sol.t).max() < 1e-9


def test_free_spin_constant():
    traj = OmegaTrajectory.constant_precession(0.0, 0.0, 1.0)
    sol = integrate_auxiliary(traj, 0.8, -0.2, 5.0, 0.05)
    assert np.array_equal(sol.lam, np.full_like(sol.lam, 0.8))
    assert np.array_equal(sol.gamma, np.full_like(sol.gamma, -0.2))


def test_backward_integration_round_trip():
    traj = _precession()
    lam0, gam0 = 1.2, 0.3  # off the locked cone: genuinely dynamic
    t_end = 6.0
    fwd = integrate_auxiliary(traj, lam0, gam0, t_end, 0.002)
    back = integrate_auxiliary(traj, float(fwd.lam[-1]), float(fwd.gamma[-1]),
                               0.0, 0.002, t0=t_end)
    assert abs(back.lam[-1] - lam0) < 1e-8
    assert abs(back.gamma[-1] - gam0) < 1e-8


def test_rk4_convergence_order():
    # step-halving against a fine reference on the precession trajectory,
    # started off the locked cone so the solution is nontrivial
    traj = _precession()
    lam0, gam0 = solve_precession_lambda(W0, OM, TH) + 0.4, 0.3
    t_end = 5.0
    ref = integrate_auxiliary(traj, lam0, gam0, t_end, t_end / 2**13)
    errs = []
    for k in (6, 7, 8, 9):
        sol = integrate_auxiliary(traj, lam0, gam0, t_end, t_end / 2**k)
        errs.append(max(abs(sol.lam[-1] - ref.lam[-1]), abs(sol.gamma[-1] - ref.gamma[-1])))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 3.8, orders


# -- integration: guards and diagnostics ----------------------------------------

def test_invalid_step():
    traj = _precession()
    for bad in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            integrate_auxiliary(traj, 1.0, 0.0, 1.0, bad)


def test_lambda0_outside_band():
    traj = _precession()
    with pytest.raises(SingularityError, match="lambda0 = 0.0"):
        integrate_auxiliary(traj, 0.0, 0.0, 1.0, 0.01)
    with pytest.raises(SingularityError, match="outside the integrable band"):
        integrate_auxiliary(traj, math.pi, 0.0, 1.0, 0.01)


def test_singularity_abort_names_time():
    # invariant direction rotates about w; with w along x and the initial
    # direction in the y-z plane, the circle passes exactly through the pole
    traj = OmegaTrajectory.constant_precession(1.0, 0.0, math.pi / 2.0, 0.0)
    with pytest.raises(SingularityError) as err:
        integrate_auxiliary(traj, 0.3, math.pi / 2.0, 8.0, 0.005)
    assert err.value.time is not None
    assert "t =" in str(err.value)


def test_adaptive_step_halving_meets_tolerance():
    traj = _precession()
    lam0 = solve_precession_lambda(W0, OM, TH) + 0.4
    coarse = integrate_auxiliary(traj, lam0, 0.0, 5.0, 0.5)
    adaptive = integrate_auxiliary(traj, lam0, 0.0, 5.0, 0.5, adaptive=True)
    assert adaptive.n_halvings >= 1
    assert adaptive.max_error_rate <= 1e-9 * W0
    ref = integrate_auxiliary(traj, lam0, 0.0, 5.0, 0.001)
    assert abs(adaptive.lam[-1] - ref.lam[-1]) < abs(coarse.lam[-1] - ref.lam[-1])


def test_eigenvalues_constant_along_run():
    traj = _precession()
    sol = integrate_auxiliary(traj, 1.2, 0.3, 8.0, 0.01)
    worst = 0.0
    for i in range(0, sol.n_samples, 37):
        vals = np.sort(np.linalg.eigvalsh(invariant_matrix(sol.lam[i], sol.gamma[i])))
        worst = max(worst, np.abs(vals - [-0.5, 0.5]).max())
    assert worst < 1e-11


def test_transform_diagonalizes_along_run():
    traj = _precession()
    sol = integrate_auxiliary(traj, 1.2, 0.3, 8.0, 0.01)
    for i in range(0, sol.n_samples, 101):
        m = invariant_matrix(sol.lam[i], sol.gamma[i])
        v = rotation_stack(sol.lam[i], sol.gamma[i])
        assert np.linalg.norm(v.conj().T @ m @ v - S3) < 1e-11


def test_adaptive_exhausted_budget_is_flagged():
    traj = _precession()
    lam0 = solve_precession_lambda(W0, OM, TH) + 0.4
    sol = integrate_auxiliary(traj, lam0, 0.0, 5.0, 0.5, adaptive=True, max_halvings=0)
    assert sol.n_halvings == 0
    assert sol.meta["error_rate_tol_exceeded"] is True
    assert sol.max_error_rate > 1e-9 * W0


def test_tabulated_past_table_end_raises():
    t = np.linspace(0.0, 5.0, 50)
    traj = OmegaTrajectory.from_table(W0, t, 1.1 + 0.1 * np.sin(t), 0.5 * t)
    with pytest.raises(OutOfDomainError):
        integrate_auxiliary(traj, 1.0, 0.0, 6.0, 0.01)


def test_zero_length_run_is_one_sample():
    # t_end == t0 runs the main loop with no step: one sample, rates from the RHS
    traj = _tabulated_500()
    for adaptive in (False, True):
        sol = integrate_auxiliary(traj, 1.0, 0.2, 3.0, 0.05, t0=3.0, adaptive=adaptive)
        assert sol.n_samples == 1 and sol.t[0] == 3.0 and sol.step == 0.05
        assert (sol.n_halvings, sol.max_error_rate, sol.meta) == (0, 0.0, {})
        ld, gd = auxiliary_rhs(traj, 3.0, 1.0, 0.2)
        assert sol.lam_dot[0] == pytest.approx(ld, rel=1e-14, abs=1e-15)
        assert sol.gamma_dot[0] == pytest.approx(gd, rel=1e-14, abs=1e-15)
    with pytest.raises(OutOfDomainError):
        integrate_auxiliary(traj, 1.0, 0.2, 11.0, 0.05, t0=11.0)


def test_solution_carries_grid_drive_angles():
    for traj, args in ((_precession(), (1.2, 0.3, 4.0, 0.01)),
                       (_tabulated_500(), (1.0, 0.2, 9.6, 0.2))):
        sol = integrate_auxiliary(traj, *args, adaptive=True)
        th, ph = traj.angles(sol.t)
        assert np.array_equal(sol.theta, th) and np.array_equal(sol.phi, ph)


# -- integration: the stage-table loop against a per-stage reference -------------

def _reference_rk4_step(traj, t, lam, gam, h, eps):
    k1l, k1g = auxiliary_rhs(traj, t, lam, gam, eps)
    k2l, k2g = auxiliary_rhs(traj, t + 0.5 * h, lam + 0.5 * h * k1l, gam + 0.5 * h * k1g, eps)
    k3l, k3g = auxiliary_rhs(traj, t + 0.5 * h, lam + 0.5 * h * k2l, gam + 0.5 * h * k2g, eps)
    k4l, k4g = auxiliary_rhs(traj, t + h, lam + h * k3l, gam + h * k3g, eps)
    return (lam + (h / 6.0) * (k1l + 2.0 * k2l + 2.0 * k3l + k4l),
            gam + (h / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g))


def _reference_integrate(traj, lambda0, gamma0, t_end, step, *, t0=0.0,
                         adaptive=False, max_halvings=16, eps=EPS_LAMBDA):
    """Scalar RK4 loop that samples the drive at every stage through auxiliary_rhs."""
    tol = 1e-9 * traj.omega0
    n = max(1, round(abs(t_end - t0) / step))
    halvings = 0
    while True:
        t = np.linspace(t0, t_end, n + 1)
        h = (t_end - t0) / n
        lam = np.empty(n + 1)
        gam = np.empty(n + 1)
        lam[0], gam[0] = lambda0, gamma0
        worst_rate = 0.0
        ok = True
        for k in range(n):
            tk = t[k]
            if adaptive:
                full = _reference_rk4_step(traj, tk, lam[k], gam[k], h, eps)
                hl, hg = _reference_rk4_step(traj, tk, lam[k], gam[k], 0.5 * h, eps)
                lam[k + 1], gam[k + 1] = _reference_rk4_step(traj, tk + 0.5 * h, hl, hg,
                                                             0.5 * h, eps)
                rate = max(abs(full[0] - lam[k + 1]), abs(full[1] - gam[k + 1])) / abs(h)
                worst_rate = max(worst_rate, rate)
                if rate > tol and halvings < max_halvings:
                    ok = False
                    break
            else:
                lam[k + 1], gam[k + 1] = _reference_rk4_step(traj, tk, lam[k], gam[k], h, eps)
            assert eps < lam[k + 1] < math.pi - eps
        if ok:
            break
        n *= 2
        halvings += 1
    rates = np.array([auxiliary_rhs(traj, t[k], lam[k], gam[k], eps) for k in range(n + 1)])
    meta = {"error_rate_tol_exceeded": True} if adaptive and worst_rate > tol else {}
    return dict(t=t, lam=lam, gamma=gam, lam_dot=rates[:, 0], gamma_dot=rates[:, 1],
                n_halvings=halvings, max_error_rate=worst_rate, meta=meta)


def _tabulated_500():
    t = np.linspace(0.0, 10.0, 500)
    return OmegaTrajectory.from_table(W0, t, 1.1 + 0.1 * np.sin(0.7 * t), 0.5 * t)


REFERENCE_CASES = {
    "locked-cone": (_precession, (math.pi / 2.0, 0.0, 2.0 * 2.0 * math.pi / OM, 0.01), {}),
    "off-cone-backward": (_precession, (1.2, 0.3, 0.0, 0.01), {"t0": 6.0}),
    "tabulated-adaptive": (_tabulated_500, (1.0, 0.2, 9.6, 0.2), {"adaptive": True}),
    "tabulated-fixed": (lambda: spline_drive(W0, lambda t: 1.0 + 0.2 * np.sin(t),
                                             lambda t: 0.7 * t, 5.0, 501),
                        (1.1, 0.0, 5.0, 0.01), {}),
    "budget-exhausted": (_precession, (math.pi / 2.0 + 0.4, 0.0, 5.0, 0.5),
                         {"adaptive": True, "max_halvings": 0}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_stage_table_matches_per_stage_reference(case):
    # tolerance fixed from float64 rounding: the stage-table loop takes sin/cos
    # of the drive angle from numpy, the reference from math
    make, args, kwargs = REFERENCE_CASES[case]
    traj = make()
    sol = integrate_auxiliary(traj, *args, **kwargs)
    ref = _reference_integrate(traj, *args, **kwargs)
    if case == "tabulated-adaptive":
        assert ref["n_halvings"] == 4
    assert sol.n_samples == ref["t"].size
    assert sol.n_halvings == ref["n_halvings"]
    assert sol.meta == ref["meta"]
    assert sol.max_error_rate == pytest.approx(ref["max_error_rate"], rel=1e-9, abs=0.0)
    assert np.array_equal(sol.t, ref["t"])
    for key in ("lam", "gamma", "lam_dot", "gamma_dot"):
        y, y_ref = getattr(sol, key), ref[key]
        assert np.all(np.abs(y - y_ref) <= 1e-12 * np.maximum(1.0, np.abs(y_ref))), key


# -- LvN residual -----------------------------------------------------------------

def test_residual_zero_on_fixed_point():
    traj = OmegaTrajectory.constant_precession(2.0, 0.0, 1.1, 0.4)
    assert _residual(traj, 3.0, 1.1, 0.4, 0.0, 0.0)[0] < 1e-12 * 2.0


def test_residual_detects_non_solution():
    traj = _precession()
    # rates not from the ODE
    assert _residual(traj, 0.7, 1.0, 0.2, 0.33, -0.41)[0] > 1e-3


def test_residual_zero_for_rhs_rates_anywhere():
    # algebraic consistency: any (lam, gamma) with RHS rates satisfies the
    # invariant condition pointwise
    traj = _precession()
    rng = np.random.default_rng(2)
    draws = [(rng.uniform(0.2, math.pi - 0.2), rng.uniform(-3.0, 3.0), rng.uniform(0.0, 10.0))
             for _ in range(25)]
    lam, gam, t = (np.array(x) for x in zip(*draws))
    ld, gd = np.array([auxiliary_rhs(traj, *x) for x in zip(t, lam, gam)]).T
    assert _residual(traj, t, lam, gam, ld, gd).max() < 1e-13


def _commutator_residual(lam, gamma, lam_dot, gamma_dot, w):
    """|dI/dt - i [I, H]|_F from 2x2 matrices: I, its chain-rule derivative and H = w.S."""
    c, s = math.cos(lam), math.sin(lam)
    e = complex(math.cos(gamma), -math.sin(gamma))  # e^{-i gamma}
    off = 0.5 * (c * lam_dot - 1j * s * gamma_dot) * e
    di = np.array([[-0.5 * s * lam_dot, off], [off.conjugate(), 0.5 * s * lam_dot]])
    im = invariant_matrix(lam, gamma)
    h = w[0] * S1 + w[1] * S2 + w[2] * S3
    return np.linalg.norm(di - 1j * (im @ h - h @ im))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 1e3), st.integers(0, 2**32 - 1))
def test_bloch_residual_matches_commutator_reference(w0, seed):
    # |dn/dt + n x w| / sqrt(2) is the Frobenius norm of the matrix residual
    rng = np.random.default_rng(seed)
    n = 40
    lam, th = rng.uniform(0.0, math.pi, (2, n))
    gam, ph = rng.uniform(-20.0, 20.0, (2, n))
    lam_dot, gam_dot = w0 * rng.uniform(-3.0, 3.0, (2, n))
    traj = OmegaTrajectory.constant_precession(w0, 0.0, 1.0)
    sol = AuxiliarySolution(traj, np.arange(n, dtype=float), lam, gam, lam_dot, gam_dot,
                            th, ph, step=1.0)
    ref = [_commutator_residual(*x)
           for x in zip(lam, gam, lam_dot, gam_dot, omega_from_angles(w0, th, ph))]
    assert np.abs(lvn_residual_samples(sol) - ref).max() <= 1e-14 * max(1.0, w0)


def test_residual_samples_tiny_along_run():
    traj = _precession()
    sol = integrate_auxiliary(traj, 1.2, 0.3, 8.0, 0.01)
    assert lvn_residual_samples(sol).max() < 1e-10 * W0


def test_fd_residual_scales_fourth_order():
    traj = _precession()
    lam0 = solve_precession_lambda(W0, OM, TH) + 0.4
    res = []
    steps = [0.08, 0.04, 0.02, 0.01]
    for h in steps:
        sol = integrate_auxiliary(traj, lam0, 0.3, 8.0, h)
        res.append(float(lvn_residual_series(sol).max()))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    assert min(orders) >= 3.8, (res, orders)


def test_solution_csv_columns(tmp_path):
    traj = _precession()
    sol = integrate_auxiliary(traj, 1.2, 0.3, 1.0, 0.1)
    path = tmp_path / "aux.csv"
    sol.to_csv(path, comments=["config_sha256=deadbeef"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_sha256=deadbeef"
    assert lines[1] == "t,lambda,gamma,lambda_dot,gamma_dot,lvn_residual"
    assert len(lines) == 2 + sol.n_samples

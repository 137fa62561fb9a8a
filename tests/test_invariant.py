"""Auxiliary ODE integration, invariant construction, residual checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drives import S1, S2, S3, frame_matrix, spline_drive
from spinrot import invariant
from spinrot.errors import ConfigError, NoSolutionError, OutOfDomainError, SingularityError
from spinrot.invariant import (EPS_LAMBDA, AuxiliarySolution, integrate_auxiliary,
                               lvn_residual_samples, lvn_residual_series,
                               solve_precession_lambda)
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
    assert np.allclose(frame_matrix(0.0, 0.7), np.eye(2), atol=1e-16)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, math.pi), st.floats(-20.0, 20.0))
def test_transform_diagonalizes_invariant(lam, gam):
    v = frame_matrix(lam, gam)
    m = invariant_matrix(lam, gam)
    assert np.linalg.norm(v.conj().T @ m @ v - S3) < 1e-11


def test_transform_maps_s1_eigenvectors():
    v = frame_matrix(math.pi / 2.0, 0.0)
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
        v = frame_matrix(sol.lam[i], sol.gamma[i])
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


# -- integration: the blocked scheme against a per-step reference ----------------

def _reference_frame(traj, t0, t_end):
    """(c, rate) of the frame angle alpha(t) = c + rate t that the integrator turns with."""
    if traj.kind == "constant_precession":
        return traj.params["phi0"], traj.params["Omega"]
    ph0, ph1 = traj.angles_scalar(t0)[1], traj.angles_scalar(t_end)[1]
    rate = (ph1 - ph0) / (t_end - t0) if t_end != t0 else 0.0
    return ph0 - rate * t0, rate


def _reference_rk4_step(traj, frame, t, t_next, n, h):
    """One RK4 step of dn'/dt = b x n', b = w' - rate z, from n at t to t_next = t + h."""
    c, rate = frame

    def b(s):
        th, ph = traj.angles_scalar(s)
        d = ph - (c + rate * s)
        w0 = traj.omega0
        return np.array([w0 * math.sin(th) * math.cos(d), w0 * math.sin(th) * math.sin(d),
                         w0 * math.cos(th) - rate])

    b2 = b(t + 0.5 * h)
    k1 = np.cross(b(t), n)
    k2 = np.cross(b2, n + 0.5 * h * k1)
    k3 = np.cross(b2, n + 0.5 * h * k2)
    k4 = np.cross(b(t_next), n + h * k3)
    return n + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_integrate(traj, lambda0, gamma0, t_end, step, *, t0=0.0,
                         adaptive=False, max_halvings=16, eps=EPS_LAMBDA):
    """Plain per-step loop of the co-rotating Bloch-vector RK4, the drive sampled per stage.

    Per step: the step (adaptive: also its two half steps, which give the
    sample, and the rate test), then the sample's guards: lambda inside
    the band, and a turn of gamma of at most pi/2.
    """
    tol = 1e-9 * traj.omega0
    frame = _reference_frame(traj, t0, t_end)
    c, rate = frame
    n = max(1, round(abs(t_end - t0) / step))
    psi0 = gamma0 - (c + rate * t0)
    halvings = 0
    while True:
        t = np.linspace(t0, t_end, n + 1)
        h = (t_end - t0) / n
        lam = np.empty(n + 1)
        gam = np.empty(n + 1)
        lam[0], gam[0] = lambda0, gamma0
        v = np.array([math.sin(lambda0) * math.cos(psi0), math.sin(lambda0) * math.sin(psi0),
                      math.cos(lambda0)])
        psi, a = psi0, math.atan2(v[1], v[0])
        worst_rate = 0.0
        ok = True
        for k in range(n):
            tk = t[k]
            if adaptive:
                mid = tk + 0.5 * h
                full = _reference_rk4_step(traj, frame, tk, t[k + 1], v, h)
                v = _reference_rk4_step(traj, frame, tk, mid, v, 0.5 * h)
                v = _reference_rk4_step(traj, frame, mid, t[k + 1], v, 0.5 * h)
                rate_k = np.linalg.norm(full - v) / abs(h)
                worst_rate = max(worst_rate, rate_k)
                if rate_k > tol and halvings < max_halvings:
                    ok = False
                    break
            else:
                v = _reference_rk4_step(traj, frame, tk, t[k + 1], v, h)
            a_next = math.atan2(v[1], v[0])
            turn = (a_next - a + math.pi) % (2.0 * math.pi) - math.pi
            psi, a = psi + turn, a_next
            lam[k + 1] = math.atan2(math.hypot(v[0], v[1]), v[2])
            gam[k + 1] = c + rate * t[k + 1] + psi
            if not eps < lam[k + 1] < math.pi - eps or abs(turn) > 0.5 * math.pi:
                raise SingularityError(f"reference guard at t = {t[k + 1]}", time=t[k + 1])
        if ok:
            break
        n *= 2
        halvings += 1
    rates = np.array([auxiliary_rhs(traj, t[k], lam[k], gam[k], eps) for k in range(n + 1)])
    meta = {"error_rate_tol_exceeded": True} if adaptive and worst_rate > tol else {}
    return dict(t=t, lam=lam, gamma=gam, lam_dot=rates[:, 0], gamma_dot=rates[:, 1],
                n_halvings=halvings, max_error_rate=worst_rate, meta=meta, h=h)


def _tabulated_500():
    t = np.linspace(0.0, 10.0, 500)
    return OmegaTrajectory.from_table(W0, t, 1.1 + 0.1 * np.sin(0.7 * t), 0.5 * t)


REFERENCE_CASES = {
    "locked-cone": (_precession, (math.pi / 2.0, 0.0, 2.0 * 2.0 * math.pi / OM, 0.01), {}),
    "off-cone-backward": (_precession, (1.2, 0.3, 0.0, 0.01), {"t0": 6.0}),
    # 600 steps of h = -0.01, backward in time through the block loop
    "off-cone-backward-adaptive": (_precession, (1.2, 0.3, 0.0, 0.01), {"t0": 6.0, "adaptive": True}),
    "tabulated-adaptive": (_tabulated_500, (1.0, 0.2, 9.6, 0.2), {"adaptive": True}),
    "tabulated-fixed": (lambda: spline_drive(W0, lambda t: 1.0 + 0.2 * np.sin(t),
                                             lambda t: 0.7 * t, 5.0, 501),
                        (1.1, 0.0, 5.0, 0.01), {}),
    "budget-exhausted": (_precession, (math.pi / 2.0 + 0.4, 0.0, 5.0, 0.5),
                         {"adaptive": True, "max_halvings": 0}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_stage_table_matches_per_stage_reference(case):
    # tolerances fixed from float64 rounding: the blocked scheme multiplies
    # step matrices in another order than the loop applies its steps, takes
    # sin/cos of the drive angle from numpy, not math, and unwraps gamma in
    # closed form, not by a running sum. The error rate is a difference of
    # two O(1) vectors divided by h, so it is held to a few ulps of 1 over h.
    make, args, kwargs = REFERENCE_CASES[case]
    traj = make()
    sol = integrate_auxiliary(traj, *args, **kwargs)
    ref = _reference_integrate(traj, *args, **kwargs)
    if case == "tabulated-adaptive":
        assert ref["n_halvings"] == 4
    assert sol.n_samples == ref["t"].size
    assert sol.n_halvings == ref["n_halvings"]
    assert sol.meta == ref["meta"]
    assert sol.max_error_rate == pytest.approx(ref["max_error_rate"], rel=0.0,
                                               abs=1e-14 / abs(ref["h"]))
    assert np.array_equal(sol.t, ref["t"])
    for key in ("lam", "gamma", "lam_dot", "gamma_dot"):
        y, y_ref = getattr(sol, key), ref[key]
        assert np.all(np.abs(y - y_ref) <= 1e-12 * np.maximum(1.0, np.abs(y_ref))), key


def _x_field():
    # w along x: n circles about x, through a pole of lambda from a start in the y-z plane
    return OmegaTrajectory.constant_precession(1.0, 0.0, math.pi / 2.0, 0.0)


# case: (drive, args, kwargs, the guard's (first word, time) in its message, or None)
BLOCK_CASES = {
    "cone-forward": (_precession, (1.2, 0.3, 12.0, 0.01), {}, None),
    "cone-backward": (_precession, (1.2, 0.3, 0.0, 0.01), {"t0": 12.0}, None),
    "spline-adaptive": (lambda: spline_drive(W0, lambda t: 1.0 + 0.2 * np.sin(t),
                                             lambda t: 0.7 * t, 5.0, 501),
                        (1.1, 0.0, 5.0, 0.05), {"adaptive": True}, None),
    # lambda reaches the pole at step 600
    "fixed-guard": (_x_field, (0.3, math.pi / 2.0, 8.0, 0.0005), {}, ("lambda", "0.3")),
    # only the last sample is inside the guard band: lambda = 5e-8 at t = 1
    "fixed-guard-last-sample": (_x_field, (1.0, math.pi / 2.0, 1.0, 0.05), {}, ("lambda", "1")),
    # n passes 0.0089 from the pole: at h = 0.04 gamma turns by 2.3 rad in one step
    "fixed-turn-guard": (_x_field, (0.3, math.pi / 2.0 - 0.03, 1.0, 0.04), {},
                         ("gamma", "0.32")),
    # the same run, adaptive: the first step's rate test fails before the
    # sample at t = 0.32, so the run halves twice and passes the pole
    "adaptive-rate-before-guard": (_x_field, (0.3, math.pi / 2.0 - 0.03, 1.0, 0.04),
                                   {"adaptive": True, "max_halvings": 2}, None),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_size_changes_no_bit(case, monkeypatch):
    # the samples chain block to block, and the blocked product reassociates
    # within a block, so the samples may move by rounding with the block
    # size, and the error rate by rounding over h; the halvings, the flags
    # and the guard message may not
    make, args, kwargs, guard = BLOCK_CASES[case]
    outcomes = []
    for block in (1, 3, invariant._BLOCK):
        monkeypatch.setattr(invariant, "_BLOCK", block)
        try:
            outcomes.append(integrate_auxiliary(make(), *args, **kwargs))
        except SingularityError as err:
            outcomes.append(str(err))
    if guard is None:
        assert not isinstance(outcomes[0], str), outcomes[0]
    else:
        assert outcomes[0].startswith(guard[0]), outcomes[0]
        assert outcomes[0].endswith(f"at t = {guard[1]}"), outcomes[0]
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        return
    if case == "adaptive-rate-before-guard":
        assert outcomes[0].n_halvings == 2
        with pytest.raises(SingularityError, match="^gamma turned .* at t = 0.32$"):
            integrate_auxiliary(make(), *args, adaptive=True, max_halvings=0)
    first = outcomes[0]
    for sol in outcomes[1:]:
        assert (sol.n_halvings, sol.meta) == (first.n_halvings, first.meta)
        assert sol.max_error_rate == pytest.approx(first.max_error_rate, rel=1e-9, abs=1e-13)
        for key in ("lam", "gamma"):
            y, y_ref = getattr(sol, key), getattr(first, key)
            assert np.all(np.abs(y - y_ref) <= 1e-13 * np.maximum(1.0, np.abs(y_ref))), key


# -- a cone's pass: one step matrix, its powers broadcast over the sub-blocks -----

def _cone(w0=W0, Om=OM, th=1.0, ph0=0.3):
    return OmegaTrajectory.constant_precession(w0, Om, th, ph0)


_RK4_STEP = invariant._rk4_step
_DISORDERED = (1e11, 159500978894.36554, math.pi / 2.0)  # the disordered preset's cone

# case: (drive, args, kwargs); at step 0.01, t_end 10.24, 10.25 and 20.49 are 1024,
# 1025 and 2049 steps: one whole block, one step past it and one past two
STATIC_CASES = {
    "locked": (_precession, (math.pi / 2.0, 0.0, 2.0 * 2.0 * math.pi / OM, 0.01), {}),
    "aligned": (_precession, (TH, 0.0, 2.0 * 2.0 * math.pi / OM, 0.01), {}),
    "backward": (_cone, (1.2, 0.3, 0.0, 0.01), {"t0": 12.0}),
    "backward-adaptive": (_cone, (1.2, 0.3, 0.0, 0.01), {"t0": 6.0, "adaptive": True}),
    "adaptive-halvings": (_cone, (1.4, 0.0, 5.0, 0.5), {"adaptive": True}),
    "adaptive-overflow": (lambda: _cone(1.0, 40.0, 1.0, 0.0), (1.0, 0.0, 20.0, 20.0),
                          {"adaptive": True}),
    "Omega-zero": (lambda: _cone(Om=0.0), (0.7, 0.2, 5.0, 0.01), {}),
    "theta-zero": (lambda: _cone(th=0.0), (0.7, 0.2, 5.0, 0.01), {}),
    "steps-1": (_cone, (0.7, 0.2, 0.01, 0.01), {}),
    "steps-1024": (_cone, (0.7, 0.2, 10.24, 0.01), {}),
    "steps-1025": (_cone, (0.7, 0.2, 10.25, 0.01), {}),
    "steps-2049": (_cone, (0.7, 0.2, 20.49, 0.01), {}),
    "steps-2049-adaptive": (_cone, (0.7, 0.2, 20.49, 0.01), {"adaptive": True}),
    "disordered": (lambda: _cone(*_DISORDERED, 0.0), (1.0, 0.0, 2e-11, 3e-14), {}),
    "turn-guard": (_x_field, (0.3, math.pi / 2.0 - 0.03, 1.0, 0.04), {}),
    "pole-guard": (_x_field, (0.3, math.pi / 2.0, 8.0, 0.0005), {}),
}


def _run_counting_steps(monkeypatch, make, args, kwargs):
    """(solution or SingularityError message, calls of `_rk4_step`) of one run."""
    calls = []

    def counted(*a, _fn=_RK4_STEP):
        calls.append(a[0].shape[1])
        return _fn(*a)

    monkeypatch.setattr(invariant, "_rk4_step", counted)
    try:
        return integrate_auxiliary(make(), *args, **kwargs), calls
    except SingularityError as err:
        return str(err), calls


@pytest.mark.parametrize("case", sorted(STATIC_CASES))
def test_cone_path_is_the_general_path_bit_for_bit(case, monkeypatch):
    # a cone's field in its frame is one vector, so each pass builds one RK4
    # matrix (adaptive: and one half step) and its powers; forced through the
    # per-step matrices of a general drive, the run gives the same bits
    make, args, kwargs = STATIC_CASES[case]
    cone, cone_calls = _run_counting_steps(monkeypatch, make, args, kwargs)
    monkeypatch.setattr(invariant, "_field_is_static", lambda traj: False)
    general, _ = _run_counting_steps(monkeypatch, make, args, kwargs)
    assert set(cone_calls) == {1}
    if isinstance(general, str):
        assert case.endswith("guard") and cone == general
        return
    per_pass = 2 if kwargs.get("adaptive") else 1
    assert len(cone_calls) == per_pass * (general.n_halvings + 1)
    for key in ("t", "lam", "gamma", "lam_dot", "gamma_dot", "theta", "phi"):
        assert np.array_equal(getattr(cone, key), getattr(general, key)), key
    assert (cone.n_halvings, cone.max_error_rate, cone.meta, cone.step) == (
        general.n_halvings, general.max_error_rate, general.meta, general.step)


def test_passes_halved_away_warn_nothing():
    # far too coarse: the passes before the last overflow, and the rate test
    # halves them away without a numpy warning; the kept pass, at the end of
    # the budget, exceeds the tolerance and is flagged
    traj = OmegaTrajectory.constant_precession(1.0, 40.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = integrate_auxiliary(traj, 1.0, 0.0, 20.0, 20.0, adaptive=True)
    assert sol.n_halvings == 16 and sol.n_samples == 2**16 + 1
    assert sol.meta == {"error_rate_tol_exceeded": True}
    assert 1e-9 < sol.max_error_rate < 1e-8


@pytest.mark.parametrize("static", [True, False])
def test_nan_error_rate_counts_as_exceeded(static, monkeypatch):
    # a nan in the first whole step leaves the samples finite and every error
    # rate nan; nan > tol is false, so the rate test reads a nan as inf: the pass
    # is halved, or, with no halving left, kept and flagged with an infinite rate
    calls = []

    def nan_first_step(b1, b2, b3, h, _fn=invariant._rk4_step):
        m = _fn(b1, b2, b3, h)
        calls.append(h)
        if len(calls) == 1:
            m[0, 0] = np.nan
        return m

    monkeypatch.setattr(invariant, "_field_is_static", lambda traj: static)
    monkeypatch.setattr(invariant, "_rk4_step", nan_first_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = integrate_auxiliary(_cone(), 1.2, 0.3, 2.0, 0.01, adaptive=True)
        assert (sol.n_halvings, sol.meta) == (1, {})
        assert sol.max_error_rate <= 1e-9 * W0
        calls.clear()
        sol = integrate_auxiliary(_cone(), 1.2, 0.3, 2.0, 0.01, adaptive=True, max_halvings=0)
    assert np.isfinite(sol.lam).all()
    assert (sol.n_halvings, sol.max_error_rate, sol.meta) == (
        0, math.inf, {"error_rate_tol_exceeded": True})


@pytest.mark.parametrize("n", [64, 128, 256])
def test_fixed_step_beyond_rk4_stability_is_refused(n):
    # w0 = 1, Omega = 40, theta = 1: |b| = 39.5, so h |b| = 12.3, 6.2 and 3.1 at these
    # counts, past 2 sqrt(2); the run used to return lambda 0.59 rad off, or trip the turn guard
    traj = _precession(1.0, 40.0, 1.0)
    hb = 20.0 / n * math.hypot(math.sin(1.0), math.cos(1.0) - 40.0)
    with pytest.raises(ConfigError, match=(
            rf"^step = {20.0 / n:g} gives h\*\|b\| = {hb:.4g}, "
            r"beyond RK4's stability limit 2\*sqrt\(2\)$")):
        integrate_auxiliary(traj, 1.0, 0.0, 20.0, 20.0 / n)


def test_stability_limit_leaves_stable_and_adaptive_runs():
    traj = _precession(1.0, 40.0, 1.0)
    with pytest.raises(SingularityError, match="gamma turned"):  # h |b| = 1.5: stable
        integrate_auxiliary(traj, 1.0, 0.0, 20.0, 20.0 / 512)
    # adaptive: the rate test halves the unstable passes
    sol = integrate_auxiliary(traj, 1.0, 0.0, 2.0, 0.3125, adaptive=True)
    assert sol.n_halvings > 0 and np.isfinite(sol.lam).all()


def test_tabulated_fixed_step_beyond_rk4_stability_is_refused():
    # every field sample of the block counts: w0 = 40 makes |b| about 40
    traj = spline_drive(40.0, lambda t: 1.0 + 0.2 * np.sin(t), lambda t: 0.7 * t, 5.0, 501)
    with pytest.raises(ConfigError, match="beyond RK4's stability limit"):
        integrate_auxiliary(traj, 1.1, 0.0, 5.0, 0.1)
    assert integrate_auxiliary(traj, 1.1, 0.0, 5.0, 0.05).n_samples == 101


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


def _stacked_residual(sol, lam_dot, gamma_dot):
    """|dn/dt + n x w| / sqrt(2) through np.stack, np.cross and np.linalg.norm."""
    cl, sl = np.cos(sol.lam), np.sin(sol.lam)
    cg, sg = np.cos(sol.gamma), np.sin(sol.gamma)
    n = np.stack([sl * cg, sl * sg, cl], axis=-1)
    dn = np.stack([lam_dot * cl * cg - gamma_dot * sl * sg,
                   lam_dot * cl * sg + gamma_dot * sl * cg, -lam_dot * sl], axis=-1)
    w = omega_from_angles(sol.traj.omega0, sol.theta, sol.phi)
    return np.linalg.norm(dn + np.cross(n, w), axis=-1) / math.sqrt(2.0)


RESIDUAL_CASES = {
    # Omega = 2, theta = 0.6 locks at cos(lam) = -0.90, in the south chart
    "south-chart-cone": lambda: integrate_auxiliary(
        _precession(1.0, 2.0, 0.6), solve_precession_lambda(1.0, 2.0, 0.6), 0.0, 10.0, 0.01),
    "tabulated": lambda: integrate_auxiliary(_tabulated_500(), 1.0, 0.2, 9.6, 0.02),
    "zero-field": lambda: integrate_auxiliary(_precession(0.0, 0.0, 0.6), 1.0, 0.3, 5.0, 0.01),
}


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_residuals_are_the_stacked_formula_bit_for_bit(case):
    # the component form sums (x^2 + y^2) + z^2, as np.linalg.norm does
    sol = RESIDUAL_CASES[case]()
    assert lvn_residual_samples(sol).tobytes() == \
        _stacked_residual(sol, sol.lam_dot, sol.gamma_dot).tobytes()
    fd = [invariant._fd_derivative_uniform(y, sol.step) for y in (sol.lam, sol.gamma)]
    assert lvn_residual_series(sol).tobytes() == _stacked_residual(sol, *fd).tobytes()


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
    sol.to_csv(path, comments=["config_sha256=deadbeef"], residual=lvn_residual_samples(sol))
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_sha256=deadbeef"
    assert lines[1] == "t,lambda,gamma,lambda_dot,gamma_dot,lvn_residual"
    assert len(lines) == 2 + sol.n_samples

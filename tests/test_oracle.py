"""Brute-force propagator: exactness, convergence, overlap diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drives import basis_state, cone_propagators, frame_matrix, spline_drive, su2_matrix
from spinrot.errors import ConfigError, GridMismatchError
from spinrot.invariant import integrate_auxiliary, solve_precession_lambda
from spinrot.oracle import _turn_per_step, fidelity, propagate, under_resolved
from spinrot.phases import accumulate_phases, lr_states
from spinrot.spin_algebra import frame_state, spin_rotation_propagators, time_reverse
from spinrot.trajectory import MAX_SAMPLES, OmegaTrajectory


def test_static_field_exact_phase():
    # w along z: psi(t) = e^{-i w0 t / 2} |+1/2>
    traj = OmegaTrajectory.constant_precession(1.3, 0.0, 0.0)
    run = propagate(traj, basis_state(0.5), 20.0, 0.01)
    exact = np.exp(-0.5j * 1.3 * run.t)
    assert np.abs(run.states[:, 0] - exact).max() < 1e-10
    assert np.abs(run.states[:, 1]).max() == 0.0


def test_zero_coupling_identity():
    traj = OmegaTrajectory.constant_precession(0.0, 0.0, 1.0)
    psi0 = np.array([0.6, 0.8j])
    run = propagate(traj, psi0, 5.0, 0.1)
    assert np.abs(run.states - psi0).max() == 0.0


def test_norm_conserved_exponential():
    traj = OmegaTrajectory.constant_precession(2.0, 0.7, 1.0)
    run = propagate(traj, basis_state(0.5), 30.0, 0.01)
    norms = np.linalg.norm(run.states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    assert run.unitarity_defect < 1e-10


def test_superposition_linearity():
    traj = OmegaTrajectory.constant_precession(1.5, 0.4, 0.9)
    a, b = 0.3 + 0.2j, 0.7 - 0.5j
    p1, p2 = basis_state(0.5), basis_state(-0.5)
    r1 = propagate(traj, p1, 8.0, 0.01)
    r2 = propagate(traj, p2, 8.0, 0.01)
    r12 = propagate(traj, a * p1 + b * p2, 8.0, 0.01)
    assert np.abs(r12.states - (a * r1.states + b * r2.states)).max() < 1e-10


def test_warns_on_coarse_step():
    traj = OmegaTrajectory.constant_precession(10.0, 0.0, 1.0)
    with pytest.warns(UserWarning, match="under-resolved"):
        propagate(traj, basis_state(0.5), 1.0, 0.05)


def _nodes(traj, t, h):
    """w1, w2 and w2 x w1 at the Gauss-Legendre nodes of the steps that start at t."""
    off = math.sqrt(3.0) / 6.0
    w1, w2 = traj.omega(t + (0.5 - off) * h), traj.omega(t + (0.5 + off) * h)
    return w1, w2, np.cross(w2, w1)


def test_under_resolved_sees_the_turning_field():
    # omega0 * step = 0.01, but the axis turns at |Omega| sin(theta) = 50 rad/s;
    # the spline of a constant theta and a linear phi is exact, so the table
    # turns as the cone does
    t = np.linspace(0.0, 1.0, 101)[:-1]
    fast = OmegaTrajectory.constant_precession(1.0, 50.0, math.pi / 2.0)
    table = spline_drive(1.0, lambda x: np.full_like(x, math.pi / 2.0),
                         lambda x: 50.0 * x, 1.0, 400)
    slow = OmegaTrajectory.constant_precession(1.0, 5.0, math.pi / 2.0)
    assert under_resolved(1.0, *_nodes(fast, t, 0.01), 0.01)
    assert under_resolved(1.0, *_nodes(table, t, 0.01), 0.01)
    assert not under_resolved(1.0, *_nodes(slow, t, 0.01), 0.01)
    assert np.allclose(_turn_per_step(*_nodes(table, t, 0.01)),
                       _turn_per_step(*_nodes(fast, t, 0.01)), rtol=0.0, atol=1e-12)
    with pytest.warns(UserWarning, match="under-resolved"):
        propagate(fast, basis_state(0.5), 1.0, 0.01)
    # a static axis does not turn at all; a run with no steps sees omega0 * step alone
    static = OmegaTrajectory.constant_precession(5.0, 0.0, 1.0, 0.3)
    assert not _turn_per_step(*_nodes(static, t, 0.01)).any()
    with pytest.warns(UserWarning, match="under-resolved"):
        assert propagate(static, basis_state(0.5), 1.0, 1.0, t0=1.0).under_resolved


_TURN_FLAG = 0.1  # rad per step


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 50.0), st.booleans(), st.floats(0.1, math.pi - 0.1),
       st.floats(0.0, 2.0 * math.pi), st.floats(-10.0, 10.0), st.floats(0.5, 2.0),
       st.floats(0.01, 0.999))
@example(2.0, False, math.pi / 2.0, 0.0, 0.0, 0.9, 0.5)  # the equator
@example(2.0, True, math.pi / 2.0, 0.0, 0.0, 1.1, 0.5)
def test_under_resolved_matches_cone_closed_form(Om, backward, th, ph0, t0, ratio, larmor):
    # on a cone the nodes, step/sqrt(3) apart, are a chord of the precession
    # circle: the turn per step is 2 sqrt(3) asin(sin th sin(Omega step / (2 sqrt(3))));
    # step is chosen to put it at ratio * 0.1, and omega0 * |step| below 0.1
    assume(abs(ratio - 1.0) > 1e-6)
    r3 = math.sqrt(3.0)
    step = 2.0 * r3 * math.asin(math.sin(ratio * _TURN_FLAG / (2.0 * r3)) / math.sin(th)) / Om
    step = -step if backward else step
    omega0 = larmor * _TURN_FLAG / abs(step)
    traj = OmegaTrajectory.constant_precession(omega0, -Om if backward else Om, th, ph0)
    w1, w2, c = _nodes(traj, t0 + step * np.arange(64), step)
    turn = _turn_per_step(w1, w2, c)
    assert np.allclose(turn, ratio * _TURN_FLAG, rtol=1e-9, atol=0.0)
    assert under_resolved(omega0, w1, w2, c, step) is (ratio > 1.0)
    # the Larmor side of the flag, alone
    assert under_resolved(ratio * _TURN_FLAG / abs(step), w1[:0], w2[:0], c[:0], step) \
        is (ratio > 1.0)


def test_turn_per_step_matches_central_difference():
    # a nutating tabulated drive (dtheta/dt != 0): the turn per step is
    # |n x dn/dt| step at mid-step, n = w/w0, with dn/dt from central
    # differences of w(t), to second order in the step
    w0 = 2.0
    traj = spline_drive(w0, lambda t: 1.0 + 0.3 * np.sin(0.7 * t),
                        lambda t: 0.8 * t + 0.2 * np.cos(0.5 * t), 10.0, 201)
    t = np.array([1.7, 4.05, 8.3])
    d = 1e-5
    nutation = (traj.angles(t + d)[0] - traj.angles(t - d)[0]) / (2.0 * d)
    assert np.abs(nutation).min() > 0.05
    errs = []
    hs = [4e-2, 2e-2, 1e-2]
    for h in hs:
        mid = t + 0.5 * h
        n_dot = (traj.omega(mid + d) - traj.omega(mid - d)) / (2.0 * d * w0)
        rate = np.linalg.norm(np.cross(traj.omega(mid) / w0, n_dot), axis=1)
        errs.append(np.abs(_turn_per_step(*_nodes(traj, t, h)) / h - rate).max())
    order = math.log(errs[0] / errs[2]) / math.log(hs[0] / hs[2])
    assert order >= 1.9
    assert errs[-1] < 1e-6


def test_invalid_inputs():
    traj = OmegaTrajectory.constant_precession(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        propagate(traj, basis_state(0.5), 1.0, -0.1)
    with pytest.raises(ValueError):
        propagate(traj, np.ones(3, dtype=complex), 1.0, 0.01)


def test_subnormal_step_is_value_error():
    # |t_end - t0| / 1e-320 is inf: the step count must not overflow int()
    traj = OmegaTrajectory.constant_precession(1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="gives inf samples, above the cap"):
        propagate(traj, basis_state(0.5), 1.0, 1e-320)
    with pytest.raises(ValueError, match="gives inf samples, above the cap"):
        integrate_auxiliary(traj, 1.0, 0.0, 1.0, 1e-320)


def test_grid_above_sample_cap_rejected_before_it_is_built(monkeypatch):
    # a canary: every block of node fields goes through under_resolved, so
    # it fires on the first block; the check of a run with no steps passes
    from spinrot import oracle

    def grid_built(omega0, w1, w2, c, step):
        if len(w1):
            raise AssertionError(f"a block of {len(w1)} step times was built")
        return False

    monkeypatch.setattr(oracle, "under_resolved", grid_built)
    traj = OmegaTrajectory.constant_precession(1.0, 0.5, 1.0)
    with pytest.raises(ConfigError, match=f"gives {MAX_SAMPLES + 1} samples, above the cap"):
        propagate(traj, basis_state(0.5), 0.5 * MAX_SAMPLES, 0.5)
    with pytest.raises(AssertionError, match="a block of 2048 step times was built"):
        propagate(traj, basis_state(0.5), 0.5 * MAX_SAMPLES - 0.5, 0.5)


def test_fidelity_trivial_cases():
    traj = OmegaTrajectory.constant_precession(1.0, 0.5, 1.0)
    run = propagate(traj, basis_state(0.5), 2.0, 0.01)
    fid, phase = fidelity(run, run.t, run.states)
    assert np.abs(fid - 1.0).max() < 1e-12
    assert np.abs(phase).max() < 1e-12
    # orthogonal states at every sample
    orth = np.stack([-np.conj(run.states[:, 1]), np.conj(run.states[:, 0])], axis=1)
    fid0, _ = fidelity(run, run.t, orth)
    assert np.abs(fid0).max() < 1e-12


def test_fidelity_grid_mismatch():
    traj = OmegaTrajectory.constant_precession(1.0, 0.5, 1.0)
    run = propagate(traj, basis_state(0.5), 2.0, 0.01)
    with pytest.raises(GridMismatchError):
        fidelity(run, run.t[:-1], run.states[:-1])
    with pytest.raises(GridMismatchError):
        fidelity(run, run.t + 0.01, run.states)


def test_magnus_state_error_fourth_order():
    # against the exact cone propagator, halving the step cuts the error ~16x
    w0, Om, th = 1.0, 0.5, math.pi / 3.0
    traj = OmegaTrajectory.constant_precession(w0, Om, th)
    psi0 = frame_matrix(0.7, 0.3) @ basis_state(0.5)
    t_end = 2.0 * 2.0 * math.pi / Om
    errs = []
    for h in (0.08, 0.04, 0.02):
        run = propagate(traj, psi0, t_end, h)
        exact = cone_propagators(w0, Om, th, 0.0, run.t) @ psi0
        errs.append(float(np.abs(run.states - exact).max()))
    assert errs[-1] > 1e-10  # far above rounding
    assert errs[0] / errs[1] >= 14.0
    assert errs[1] / errs[2] >= 14.0


_C_ORDER4 = 0.2  # observed worst C here: 0.13 (pipeline), 0.003 (oracle)
_POLE_GAP = 0.1  # the auxiliary ODE stiffens near the cot(lambda) poles


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(-0.5, 0.5), st.floats(0.3, math.pi - 0.3),
       st.floats(0.0, 2.0 * math.pi), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
       st.floats(0.005, 0.05), st.sampled_from([0.5, -0.5]))
def test_oracle_and_pipeline_match_exact_cone(w0, ratio, th, ph0, dlam, dgam, w0h, sigma):
    # both converge to U(t) psi0 at fourth order, over w0 t = 10; theta past
    # pi/2 takes lambda close to pi, where the geometric phase needs the south chart
    Om = ratio * w0
    lam0 = solve_precession_lambda(w0, Om, th) + dlam
    assume(_POLE_GAP < lam0 < math.pi - _POLE_GAP)
    traj = OmegaTrajectory.constant_precession(w0, Om, th, ph0)
    sol = integrate_auxiliary(traj, lam0, ph0 + dgam, 10.0 / w0, w0h / w0)
    assume(_POLE_GAP < sol.lam.min() and sol.lam.max() < math.pi - _POLE_GAP)
    states = lr_states(sol, accumulate_phases(sol, traj, sigma))
    exact = cone_propagators(w0, Om, th, ph0, sol.t) @ states[0]
    bound = _C_ORDER4 * (w0 * sol.step) ** 4 + 1e-11
    assert np.abs(states - exact).max() <= bound
    run = propagate(traj, states[0], float(sol.t[-1]), sol.step)
    assert np.abs(run.states[-1] - exact[-1]).max() <= bound


def test_oracle_validates_particular_solution():
    # the assembled invariant-method state solves the same dynamics
    w0, Om, th = 1.0, 0.5, math.pi / 3.0
    traj = OmegaTrajectory.constant_precession(w0, Om, th)
    lam = solve_precession_lambda(w0, Om, th)
    t_end = 2.0 * 2.0 * math.pi / Om
    sol = integrate_auxiliary(traj, lam, 0.0, t_end, 0.005)
    for sigma in (0.5, -0.5):
        hist = accumulate_phases(sol, traj, sigma)
        states = lr_states(sol, hist)
        psi0 = frame_matrix(lam, 0.0) @ basis_state(sigma)
        n = sol.n_samples - 1
        run = propagate(traj, psi0, t_end, t_end / (n * 4), thin=4)
        fid, phase = fidelity(run, sol.t, states)
        assert fid.min() >= 1.0 - 1e-8
        assert np.abs(phase).max() < 1e-6


def test_thin_validation():
    traj = OmegaTrajectory.constant_precession(0.5, 0.0, 1.0)
    # 10 steps
    assert propagate(traj, basis_state(0.5), 1.0, 0.1, thin=5).t.size == 3
    with pytest.raises(ValueError):
        propagate(traj, basis_state(0.5), 1.0, 0.1, thin=3)
    with pytest.raises(ValueError):
        propagate(traj, basis_state(0.5), 1.0, 0.1, thin=0)


def _reference_propagate(traj, psi0, t_end, step, t0):
    """One state's loop storing every step: the propagator before the scan, without blocks or thinning."""
    if t_end == t0:
        return np.array([t0]), np.asarray(psi0, dtype=complex)[None, :].copy(), 0.0
    n = max(1, round(abs(t_end - t0) / step))
    t = np.linspace(t0, t_end, n + 1)
    h = (t_end - t0) / n
    states = np.empty((n + 1, 2), dtype=complex)
    cp, cm = complex(psi0[0]), complex(psi0[1])
    states[0, 0], states[0, 1] = cp, cm
    # fourth-order Magnus: Gauss-Legendre nodes, commutator as a cross product
    off = math.sqrt(3.0) / 6.0
    w1 = traj.omega(t[:-1] + (0.5 - off) * h)
    w2 = traj.omega(t[:-1] + (0.5 + off) * h)
    v = 0.5 * (w1 + w2) + (math.sqrt(3.0) / 12.0 * h) * np.cross(w2, w1)
    u = su2_matrix(*spin_rotation_propagators(v, h))
    defect = float(np.abs(np.abs(u[:, 0, 0]) ** 2 + np.abs(u[:, 0, 1]) ** 2 - 1.0).max())
    u00, u01 = u[:, 0, 0].tolist(), u[:, 0, 1].tolist()
    u10, u11 = u[:, 1, 0].tolist(), u[:, 1, 1].tolist()
    for k in range(n):
        cp, cm = u00[k] * cp + u01[k] * cm, u10[k] * cp + u11[k] * cm
        states[k + 1, 0], states[k + 1, 1] = cp, cm
    return t, states, defect


# bound on the scanned states' difference from the looped ones in the cases
# below; the largest measured is 3.8e-14
_SCAN_VS_LOOP = 1e-13

_STATES = np.stack([frame_matrix(0.7, 0.3) @ basis_state(0.5),
                    frame_matrix(0.7, 0.3) @ basis_state(-0.5),
                    np.array([0.6, 0.8j])])


# the oracle's one step method, named in each case id as config oracle.method names it
@pytest.mark.parametrize("method", ["exponential_product"])
# 0 -> 25 at step 0.01 is 2500 steps: one 2048-step block edge, then a ragged block
@pytest.mark.parametrize("t0,t_end", [(0.0, 4.0), (4.0, 0.0), (1.5, 1.5), (0.0, 25.0)])
# thin 5 does not divide the 2048-step block: kept samples straddle block edges
@pytest.mark.parametrize("thin", [1, 4, 5])
# each of the first n_states states of _STATES in its own run
@pytest.mark.parametrize("n_states", [1, 3])
def test_stacked_equals_single_state_runs(method, t0, t_end, thin, n_states):
    traj = OmegaTrajectory.constant_precession(1.0, 0.5, 1.0)
    for psi0 in _STATES[:n_states]:
        single = propagate(traj, psi0, t_end, 0.01, t0=t0, thin=thin)
        # the scanned run is the every-step loop, thinned, up to the rounding of the
        # reordered products
        t, states, _ = _reference_propagate(traj, psi0, t_end, 0.01, t0)
        assert np.array_equal(single.t, t[::thin])
        assert np.abs(single.states - states[::thin]).max() <= _SCAN_VS_LOOP
        assert single.unitarity_defect < 1e-12


def test_unitarity_defect_is_the_max_over_blocks(monkeypatch):
    # a defect seen in the first block's products survives the later blocks: each
    # step of the first block is scaled by 1 + 1e-6, so its 2048-step product is off
    # unitarity by (1 + 1e-6)^4096 - 1
    from spinrot import oracle
    rows = []

    def first_block_scaled(omegas, dt, _fn=oracle.spin_rotation_propagators):
        a, b = _fn(omegas, dt)
        if not rows:
            a, b = a * (1.0 + 1e-6), b * (1.0 + 1e-6)
        rows.append(len(omegas))
        return a, b

    monkeypatch.setattr(oracle, "spin_rotation_propagators", first_block_scaled)
    traj = OmegaTrajectory.constant_precession(1.0, 0.5, 1.0)
    run = propagate(traj, basis_state(0.5), 25.0, 0.01)
    assert rows == [2048, 452]
    assert run.unitarity_defect == pytest.approx((1.0 + 1e-6) ** 4096 - 1.0, rel=1e-6)


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("thin", [4, 5])
def test_thinned_run_is_the_unthinned_run_sliced(thin, backward):
    # 2060 steps cross the 2048-step block edge; the kept samples are the
    # scanned states, so thinning selects them bit for bit
    traj = OmegaTrajectory.constant_precession(1.0, 0.5, 1.0, 0.2)
    t0, t_end = (20.6, 0.0) if backward else (0.0, 20.6)
    psi0 = frame_matrix(0.7, 0.3) @ basis_state(0.5)
    full = propagate(traj, psi0, t_end, 0.01, t0=t0)
    thinned = propagate(traj, psi0, t_end, 0.01, t0=t0, thin=thin)
    assert full.t.size == 2061
    assert thinned.t.tobytes() == full.t[::thin].tobytes()
    assert thinned.states.tobytes() == full.states[::thin].tobytes()
    assert thinned.unitarity_defect == full.unitarity_defect


def test_scan_error_grows_as_the_loop_does():
    # 2e5 steps over ten turns of the demo cone: against the exact propagator the
    # scan's error is within 1.25x the every-step loop's (measured: 0.88x)
    w0, Om, th = 1.0, 0.5, math.pi / 3.0
    traj = OmegaTrajectory.constant_precession(w0, Om, th)
    psi0 = frame_matrix(0.7, 0.3) @ basis_state(0.5)
    t_end, n = 10.0 * 2.0 * math.pi / Om, 200_000
    run = propagate(traj, psi0, t_end, t_end / n, thin=100)
    _, states, _ = _reference_propagate(traj, psi0, t_end, t_end / n, 0.0)
    exact = cone_propagators(w0, Om, th, 0.0, run.t) @ psi0
    loop = np.abs(states[::100] - exact).max()
    assert loop > 1e-12  # the rounding both accumulate, far above one step's
    assert np.abs(run.states - exact).max() <= 1.25 * loop


def test_memory_does_not_grow_with_thin():
    # a block is a fixed number of steps, so keeping fewer samples never costs more memory
    traj = OmegaTrajectory.constant_precession(1.0, 0.5, 1.0)
    peaks = {}
    for thin in (4, 1000):
        tracemalloc.start()
        try:
            run = propagate(traj, basis_state(0.5), 20.0, 1e-3, thin=thin)
            peaks[thin] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.t.size == 20000 // thin + 1
    assert peaks[1000] <= peaks[4]


@settings(max_examples=60, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(1e-3, 100.0), st.booleans(),
       st.sampled_from([0, 1, 7, 2047, 2048, 2049, 4096, 4097, 6147]), st.integers(0, 3))
# 7 * (31.42 / 7) - 21.62 rounds below 9.8: np.linspace pins its last sample to t_end
@example(-21.62, 31.42, False, 7, 1)
def test_kept_times_are_linspace_bit_for_bit(t0, span, backward, n, pick):
    # block edges at multiples of 2048 steps; thin 3 does not divide a block
    thins = [k for k in (1, 3, 7, 2048) if n % k == 0]
    thin = thins[pick % len(thins)]
    t_end = t0 if n == 0 else (t0 - span if backward else t0 + span)
    traj = OmegaTrajectory.constant_precession(0.0, 0.0, 1.0)
    run = propagate(traj, basis_state(0.5), t_end, abs(t_end - t0) / n if n else 0.1, t0=t0,
                    thin=thin)
    assert (run.t.size - 1) * thin == n
    expected = np.linspace(t0, t_end, n + 1)[::thin]
    assert run.t.tobytes() == expected.tobytes()


def test_stack_shape_validation():
    # one 2-spinor only: a stack of them, shape (m, 2), is rejected as well
    traj = OmegaTrajectory.constant_precession(1.0, 0.0, 1.0)
    for bad in (np.ones((2, 3)), np.ones((0, 2)), np.ones((1, 2, 2)), np.array(1.0),
                np.ones(3), _STATES, _STATES[:1]):
        with pytest.raises(ValueError, match="must be a 2-spinor"):
            propagate(traj, bad, 1.0, 0.01)


def test_csv_emission(tmp_path):
    traj = OmegaTrajectory.constant_precession(0.5, 0.0, 1.0)
    run = propagate(traj, basis_state(0.5), 1.0, 0.1)
    fid, phase = fidelity(run, run.t, run.states)
    path = tmp_path / "oracle.csv"
    run.to_csv(path, fidelity=fid, overlap_phase=phase, comments=["config_sha256=abc"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_sha256=abc"
    assert lines[1] == "t,re_plus,im_plus,re_minus,im_minus,fidelity,overlap_phase"
    assert len(lines) == 2 + run.t.size


# 2055 steps, a multiple of 3 and 5, cross the 2048-step block edge
@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), st.floats(-1.0, 1.0),
       st.floats(0.25, math.pi - 0.25), st.floats(0.0, 2.0 * math.pi), st.booleans(),
       st.booleans(), st.sampled_from([1, 3, 5]), st.floats(0.0, math.pi),
       st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
@example(0.0, 0.5, 1.0, 0.0, False, False, 1, 0.0, 0.0, 0.0)  # omega0 = 0 from |+1/2>
@example(1.0, 0.0, 1.0, 0.0, True, True, 5, math.pi, 0.0, 0.0)  # static axis, from |-1/2>
def test_time_reverse_commutes_with_propagate(w0, Om, th, ph0, spline, backward, thin,
                                              lam, gam, chi):
    # Theta = -i sigma_y K commutes with every step, bit for bit, signed zeros included
    span = 5.0
    if spline:
        traj = spline_drive(w0, lambda x: th + 0.2 * np.sin(1.3 * x),
                            lambda x: ph0 + Om * x + 0.3 * np.sin(0.7 * x), span, 200)
    else:
        traj = OmegaTrajectory.constant_precession(w0, Om, th, ph0)
    t0, t_end = (span, 0.0) if backward else (0.0, span)
    psi = np.exp(1j * chi) * frame_state(lam, gam)
    up = propagate(traj, psi, t_end, span / 2055, t0=t0, thin=thin)
    down = propagate(traj, time_reverse(psi), t_end, span / 2055, t0=t0, thin=thin)
    assert up.t.size == 2055 // thin + 1
    assert time_reverse(up.states).tobytes() == down.states.tobytes()
    assert up.t.tobytes() == down.t.tobytes()
    assert up.unitarity_defect == down.unitarity_defect

"""C60 molecular estimates: inertia, precession, correlation times."""

import math

import numpy as np
import pytest

from spinrot.config import resolve_run_config
from spinrot.constants import EV_IN_JOULES
from spinrot.invariant import solve_precession_lambda
from spinrot.scenario import (MoleculeModel, c60_model,
                              free_rotation_correlation_time,
                              precession_from_torque, regime_presets,
                              regime_run_config)
from spinrot.spectroscopy import spectral_shift


def test_c60_moment_of_inertia():
    model = c60_model()
    i_direct = (2.0 / 3.0) * 60 * 1.99264688e-26 * (3.55e-10) ** 2
    assert model.moment_of_inertia == pytest.approx(i_direct, rel=1e-15)
    assert abs(model.moment_of_inertia - 1.0e-43) / 1.0e-43 < 0.02


def test_inertia_scales_quadratically_with_radius():
    m = c60_model()
    doubled = MoleculeModel(m.name, m.mass_kg, 2.0 * m.radius_m)
    assert doubled.moment_of_inertia == pytest.approx(4.0 * m.moment_of_inertia, rel=1e-15)


def test_zero_mass_rejected():
    with pytest.raises(ValueError):
        MoleculeModel("x", 0.0, 1e-10)
    with pytest.raises(ValueError):
        MoleculeModel("x", 1e-24, 0.0)


def test_precession_from_torque_midpoint():
    model = c60_model()
    torque = 0.01 * EV_IN_JOULES
    om = precession_from_torque(model, 1e11, torque, math.pi / 2.0)
    assert om == pytest.approx(1.6e11, rel=0.02)
    assert 1e10 <= om <= 1e12


def test_precession_torque_window():
    model = c60_model()
    lo = precession_from_torque(model, 1e11, 0.001 * EV_IN_JOULES)
    hi = precession_from_torque(model, 1e11, 0.1 * EV_IN_JOULES)
    assert lo == pytest.approx(1.6e10, rel=0.02)
    assert hi == pytest.approx(1.6e12, rel=0.02)


def test_ordered_phase_precession_faster():
    model = c60_model()
    torque = 0.01 * EV_IN_JOULES
    slow_spin = precession_from_torque(model, 1e9, torque)
    fast_spin = precession_from_torque(model, 1e11, torque)
    assert slow_spin / fast_spin == pytest.approx(100.0, rel=1e-12)
    assert slow_spin == pytest.approx(1.6e13, rel=0.02)


def test_precession_validation():
    model = c60_model()
    with pytest.raises(ValueError):
        precession_from_torque(model, 0.0, 1e-21)
    with pytest.raises(ValueError):
        precession_from_torque(model, 1e11, -1.0)
    with pytest.raises(ValueError):
        precession_from_torque(model, 1e11, 1e-21, theta=0.0)


def test_torque_round_trip():
    model = c60_model()
    rng = np.random.default_rng(4)
    for _ in range(20):
        torque = rng.uniform(0.001, 0.1) * EV_IN_JOULES
        w0 = rng.uniform(1e9, 1e12)
        th = rng.uniform(0.2, math.pi - 0.2)
        om = precession_from_torque(model, w0, torque, th)
        back = w0 * om * model.moment_of_inertia * math.sin(th)  # |M| = w0 Omega I sin th
        assert abs(back - torque) / torque < 1e-12


def test_free_rotation_correlation_time():
    model = c60_model()
    tau = free_rotation_correlation_time(model, 283.0)
    assert tau == pytest.approx(3.04e-12, rel=0.01)
    assert abs(tau - 3.0e-12) / 3.0e-12 < 0.05
    # scalings
    assert free_rotation_correlation_time(model, 4.0 * 283.0) == pytest.approx(tau / 2.0, rel=1e-12)
    bigger = MoleculeModel(model.name, model.mass_kg * 4.0, model.radius_m)
    assert free_rotation_correlation_time(bigger, 283.0) == pytest.approx(2.0 * tau, rel=1e-12)
    with pytest.raises(ValueError):
        free_rotation_correlation_time(model, 0.0)


def test_regime_presets():
    presets = {r.phase: r for r in regime_presets()}
    assert set(presets) == {"disordered", "ordered"}
    assert presets["disordered"].omega0 == 1e11
    assert presets["ordered"].omega0 == 1e9
    # torque midpoint drives both
    for r in presets.values():
        model = c60_model()
        assert r.Omega == pytest.approx(
            precession_from_torque(model, r.omega0, 0.01 * EV_IN_JOULES), rel=1e-15)
    assert 1e10 <= presets["disordered"].Omega <= 1e12
    assert presets["ordered"].temperature_k < 249.0 < presets["disordered"].temperature_k


def test_ordered_regime_geometric_term_dominates():
    r = {p.phase: p for p in regime_presets()}["ordered"]
    lam = solve_precession_lambda(r.omega0, r.Omega, r.theta)
    geometric = abs(r.Omega * (1.0 - math.cos(lam)))
    dynamical = abs(r.omega0 * math.cos(lam - r.theta))
    assert geometric / dynamical > 10.0


def test_regime_run_config_is_valid_and_runs():
    presets = {r.phase: r for r in regime_presets()}
    cfg_data = regime_run_config(presets["disordered"], periods=0.2)
    cfg = resolve_run_config(cfg_data)
    lam0, gam0 = cfg.initial_conditions()
    assert 0.0 < lam0 < math.pi
    from spinrot.invariant import integrate_auxiliary
    sol = integrate_auxiliary(cfg.trajectory, lam0, gam0, cfg.t_end, cfg.step)
    assert sol.n_samples > 10
    # shift for the preset is within the resolvable meV-scale window
    shift = spectral_shift(0.5, -0.5, cfg.trajectory.omega0,
                           cfg.trajectory.params["Omega"],
                           cfg.trajectory.params["theta"])
    assert 1e-5 < abs(shift) < 1e-2

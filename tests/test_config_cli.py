"""Config schema validation and the four CLI subcommands."""

import csv
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spinrot
from spinrot.cli import EXIT_CONFIG, main
from spinrot.config import (apply_overrides, config_sha256, resolve_run_config,
                            validate_run_config)
from spinrot.errors import ConfigError
from spinrot.invariant import MAX_SAMPLES

W0, OM, TH = 1.0, 0.5, math.pi / 3.0


def demo_config(**over):
    cfg = {
        "schema_version": 1,
        "trajectory": {"kind": "constant_precession", "omega0": W0,
                       "Omega": OM, "theta": TH, "phi0": 0.0},
        "initial_conditions": "precession-consistent",
        "sigmas": [0.5, -0.5],
        "integrator": {"step": 0.01, "periods": 2.0},
        "oracle": {"enabled": True, "step": 0.0025, "method": "exponential_product"},
        "output": {"directory": ".", "prefix": "demo"},
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# -- schema validation ---------------------------------------------------------

def test_valid_config_normalizes():
    norm = validate_run_config(demo_config())
    assert norm["integrator"]["adaptive"] is False
    assert norm["verify"]["min_fidelity"] == 1.0 - 1e-8
    assert norm["output"]["prefix"] == "demo"


def test_unknown_keys_rejected_everywhere():
    for mutate in (
        lambda c: c.update(bogus=1),
        lambda c: c["trajectory"].update(bogus=1),
        lambda c: c["integrator"].update(bogus=1),
        lambda c: c["oracle"].update(bogus=1),
        lambda c: c["output"].update(bogus=1),
    ):
        cfg = demo_config()
        mutate(cfg)
        with pytest.raises(ConfigError):
            validate_run_config(cfg)


def test_schema_violations():
    bad = [
        demo_config(schema_version=7),
        demo_config(sigmas=[]),
        demo_config(sigmas=[0.3]),
        demo_config(sigmas=[0.5, 0.5]),
        demo_config(initial_conditions="sideways"),
        demo_config(integrator={"step": 0.01}),                      # no t_end/periods
        demo_config(integrator={"step": 0.01, "t_end": 1.0, "periods": 1.0}),
        demo_config(integrator={"step": -0.01, "t_end": 1.0}),
        demo_config(trajectory={"kind": "spiral", "omega0": 1.0}),
        demo_config(trajectory={"kind": "tabulated", "omega0": 1.0}),  # no csv
        demo_config(oracle={"step": 0.01, "method": "verlet"}),
        demo_config(oracle={"step": 0.01, "method": "rk4"}),
    ]
    for cfg in bad:
        with pytest.raises(ConfigError):
            validate_run_config(cfg)


def test_periods_requires_precession():
    cfg = demo_config()
    cfg["trajectory"]["Omega"] = 0.0
    with pytest.raises(ConfigError):
        validate_run_config(cfg)


def test_precession_consistent_requires_precession_kind(tmp_path):
    t = np.linspace(0.0, 10.0, 50)
    lines = ["t,theta,phi"] + [f"{float(x)!r},1.0,{float(0.3 * x)!r}" for x in t]
    csv_path = tmp_path / "traj.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = demo_config(
        trajectory={"kind": "tabulated", "omega0": 1.0, "csv_path": str(csv_path)},
        integrator={"step": 0.01, "t_end": 5.0})
    with pytest.raises(ConfigError):
        validate_run_config(cfg)
    cfg["initial_conditions"] = "aligned"
    rc = resolve_run_config(cfg, str(tmp_path))
    lam0, gam0 = rc.initial_conditions()
    assert lam0 == pytest.approx(1.0, abs=1e-12)


def test_initial_conditions_resolution():
    rc = resolve_run_config(demo_config())
    lam0, gam0 = rc.initial_conditions()
    assert lam0 == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert gam0 == 0.0
    rc2 = resolve_run_config(demo_config(initial_conditions={"lambda0": 1.2, "gamma0": 0.4}))
    assert rc2.initial_conditions() == (1.2, 0.4)


def test_t_end_from_periods():
    rc = resolve_run_config(demo_config())
    assert rc.t_end == pytest.approx(2.0 * 2.0 * math.pi / OM, rel=1e-15)


def test_apply_overrides():
    data = demo_config()
    out = apply_overrides(data, ["integrator.step=0.02", "output.prefix=alt",
                                 "trajectory.Omega=0.25"])
    assert out["integrator"]["step"] == 0.02
    assert out["output"]["prefix"] == "alt"
    assert out["trajectory"]["Omega"] == 0.25
    assert data["integrator"]["step"] == 0.01  # original untouched
    with pytest.raises(ConfigError):
        apply_overrides(data, ["no_equals_sign"])


def test_config_hash_stable():
    a = config_sha256(demo_config())
    b = config_sha256(demo_config())
    assert a == b
    assert a != config_sha256(demo_config(sigmas=[0.5]))


def test_tabulated_digest_covers_the_table(tmp_path):
    # one config JSON over two different tables: every artifact's digest differs
    cfg = _smooth_table_config(tmp_path)
    cfg["integrator"]["t_end"] = 1.0
    path = write_config(tmp_path, cfg)
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"sweep": [{"path": "integrator.step", "values": [0.01]}]}))
    table = tmp_path / "table.csv"
    digests = []
    for run in ("a", "b"):
        if run == "b":
            data = np.loadtxt(table, delimiter=",", skiprows=1)
            data[:, 1] += 1e-3
            np.savetxt(table, data, fmt="%.17g", delimiter=",", header="t,theta,phi",
                       comments="")
        resolved = resolve_run_config(cfg, str(tmp_path))
        out = tmp_path / run
        for argv in (["simulate"], ["verify"], ["sweep", "--sweep", str(sweep)]):
            assert main(argv + ["--config", path, "--output-dir", str(out)]) == 0
        for name in ("demo_summary.json", "demo_verify_report.json"):
            assert json.loads((out / name).read_text())["config_sha256"] == resolved.sha256
        for name in ("demo_aux.csv", "demo_phases_up.csv", "demo_verify_up.csv"):
            assert (out / name).read_text().startswith(f"# config_sha256={resolved.sha256}\n")
        assert (out / "demo_sweep.csv").read_text().startswith(
            f"# config_sha256={resolved.sha256}\n")
        digests.append(resolved.sha256)
    assert len(set(digests)) == 2
    assert config_sha256(validate_run_config(cfg)) not in digests
    assert config_sha256(cfg) not in digests
    assert config_sha256(cfg, resolved.table_sha256) not in digests  # the config as written
    # a cone config hashes its normalized JSON alone, as it always did
    readme = demo_config(integrator={"step": 0.01, "periods": 10.0})
    cone = resolve_run_config(readme, str(tmp_path))
    assert cone.table_sha256 is None
    assert cone.sha256 == config_sha256(validate_run_config(readme))


# -- simulate ----------------------------------------------------------------------

def test_simulate_artifacts_and_summary(tmp_path, capsys):
    cfg = demo_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out)]) == 0
    summary = json.loads((out / "demo_summary.json").read_text())
    lam_star = math.pi / 2.0
    expected_geo_rate = 0.5 * OM * (1.0 - math.cos(lam_star))
    assert summary["per_sigma"]["+0.5"]["phi_geo_rate"] == pytest.approx(
        expected_geo_rate, rel=1e-9)
    assert summary["per_sigma"]["+0.5"]["phi_dyn_rate"] == pytest.approx(
        0.5 * W0 * math.cos(lam_star - TH), rel=1e-9)
    assert summary["analytic"]["phi_geo_rate_up"] == pytest.approx(expected_geo_rate, rel=1e-15)
    assert summary["analytic"]["berry_per_cycle_up"] == pytest.approx(
        math.pi * (1.0 - math.cos(TH)), abs=1e-12)
    assert summary["lvn_max_residual"] < 1e-9 * W0
    assert summary["config_sha256"] == config_sha256(validate_run_config(cfg))
    # per-sigma phase CSVs and the auxiliary series exist with hash comments
    for name in ("demo_aux.csv", "demo_phases_up.csv", "demo_phases_down.csv"):
        text = (out / name).read_text()
        assert text.startswith(f"# config_sha256={summary['config_sha256']}\n")
    rows = read_csv_rows(out / "demo_phases_up.csv")
    assert float(rows[-1]["phi_total"]) == pytest.approx(
        float(rows[-1]["phi_dyn"]) + float(rows[-1]["phi_geo"]), rel=1e-15)


def test_simulate_zero_coupling(tmp_path):
    cfg = demo_config(
        trajectory={"kind": "constant_precession", "omega0": 0.0,
                    "Omega": 0.0, "theta": 1.0, "phi0": 0.0},
        initial_conditions={"lambda0": 1.0, "gamma0": 0.0},
        integrator={"step": 0.05, "t_end": 5.0})
    del cfg["oracle"]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out)]) == 0
    summary = json.loads((out / "demo_summary.json").read_text())
    for entry in summary["per_sigma"].values():
        assert entry["phi_dyn_final"] == 0.0
        assert entry["phi_geo_final"] == 0.0


def test_simulate_deterministic_bytes(tmp_path):
    path = write_config(tmp_path, demo_config(integrator={"step": 0.02, "periods": 0.5}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--output-dir", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--output-dir", str(out2)]) == 0
    codes = [main(["verify", "--config", path, "--output-dir", str(out)])
             for out in (out1, out2)]
    assert codes[0] == codes[1] == 0
    for name in ("demo_aux.csv", "demo_phases_up.csv", "demo_phases_down.csv",
                 "demo_summary.json", "demo_verify_up.csv", "demo_verify_down.csv",
                 "demo_verify_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_residuals_computed_once_where_written(tmp_path, monkeypatch):
    from spinrot import cli, invariant
    calls = {"lvn_residual_samples": 0, "lvn_residual_series": 0}
    for module in (cli, invariant):
        for name in calls:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

    def run(*argv):
        calls.update(dict.fromkeys(calls, 0))
        assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
        return dict(calls)

    path = write_config(tmp_path, demo_config(integrator={"step": 0.02, "periods": 0.5}))
    assert run("simulate", "--config", path) == \
        {"lvn_residual_samples": 1, "lvn_residual_series": 1}
    assert run("verify", "--config", path) == \
        {"lvn_residual_samples": 0, "lvn_residual_series": 0}
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": "trajectory.Omega", "values": [0.1, 0.2]}]}))
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    assert run("sweep", "--config", path, "--sweep", str(spath)) == \
        {"lvn_residual_samples": 2, "lvn_residual_series": 0}


def test_simulate_malformed_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2
    path2 = write_config(tmp_path, demo_config(bogus=1), "bad2.json")
    assert main(["simulate", "--config", path2]) == 2


def test_simulate_singularity_exit_code(tmp_path):
    # invariant direction rotates straight through the pole
    cfg = demo_config(
        trajectory={"kind": "constant_precession", "omega0": 1.0,
                    "Omega": 0.0, "theta": math.pi / 2.0, "phi0": 0.0},
        initial_conditions={"lambda0": 0.3, "gamma0": math.pi / 2.0},
        integrator={"step": 0.005, "t_end": 8.0})
    del cfg["oracle"]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--output-dir", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("case", ["lambda0-zero", "aligned-on-the-pole"])
def test_guard_band_start_is_numeric_failure(tmp_path, capsys, case):
    # lambda0 = 0 sits in the cot(lambda) guard band: exit 3 and one stderr line
    if case == "lambda0-zero":
        cfg = demo_config(initial_conditions={"lambda0": 0.0, "gamma0": 0.0},
                          integrator={"step": 0.01, "t_end": 1.0})
    else:
        cfg = demo_config(trajectory={"kind": "constant_precession", "omega0": 1.0,
                                      "Omega": 0.5, "theta": 0.0, "phi0": 0.0},
                          initial_conditions="aligned", integrator={"step": 0.01, "t_end": 1.0})
    path = write_config(tmp_path, cfg)
    for command in ("simulate", "verify"):
        assert main([command, "--config", path, "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: lambda0 = 0.0 outside the integrable band")
        assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,over,grid", [
    ("simulate", {"integrator": {"step": 2.5e-7, "t_end": 1.0}},
     "integrator.step = 2.5e-07 gives 4000001"),
    ("verify", {"integrator": {"step": 0.01, "t_end": 1.0}, "oracle": {"step": 2.5e-7}},
     "oracle.step = 2.5e-07 gives 4000001"),
    ("simulate", {"integrator": {"step": 1e-320, "t_end": 1.0}},
     "integrator.step = 1e-320 gives inf"),
    ("verify", {"integrator": {"step": 0.01, "t_end": 1.0}, "oracle": {"step": 1e-320}},
     "oracle.step = 1e-320 gives inf"),
])
def test_grid_above_sample_cap_is_config_error(tmp_path, capsys, command, over, grid):
    # 4,000,001 samples is one above the integrator's cap: rejected before the
    # grid is built; a subnormal step's count does not overflow on the way
    assert MAX_SAMPLES == 4_000_000
    path = write_config(tmp_path, demo_config(**over))
    assert main([command, "--config", path, "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {grid} samples, above the cap of 4000000\n"
    assert not (tmp_path / "o").exists()


def test_simulate_no_solution_exit_code(tmp_path):
    cfg = demo_config(
        trajectory={"kind": "constant_precession", "omega0": 1.0,
                    "Omega": 0.5, "theta": 0.0, "phi0": 0.0},
        integrator={"step": 0.01, "t_end": 1.0})
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--output-dir", str(tmp_path / "o")]) == 3


def test_simulate_set_override(tmp_path):
    path = write_config(tmp_path, demo_config(integrator={"step": 0.02, "periods": 0.5}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out),
                 "--set", "integrator.step=0.01", "--set", "output.prefix=alt"]) == 0
    summary = json.loads((out / "alt_summary.json").read_text())
    # stored step is the grid-snapped value t_end / round(t_end / step)
    assert summary["step"] == pytest.approx(0.01, rel=1e-3)


def test_simulate_tabulated_end_to_end(tmp_path):
    t = np.linspace(0.0, 10.0, 2001)
    theta = 1.1 + 0.15 * np.sin(0.7 * t)
    phi = 0.5 * t
    lines = ["t,theta,phi"] + [
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(t, theta, phi)]
    (tmp_path / "traj.csv").write_text("\n".join(lines) + "\n")
    cfg = demo_config(
        trajectory={"kind": "tabulated", "omega0": 1.0, "csv_path": "traj.csv"},
        initial_conditions="aligned",
        integrator={"step": 0.005, "t_end": 9.0})
    del cfg["oracle"]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out)]) == 0
    summary = json.loads((out / "demo_summary.json").read_text())
    assert summary["trajectory_kind"] == "tabulated"
    assert summary["lvn_max_residual"] < 1e-10


def _tabulated_config(tmp_path, oracle=None, **integrator):
    t = np.linspace(0.0, 10.0, 201)
    lines = ["t,theta,phi"] + [
        f"{float(a)!r},{float(b)!r},{float(c)!r}"
        for a, b, c in zip(t, 1.1 + 0.1 * np.sin(0.7 * t), 0.5 * t)]
    (tmp_path / "traj.csv").write_text("\n".join(lines) + "\n")
    cfg = demo_config(
        trajectory={"kind": "tabulated", "omega0": 1.0, "csv_path": "traj.csv"},
        initial_conditions="aligned", integrator=integrator, oracle=oracle)
    if oracle is None:
        del cfg["oracle"]
    return write_config(tmp_path, cfg)


def test_simulate_reports_adaptive_diagnostics(tmp_path):
    path = _tabulated_config(tmp_path, step=0.2, t_end=9.0, adaptive=True)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out)]) == 0
    summary = json.loads((out / "demo_summary.json").read_text())
    assert summary["adaptive_halvings"] >= 1
    assert 0.0 < summary["max_error_rate"] <= 1e-9
    assert summary["error_rate_tol_exceeded"] is False

    fixed = demo_config(integrator={"step": 0.02, "periods": 0.5})
    out_fixed = tmp_path / "fixed"
    assert main(["simulate", "--config", write_config(tmp_path, fixed, "fixed.json"),
                 "--output-dir", str(out_fixed)]) == 0
    summary = json.loads((out_fixed / "demo_summary.json").read_text())
    assert summary["max_error_rate"] == 0.0
    assert summary["error_rate_tol_exceeded"] is False


def test_simulate_short_csv_row_exit_code(tmp_path, capsys):
    path = _tabulated_config(tmp_path, step=0.01, t_end=5.0)
    table = tmp_path / "traj.csv"
    lines = table.read_text().splitlines()
    lines[4] = "3.0,1.1"  # a row of two fields, file line 5
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "line 5: expected three numbers" in err
    assert not out.exists()


def _break_table(table, case):
    lines = table.read_text().splitlines()
    if case == "short-row":
        lines[4] = "3.0,1.1"
    elif case == "non-number":
        lines[4] = "3.0,1.1,abc"
    elif case == "no-header":
        del lines[0]
    elif case == "t-not-increasing":
        lines[4], lines[5] = lines[5], lines[4]
    if case == "missing-file":
        table.unlink()
    else:
        table.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("case", ["short-row", "non-number", "no-header", "missing-file",
                                  "t-not-increasing"])
def test_bad_trajectory_csv_names_path_once(tmp_path, capsys, case):
    path = _tabulated_config(tmp_path, step=0.01, t_end=5.0)
    table = tmp_path / "traj.csv"
    _break_table(table, case)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "trajectory CSV" in err
    assert err.count(str(table)) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["t", "theta", "phi"])
def test_non_finite_trajectory_sample_is_config_error(tmp_path, capsys, column, value):
    path = _tabulated_config(tmp_path, step=0.01, t_end=5.0)
    table = tmp_path / "traj.csv"
    lines = table.read_text().splitlines()
    row = lines[7].split(",")
    row[["t", "theta", "phi"].index(column)] = value
    lines[7] = ",".join(row)
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", path, "--output-dir", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{column} samples must be finite, got {value} in data row 7" in err
    assert err.count(str(table)) == 1, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_simulate_past_table_end_exit_code(tmp_path, capsys):
    path = _tabulated_config(tmp_path, step=0.01, t_end=12.0)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out)]) == 3
    assert "outside tabulated domain" in capsys.readouterr().err
    assert not (out / "demo_summary.json").exists()


# -- verify -------------------------------------------------------------------------

def test_verify_pass(tmp_path):
    path = write_config(tmp_path, demo_config())
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--output-dir", str(out)]) == 0
    report = json.loads((out / "demo_verify_report.json").read_text())
    assert report["pass"] is True
    for entry in report["per_sigma"].values():
        assert entry["min_fidelity"] >= 1.0 - 1e-8
        assert entry["max_overlap_phase_rad"] < 1e-6
    rows = read_csv_rows(out / "demo_verify_up.csv")
    assert set(rows[0]) == {"t", "re_plus", "im_plus", "re_minus", "im_minus",
                            "fidelity", "overlap_phase"}


_COARSE = {"integrator": {"step": 0.1, "periods": 10.0},
           "oracle": {"enabled": True, "step": 0.1, "method": "exponential_product"}}


def test_verify_coarse_step_fails_with_diagnostics(tmp_path):
    cfg = demo_config(**_COARSE)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--output-dir", str(out)]) == 4
    report = json.loads((out / "demo_verify_report.json").read_text())  # retained
    assert report["pass"] is False
    worst = report["per_sigma"]["+0.5"]
    assert worst["max_overlap_phase_rad"] > 1e-6
    # mismatch drops ~16x on halving: discretization, order 4
    assert worst["phase_convergence_ratio"] == pytest.approx(16.0, rel=0.1)


def _smooth_table_config(tmp_path):
    """2000 spline knots over 20 s: slow nutation and a wobbling precession."""
    t = np.linspace(0.0, 20.0, 2000)
    theta = 0.9 + 0.18 * np.sin(0.17 * t + 1.0)
    phi = 0.32 * t + 0.22 * np.sin(0.18 * t + 2.0)
    np.savetxt(tmp_path / "table.csv", np.column_stack([t, theta, phi]), fmt="%.17g",
               delimiter=",", header="t,theta,phi", comments="")
    return demo_config(
        trajectory={"kind": "tabulated", "omega0": 1.0, "csv_path": "table.csv"},
        initial_conditions="aligned",
        integrator={"step": 0.01, "t_end": 20.0, "adaptive": True},
        oracle={"enabled": True, "step": 0.01, "method": "exponential_product"})


@pytest.mark.parametrize("case", ["readme-demo", "tabulated"])
def test_shipped_configs_verify(tmp_path, case):
    # the README demo and a benchmark-style spline drive pass at the default
    # tolerances, so the half-step convergence rerun never runs
    cfg = (demo_config(integrator={"step": 0.01, "periods": 10.0}) if case == "readme-demo"
           else _smooth_table_config(tmp_path))
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--output-dir", str(out)]) == 0
    report = json.loads((out / "demo_verify_report.json").read_text())
    assert report["pass"] is True
    assert report["tolerances"] == {"min_fidelity": 1.0 - 1e-8, "max_phase_mismatch_rad": 1e-6}
    for entry in report["per_sigma"].values():
        assert "phase_mismatch_at_half_step_rad" not in entry


def test_verify_static_field_exact(tmp_path):
    cfg = demo_config(
        trajectory={"kind": "constant_precession", "omega0": 1.0,
                    "Omega": 0.0, "theta": 1.1, "phi0": 0.2},
        initial_conditions="aligned",
        integrator={"step": 0.01, "t_end": 10.0},
        verify={"min_fidelity": 1.0 - 1e-12, "max_phase_mismatch_rad": 1e-12})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--output-dir", str(out)]) == 0


def _reference_verify(cfg):
    """The per-sigma verify loop: one propagation per sigma and per half step."""
    from spinrot.cli import _sigma_key, run_pipeline
    from spinrot.oracle import PropagatorRun, fidelity, propagate
    from spinrot.phases import lr_states
    from spinrot.spin_algebra import basis_state, rotation_from_angles

    def thinned(run, k):
        if k < 1 or (run.t.size - 1) % k != 0:
            raise ValueError(f"cannot thin {run.t.size - 1} steps by {k}")
        return PropagatorRun(run.step * k, run.t[::k], run.states[::k], run.unitarity_defect)

    result = run_pipeline(cfg)
    sol = result["sol"]
    oracle_cfg = cfg.data["oracle"]
    thin = max(1, round(sol.step / oracle_cfg["step"]))
    duration = float(sol.t[-1] - sol.t[0])
    n_oracle = (sol.n_samples - 1) * thin
    oracle_step = duration / n_oracle if n_oracle else oracle_cfg["step"]
    tol = cfg.data["verify"]
    turn = float(np.linalg.norm(cfg.trajectory.effective_field(sol.t), axis=1).max())
    report = {"config_sha256": cfg.sha256, "tolerances": tol,
              "oracle_method": oracle_cfg["method"], "oracle_step": oracle_step,
              "oracle_under_resolved": max(cfg.trajectory.omega0, turn) * oracle_step >= 0.1,
              "per_sigma": {}}
    all_pass = True
    series = {}
    for s, hist in result["histories"].items():
        lam0, gam0 = float(sol.lam[0]), float(sol.gamma[0])
        psi0 = rotation_from_angles(lam0, gam0) @ basis_state(s)
        run = thinned(propagate(cfg.trajectory, psi0, float(sol.t[-1]), oracle_step,
                                t0=float(sol.t[0])), thin)
        states = lr_states(sol, hist)
        fid, phase = fidelity(run, sol.t, states)
        entry = {"min_fidelity": float(fid.min()),
                 "max_overlap_phase_rad": float(np.abs(phase).max()),
                 "unitarity_defect": run.unitarity_defect}
        entry["pass"] = bool(
            entry["min_fidelity"] >= tol["min_fidelity"]
            and entry["max_overlap_phase_rad"] <= tol["max_phase_mismatch_rad"])
        if not entry["pass"]:
            half = thinned(propagate(cfg.trajectory, psi0, float(sol.t[-1]),
                                     oracle_step / 2.0, t0=float(sol.t[0])), 2 * thin)
            _, phase_half = fidelity(half, sol.t, states)
            mismatch_half = float(np.abs(phase_half).max())
            entry["phase_mismatch_at_half_step_rad"] = mismatch_half
            if mismatch_half > 0.0:
                entry["phase_convergence_ratio"] = entry["max_overlap_phase_rad"] / mismatch_half
        all_pass = all_pass and entry["pass"]
        report["per_sigma"][_sigma_key(s)] = entry
        series[s] = (run, fid, phase)
    report["pass"] = all_pass
    return report, series


_SHORT = {"step": 0.02, "periods": 0.5}
_VERIFY_CASES = {
    "fail": demo_config(**_COARSE),
    "pass": demo_config(integrator=_SHORT),
}


@pytest.mark.parametrize("sigmas", [[0.5, -0.5], [-0.5, 0.5], [0.5]])
@pytest.mark.parametrize("case", sorted(_VERIFY_CASES))
def test_run_verify_matches_per_sigma_reference(case, sigmas):
    from spinrot.cli import run_verify
    cfg = resolve_run_config(dict(_VERIFY_CASES[case], sigmas=sigmas), ".")
    report, series = _reference_verify(cfg)
    result = run_verify(cfg)
    assert result["verify_report"] == report
    assert report["pass"] is case.endswith("pass")
    assert list(result["verify_series"]) == list(series) == sigmas
    for s, (run, fid, phase) in series.items():
        got, got_fid, got_phase = result["verify_series"][s]
        assert np.array_equal(got.t, run.t)
        assert np.array_equal(got.states, run.states)
        assert np.array_equal(got_fid, fid)
        assert np.array_equal(got_phase, phase)


@pytest.mark.parametrize("case,calls", [("pass", 1), ("fail", 2)])
def test_verify_propagates_once_per_grid(tmp_path, monkeypatch, case, calls):
    # the step propagators are built in blocks, but every step of every grid
    # gets exactly one, shared by all sigmas
    from spinrot import cli, oracle
    steps, rows = [], []

    def counted_propagate(*args, _fn=cli.propagate, **kwargs):
        run = _fn(*args, **kwargs)
        steps.append((run.t.size - 1) * kwargs["thin"])
        return run

    def counted_propagators(omegas, dt, _fn=oracle.spin_rotation_propagators):
        rows.append(len(omegas))
        return _fn(omegas, dt)

    monkeypatch.setattr(cli, "propagate", counted_propagate)
    monkeypatch.setattr(oracle, "spin_rotation_propagators", counted_propagators)
    path = write_config(tmp_path, _VERIFY_CASES[case])
    code = main(["verify", "--config", path, "--output-dir", str(tmp_path / "out")])
    assert code == (0 if case == "pass" else 4)
    assert len(steps) == calls
    assert sum(rows) == sum(steps)


def test_verify_reports_under_resolved_oracle(tmp_path):
    out = tmp_path / "out"
    coarse = demo_config(integrator={"step": 0.2, "periods": 0.5}, oracle={
        "enabled": True, "step": 0.2, "method": "exponential_product"})
    with pytest.warns(UserWarning, match="under-resolved"):
        assert main(["verify", "--config", write_config(tmp_path, coarse),
                     "--output-dir", str(out)]) == 4
    report = json.loads((out / "demo_verify_report.json").read_text())
    assert report["oracle_step"] >= 0.1
    assert report["oracle_under_resolved"] is True
    assert main(["verify", "--config", write_config(tmp_path, demo_config()),
                 "--output-dir", str(out)]) == 0
    report = json.loads((out / "demo_verify_report.json").read_text())
    assert report["oracle_under_resolved"] is False


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_retired_oracle_method_is_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, demo_config(oracle={"step": 0.01, "method": "rk4"}))
    assert main([command, "--config", path, "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: oracle.method 'rk4' not recognized\n"
    assert not (tmp_path / "o").exists()


def test_verify_requires_oracle(tmp_path):
    cfg = demo_config()
    del cfg["oracle"]
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--output-dir", str(tmp_path / "o")]) == 2


# -- sweep ---------------------------------------------------------------------------

def test_sweep_berry_grid(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    cfg = demo_config(
        trajectory={"kind": "constant_precession", "omega0": 1.0,
                    "Omega": 0.1, "theta": math.pi / 2.0, "phi0": 0.0},
        integrator={"step": 0.05, "periods": 1.0})
    del cfg["oracle"]
    path = write_config(tmp_path, cfg)
    sweep = {"schema_version": 1, "sigma": 0.5,
             "sweep": [{"path": "trajectory.Omega", "values": [0.1, 0.01, 0.001]}]}
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(sweep))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(out)]) == 0
    rows = read_csv_rows(out / "demo_sweep.csv")
    assert [float(r["trajectory.Omega"]) for r in rows] == [0.1, 0.01, 0.001]
    errs = [abs(float(r["phi_geo_T"]) - math.pi) / math.pi for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3
    assert all(r["status"] == "ok" for r in rows)
    assert float(rows[-1]["berry_reference"]) == pytest.approx(math.pi, abs=1e-12)


def test_sweep_degenerate_point_marked(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    cfg = demo_config(integrator={"step": 0.05, "periods": 0.5})
    del cfg["oracle"]
    path = write_config(tmp_path, cfg)
    sweep = {"sweep": [{"path": "trajectory.theta", "values": [1.0, 0.0]}]}
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(sweep))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(out)]) == 0
    rows = read_csv_rows(out / "demo_sweep.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "no-solution"
    assert rows[1]["phi_geo_T"] == ""
    assert rows[1]["error"] != ""


def test_sweep_guard_band_start_marked(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    cfg = demo_config(initial_conditions={"lambda0": 1.0, "gamma0": 0.0},
                      integrator={"step": 0.05, "t_end": 1.0})
    path = write_config(tmp_path, cfg)
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": "initial_conditions.lambda0",
                                            "values": [1.0, 0.0]}]}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(out)]) == 0
    rows = read_csv_rows(out / "demo_sweep.csv")
    assert [r["status"] for r in rows] == ["ok", "singularity"]
    assert "outside the integrable band" in rows[1]["error"]


@pytest.mark.parametrize("case", ["readme-demo", "tabulated"])
def test_sweep_digest_matches_summary(tmp_path, monkeypatch, case):
    # one config, one digest: the sweep header hashes the normalized config,
    # with a tabulated drive's table digest folded in, as simulate does
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    if case == "readme-demo":
        cfg = demo_config(integrator={"step": 0.01, "periods": 10.0},
                          output={"directory": "out", "prefix": "demo"})
    else:
        cfg = _smooth_table_config(tmp_path)
        cfg["integrator"]["t_end"] = 1.0
    path = write_config(tmp_path, cfg)
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": "integrator.step", "values": [0.02]}]}))
    out = tmp_path / "out"
    for argv in (["simulate"], ["sweep", "--sweep", str(spath)]):
        assert main(argv + ["--config", path, "--output-dir", str(out)]) == 0
    digest = json.loads((out / "demo_summary.json").read_text())["config_sha256"]
    assert digest == resolve_run_config(cfg, str(tmp_path)).sha256
    with open(out / "demo_sweep.csv") as fh:
        assert fh.readline() == f"# config_sha256={digest}\n"


def test_sweep_path_into_non_object_marked(tmp_path, monkeypatch):
    # integrator.step is a number: the point is invalid, the sweep goes on
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    cfg = demo_config(integrator={"step": 0.05, "periods": 0.5})
    del cfg["oracle"]
    path = write_config(tmp_path, cfg)
    sweep = {"sweep": [{"path": "trajectory.Omega", "values": [0.2, 0.3]},
                       {"path": "integrator.step.x", "values": [1]}]}
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(sweep))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(out)]) == 0
    rows = read_csv_rows(out / "demo_sweep.csv")
    assert [r["status"] for r in rows] == ["config-invalid", "config-invalid"]
    assert all("'integrator.step.x' descends into a non-object" in r["error"] for r in rows)
    with pytest.raises(ConfigError, match="descends into a non-object"):
        apply_overrides(cfg, ["integrator.step.x=1"])


def test_sweep_non_string_path_rejected(tmp_path, capsys):
    path = write_config(tmp_path, demo_config(integrator={"step": 0.05, "periods": 0.5}))
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": 3, "values": [1]}]}))
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "must be a string" in capsys.readouterr().err


def test_sweep_empty_grid(tmp_path):
    path = write_config(tmp_path, demo_config(integrator={"step": 0.05, "periods": 0.5}))
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": []}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(out)]) == 0
    rows = read_csv_rows(out / "demo_sweep.csv")
    assert rows == []


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = demo_config(integrator={"step": 0.05, "periods": 0.5})
    del cfg["oracle"]
    path = write_config(tmp_path, cfg)
    sweep = {"sweep": [{"path": "trajectory.Omega", "values": [0.1, 0.2, 0.3, 0.4]}]}
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(sweep))
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(tmp_path / "serial")]) == 0
    monkeypatch.setenv("SPINROT_WORKERS", "4")
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(tmp_path / "parallel")]) == 0
    assert (tmp_path / "serial" / "demo_sweep.csv").read_bytes() == \
        (tmp_path / "parallel" / "demo_sweep.csv").read_bytes()


# -- scenario --------------------------------------------------------------------------

def test_scenario_export_and_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["scenario", "disordered", "--out", "dis.json"]) == 0
    cfg = json.loads((tmp_path / "dis.json").read_text())
    assert cfg["trajectory"]["omega0"] == 1e11
    assert cfg["scenario"] == "disordered"
    rc = resolve_run_config(cfg)
    assert rc.t_end > 0

    assert main(["scenario", "ordered", "--out", "ord.json"]) == 0
    cfg2 = json.loads((tmp_path / "ord.json").read_text())
    assert cfg2["trajectory"]["omega0"] == 1e9


@pytest.mark.parametrize("name", ["disordered", "ordered"])
def test_scenario_export_verifies(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert main(["scenario", name, "--out", "preset.json"]) == 0
    assert main(["verify", "--config", "preset.json", "--output-dir", "out"]) == 0
    report = json.loads((tmp_path / "out" / f"c60_{name}_verify_report.json").read_text())
    assert report["pass"] is True
    assert report["oracle_under_resolved"] is False


def test_scenario_unknown_name(tmp_path, capsys):
    assert main(["scenario", "bogus", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "disordered" in err and "ordered" in err


def _run_child_python(*args):
    """Run a child interpreter that imports the package the tests import."""
    src_dir = str(pathlib.Path(spinrot.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_module_cli(*args):
    """Run ``python -m spinrot`` in a child process on the imported package."""
    return _run_child_python("-m", "spinrot", *args)


# Runs cli.main on each argv in argv[2] (JSON), with every scipy import made
# to fail when argv[1] is "block"; reports the scipy modules loaded before
# the first command and after the last.
_CHILD_CLI = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from spinrot.cli import main

def scipy_loaded():
    return sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)

before = scipy_loaded()
codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"before": before, "codes": codes, "after": scipy_loaded()}))
"""


def _same_artifacts(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_cone_runs_need_no_scipy(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    path = write_config(tmp_path, demo_config(integrator={"step": 0.01, "periods": 10.0}))
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": "trajectory.Omega",
                                            "values": [0.4, 0.5, 0.6]}]}))

    def commands(out):
        return [["simulate", "--config", path, "--output-dir", str(out)],
                ["verify", "--config", path, "--output-dir", str(out)],
                ["sweep", "--config", path, "--sweep", str(spath), "--output-dir", str(out)]]

    assert [main(argv) for argv in commands(tmp_path / "with")] == [0, 0, 0]
    proc = _run_child_python("-c", _CHILD_CLI, "block",
                             json.dumps(commands(tmp_path / "without")))
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child == {"before": [], "codes": [0, 0, 0], "after": []}
    _same_artifacts(tmp_path / "with", tmp_path / "without")


def test_tabulated_runs_need_no_scipy(tmp_path):
    # the spline is a numpy port of scipy's CubicSpline: the same bytes
    # without scipy, and not even a tabulated run loads it
    path = _tabulated_config(tmp_path, step=0.01, t_end=5.0,
                             oracle={"enabled": True, "step": 0.01,
                                     "method": "exponential_product"})

    def commands(out):
        return [["simulate", "--config", path, "--output-dir", str(out)],
                ["verify", "--config", path, "--output-dir", str(out)]]

    assert [main(argv) for argv in commands(tmp_path / "with")] == [0, 0]
    proc = _run_child_python("-c", _CHILD_CLI, "block",
                             json.dumps(commands(tmp_path / "without")))
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child == {"before": [], "codes": [0, 0], "after": []}
    _same_artifacts(tmp_path / "with", tmp_path / "without")


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path, demo_config(integrator={"step": 0.05, "periods": 0.25}))
    out = tmp_path / "out"
    proc = _run_module_cli("simulate", "--config", path, "--output-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "demo_summary.json").exists()

    bad = write_config(tmp_path, demo_config(bogus=1), name="bad.json")
    proc = _run_module_cli("simulate", "--config", bad, "--output-dir", str(out))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "config error" in proc.stderr


def test_every_export_resolves():
    assert len(set(spinrot.__all__)) == len(spinrot.__all__)
    missing = [name for name in spinrot.__all__ if not hasattr(spinrot, name)]
    assert missing == []


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["spinrot"] == "spinrot.cli:main_entry"
    module, _, attr = scripts["spinrot"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

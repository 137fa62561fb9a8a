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
from spinrot.trajectory import MAX_SAMPLES

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


@pytest.mark.parametrize("integrator", [
    {"step": 0.02, "periods": 0.5},
    {"step": 0.01, "periods": 10.0, "adaptive": True},  # the README demo, adaptive
], ids=["short", "adaptive-demo"])
def test_simulate_deterministic_bytes(tmp_path, integrator):
    path = write_config(tmp_path, demo_config(integrator=integrator))
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


@pytest.mark.parametrize("key", ["integrator.step", "oracle.step"])
def test_huge_sample_count_is_printed_in_four_digits(tmp_path, capsys, key):
    # 10 periods of the demo over a step of 1e-300 is 1.2566e302 samples: printed to four
    # digits, where "%.0f" gave 303 of them
    path = write_config(tmp_path, demo_config(integrator={"step": 0.01, "periods": 10.0}))
    assert main(["verify", "--config", path, "--set", f"{key}=1e-300",
                 "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {key} = 1e-300 gives 1.257e+302 samples, above the cap of 4000000\n")
    from spinrot.trajectory import check_sample_cap
    with pytest.raises(ConfigError, match="gives 999999999999999 samples"):
        check_sample_cap(1e15 - 1, 1e-9, "step")
    with pytest.raises(ConfigError, match=r"gives 1e\+15 samples"):
        check_sample_cap(1e15, 1e-9, "step")


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


@pytest.mark.parametrize("cap, skipped", [(2514, True), (2515, False)])
def test_half_step_rerun_above_sample_cap_is_skipped(tmp_path, monkeypatch, cap, skipped):
    # the coarse demo's oracle grid has 1258 samples and its half-step grid 2515:
    # above the cap the rerun is skipped and reported as null; verify still exits 4
    monkeypatch.setattr("spinrot.trajectory.MAX_SAMPLES", cap)
    path = write_config(tmp_path, demo_config(**_COARSE))
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--output-dir", str(out)]) == 4
    report = json.loads((out / "demo_verify_report.json").read_text())
    assert report["pass"] is False
    for entry in report["per_sigma"].values():
        assert entry["pass"] is False
        if skipped:
            assert entry["phase_mismatch_at_half_step_rad"] is None
            assert "phase_convergence_ratio" not in entry
        else:
            assert entry["phase_convergence_ratio"] == pytest.approx(16.0, rel=0.1)


def test_adaptive_halving_past_sample_cap_is_config_error(tmp_path, monkeypatch, capsys):
    # step 0.5 over 20 s halves 41 -> 81 -> 161 samples, past a cap of 100
    monkeypatch.setattr("spinrot.trajectory.MAX_SAMPLES", 100)
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    cfg = demo_config(initial_conditions="aligned",
                      integrator={"step": 0.5, "t_end": 20.0, "adaptive": True})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: halved step = 0.125 gives 161 samples, above the cap of 100\n")
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": "trajectory.Omega", "values": [0.5]}]}))
    assert main(["sweep", "--config", path, "--sweep", str(spath), "--output-dir", str(out)]) == 0
    [row] = read_csv_rows(out / "demo_sweep.csv")
    assert row["status"] == "config-invalid"


def test_one_cap_binding_moves_every_cap_check(tmp_path, monkeypatch, capsys):
    # the coarse demo at integrator step 0.18 fails verify: 699 integrator samples,
    # 1397 oracle samples and 2793 at the half step. Patching the one binding moves
    # the simulate and oracle pre-checks, the half-step skip and adaptive halving.
    out = str(tmp_path / "out")

    def run(command, cap, cfg):
        monkeypatch.setattr("spinrot.trajectory.MAX_SAMPLES", cap)
        code = main([command, "--config", write_config(tmp_path, cfg), "--output-dir", out])
        return code, capsys.readouterr().err

    coarse = demo_config(**dict(_COARSE, integrator={"step": 0.18, "periods": 10.0}))
    assert run("simulate", 698, coarse) == (
        EXIT_CONFIG, "config error: integrator.step = 0.18 gives 699 samples, above the cap of 698\n")
    assert run("verify", 1396, coarse) == (
        EXIT_CONFIG, "config error: oracle.step = 0.1 gives 1397 samples, above the cap of 1396\n")
    assert run("verify", 2792, coarse)[0] == 4
    report = json.loads((tmp_path / "out" / "demo_verify_report.json").read_text())
    assert all(e["phase_mismatch_at_half_step_rad"] is None for e in report["per_sigma"].values())
    adaptive = demo_config(initial_conditions="aligned",
                           integrator={"step": 0.5, "t_end": 20.0, "adaptive": True})
    assert run("simulate", 100, adaptive)[1] == (
        "config error: halved step = 0.125 gives 161 samples, above the cap of 100\n")


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

    def thinned(run, k):
        if k < 1 or (run.t.size - 1) % k != 0:
            raise ValueError(f"cannot thin {run.t.size - 1} steps by {k}")
        return PropagatorRun(run.step * k, run.t[::k], run.states[::k], run.unitarity_defect,
                             run.under_resolved)

    result = run_pipeline(cfg)
    sol = result["sol"]
    oracle_cfg = cfg.data["oracle"]
    thin = max(1, round(sol.step / oracle_cfg["step"]))
    duration = float(sol.t[-1] - sol.t[0])
    n_oracle = (sol.n_samples - 1) * thin
    oracle_step = duration / n_oracle if n_oracle else oracle_cfg["step"]
    tol = cfg.data["verify"]
    # the largest turn of the axis n between the two Gauss-Legendre nodes of a
    # step, times sqrt(3) for their spacing step/sqrt(3), over every step of
    # the oracle's own grid; the angle is the chord's, 2 asin(|n2 - n1| / 2)
    oracle_t = np.linspace(float(sol.t[0]), float(sol.t[-1]), n_oracle + 1)[:-1]
    omega0 = cfg.trajectory.omega0
    n1, n2 = (cfg.trajectory.omega(oracle_t + (0.5 + s * math.sqrt(3.0) / 6.0) * oracle_step)
              / omega0 for s in (-1.0, 1.0))
    chord = np.linalg.norm(n2 - n1, axis=1).max(initial=0.0)
    turn = math.sqrt(3.0) * 2.0 * math.asin(min(1.0, chord / 2.0))
    report = {"config_sha256": cfg.sha256, "tolerances": tol,
              "oracle_method": oracle_cfg["method"], "oracle_step": oracle_step,
              "oracle_under_resolved": max(omega0 * oracle_step, turn) >= 0.1,
              "per_sigma": {}}
    all_pass = True
    series = {}
    for s, hist in result["histories"].items():
        states = lr_states(sol, hist)
        psi0 = states[0]
        run = thinned(propagate(cfg.trajectory, psi0, float(sol.t[-1]), oracle_step,
                                t0=float(sol.t[0])), thin)
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
# case -> the config it builds in a directory; the verdict ends the name.
# "aligned" starts off the locked cone, so lambda precesses
_VERIFY_CASES = {
    "fail": lambda _: demo_config(**_COARSE),
    "pass": lambda _: demo_config(integrator=_SHORT),
    "aligned_fail": lambda _: demo_config(initial_conditions="aligned", **_COARSE),
    "aligned_pass": lambda _: demo_config(initial_conditions="aligned", integrator=_SHORT),
    "tabulated_pass": _smooth_table_config,
}


@pytest.mark.parametrize("sigmas", [[0.5, -0.5], [-0.5, 0.5], [0.5], [-0.5]])
@pytest.mark.parametrize("case", sorted(_VERIFY_CASES))
def test_run_verify_matches_per_sigma_reference(tmp_path, case, sigmas):
    from spinrot.cli import run_verify
    cfg = resolve_run_config(dict(_VERIFY_CASES[case](tmp_path), sigmas=sigmas), str(tmp_path))
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


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process, with the fork threshold at one row."""
    from spinrot import io_utils
    pids = []

    def recording_fork(_fork=os.fork):
        pid = _fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(io_utils, "_MIN_FORK_ROWS", 1)
    return pids


@pytest.mark.parametrize("sigmas", [[0.5, -0.5], [-0.5]])
@pytest.mark.parametrize("case", sorted(_VERIFY_CASES))
def test_run_verify_with_the_oracle_in_a_child_is_bit_identical(tmp_path, forks, case, sigmas):
    # with two workers, a fixed-step run propagates its chain in a forked child while it
    # integrates; an adaptive one propagates here
    from spinrot.cli import run_verify
    cfg = resolve_run_config(dict(_VERIFY_CASES[case](tmp_path), sigmas=sigmas), str(tmp_path))
    want = run_verify(cfg)
    assert not forks
    got = run_verify(cfg, 2)
    assert len(forks) == (0 if cfg.adaptive else 1)
    assert got["verify_report"] == want["verify_report"]
    assert list(got["verify_series"]) == sigmas
    for s, (run, fid, phase) in want["verify_series"].items():
        got_run, got_fid, got_phase = got["verify_series"][s]
        assert np.array_equal(got_run.t, run.t) and np.array_equal(got_run.states, run.states)
        assert (got_run.step, got_run.unitarity_defect, got_run.under_resolved) == (
            run.step, run.unitarity_defect, run.under_resolved)
        assert np.array_equal(got_fid, fid) and np.array_equal(got_phase, phase)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_failure_beside_the_oracle_child_is_raised_and_reaped(tmp_path, monkeypatch, forks,
                                                              where):
    # the child's exception is raised in the parent once the pipeline is done; a pipeline
    # that fails kills the child; either way the child is reaped
    from spinrot import cli
    from spinrot.errors import SingularityError
    if where == "child":
        def failing(*args, **kwargs):
            raise ValueError("cannot thin the oracle grid")
        monkeypatch.setattr(cli, "propagate", failing)
        error = pytest.raises(ValueError, match="cannot thin the oracle grid")
    else:
        def failing(*args, **kwargs):
            raise SingularityError("lambda reached the guard band", time=0.5)
        monkeypatch.setattr(cli, "integrate_auxiliary", failing)
        error = pytest.raises(SingularityError, match="guard band")
    cfg = resolve_run_config(_VERIFY_CASES["pass"](tmp_path), str(tmp_path))
    with error:
        cli.run_verify(cfg, 2)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


@pytest.mark.parametrize("case,grids", [("pass", 1), ("fail", 2), ("aligned_pass", 1),
                                        ("aligned_fail", 2), ("tabulated_pass", 1)])
def test_verify_propagates_once_per_grid(tmp_path, monkeypatch, case, grids):
    # the step propagators are built in blocks, but every step of every grid
    # gets exactly one; one chain serves every sigma, whichever sigmas are
    # listed, and is compared once with the one set of spin-up LR states;
    # a failing verdict adds the half-step grid. Each call is appended to a
    # file, so a chain propagated in a forked child counts too: with two
    # workers (and the fork threshold at one row) a fixed-step run's chain
    # runs in a child, and the half-step rerun in this process
    from spinrot import cli, io_utils, oracle
    log = tmp_path / "calls.log"

    def record(*fields):
        with open(log, "a") as fh:
            fh.write(" ".join(map(str, fields)) + "\n")

    def counted_propagate(*args, _fn=cli.propagate, **kwargs):
        run = _fn(*args, **kwargs)
        record("steps", (run.t.size - 1) * kwargs["thin"], os.getpid())
        return run

    def counted_propagators(omegas, dt, _fn=oracle.spin_rotation_propagators):
        record("rows", len(omegas), os.getpid())
        return _fn(omegas, dt)

    for name in ("lr_states", "fidelity"):
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            record(_name, 1, os.getpid())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    monkeypatch.setattr(cli, "propagate", counted_propagate)
    monkeypatch.setattr(oracle, "spin_rotation_propagators", counted_propagators)
    monkeypatch.setattr(io_utils, "_MIN_FORK_ROWS", 1)
    for workers in ("1", "2"):
        monkeypatch.setenv("SPINROT_WORKERS", workers)
        for sigmas in ([0.5, -0.5], [-0.5], [0.5]):
            log.write_text("")
            cfg = dict(_VERIFY_CASES[case](tmp_path), sigmas=sigmas)
            path = write_config(tmp_path, cfg)
            code = main(["verify", "--config", path, "--output-dir", str(tmp_path / "out")])
            assert code == (0 if grids == 1 else 4)
            calls = {"steps": [], "rows": [], "lr_states": [], "fidelity": []}
            pids = {}
            for line in log.read_text().splitlines():
                name, value, pid = line.split()
                calls[name].append(int(value))
                pids.setdefault(name, []).append(int(pid))
            assert len(calls["steps"]) == len(calls["fidelity"]) == grids
            assert len(calls["lr_states"]) == 1
            assert sum(calls["rows"]) == sum(calls["steps"])
            in_child = workers == "2" and not cfg["integrator"].get("adaptive", False)
            assert [p != os.getpid() for p in pids["steps"]] == [in_child] + [False] * (grids - 1)


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
    with warnings.catch_warnings():
        # the flag is false exactly when the propagator does not warn
        warnings.filterwarnings("error", message=".*under-resolved", category=UserWarning)
        assert main(["verify", "--config", write_config(tmp_path, demo_config()),
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "demo_verify_report.json").read_text())
    assert report["oracle_under_resolved"] is False


def test_under_resolved_warning_of_a_forked_oracle_reaches_the_caller(tmp_path, forks):
    # the child records the propagator's warning and the parent issues it again, so a
    # filter set here applies to it as to an in-process run
    from spinrot.cli import run_verify
    cfg = resolve_run_config(demo_config(integrator={"step": 0.2, "periods": 0.5}, oracle={
        "enabled": True, "step": 0.2, "method": "exponential_product"}), str(tmp_path))
    for workers in (1, 2):  # the forked chain's warning, then the half-step rerun's
        with pytest.warns(UserWarning, match="under-resolved") as record:
            assert run_verify(cfg, workers)["verify_report"]["oracle_under_resolved"] is True
        assert ["under-resolved" in str(w.message) for w in record] == [True, True]
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message=".*under-resolved", category=UserWarning)
        with pytest.raises(UserWarning, match="under-resolved"):
            run_verify(cfg, 2)
    assert len(forks) == 2


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_retired_oracle_method_is_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, demo_config(oracle={"step": 0.01, "method": "rk4"}))
    assert main([command, "--config", path, "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: oracle.method 'rk4' not recognized\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("enabled", ["false", 0, 1, None])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_oracle_enabled_must_be_boolean(tmp_path, capsys, command, enabled):
    # a string "false" once normalised to True, so verify ran the oracle
    path = write_config(tmp_path, demo_config(oracle={"enabled": enabled, "step": 0.0025}))
    assert main([command, "--config", path, "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"config error: oracle.enabled must be a boolean, got {enabled!r}\n"
    assert not (tmp_path / "o").exists()


def test_verify_requires_oracle(tmp_path, monkeypatch, capsys):
    # refused before any integration, and no output directory is made
    from spinrot import cli
    integrated = []
    monkeypatch.setattr(cli, "integrate_auxiliary", lambda *a, **k: integrated.append(a))
    missing = demo_config()
    del missing["oracle"]
    disabled = demo_config(oracle={"enabled": False, "step": 0.0025,
                                   "method": "exponential_product"})
    for cfg in (missing, disabled):
        path = write_config(tmp_path, cfg)
        assert main(["verify", "--config", path, "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "config error: verify requires an enabled oracle section\n"
        assert not integrated
        assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
@pytest.mark.parametrize("top", [[], 3, "text"])
def test_set_on_non_object_config_is_config_error(tmp_path, capsys, command, top):
    # as without --set: a config error, exit 2, not a traceback
    path = write_config(tmp_path, top)
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": []}))
    argv = [command, "--config", path, "--set", "a=1", "--output-dir", str(tmp_path / "o")]
    assert main(argv + (["--sweep", str(spath)] if command == "sweep" else [])) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: override 'a=1' descends into a non-object\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
@pytest.mark.parametrize("key,value", [
    ("prefix", "a/b"), ("prefix", "../x"), ("prefix", "a\\b"), ("prefix", "a\0b"),
    ("prefix", None), ("prefix", 3), ("directory", None), ("directory", "")])
def test_bad_output_key_is_config_error(tmp_path, monkeypatch, capsys, command, key, value):
    # once a FileNotFoundError traceback after the whole run, files outside the
    # output directory, or files named None_*: now refused before any integration
    from spinrot import cli
    monkeypatch.setattr(cli, "integrate_auxiliary", lambda *a, **k: pytest.fail("integrated"))
    cfg = demo_config()
    cfg["output"][key] = value
    path = write_config(tmp_path, cfg)
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": "trajectory.Omega", "values": [0.5]}]}))
    argv = [command, "--config", path, "--output-dir", str(tmp_path / "o" / "p")]
    assert main(argv + (["--sweep", str(spath)] if command == "sweep" else [])) == EXIT_CONFIG
    if not isinstance(value, str):
        reason = f"must be a string, got {value!r}"
    elif key == "prefix":
        reason = f"must be a file-name stem without '/', '\\' or NUL, got {value!r}"
    else:
        reason = "must not be empty"
    assert capsys.readouterr().err == f"config error: output.{key} {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sweep.json"]


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
@pytest.mark.parametrize("value,reason", [
    ("0", "must be >= 1"), ("-2", "must be >= 1"), ("two", "must be an integer, got 'two'"),
    ("1.5", "must be an integer, got '1.5'"), ("", "must be an integer, got ''")])
def test_bad_worker_count_is_config_error(tmp_path, monkeypatch, capsys, command, value,
                                          reason):
    # SPINROT_WORKERS caps the CPUs of all three commands: one reader, checked before any
    # integration
    from spinrot import cli
    monkeypatch.setattr(cli, "integrate_auxiliary", lambda *a, **k: pytest.fail("integrated"))
    monkeypatch.setenv("SPINROT_WORKERS", value)
    path = write_config(tmp_path, demo_config())
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": "trajectory.Omega", "values": [0.5]}]}))
    argv = [command, "--config", path, "--output-dir", str(tmp_path / "o")]
    assert main(argv + (["--sweep", str(spath)] if command == "sweep" else [])) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: SPINROT_WORKERS {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sweep.json"]


def test_sweep_non_string_path_rejected(tmp_path, capsys):
    path = write_config(tmp_path, demo_config(integrator={"step": 0.05, "periods": 0.5}))
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": 3, "values": [1]}]}))
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "must be a string" in capsys.readouterr().err


def test_sweep_repeated_path_rejected(tmp_path, monkeypatch, capsys):
    # the second entry would overwrite the first at every point: refused
    # before any point runs, and no sweep file is written
    from spinrot import cli
    ran = []
    monkeypatch.setattr(cli, "_sweep_point", lambda payload: ran.append(payload))
    path = write_config(tmp_path, demo_config())
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps({"sweep": [{"path": "trajectory.Omega", "values": [0.25, 0.5]},
                                           {"path": "trajectory.Omega", "values": [1.0]}]}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--sweep", str(spath),
                 "--output-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: sweep path 'trajectory.Omega' is listed twice\n"
    assert ran == [] and not out.exists()


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


# -- unwritable output paths -------------------------------------------------------

@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
@pytest.mark.parametrize("case,reason", [("file", "File exists"),
                                         ("under-file", "Not a directory"),
                                         ("no-permission", "Permission denied")])
def test_unwritable_output_dir_is_config_error(tmp_path, capsys, monkeypatch, command, case,
                                               reason):
    from spinrot import cli

    def run_started(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "integrate_auxiliary", run_started)
    argv = [command, "--config", write_config(tmp_path, demo_config())]
    if command == "sweep":
        argv += ["--sweep", write_config(
            tmp_path, {"sweep": [{"path": "trajectory.Omega", "values": [0.25]}]}, "sweep.json")]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = {"file": blocker, "under-file": blocker / "out", "no-permission": tmp_path / "out"}[case]
    if case == "no-permission":
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert main(argv + ["--output-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot write {out}: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_scenario_out_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "c60.json"
    assert main(["scenario", "disordered", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


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

"""Command-line front end: simulate / verify / sweep / scenario.

Exit codes: 0 ok, 2 config-invalid, 3 numeric-failure (singularity,
degenerate geometry, domain), 4 verification-failure. All emitted files
embed the config hash and are bit-identical across reruns of the same
config.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import scenario as scenario_mod
from .config import (RunConfig, apply_overrides, config_sha256,
                     load_json_config, resolve_run_config, set_path,
                     validate_run_config)
from .errors import (ConfigError, NoSolutionError, OutOfDomainError,
                     SingularityError, SpinRotError)
from .invariant import integrate_auxiliary, lvn_residual_samples, lvn_residual_series
from .io_utils import format_floats, write_csv, write_json, write_rows
from .oracle import fidelity, propagate
from .phases import accumulate_phases, berry_limit_check, lr_states
from .spectroscopy import spectral_shift
from .trajectory import check_sample_cap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_NUMERIC_ERRORS = (SingularityError, NoSolutionError, OutOfDomainError)


def _sigma_tag(sigma: float) -> str:
    return "up" if sigma > 0 else "down"


def _sigma_key(sigma: float) -> str:
    return "+0.5" if sigma > 0 else "-0.5"


def _cannot_write(path: str, errnum: int) -> ConfigError:
    return ConfigError(f"cannot write {path}: {os.strerror(errnum)}")


def _output_dir(path: str) -> str:
    """Check, before any run, that the output directory exists or can be made and written.

    Nothing is created here, so a run that fails leaves no directory behind.
    """
    target = probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise _cannot_write(path, errno.EEXIST if probe == target else errno.ENOTDIR)
    if not os.access(probe, os.W_OK | os.X_OK):
        raise _cannot_write(path, errno.EACCES)
    return path


# -- pipeline ---------------------------------------------------------------

def run_pipeline(cfg: RunConfig) -> dict:
    """Integrate, accumulate phases, and collect summary numbers (no LvN residuals)."""
    check_sample_cap(np.rint(cfg.t_end / cfg.step) + 1, cfg.step, "integrator.step")
    lam0, gam0 = cfg.initial_conditions()
    sol = integrate_auxiliary(
        cfg.trajectory, lam0, gam0, cfg.t_end, cfg.step, adaptive=cfg.adaptive)
    histories = {s: accumulate_phases(sol, cfg.trajectory, s) for s in cfg.sigmas}
    duration = float(sol.t[-1] - sol.t[0]) or 1.0
    per_sigma = {}
    for s, hist in histories.items():
        dyn, geo = float(hist.phi_dyn[-1]), float(hist.phi_geo[-1])
        per_sigma[_sigma_key(s)] = {
            "phi_dyn_final": dyn,
            "phi_geo_final": geo,
            "phi_total_final": dyn + geo,
            "phi_dyn_rate": dyn / duration,
            "phi_geo_rate": geo / duration,
        }
    summary = {
        "schema_version": cfg.data["schema_version"],
        "config_sha256": cfg.sha256,
        "trajectory_kind": cfg.trajectory.kind,
        "omega0": cfg.trajectory.omega0,
        "lambda0": lam0,
        "gamma0": gam0,
        "t_end": float(sol.t[-1]),
        "step": sol.step,
        "n_samples": sol.n_samples,
        "adaptive_halvings": sol.n_halvings,
        "max_error_rate": sol.max_error_rate,
        "error_rate_tol_exceeded": bool(sol.meta.get("error_rate_tol_exceeded", False)),
        "per_sigma": per_sigma,
    }
    if cfg.trajectory.kind == "constant_precession":
        p = cfg.trajectory.params
        summary["analytic"] = {
            "lambda_star": lam0 if cfg.data["initial_conditions"] == "precession-consistent" else None,
            "phi_dyn_rate_up": 0.5 * cfg.trajectory.omega0 * math.cos(lam0 - p["theta"]),
            "phi_geo_rate_up": 0.5 * p["Omega"] * (1.0 - math.cos(lam0)),
            "berry_per_cycle_up": berry_limit_check(p["theta"], 0.5),
        }
    return {"sol": sol, "histories": histories, "summary": summary}


def run_simulate(cfg: RunConfig) -> dict:
    """Pipeline plus both LvN residuals; the stored-rate one also feeds `_aux.csv`."""
    result = run_pipeline(cfg)
    sol = result["sol"]
    result["lvn_residual"] = lvn_residual_samples(sol)
    result["summary"]["lvn_max_residual"] = float(result["lvn_residual"].max())
    result["summary"]["lvn_max_residual_fd"] = float(lvn_residual_series(sol).max())
    return result


def _write_simulate_artifacts(cfg: RunConfig, result: dict, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    prefix = cfg.data["output"]["prefix"]
    comments = [f"config_sha256={cfg.sha256}"]
    paths = []

    # every series shares the integrator grid: its text is formatted once
    t_text = format_floats(result["sol"].t)
    aux_path = os.path.join(out_dir, f"{prefix}_aux.csv")
    result["sol"].to_csv(aux_path, comments, residual=result["lvn_residual"], t_text=t_text)
    paths.append(aux_path)

    for s, hist in result["histories"].items():
        p = os.path.join(out_dir, f"{prefix}_phases_{_sigma_tag(s)}.csv")
        write_csv(p, ["t", "phi_dyn", "phi_geo", "phi_total"],
                  [t_text, hist.phi_dyn, hist.phi_geo, hist.phi_total], comments)
        paths.append(p)

    sp = os.path.join(out_dir, f"{prefix}_summary.json")
    write_json(sp, result["summary"])
    paths.append(sp)
    return paths


def run_verify(cfg: RunConfig) -> dict:
    """Pipeline plus oracle cross-validation of the particular solution."""
    result = run_pipeline(cfg)
    sol = result["sol"]
    oracle_cfg = cfg.data.get("oracle")
    if not oracle_cfg or not oracle_cfg.get("enabled", True):
        raise ConfigError("cmd_verify requires an enabled oracle section")
    # oracle step snapped to an integer divisor of the dense-output step so
    # the two grids share sample times exactly
    thin = max(1.0, np.rint(sol.step / oracle_cfg["step"]))
    check_sample_cap((sol.n_samples - 1) * thin + 1, oracle_cfg["step"], "oracle.step")
    thin = int(thin)
    t0, t_end = float(sol.t[0]), float(sol.t[-1])
    n_oracle = (sol.n_samples - 1) * thin
    oracle_step = (t_end - t0) / n_oracle if n_oracle else oracle_cfg["step"]
    tol = cfg.data["verify"]

    def oracle(psi0, step, k):
        return propagate(cfg.trajectory, psi0, t_end, step, t0=t0, thin=k).unstack()

    # every sigma rides one oracle chain per grid, from the LR state it is compared with
    states = {s: lr_states(sol, hist) for s, hist in result["histories"].items()}
    sigmas = list(states)
    psi0 = np.stack([states[s][0] for s in sigmas])
    runs = oracle(psi0, oracle_step, thin)
    report = {"config_sha256": cfg.sha256, "tolerances": tol,
              "oracle_method": oracle_cfg["method"],
              "oracle_step": oracle_step,
              "oracle_under_resolved": runs[0].under_resolved,
              "per_sigma": {}}
    series = {}
    for s, run in zip(sigmas, runs):
        fid, phase = fidelity(run, sol.t, states[s])
        entry = {
            "min_fidelity": float(fid.min()),
            "max_overlap_phase_rad": float(np.abs(phase).max()),
            "unitarity_defect": run.unitarity_defect,
        }
        entry["pass"] = bool(
            entry["min_fidelity"] >= tol["min_fidelity"]
            and entry["max_overlap_phase_rad"] <= tol["max_phase_mismatch_rad"])
        report["per_sigma"][_sigma_key(s)] = entry
        series[s] = (run, fid, phase)
    failing = [j for j, s in enumerate(sigmas) if not report["per_sigma"][_sigma_key(s)]["pass"]]
    if failing:
        # convergence diagnostic: a mismatch that drops ~16x on halving
        # the oracle step is discretization, not a physics disagreement;
        # a half-step grid above the sample cap is skipped and reported as null
        try:
            halves = oracle(psi0[failing], oracle_step / 2.0, 2 * thin)
        except ConfigError:
            halves = [None] * len(failing)
        for j, half in zip(failing, halves):
            entry = report["per_sigma"][_sigma_key(sigmas[j])]
            if half is None:
                entry["phase_mismatch_at_half_step_rad"] = None
                continue
            _, phase_half = fidelity(half, sol.t, states[sigmas[j]])
            mismatch_half = float(np.abs(phase_half).max())
            entry["phase_mismatch_at_half_step_rad"] = mismatch_half
            if mismatch_half > 0.0:
                entry["phase_convergence_ratio"] = entry["max_overlap_phase_rad"] / mismatch_half
    report["pass"] = not failing
    result["verify_report"] = report
    result["verify_series"] = series
    return result


def _write_verify_artifacts(cfg: RunConfig, result: dict, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    prefix = cfg.data["output"]["prefix"]
    comments = [f"config_sha256={cfg.sha256}"]
    paths = []
    # the runs of one stacked propagation share the oracle's kept grid
    t_text = None
    for s, (run, fid, phase) in result["verify_series"].items():
        if t_text is None:
            t_text = format_floats(run.t)
        p = os.path.join(out_dir, f"{prefix}_verify_{_sigma_tag(s)}.csv")
        run.to_csv(p, fidelity=fid, overlap_phase=phase, comments=comments, t_text=t_text)
        paths.append(p)
    rp = os.path.join(out_dir, f"{prefix}_verify_report.json")
    write_json(rp, result["verify_report"])
    paths.append(rp)
    return paths


# -- sweep ------------------------------------------------------------------

SWEEP_COLUMNS = ["omega0", "Omega", "theta", "lambda0", "t_end",
                 "phi_dyn_T", "phi_geo_T", "phi_total_T", "berry_reference",
                 "shift_ev", "lvn_max_residual", "status", "error"]


def _validate_sweep_spec(spec: dict) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError("sweep spec must be an object")
    unknown = set(spec) - {"schema_version", "sweep", "sigma"}
    if unknown:
        raise ConfigError(f"sweep spec: unknown keys {sorted(unknown)}")
    if spec.get("schema_version", 1) != 1:
        raise ConfigError("sweep spec: unsupported schema_version")
    dims = spec.get("sweep", [])
    if not isinstance(dims, list):
        raise ConfigError("sweep spec: 'sweep' must be a list")
    for d in dims:
        if not isinstance(d, dict) or set(d) != {"path", "values"}:
            raise ConfigError("sweep entries must be {path, values}")
        if not isinstance(d["path"], str):
            raise ConfigError(f"sweep path {d['path']!r} must be a string")
        if not isinstance(d["values"], list):
            raise ConfigError(f"sweep values for {d.get('path')!r} must be a list")
    sigma = spec.get("sigma", 0.5)
    if sigma not in (0.5, -0.5):
        raise ConfigError(f"sweep sigma must be +-0.5, got {sigma!r}")
    return {"dims": dims, "sigma": float(sigma)}


def _sweep_grid(dims: list) -> list[list[tuple[str, object]]]:
    points: list[list[tuple[str, object]]] = [[]]
    for d in dims:
        points = [p + [(d["path"], v)] for p in points for v in d["values"]]
    if not dims:
        points = []
    return points


def _sweep_point(payload: tuple) -> dict:
    """One grid point -> one row dict. Top-level for process pools."""
    base_data, assignments, sigma, base_dir = payload
    row = {c: None for c in SWEEP_COLUMNS}
    for path, value in assignments:
        row[path] = value
    row["status"] = "ok"
    row["error"] = ""
    try:
        data = json.loads(json.dumps(base_data))
        for path, value in assignments:
            set_path(data, path, value, f"sweep path {path!r}")
        cfg = resolve_run_config(data, base_dir)
        result = run_pipeline(cfg)
        residual = float(lvn_residual_samples(result["sol"]).max())
        summary = result["summary"]
        row["omega0"] = summary["omega0"]
        row["lambda0"] = summary["lambda0"]
        row["t_end"] = summary["t_end"]
        row["lvn_max_residual"] = residual
        key = _sigma_key(sigma)
        if key not in summary["per_sigma"]:
            raise ConfigError(f"sweep sigma {sigma} not in config sigmas")
        row["phi_dyn_T"] = summary["per_sigma"][key]["phi_dyn_final"]
        row["phi_geo_T"] = summary["per_sigma"][key]["phi_geo_final"]
        row["phi_total_T"] = summary["per_sigma"][key]["phi_total_final"]
        if cfg.trajectory.kind == "constant_precession":
            p = cfg.trajectory.params
            row["Omega"] = p["Omega"]
            row["theta"] = p["theta"]
            row["berry_reference"] = berry_limit_check(p["theta"], sigma)
            row["shift_ev"] = spectral_shift(0.5, -0.5, cfg.trajectory.omega0,
                                             p["Omega"], p["theta"])
    except NoSolutionError as exc:
        row["status"], row["error"] = "no-solution", str(exc)
    except SingularityError as exc:
        row["status"], row["error"] = "singularity", str(exc)
    except ConfigError as exc:
        row["status"], row["error"] = "config-invalid", str(exc)
    except (ValueError, ArithmeticError) as exc:
        row["status"], row["error"] = "error", str(exc)
    return row


def _worker_count(n_points: int) -> int:
    env = os.environ.get("SPINROT_WORKERS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"SPINROT_WORKERS must be an integer, got {env!r}") from exc
        if cap < 1:
            raise ConfigError("SPINROT_WORKERS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_points))


def run_sweep(base_data: dict, spec: dict, base_dir: str = ".") -> list[dict]:
    """Evaluate every grid point; row order follows the grid definition."""
    parsed = _validate_sweep_spec(spec)
    points = _sweep_grid(parsed["dims"])
    payloads = [(base_data, p, parsed["sigma"], base_dir) for p in points]
    if not payloads:
        return []
    workers = _worker_count(len(payloads))
    if workers == 1 or len(payloads) <= 2:
        return [_sweep_point(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_point, payloads))


# -- subcommands --------------------------------------------------------------

def cmd_simulate(args) -> int:
    data = apply_overrides(load_json_config(args.config), args.set or [])
    cfg = resolve_run_config(data, os.path.dirname(os.path.abspath(args.config)))
    out_dir = _output_dir(args.output_dir or cfg.data["output"]["directory"])
    result = run_simulate(cfg)
    paths = _write_simulate_artifacts(cfg, result, out_dir)
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_verify(args) -> int:
    data = apply_overrides(load_json_config(args.config), args.set or [])
    cfg = resolve_run_config(data, os.path.dirname(os.path.abspath(args.config)))
    out_dir = _output_dir(args.output_dir or cfg.data["output"]["directory"])
    result = run_verify(cfg)
    paths = _write_verify_artifacts(cfg, result, out_dir)
    for p in paths:
        print(p)
    report = result["verify_report"]
    if not report["pass"]:
        print("verification FAILED; report retained", file=sys.stderr)
        return EXIT_VERIFY
    print("verification PASS")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = apply_overrides(load_json_config(args.config), args.set or [])
    spec = load_json_config(args.sweep)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    # validate the base config once up front; grid points revalidate their variants
    cfg = resolve_run_config(base, base_dir)
    out_dir = _output_dir(args.output_dir or cfg.data["output"]["directory"])
    rows = run_sweep(base, spec, base_dir)
    os.makedirs(out_dir, exist_ok=True)
    prefix = cfg.data["output"]["prefix"]
    sweep_cols = [d["path"] for d in spec.get("sweep", [])]
    cols = sweep_cols + [c for c in SWEEP_COLUMNS if c not in sweep_cols]
    path = os.path.join(out_dir, f"{prefix}_sweep.csv")
    comments = [f"config_sha256={cfg.sha256}", f"sweep_sha256={config_sha256(spec)}"]
    write_rows(path, cols, ([row.get(c) for c in cols] for row in rows), comments)
    print(path)
    return EXIT_OK


def cmd_scenario(args) -> int:
    presets = {r.phase: r for r in scenario_mod.regime_presets()}
    if args.name not in presets:
        raise ConfigError(
            f"unknown scenario {args.name!r}; available: {', '.join(sorted(presets))}")
    cfg_data = scenario_mod.regime_run_config(presets[args.name])
    validate_run_config(cfg_data)
    out = args.out or f"{args.name}_config.json"
    try:
        write_json(out, cfg_data)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
    print(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinrot",
        description="Nonadiabatic spin-rotation phases of a spin-1/2 in a rotating frame")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config key (JSON-typed value)")
        p.add_argument("--output-dir", help="override output.directory")

    p = sub.add_parser("simulate", help="integrate and emit phase/auxiliary series")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="cross-validate against the brute-force propagator")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run a parameter grid; one CSV row per point")
    add_common(p)
    p.add_argument("--sweep", required=True, help="sweep specification JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scenario", help="export a preset run configuration")
    p.add_argument("name", help="preset name (disordered, ordered)")
    p.add_argument("--out", help="output config path")
    p.set_defaults(func=cmd_scenario)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SpinRotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main_entry() -> None:
    sys.exit(main())

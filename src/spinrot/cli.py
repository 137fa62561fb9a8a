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
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import scenario as scenario_mod
from .config import (RunConfig, apply_overrides, config_sha256,
                     load_json_config, resolve_run_config, set_path,
                     validate_run_config)
from .errors import (ConfigError, NoSolutionError, OutOfDomainError,
                     SingularityError, SpinRotError)
from .invariant import integrate_auxiliary, lvn_residual_samples, lvn_residual_series
from .io_utils import fork_parts, forked, write_csv, write_json, write_rows
from .oracle import fidelity, propagate
from .phases import accumulate_phases, berry_limit_check, lr_states
from .spectroscopy import spectral_shift
from .spin_algebra import frame_state, time_reverse
from .trajectory import _grid_steps, check_sample_cap

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


def _write_artifacts(cfg: RunConfig, out_dir: str, tables: list[tuple],
                     name: str, payload: dict, workers: int) -> list[str]:
    """Write `{prefix}_{suffix}.csv` per (suffix, header, columns) table, in one `write_csv`
    pass over `workers` CPUs, then `{prefix}_{name}.json` in out_dir; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, cfg.data["output"]["prefix"])
    files = [(f"{stem}_{suffix}.csv", header, columns) for suffix, header, columns in tables]
    (path, header, columns), *siblings = files
    write_csv(path, header, columns, [f"config_sha256={cfg.sha256}"], siblings=siblings,
              workers=workers)
    paths = [p for p, _, _ in files] + [f"{stem}_{name}.json"]
    write_json(paths[-1], payload)
    return paths


def _write_simulate_artifacts(cfg: RunConfig, result: dict, out_dir: str,
                              workers: int = 1) -> list[str]:
    tables = [("aux", *result["sol"].csv_table(result["lvn_residual"]))] + [
        (f"phases_{_sigma_tag(s)}", ["t", "phi_dyn", "phi_geo", "phi_total"],
         [hist.t, hist.phi_dyn, hist.phi_geo, hist.phi_total])
        for s, hist in result["histories"].items()]
    return _write_artifacts(cfg, out_dir, tables, "summary", result["summary"], workers)


def _oracle_args(cfg: RunConfig, t0: float, t_end: float, n: int, h: float,
                 lam0: float, gam0: float) -> tuple:
    """`propagate`'s arguments for the chain from V(0)|+1/2> = frame_state(lam0, gam0)
    on an integrator grid of n steps of h from t0 to t_end.

    The oracle step is snapped to an integer divisor of h, so the two grids
    share sample times exactly.
    """
    step = cfg.data["oracle"]["step"]
    thin = max(1.0, np.rint(h / step))
    check_sample_cap(n * thin + 1, step, "oracle.step")
    thin = int(thin)
    oracle_step = (t_end - t0) / (n * thin) if n else step
    return frame_state(lam0, gam0), t_end, oracle_step, t0, thin


def _early_oracle_args(cfg: RunConfig, workers: int) -> tuple | None:
    """The oracle's arguments known before integrating, when its chain is to run in a child.

    A fixed-step run knows its grid beforehand; its chain goes to a child
    when the grid's n + 1 rows, here and as many kept there, are enough for
    two processes (`io_utils.fork_parts`). None otherwise: for an adaptive
    run, whose step only integrating gives, and where the grid or the start
    is an error, which `run_pipeline` then raises.
    """
    if cfg.adaptive or workers < 2:
        return None
    try:
        n = _grid_steps(0.0, cfg.t_end, cfg.step)
        args = _oracle_args(cfg, 0.0, cfg.t_end, n, cfg.t_end / n if n else cfg.step,
                            *cfg.initial_conditions())
    except (SpinRotError, ValueError):
        return None
    return args if fork_parts(2 * (n + 1), workers) > 1 else None


def _run_oracle(cfg: RunConfig, args: tuple):
    psi0, t_end, step, t0, thin = args
    return propagate(cfg.trajectory, psi0, t_end, step, t0=t0, thin=thin)


def run_verify(cfg: RunConfig, workers: int = 1) -> dict:
    """Pipeline plus oracle cross-validation of the particular solution.

    One oracle chain from V(0)|+1/2> is compared with the sigma = +1/2 LR
    states. Theta = -i sigma_y K takes both to sigma = -1/2, keeping the
    fidelity and negating the overlap phase: one verdict serves every sigma.
    With workers > 1 a fixed-step run's chain runs in a forked child while
    the pipeline integrates, when each has a large enough share of rows
    (`io_utils.fork_parts`); its run is taken only if its arguments are the
    ones the integrated grid gives.
    """
    oracle_cfg = cfg.data.get("oracle")
    if not oracle_cfg or not oracle_cfg.get("enabled", True):
        raise ConfigError("verify requires an enabled oracle section")
    early = _early_oracle_args(cfg, workers)
    with nullcontext() if early is None else forked(lambda: _run_oracle(cfg, early)) as child:
        result = run_pipeline(cfg)
        sol = result["sol"]
        args = _oracle_args(cfg, float(sol.t[0]), float(sol.t[-1]), sol.n_samples - 1,
                            sol.step, sol.lam[0], sol.gamma[0])
        psi0, t_end, oracle_step, t0, thin = args
        states = lr_states(sol, accumulate_phases(sol, cfg.trajectory, 0.5))
        same = child is not None and all(np.array_equal(a, b) for a, b in zip(args, early))
        run = child() if same else _run_oracle(cfg, args)
    tol = cfg.data["verify"]
    # reversed before `fidelity` runs: built after it, the README demo's peak RSS read higher
    down = replace(run, states=time_reverse(run.states)) if -0.5 in cfg.sigmas else None
    fid, phase = fidelity(run, sol.t, states)
    entry = {
        "min_fidelity": float(fid.min()),
        "max_overlap_phase_rad": float(np.abs(phase).max()),
        "unitarity_defect": run.unitarity_defect,
    }
    entry["pass"] = bool(
        entry["min_fidelity"] >= tol["min_fidelity"]
        and entry["max_overlap_phase_rad"] <= tol["max_phase_mismatch_rad"])
    if not entry["pass"]:
        # convergence diagnostic: a mismatch that drops ~16x on halving
        # the oracle step is discretization, not a physics disagreement;
        # a half-step grid above the sample cap is skipped and reported as null
        try:
            half = propagate(cfg.trajectory, psi0, t_end, oracle_step / 2.0, t0=t0, thin=2 * thin)
        except ConfigError:
            entry["phase_mismatch_at_half_step_rad"] = None
        else:
            mismatch_half = float(np.abs(fidelity(half, sol.t, states)[1]).max())
            entry["phase_mismatch_at_half_step_rad"] = mismatch_half
            if mismatch_half > 0.0:
                entry["phase_convergence_ratio"] = entry["max_overlap_phase_rad"] / mismatch_half
    result["verify_report"] = {
        "config_sha256": cfg.sha256, "tolerances": tol, "oracle_method": oracle_cfg["method"],
        "oracle_step": oracle_step, "oracle_under_resolved": run.under_resolved,
        "per_sigma": {_sigma_key(s): dict(entry) for s in cfg.sigmas}, "pass": entry["pass"]}
    # + 0.0 turns the -0.0 that negating a 0.0 phase gives into the 0.0 a direct run holds
    result["verify_series"] = {
        s: (run, fid, phase) if s > 0 else (down, fid, -phase + 0.0) for s in cfg.sigmas}
    return result


def _write_verify_artifacts(cfg: RunConfig, result: dict, out_dir: str,
                            workers: int = 1) -> list[str]:
    tables = [(f"verify_{_sigma_tag(s)}", *run.csv_table(fid, phase))
              for s, (run, fid, phase) in result["verify_series"].items()]
    return _write_artifacts(cfg, out_dir, tables, "verify_report", result["verify_report"],
                            workers)


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
    for i, d in enumerate(dims):
        if not isinstance(d, dict) or set(d) != {"path", "values"}:
            raise ConfigError("sweep entries must be {path, values}")
        if not isinstance(d["path"], str):
            raise ConfigError(f"sweep path {d['path']!r} must be a string")
        if not isinstance(d["values"], list):
            raise ConfigError(f"sweep values for {d.get('path')!r} must be a list")
        if d["path"] in [e["path"] for e in dims[:i]]:
            raise ConfigError(f"sweep path {d['path']!r} is listed twice")
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


def _workers() -> int:
    """The CPU cap: SPINROT_WORKERS, an integer >= 1, else the CPU count."""
    env = os.environ.get("SPINROT_WORKERS")
    if env is None:
        return os.cpu_count() or 1
    try:
        cap = int(env)
    except ValueError as exc:
        raise ConfigError(f"SPINROT_WORKERS must be an integer, got {env!r}") from exc
    if cap < 1:
        raise ConfigError("SPINROT_WORKERS must be >= 1")
    return cap


def _worker_count(n_points: int) -> int:
    return max(1, min(_workers(), n_points))


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

def _load(args) -> tuple[RunConfig, str, int]:
    """The config with its `--set` overrides, resolved, the checked output directory
    and the CPU cap."""
    data = apply_overrides(load_json_config(args.config), args.set or [])
    cfg = resolve_run_config(data, os.path.dirname(os.path.abspath(args.config)))
    return cfg, _output_dir(args.output_dir or cfg.data["output"]["directory"]), _workers()


def cmd_simulate(args) -> int:
    cfg, out_dir, workers = _load(args)
    for p in _write_simulate_artifacts(cfg, run_simulate(cfg), out_dir, workers):
        print(p)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg, out_dir, workers = _load(args)
    result = run_verify(cfg, workers)
    for p in _write_verify_artifacts(cfg, result, out_dir, workers):
        print(p)
    if not result["verify_report"]["pass"]:
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

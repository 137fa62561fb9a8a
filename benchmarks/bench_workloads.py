"""Workload inputs, operations and output checks of the spinrot benchmark.

Each workload writes its inputs from a seed (`write_inputs`), then runs
operations through the public entry points: `spinrot.cli.main(argv)`
in-process for `simulate`, `verify` and `sweep`, and library calls for the
line scan. Every operation is checked after it ran (outside the timed
region). A check returns a list of problems; an empty list means the
output is correct.

The library is looked up through module attributes (`spectroscopy.
resonance_scan`, ...) so that the traced run can wrap those names.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cone_demo", "tabulated_adaptive", "omega_sweep", "line_scan")

# Commands of one workload operation, in order. cone_demo and
# tabulated_adaptive time a simulate + verify pair as one operation.
COMMANDS = {
    "cone_demo": ("simulate", "verify"),
    "tabulated_adaptive": ("simulate", "verify"),
    "omega_sweep": ("sweep",),
    "line_scan": ("scan",),
}

# The README demo config, verbatim.
DEMO_CONFIG = {
    "schema_version": 1,
    "trajectory": {"kind": "constant_precession", "omega0": 1.0,
                   "Omega": 0.5, "theta": 1.0471975511965976, "phi0": 0.0},
    "initial_conditions": "precession-consistent",
    "sigmas": [0.5, -0.5],
    "integrator": {"step": 0.01, "periods": 10.0},
    "oracle": {"enabled": True, "step": 0.0025, "method": "exponential_product"},
    "output": {"directory": "out", "prefix": "demo"},
}

# tabulated_adaptive: 2000 spline knots over 20 s, RK4 step 0.01 (2000
# adaptive steps, no halving: the worst error rate is ~2e-11 against the
# 1e-9 tolerance for every seed). The oracle runs at the integrator step,
# where the midpoint oracle's O(h^2) phase error (2.3e-6 .. 4.9e-6 over
# seeds 0-9) sits well above the 1e-6 tolerance for every seed, so the
# verdict and the work of the FAIL diagnostic do not change with the seed.
# At step/4 this 20 s span would pass (1.4e-7 .. 3.0e-7); at step/2 seed 0
# fails and seeds 1-9 pass.
TAB_SAMPLES = 2000
TAB_T_END = 20.0
TAB_OMEGA0 = 1.0

SWEEP_OMEGAS = [0.25 * i for i in range(1, 9)]
SWEEP_THETAS = [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1]
SWEEP_SIGMA = 0.5

# line_scan: acceptance criterion 6 (locked cone, 60 s at step 0.01).
SCAN = {"omega0": 1.0, "Omega": 0.1, "theta": math.pi / 6.0, "t_end": 60.0,
        "step": 0.01, "bare_rad_s": 1.0, "coupling": 0.002, "points": 200,
        "half_width": 0.5}

REL_TOL = 1e-10  # closed-form checks; the seed meets them to ~1e-13


def cone_angle(omega0: float, Omega: float, theta: float) -> float:
    """Locked-cone angle lam with Omega = w0 sin(lam - th)/sin(lam)."""
    return math.atan2(math.sin(theta), math.cos(theta) - Omega / omega0)


def line_shift_rad_s(omega0: float, Omega: float, theta: float) -> float:
    """Closed-form (+1/2 -> -1/2) line shift w0 cos(lam - th) + Omega (1 - cos lam)."""
    lam = cone_angle(omega0, Omega, theta)
    return omega0 * math.cos(lam - theta) + Omega * (1.0 - math.cos(lam))


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _dump_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- inputs -------------------------------------------------------------------

def tabulated_table(seed: int) -> np.ndarray:
    """Smooth (t, theta, phi) samples: slow nutation and a wobbling precession."""
    rng = np.random.default_rng(seed)
    th0, th_amp = rng.uniform(0.85, 0.95), rng.uniform(0.15, 0.2)
    th_rate, th_phase = rng.uniform(0.15, 0.2), rng.uniform(0.0, 2.0 * math.pi)
    Omega, ph_amp = rng.uniform(0.3, 0.35), rng.uniform(0.2, 0.25)
    ph_rate, ph_phase = rng.uniform(0.15, 0.2), rng.uniform(0.0, 2.0 * math.pi)
    t = np.linspace(0.0, TAB_T_END, TAB_SAMPLES)
    theta = th0 + th_amp * np.sin(th_rate * t + th_phase)
    phi = Omega * t + ph_amp * np.sin(ph_rate * t + ph_phase)
    return np.column_stack([t, theta, phi])


def write_inputs(workload: str, seed: int, work_dir: str) -> dict:
    """Write the workload's input files under work_dir; return their paths and parameters."""
    os.makedirs(work_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    inputs = {"workload": workload, "seed": seed, "config": os.path.join(work_dir, "config.json"),
              "out": os.path.join(work_dir, "out")}
    if workload == "cone_demo":
        # verbatim demo: the seed does not enter
        config = DEMO_CONFIG
    elif workload == "tabulated_adaptive":
        with open(os.path.join(work_dir, "traj.csv"), "w") as fh:
            fh.write("t,theta,phi\n")
            for row in tabulated_table(seed):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        config = {
            "schema_version": 1,
            "trajectory": {"kind": "tabulated", "omega0": TAB_OMEGA0, "csv_path": "traj.csv"},
            "initial_conditions": "aligned",
            "sigmas": [0.5, -0.5],
            "integrator": {"step": 0.01, "t_end": TAB_T_END, "adaptive": True},
            "oracle": {"enabled": True, "step": 0.01, "method": "exponential_product"},
            "output": {"directory": "out", "prefix": "tab"},
        }
    elif workload == "omega_sweep":
        config = {
            "schema_version": 1,
            "trajectory": {"kind": "constant_precession", "omega0": 1.0, "Omega": 1.0,
                           "theta": 0.6, "phi0": float(rng.uniform(0.0, 2.0 * math.pi))},
            "initial_conditions": "precession-consistent",
            "sigmas": [0.5, -0.5],
            "integrator": {"step": 0.01, "periods": 1.0},
            "output": {"directory": "out", "prefix": "grid"},
        }
        inputs["sweep"] = os.path.join(work_dir, "sweep.json")
        _dump_json(inputs["sweep"], {
            "schema_version": 1, "sigma": SWEEP_SIGMA,
            "sweep": [{"path": "trajectory.Omega", "values": SWEEP_OMEGAS},
                      {"path": "trajectory.theta", "values": SWEEP_THETAS}]})
    elif workload == "line_scan":
        config = {
            "schema_version": 1,
            "trajectory": {"kind": "constant_precession", "omega0": SCAN["omega0"],
                           "Omega": SCAN["Omega"], "theta": SCAN["theta"],
                           "phi0": float(rng.uniform(0.0, 2.0 * math.pi))},
            "initial_conditions": "precession-consistent",
            "sigmas": [0.5, -0.5],
            "integrator": {"step": SCAN["step"], "t_end": SCAN["t_end"]},
            "output": {"directory": "out", "prefix": "scan"},
        }
        expected = SCAN["bare_rad_s"] + line_shift_rad_s(SCAN["omega0"], SCAN["Omega"], SCAN["theta"])
        # the window is offset by a seeded amount so the peak is not always central
        center = expected + float(rng.uniform(-0.1, 0.1))
        inputs["expected_peak"] = expected
        inputs["frequencies"] = np.linspace(center - SCAN["half_width"], center + SCAN["half_width"],
                                            SCAN["points"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _dump_json(inputs["config"], config)
    return inputs


# -- operations ---------------------------------------------------------------

@dataclass
class Outcome:
    """What one command produced: exit code, artifact digest and check result."""

    command: str
    exit_code: int | None = None
    digest: str = ""
    problems: list = field(default_factory=list)
    verify_failed: bool = False
    phase_mismatch_rad: float = 0.0


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """spinrot.cli.main in-process with its stdout/stderr captured."""
    from spinrot import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def line_scan(inputs: dict) -> tuple[np.ndarray, float]:
    """The criterion-6 scan: integrate, accumulate both phases, scan, refine the peak."""
    from spinrot import config, invariant, phases, spectroscopy
    cfg = config.resolve_run_config(config.load_json_config(inputs["config"]),
                                    os.path.dirname(inputs["config"]))
    lam0, gam0 = cfg.initial_conditions()
    sol = invariant.integrate_auxiliary(cfg.trajectory, lam0, gam0, cfg.t_end, cfg.step)
    hists = [phases.accumulate_phases(sol, cfg.trajectory, s) for s in cfg.sigmas]
    hbar = spectroscopy.HBAR_EV_S
    levels = (spectroscopy.EnergyLevel(1, 0.5, SCAN["bare_rad_s"] * hbar),
              spectroscopy.EnergyLevel(2, -0.5, 0.0))
    pert = spectroscopy.PerturbationModel(
        {(2, 1): SCAN["coupling"] * hbar * np.array([[0.0, 1.0], [1.0, 0.0]])})
    freqs = inputs["frequencies"]
    resp = spectroscopy.resonance_scan(pert, levels[0], levels[1], sol, hists, freqs)
    return resp, spectroscopy.peak_frequency(freqs, resp)


def command_call(command: str, inputs: dict):
    """A zero-argument callable that runs one command; its return value feeds `check_command`."""
    if command == "scan":
        return lambda: line_scan(inputs)
    argv = [command, "--config", inputs["config"], "--output-dir", inputs["out"]]
    if command == "sweep":
        argv += ["--sweep", inputs["sweep"]]
    return lambda: run_cli(argv)


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode() + b"\0")
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _listed_paths(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line and os.path.isfile(line)]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_command(command: str, inputs: dict, result, meta: dict | None = None) -> Outcome:
    """Check one command's output; `meta` is the auxiliary solution's meta when captured."""
    oc = Outcome(command)
    wl = inputs["workload"]
    if command == "scan":
        resp, peak = result
        oc.exit_code = 0
        oc.problems = check_scan_peak(peak, inputs["expected_peak"], inputs["frequencies"])
        oc.digest = hashlib.sha256(np.asarray(resp).tobytes() + repr(peak).encode()).hexdigest()
        return oc
    code, stdout, stderr = result
    oc.exit_code = code
    allowed = (0, 4) if command == "verify" else (0,)
    if code not in allowed:
        oc.problems.append(f"{command}: exit code {code}: {stderr.strip()[:200]}")
        return oc
    paths = _listed_paths(stdout)
    if not paths:
        oc.problems.append(f"{command}: no artifacts listed")
        return oc
    oc.digest = digest_files(paths)
    prefix = os.path.join(inputs["out"], _load_json(inputs["config"])["output"]["prefix"])
    if command == "simulate":
        summary = _load_json(prefix + "_summary.json")
        if wl == "cone_demo":
            oc.problems = check_cone_summary(summary)
        else:
            oc.problems = check_tabulated_summary(summary, meta)
    elif command == "verify":
        report = _load_json(prefix + "_verify_report.json")
        oc.problems = check_verify_report(report, code)
        oc.verify_failed = code == 4
        oc.phase_mismatch_rad = max(
            (e.get("max_overlap_phase_rad", 0.0) for e in report.get("per_sigma", {}).values()),
            default=0.0)
    elif command == "sweep":
        oc.problems = check_sweep_rows(read_sweep_csv(prefix + "_sweep.csv"))
    return oc


# -- checks -------------------------------------------------------------------

def check_cone_summary(summary: dict) -> list[str]:
    """Summary rates match the summary's analytic block, which matches the closed form."""
    problems = []
    analytic = summary.get("analytic") or {}
    tr = DEMO_CONFIG["trajectory"]
    lam = cone_angle(tr["omega0"], tr["Omega"], tr["theta"])
    closed = {"phi_dyn_rate_up": 0.5 * tr["omega0"] * math.cos(lam - tr["theta"]),
              "phi_geo_rate_up": 0.5 * tr["Omega"] * (1.0 - math.cos(lam))}
    for key, want in closed.items():
        got = analytic.get(key)
        if got is None or _rel_err(got, want) > REL_TOL:
            problems.append(f"analytic {key} = {got!r}, closed form {want!r}")
    for sigma_key, sign in (("+0.5", 1.0), ("-0.5", -1.0)):
        entry = summary.get("per_sigma", {}).get(sigma_key, {})
        for rate in ("phi_dyn_rate", "phi_geo_rate"):
            want = sign * analytic.get(rate + "_up", math.nan)
            got = entry.get(rate)
            if got is None or not _rel_err(got, want) <= REL_TOL:
                problems.append(f"{sigma_key} {rate} = {got!r}, analytic {want!r}")
    return problems


def check_tabulated_summary(summary: dict, meta: dict | None) -> list[str]:
    """Invariant residual below 1e-9 w0 and no exhausted halving budget."""
    problems = []
    resid = summary.get("lvn_max_residual")
    if resid is None or not resid < 1e-9 * summary.get("omega0", TAB_OMEGA0):
        problems.append(f"lvn_max_residual = {resid!r} not < 1e-9 w0")
    if meta and meta.get("error_rate_tol_exceeded"):
        problems.append("integrator meta reports error_rate_tol_exceeded")
    return problems


def check_verify_report(report: dict, exit_code: int) -> list[str]:
    """The verdict is consistent with the exit code and the report is well formed.

    A FAIL verdict is not a problem here: it is counted in verify_fail_share.
    """
    problems = []
    passed = report.get("pass")
    if passed is not (exit_code == 0):
        problems.append(f"verify exit {exit_code} disagrees with report pass={passed!r}")
    per_sigma = report.get("per_sigma") or {}
    if set(per_sigma) != {"+0.5", "-0.5"}:
        problems.append(f"verify report sigmas {sorted(per_sigma)}")
    for key, e in per_sigma.items():
        fid = e.get("min_fidelity", math.nan)
        if not 0.0 <= fid <= 1.0 + 1e-12:
            problems.append(f"{key} min_fidelity = {fid!r}")
        if not e.get("unitarity_defect", math.inf) < 1e-12:
            problems.append(f"{key} unitarity_defect = {e.get('unitarity_defect')!r}")
        if not e.get("pass", True) and "phase_mismatch_at_half_step_rad" not in e:
            problems.append(f"{key} FAIL verdict without the half-step diagnostic")
    return problems


def read_sweep_csv(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_sweep_rows(rows: list[dict]) -> list[str]:
    """Status per grid point, and phi_geo_T = sigma Omega (1 - cos lam0) t_end on ok rows."""
    problems = []
    if len(rows) != len(SWEEP_OMEGAS) * len(SWEEP_THETAS):
        return [f"sweep has {len(rows)} rows"]
    grid = [(om, th) for om in SWEEP_OMEGAS for th in SWEEP_THETAS]
    for (om, th), row in zip(grid, rows):
        where = f"Omega={om} theta={th}"
        try:
            if float(row["trajectory.Omega"]) != om or float(row["trajectory.theta"]) != th:
                problems.append(f"{where}: row out of grid order")
                continue
            want_status = "no-solution" if th == 0.0 else "ok"
            if row["status"] != want_status:
                problems.append(f"{where}: status {row['status']!r}, expected {want_status!r}")
                continue
            if want_status != "ok":
                continue
            lam0 = cone_angle(1.0, om, th)
            t_end = 2.0 * math.pi / om
            want = SWEEP_SIGMA * om * (1.0 - math.cos(lam0)) * t_end
            for key, got, ref in (("lambda0", row["lambda0"], lam0), ("t_end", row["t_end"], t_end),
                                  ("phi_geo_T", row["phi_geo_T"], want)):
                if not _rel_err(float(got), ref) <= REL_TOL:
                    problems.append(f"{where}: {key} = {got}, expected {ref!r}")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{where}: unreadable row ({exc})")
    return problems


def check_scan_peak(peak: float, expected: float, frequencies) -> list[str]:
    """The scan peak lies within one frequency spacing of the closed-form line."""
    spacing = float(frequencies[1] - frequencies[0])
    if not abs(peak - expected) <= spacing:
        return [f"scan peak {peak!r} vs closed form {expected!r} (spacing {spacing:.3g})"]
    return []

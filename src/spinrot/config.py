"""Run-configuration schema, validation and hashing.

One JSON document drives every CLI subcommand. Unknown keys are rejected
at every level so that typos fail loudly before any numerics run.

Schema (version 1):

    {
      "schema_version": 1,
      "trajectory": {
        "kind": "constant_precession" | "tabulated",
        "omega0": float >= 0,
        # constant_precession:
        "Omega": float, "theta": float in [0, pi], "phi0": float (default 0),
        # tabulated:
        "csv_path": str   # header t,theta,phi; resolved against the config dir
      },
      "initial_conditions": "aligned" | "precession-consistent"
                            | {"lambda0": float, "gamma0": float},
      "sigmas": [0.5, -0.5],        # any nonempty subset
      "integrator": {
        "step": float > 0,
        "t_end": float > 0 XOR "periods": float > 0,   # periods needs Omega != 0
        "adaptive": bool (default false)
      },
      "oracle": {                    # optional; enables cmd_verify
        "enabled": bool,
        "step": float > 0,           # rounded to an integer divisor of step
        "method": "exponential_product"  # the only method, and the default
      },
      "verify": {                    # optional tolerance overrides
        "min_fidelity": float, "max_phase_mismatch_rad": float
      },
      "output": {"directory": nonempty str (default "."),
                 "prefix": str (default "run")},  # a file-name stem: no '/', '\\' or NUL
      "scenario": str | null        # provenance tag only
    }
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .invariant import solve_precession_lambda
from .io_utils import canonical_json
from .trajectory import OmegaTrajectory

SCHEMA_VERSION = 1

_DEFAULT_VERIFY = {"min_fidelity": 1.0 - 1e-8, "max_phase_mismatch_rad": 1e-6}


def config_sha256(data: dict, table_sha256: str | None = None) -> str:
    """SHA-256 of the canonical config JSON, folding in a tabulated drive's table digest."""
    h = hashlib.sha256(canonical_json(data).encode())
    if table_sha256 is not None:
        h.update(table_sha256.encode())
    return h.hexdigest()


def load_json_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _expect_keys(obj: dict, where: str, required: set, optional: set) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _number(obj, where, *, minimum=None, positive=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where} must be a number, got {obj!r}")
    v = float(obj)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {obj!r}")
    if positive and v <= 0.0:
        raise ConfigError(f"{where} must be > 0, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {v}")
    return v


def validate_run_config(data: dict) -> dict:
    """Validate and normalize a raw config dict (defaults filled in)."""
    _expect_keys(data, "config", {"schema_version", "trajectory", "integrator"},
                 {"initial_conditions", "sigmas", "oracle", "verify", "output", "scenario"})
    # True == 1 in Python: a boolean is refused, not run as version 1
    if isinstance(data["schema_version"], bool) or data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {data['schema_version']!r}; expected {SCHEMA_VERSION}")

    out: dict = {"schema_version": SCHEMA_VERSION}

    traj = data["trajectory"]
    _expect_keys(traj, "trajectory", {"kind", "omega0"},
                 {"Omega", "theta", "phi0", "csv_path"})
    kind = traj["kind"]
    omega0 = _number(traj["omega0"], "trajectory.omega0", minimum=0.0)
    if kind == "constant_precession":
        if "csv_path" in traj:
            raise ConfigError("trajectory.csv_path is only for kind 'tabulated'")
        theta = _number(traj.get("theta", 0.0), "trajectory.theta")
        if not (0.0 <= theta <= math.pi):
            raise ConfigError(f"trajectory.theta must lie in [0, pi], got {theta}")
        out["trajectory"] = {
            "kind": kind, "omega0": omega0,
            "Omega": _number(traj.get("Omega", 0.0), "trajectory.Omega"),
            "theta": theta,
            "phi0": _number(traj.get("phi0", 0.0), "trajectory.phi0"),
        }
    elif kind == "tabulated":
        if "csv_path" not in traj:
            raise ConfigError("trajectory.csv_path required for kind 'tabulated'")
        for bad in ("Omega", "theta", "phi0"):
            if bad in traj:
                raise ConfigError(f"trajectory.{bad} is not valid for kind 'tabulated'")
        out["trajectory"] = {"kind": kind, "omega0": omega0,
                             "csv_path": str(traj["csv_path"])}
    else:
        raise ConfigError(
            f"trajectory.kind must be 'constant_precession' or 'tabulated', got {kind!r}")

    ic = data.get("initial_conditions", "aligned")
    if isinstance(ic, str):
        if ic not in ("aligned", "precession-consistent"):
            raise ConfigError(f"initial_conditions {ic!r} not recognized")
        if ic == "precession-consistent" and kind != "constant_precession":
            raise ConfigError("'precession-consistent' requires a constant_precession trajectory")
        out["initial_conditions"] = ic
    else:
        _expect_keys(ic, "initial_conditions", {"lambda0", "gamma0"}, set())
        out["initial_conditions"] = {
            "lambda0": _number(ic["lambda0"], "initial_conditions.lambda0"),
            "gamma0": _number(ic["gamma0"], "initial_conditions.gamma0"),
        }

    sigmas = data.get("sigmas", [0.5, -0.5])
    if not isinstance(sigmas, list) or not sigmas:
        raise ConfigError("sigmas must be a nonempty list")
    for s in sigmas:
        if s not in (0.5, -0.5):
            raise ConfigError(f"sigmas entries must be +-0.5, got {s!r}")
    if len(set(sigmas)) != len(sigmas):
        raise ConfigError("sigmas entries must be unique")
    out["sigmas"] = [float(s) for s in sigmas]

    integ = data["integrator"]
    _expect_keys(integ, "integrator", {"step"}, {"t_end", "periods", "adaptive"})
    has_t_end = "t_end" in integ
    has_periods = "periods" in integ
    if has_t_end == has_periods:
        raise ConfigError("integrator: exactly one of t_end / periods is required")
    out["integrator"] = {"step": _number(integ["step"], "integrator.step", positive=True),
                         "adaptive": bool(integ.get("adaptive", False))}
    if not isinstance(integ.get("adaptive", False), bool):
        raise ConfigError("integrator.adaptive must be a boolean")
    if has_t_end:
        out["integrator"]["t_end"] = _number(integ["t_end"], "integrator.t_end", positive=True)
    else:
        if kind != "constant_precession" or out["trajectory"]["Omega"] == 0.0:
            raise ConfigError("integrator.periods requires constant_precession with Omega != 0")
        out["integrator"]["periods"] = _number(integ["periods"], "integrator.periods", positive=True)

    if "oracle" in data and data["oracle"] is not None:
        orc = data["oracle"]
        _expect_keys(orc, "oracle", {"step"}, {"enabled", "method"})
        method = orc.get("method", "exponential_product")
        if method != "exponential_product":
            raise ConfigError(f"oracle.method {method!r} not recognized")
        enabled = orc.get("enabled", True)
        if not isinstance(enabled, bool):
            raise ConfigError(f"oracle.enabled must be a boolean, got {enabled!r}")
        out["oracle"] = {"enabled": enabled,
                         "step": _number(orc["step"], "oracle.step", positive=True),
                         "method": method}

    ver = dict(_DEFAULT_VERIFY)
    if "verify" in data and data["verify"] is not None:
        _expect_keys(data["verify"], "verify", set(),
                     {"min_fidelity", "max_phase_mismatch_rad"})
        for key in data["verify"]:
            ver[key] = _number(data["verify"][key], f"verify.{key}")
    out["verify"] = ver

    outp = data.get("output", {})
    _expect_keys(outp, "output", set(), {"directory", "prefix"})
    out["output"] = {"directory": outp.get("directory", "."), "prefix": outp.get("prefix", "run")}
    for key, value in out["output"].items():
        if not isinstance(value, str):
            raise ConfigError(f"output.{key} must be a string, got {value!r}")
    if not out["output"]["directory"]:
        raise ConfigError("output.directory must not be empty")
    if set(out["output"]["prefix"]) & set("/\\\0"):
        raise ConfigError("output.prefix must be a file-name stem without '/', '\\' or NUL, "
                          f"got {out['output']['prefix']!r}")

    scen = data.get("scenario")
    if scen is not None and not isinstance(scen, str):
        raise ConfigError(f"scenario must be a string or null, got {scen!r}")
    out["scenario"] = scen
    return out


@dataclass
class RunConfig:
    """Validated config resolved into runnable objects.

    `table_sha256` is the SHA-256 of a tabulated drive's CSV bytes, None for a cone.
    """

    data: dict
    trajectory: OmegaTrajectory
    table_sha256: str | None

    @property
    def sha256(self) -> str:
        return config_sha256(self.data, self.table_sha256)

    @property
    def sigmas(self) -> list[float]:
        return self.data["sigmas"]

    @property
    def step(self) -> float:
        return self.data["integrator"]["step"]

    @property
    def adaptive(self) -> bool:
        return self.data["integrator"]["adaptive"]

    @property
    def t_end(self) -> float:
        integ = self.data["integrator"]
        if "t_end" in integ:
            return integ["t_end"]
        period = self.trajectory.period()
        return integ["periods"] * period

    def initial_conditions(self) -> tuple[float, float]:
        """Resolve (lambda0, gamma0); may raise NoSolutionError."""
        ic = self.data["initial_conditions"]
        if ic == "aligned":
            th, ph = self.trajectory.angles_scalar(0.0)
            return th, ph
        if ic == "precession-consistent":
            tr = self.data["trajectory"]
            lam = solve_precession_lambda(tr["omega0"], tr["Omega"], tr["theta"])
            return lam, tr["phi0"]
        return ic["lambda0"], ic["gamma0"]


def resolve_run_config(data: dict, base_dir: str = ".") -> RunConfig:
    """Validate and build the trajectory (tabulated CSVs load here)."""
    norm = validate_run_config(data)
    tr = norm["trajectory"]
    table_sha256 = None
    if tr["kind"] == "constant_precession":
        traj = OmegaTrajectory.constant_precession(
            tr["omega0"], tr["Omega"], tr["theta"], tr["phi0"])
    else:
        path = tr["csv_path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            with open(path, "rb") as fh:
                table_sha256 = hashlib.sha256(fh.read()).hexdigest()
            traj = OmegaTrajectory.from_csv(path, tr["omega0"])
        except OSError as exc:
            raise ConfigError(f"trajectory CSV {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # from_csv names the path
            raise ConfigError(f"trajectory CSV {exc}") from exc
    return RunConfig(norm, traj, table_sha256)


def apply_overrides(data: dict, assignments: list[str]) -> dict:
    """Apply --set a.b.c=json_value overrides onto a raw config dict."""
    out = json.loads(json.dumps(data))  # deep copy
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        path, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed
        set_path(out, path, value, f"override {item!r}")
    return out


def set_path(data: dict, path: str, value, what: str) -> None:
    """Set the dotted `path` of data to value, creating missing objects; errors name `what`."""
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"{what} has an empty key path")
    node = data
    for k in keys[:-1]:
        if not isinstance(node, dict):
            break
        node = node.setdefault(k, {})
    if not isinstance(node, dict):
        raise ConfigError(f"{what} descends into a non-object")
    node[keys[-1]] = value

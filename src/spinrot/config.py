"""Run-config and sweep-spec schemas, validation and hashing.

One JSON document drives every CLI subcommand, and a sweep spec `sweep`;
one walker checks both against one table of fields. Unknown keys are
rejected at every level so that typos fail loudly before any numerics run.

Schema (version 1):

    {
      "schema_version": 1,
      "trajectory": {
        "kind": "constant_precession" | "tabulated",
        "omega0": float >= 0,
        # constant_precession:
        "Omega": float, "theta": float in [0, pi], "phi0": float (each default 0),
        # tabulated:
        "csv_path": nonempty str  # header t,theta,phi; resolved against the config dir
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
        "enabled": bool (default true),
        "step": float > 0,           # rounded to an integer divisor of step
        "method": "exponential_product"  # the only method, and the default
      },
      "verify": {                    # optional tolerance overrides
        "min_fidelity": float in [0, 1] (default 1 - 1e-8),
        "max_phase_mismatch_rad": float >= 0 (default 1e-6)
      },
      "output": {"directory": nonempty str (default "."),
                 "prefix": str (default "run")},  # a file-name stem: no '/', '\\' or NUL
      "scenario": str | null        # provenance tag only
    }

Sweep spec: {"schema_version": 1 (the default), "sigma": 0.5 | -0.5 (default 0.5),
"sweep": [{"path": dotted config key, each once, "values": list}, ...] (default [])}.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

from .errors import ConfigError
from .invariant import solve_precession_lambda
from .io_utils import canonical_json
from .trajectory import OmegaTrajectory

SCHEMA_VERSION = 1


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


_REQUIRED = object()  # default of a field that must be given
_ABSENT = object()    # default of a field that, not given, stays out of the result


def _any(value, where):
    return value


def _number(bound="", ok=lambda v: True):
    """Check of a finite number, returned as a float, for which `ok` (`bound` in words) holds."""
    def check(value, where):
        # the bound on abs refuses nan, inf and an int beyond the floats before float() sees it
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max or not ok(float(value))):
            raise ConfigError(f"{where} must be a finite number{bound}, got {value!r}")
        return float(value)
    return check


_REAL = _number()
_POSITIVE = _number(" > 0", lambda v: v > 0.0)
_NONNEGATIVE = _number(" >= 0", lambda v: v >= 0.0)


def _instance(cls, what):
    def check(value, where):
        if not isinstance(value, cls):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value
    return check


_BOOLEAN, _STRING = _instance(bool, "a boolean"), _instance(str, "a string")
_LIST = _instance(list, "a list")


def _nonempty(value, where):
    if not _STRING(value, where):
        raise ConfigError(f"{where} must not be empty")
    return value


def _choice(*options):
    def check(value, where):
        if value not in options:
            raise ConfigError(f"{where} {value!r} not recognized")
        return value
    return check


def _list(item):
    return lambda value, where: [item(v, f"{where}[{i}]")
                                 for i, v in enumerate(_LIST(value, where))]


def _table(name):
    return lambda value, where: _walk(value, name, where)


def _trajectory(value, where):
    """`kind` names the table, so a field of the other kind is an unknown key."""
    tabulated = isinstance(value, dict) and value.get("kind") == "tabulated"
    return _walk(value, "tabulated" if tabulated else "constant_precession", where)


def _initial_conditions(value, where):
    if isinstance(value, str):
        return _choice("aligned", "precession-consistent")(value, where)
    return _walk(value, "initial_conditions", where)


# object -> {field: (check, default)}; check(value, where) returns the normalized value,
# and a default other than _REQUIRED or _ABSENT goes through the check too
_FIELDS = {
    "config": {
        "schema_version": (_any, _REQUIRED), "trajectory": (_trajectory, _REQUIRED),
        "initial_conditions": (_initial_conditions, "aligned"),
        "sigmas": (_list(_choice(0.5, -0.5)), [0.5, -0.5]),
        "integrator": (_table("integrator"), _REQUIRED), "oracle": (_table("oracle"), _ABSENT),
        "verify": (_table("verify"), {}), "output": (_table("output"), {}),
        "scenario": (_any, None)},
    "constant_precession": {
        "kind": (_choice("constant_precession"), _REQUIRED),
        "omega0": (_NONNEGATIVE, _REQUIRED), "Omega": (_REAL, 0.0),
        "theta": (_number(" in [0, pi]", lambda v: 0.0 <= v <= math.pi), 0.0),
        "phi0": (_REAL, 0.0)},
    "tabulated": {
        "kind": (_choice("tabulated"), _REQUIRED), "omega0": (_NONNEGATIVE, _REQUIRED),
        "csv_path": (_nonempty, _REQUIRED)},
    "initial_conditions": {"lambda0": (_REAL, _REQUIRED), "gamma0": (_REAL, _REQUIRED)},
    "integrator": {
        "step": (_POSITIVE, _REQUIRED), "t_end": (_POSITIVE, _ABSENT),
        "periods": (_POSITIVE, _ABSENT), "adaptive": (_BOOLEAN, False)},
    "oracle": {
        "enabled": (_BOOLEAN, True), "step": (_POSITIVE, _REQUIRED),
        "method": (_choice("exponential_product"), "exponential_product")},
    "verify": {
        "min_fidelity": (_number(" in [0, 1]", lambda v: 0.0 <= v <= 1.0), 1.0 - 1e-8),
        "max_phase_mismatch_rad": (_NONNEGATIVE, 1e-6)},
    "output": {"directory": (_nonempty, "."), "prefix": (_STRING, "run")},
    "sweep spec": {
        "schema_version": (_any, 1), "sweep": (_list(_table("sweep entry")), []),
        "sigma": (_choice(0.5, -0.5), 0.5)},
    "sweep entry": {"path": (_STRING, _REQUIRED), "values": (_LIST, _REQUIRED)},
}


def _walk(obj, name: str, where: str = "") -> dict:
    """obj checked against `_FIELDS[name]`, defaults filled in; `where` is its dotted path."""
    fields = _FIELDS[name]
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or name} must be an object, got {type(obj).__name__}")
    missing = [k for k, (_, d) in fields.items() if d is _REQUIRED and k not in obj]
    if missing:
        raise ConfigError(f"{where or name}: missing required keys {sorted(missing)}")
    unknown = obj.keys() - fields.keys()
    if unknown:
        raise ConfigError(f"{where or name}: unknown keys {sorted(unknown)}")
    prefix = f"{where}." if where else ""
    return {key: check(value, prefix + key) for key, (check, default) in fields.items()
            if (value := obj.get(key, default)) is not _ABSENT}


def validate_run_config(data: dict) -> dict:
    """Validate and normalize a raw config dict (defaults filled in)."""
    if isinstance(data, dict):  # a null oracle or verify section is an absent one
        data = {k: v for k, v in data.items() if v is not None or k not in ("oracle", "verify")}
    out = _walk(data, "config")
    version = out["schema_version"]
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # True == 1 in Python
        raise ConfigError(f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    out["schema_version"] = SCHEMA_VERSION  # 1.0 is version 1, and hashes as 1
    traj, integ, sigmas = out["trajectory"], out["integrator"], out["sigmas"]
    cone = traj["kind"] == "constant_precession"
    if out["initial_conditions"] == "precession-consistent" and not cone:
        raise ConfigError("'precession-consistent' requires a constant_precession trajectory")
    if not sigmas or len(set(sigmas)) != len(sigmas):
        raise ConfigError(f"sigmas must be a nonempty list of distinct entries, got {sigmas}")
    if ("t_end" in integ) == ("periods" in integ):
        raise ConfigError("integrator: exactly one of t_end / periods is required")
    if "periods" in integ and (not cone or traj["Omega"] == 0.0):
        raise ConfigError("integrator.periods requires constant_precession with Omega != 0")
    if set(out["output"]["prefix"]) & set("/\\\0"):
        raise ConfigError("output.prefix must be a file-name stem without '/', '\\' or NUL, "
                          f"got {out['output']['prefix']!r}")
    if out["scenario"] is not None and not isinstance(out["scenario"], str):
        raise ConfigError(f"scenario must be a string or null, got {out['scenario']!r}")
    return out


def _validate_sweep_spec(spec: dict) -> dict:
    """Validate and normalize a sweep spec; no path may be listed twice."""
    out = _walk(spec, "sweep spec")
    if isinstance(out["schema_version"], bool) or out["schema_version"] != 1:
        raise ConfigError("sweep spec: unsupported schema_version")
    paths = [entry["path"] for entry in out["sweep"]]
    for i, path in enumerate(paths):
        if path in paths[:i]:
            raise ConfigError(f"sweep path {path!r} is listed twice")
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
        path = os.path.join(base_dir, tr["csv_path"])  # an absolute csv_path stays as it is
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


def path_keys(path: str) -> list[str]:
    """The keys of a dotted config path, as `set_path` reads them."""
    return [k for k in path.strip().split(".") if k]


def set_path(data: dict, path: str, value, what: str) -> None:
    """Set the dotted `path` of data to value, creating missing objects; errors name `what`."""
    keys = path_keys(path)
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

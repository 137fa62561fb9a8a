"""The shipped numbers, held from one commit to the next.

`tests/golden/` holds, per config, what the CLI gives: the exit code of
each command, every summary, verify report, exported preset and sweep row
in full, and about 33 evenly spaced rows of every other CSV, the first and
last included. The configs are the README demo with both starts, its
`"sigmas": [-0.5]` variant, the coarse demo (step 0.2, `verify` exit 4),
its 3-point Omega sweep, the tabulated adaptive config (table generated
here, as CI generates it) and both C60 presets.

The test regenerates the outputs and compares values, not bytes: numpy's
and libm's sin/cos may differ in the last bit on other machines. A float
must agree to 1e-12 of its column's scale, the largest magnitude in the
golden column (a JSON value is its own column). Discrepancy diagnostics
sit at the rounding floor, where one last-bit change moves them by far
more than 1e-12 of themselves, so they are held to the scale of what they
compare: at least 1 for an overlap phase, a fidelity or a unitarity
defect, at least omega0 for an LvN residual or an error rate. Integers,
flags, verdicts, strings and exit codes must match exactly.

A golden file changes only with a change stated in CHANGES.md. To rewrite
them: `PYTHONPATH=src python tests/test_golden.py`.
"""

import copy
import csv
import json
import os
import pathlib
import sys
import warnings

import numpy as np
import pytest

from spinrot.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
_SAMPLED_ROWS = 33
_REL = 1e-12
_UNIT_SCALE = {"fidelity", "overlap_phase", "min_fidelity", "max_overlap_phase_rad",
               "phase_mismatch_at_half_step_rad", "unitarity_defect"}
_RATE_SCALE = {"lvn_residual", "lvn_max_residual", "lvn_max_residual_fd", "max_error_rate"}

_DEMO = {
    "schema_version": 1,
    "trajectory": {"kind": "constant_precession", "omega0": 1.0,
                   "Omega": 0.5, "theta": 1.0471975511965976, "phi0": 0.0},
    "initial_conditions": "precession-consistent",
    "sigmas": [0.5, -0.5],
    "integrator": {"step": 0.01, "periods": 10.0},
    "oracle": {"enabled": True, "step": 0.0025, "method": "exponential_product"},
    "output": {"directory": "out", "prefix": "demo"},
}
_TABULATED = {
    "schema_version": 1,
    "trajectory": {"kind": "tabulated", "omega0": 1.0, "csv_path": "traj.csv"},
    "initial_conditions": "aligned",
    "sigmas": [0.5, -0.5],
    "integrator": {"step": 0.01, "t_end": 20.0, "adaptive": True},
    "oracle": {"enabled": True, "step": 0.01, "method": "exponential_product"},
    "output": {"directory": "out_tabulated", "prefix": "tab"},
}


def _demo(**over):
    cfg = copy.deepcopy(_DEMO)
    cfg.update(over)
    return cfg


# name -> base config (None: the preset of that name), and the sweep spec for a sweep
CASES = {
    "demo": (_demo(), None),
    "demo_aligned": (_demo(initial_conditions="aligned"), None),
    "demo_down": (_demo(sigmas=[-0.5]), None),
    "demo_coarse": (_demo(integrator={"step": 0.2, "periods": 10.0},
                          oracle={"enabled": True, "step": 0.2,
                                  "method": "exponential_product"}), None),
    "demo_sweep": (_demo(), {"sweep": [{"path": "trajectory.Omega",
                                        "values": [0.25, 0.5, 1.0]}]}),
    "tabulated": (_TABULATED, None),
    "disordered": (None, None),
    "ordered": (None, None),
}


def _write_table(path):
    """The tabulated drive's table, as the CI workflow writes it."""
    t = np.linspace(0.0, 20.0, 2000)
    theta = 0.9 + 0.18 * np.sin(0.17 * t + 1.0)
    phi = 0.32 * t + 0.22 * np.sin(0.18 * t + 2.0)
    np.savetxt(path, np.column_stack([t, theta, phi]), fmt="%.17g",
               delimiter=",", header="t,theta,phi", comments="")


def run_case(name, work):
    """Run one case's commands in the directory `work`: (exit codes, output dir, omega0)."""
    base, sweep = CASES[name]
    work.mkdir()
    out = work / "out"
    codes = {}
    if base is None:  # the exported preset is an artifact too
        out.mkdir()
        config = out / "config.json"
        codes["scenario"] = main(["scenario", name, "--out", str(config)])
    else:
        config = work / "config.json"
        config.write_text(json.dumps(base))
        if name == "tabulated":
            _write_table(work / "traj.csv")
    common = ["--config", str(config), "--output-dir", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the coarse demo's oracle warns; its flag is compared
        if sweep is not None:
            spec = work / "sweep.json"
            spec.write_text(json.dumps(sweep))
            codes["sweep"] = main(["sweep", *common, "--sweep", str(spec)])
        else:
            codes["simulate"] = main(["simulate", *common])
            codes["verify"] = main(["verify", *common])
    omega0 = json.loads(config.read_text())["trajectory"]["omega0"]
    return codes, out, omega0


def _sampled(n):
    return sorted({int(i) for i in np.linspace(0, n - 1, _SAMPLED_ROWS).round()}) if n else []


def snapshot(out, codes, sweep):
    """The golden record of one case's output directory."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            files[path.name] = json.loads(path.read_text())
            continue
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        header, *rows = lines[len(comments):]
        keep = range(len(rows)) if sweep else _sampled(len(rows))
        files[path.name] = {"comments": comments, "header": header, "n_rows": len(rows),
                            "rows": {str(i): rows[i] for i in keep}}
    return {"exit_codes": codes, "files": files}


def _floor(key, omega0):
    return 1.0 if key in _UNIT_SCALE else omega0 if key in _RATE_SCALE else 0.0


def _cells(line):
    return next(csv.reader([line]))


def _as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_json(got, want, where, key, omega0, errors):
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            errors.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for k in want:
            _compare_json(got[k], want[k], f"{where}.{k}", k, omega0, errors)
    elif isinstance(want, float) and type(got) is float:
        tol = _REL * max(abs(want), _floor(key, omega0))
        if not abs(got - want) <= tol:
            errors.append(f"{where}: {got!r} != {want!r} (tolerance {tol:.3g})")
    elif type(got) is not type(want) or got != want:
        errors.append(f"{where}: {got!r} != {want!r}")


def _compare_csv(got, want, where, omega0, errors):
    for part in ("comments", "header", "n_rows"):
        if got[part] != want[part]:
            errors.append(f"{where} {part}: {got[part]!r} != {want[part]!r}")
            return
    header = _cells(want["header"])
    want_rows = {i: _cells(line) for i, line in want["rows"].items()}
    scale = [max([_floor(h, omega0), *(abs(_as_float(r[j]) or 0.0) for r in want_rows.values())])
             for j, h in enumerate(header)]
    for i, cells in want_rows.items():
        row = _cells(got["rows"][i])
        if len(row) != len(cells):
            errors.append(f"{where} row {i}: {len(row)} cells, expected {len(cells)}")
            continue
        for h, s, g, w in zip(header, scale, row, cells):
            wf, gf = _as_float(w), _as_float(g)
            if wf is None or gf is None:
                if g != w:
                    errors.append(f"{where} row {i} {h}: {g!r} != {w!r}")
            elif not abs(gf - wf) <= _REL * s:
                errors.append(f"{where} row {i} {h}: {g} != {w} (tolerance {_REL * s:.3g})")


def compare(got, want, omega0):
    """Every difference between two golden records beyond the tolerances, as text."""
    errors = []
    if got["exit_codes"] != want["exit_codes"]:
        errors.append(f"exit codes {got['exit_codes']} != {want['exit_codes']}")
    if sorted(got["files"]) != sorted(want["files"]):
        return errors + [f"files {sorted(got['files'])} != {sorted(want['files'])}"]
    for name, rec in want["files"].items():
        if name.endswith(".json"):
            _compare_json(got["files"][name], rec, name, None, omega0, errors)
        else:
            _compare_csv(got["files"][name], rec, name, omega0, errors)
    return errors


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every case run once: name -> (codes, output dir, omega0).

    SPINROT_WORKERS is taken from the environment, 2 where it is unset, so
    the README demos (12,567 rows) run their oracle and write their CSV
    slices in forked children; CI runs the test with 1 as well.
    """
    root = tmp_path_factory.mktemp("golden")
    mp = pytest.MonkeyPatch()
    mp.setenv("SPINROT_WORKERS", os.environ.get("SPINROT_WORKERS", "2"))
    try:
        yield {name: run_case(name, root / name) for name in CASES}
    finally:
        mp.undo()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_numbers(outputs, name):
    codes, out, omega0 = outputs[name]
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = snapshot(out, codes, CASES[name][1] is not None)
    errors = compare(got, want, omega0)
    assert not errors, "\n".join(errors[:20])


def test_spin_down_alone_matches_the_two_sigma_run(outputs):
    # the oracle run and states of sigma = -1/2 do not depend on sigma = +1/2 being asked
    body = {name: (outputs[name][1] / "demo_verify_down.csv").read_text().splitlines()[1:]
            for name in ("demo", "demo_down")}
    assert body["demo"] == body["demo_down"]


def test_compare_flags_a_change_beyond_the_tolerance():
    want = {"exit_codes": {"verify": 0}, "files": {
        "r.json": {"pass": True, "phi": 2.0, "unitarity_defect": 1e-13},
        "s.csv": {"comments": [], "header": "t,overlap_phase", "n_rows": 2,
                  "rows": {"0": "0,1e-13", "1": "4,-1e-13"}}}}
    same = copy.deepcopy(want)
    same["files"]["r.json"].update(phi=2.0 + 1e-12, unitarity_defect=5e-13)
    same["files"]["s.csv"]["rows"]["1"] = "4.000000000003,5e-13"
    assert compare(same, want, 1.0) == []
    for edit in (lambda g: g["exit_codes"].update(verify=4),
                 lambda g: g["files"]["r.json"].update(**{"pass": False}),
                 lambda g: g["files"]["r.json"].update(phi=2.0 + 3e-12),
                 lambda g: g["files"]["r.json"].update(unitarity_defect=2e-12),
                 lambda g: g["files"]["s.csv"]["rows"].update({"1": "4.00000000001,0"}),
                 lambda g: g["files"]["s.csv"].update(n_rows=3)):
        changed = copy.deepcopy(want)
        edit(changed)
        assert compare(changed, want, 1.0)


if __name__ == "__main__":
    import tempfile
    os.environ["SPINROT_WORKERS"] = "1"
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            case_codes, case_out, _ = run_case(case, pathlib.Path(tmp) / case)
            record = snapshot(case_out, case_codes, CASES[case][1] is not None)
            (GOLDEN / f"{case}.json").write_text(json.dumps(record, indent=1) + "\n")
            print(case, case_codes, file=sys.stderr)

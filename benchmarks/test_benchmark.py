"""Tests of the benchmark itself: seeded inputs, printed metric names, output checks."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_workloads as bw  # noqa: E402
import run  # noqa: E402


def _files(directory: str) -> dict[str, bytes]:
    return {name: Path(directory, name).read_bytes() for name in sorted(os.listdir(directory))
            if Path(directory, name).is_file()}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = bw.write_inputs(workload, 7, str(tmp_path / "a"))
    b = bw.write_inputs(workload, 7, str(tmp_path / "b"))
    c = bw.write_inputs(workload, 8, str(tmp_path / "c"))
    files_a = _files(str(tmp_path / "a"))
    assert files_a and files_a == _files(str(tmp_path / "b"))
    if workload == "line_scan":
        assert np.array_equal(a["frequencies"], b["frequencies"])
        assert a["expected_peak"] == b["expected_peak"]
    if workload == "cone_demo":  # the README demo, verbatim: the seed does not enter
        assert files_a == _files(str(tmp_path / "c"))
        assert json.loads(files_a["config.json"]) == bw.DEMO_CONFIG
    else:
        assert files_a != _files(str(tmp_path / "c"))


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "line_scan", "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "line_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- output checks reject corrupted outputs -----------------------------------

def _run(command, inputs):
    return bw.check_command(command, inputs, bw.command_call(command, inputs)())


@pytest.fixture(scope="module")
def short_cone(tmp_path_factory):
    """The demo cone over one period (the analytic block does not depend on the span)."""
    inputs = bw.write_inputs("cone_demo", 0, str(tmp_path_factory.mktemp("cone")))
    config = json.loads(Path(inputs["config"]).read_text())
    config["integrator"]["periods"] = 1.0
    Path(inputs["config"]).write_text(json.dumps(config))
    return inputs


def test_cone_summary_check(short_cone):
    outcome = _run("simulate", short_cone)
    assert outcome.problems == [] and outcome.digest
    summary = json.loads(Path(short_cone["out"], "demo_summary.json").read_text())
    assert bw.check_cone_summary(summary) == []
    bad_rate = json.loads(json.dumps(summary))
    bad_rate["per_sigma"]["-0.5"]["phi_geo_rate"] *= 1.0 + 1e-8
    assert bw.check_cone_summary(bad_rate)
    bad_analytic = json.loads(json.dumps(summary))
    bad_analytic["analytic"]["phi_dyn_rate_up"] *= 1.0 + 1e-8
    assert bw.check_cone_summary(bad_analytic)


def test_verify_report_check(short_cone):
    outcome = _run("verify", short_cone)
    assert outcome.problems == [] and outcome.exit_code in (0, 4)
    report = json.loads(Path(short_cone["out"], "demo_verify_report.json").read_text())
    assert bw.check_verify_report(report, outcome.exit_code) == []
    assert bw.check_verify_report(report, 4 if outcome.exit_code == 0 else 0)
    broken = json.loads(json.dumps(report))
    broken["pass"] = False
    entry = broken["per_sigma"]["+0.5"]
    entry["pass"] = False
    entry.pop("phase_mismatch_at_half_step_rad", None)
    assert bw.check_verify_report(broken, 4)
    broken["per_sigma"]["-0.5"]["min_fidelity"] = 1.5
    assert len(bw.check_verify_report(broken, 4)) >= 2


def test_tabulated_summary_check():
    good = {"omega0": 1.0, "lvn_max_residual": 2e-16}
    assert bw.check_tabulated_summary(good, {}) == []
    assert bw.check_tabulated_summary({**good, "lvn_max_residual": 2e-9}, {})
    assert bw.check_tabulated_summary(good, {"error_rate_tol_exceeded": True})


def test_sweep_check(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINROT_WORKERS", "1")
    inputs = bw.write_inputs("omega_sweep", 5, str(tmp_path))
    outcome = _run("sweep", inputs)
    assert outcome.problems == []
    rows = bw.read_sweep_csv(str(tmp_path / "out" / "grid_sweep.csv"))
    assert sum(r["status"] == "ok" for r in rows) == 56
    wrong_status = [dict(r) for r in rows]
    wrong_status[0]["status"] = "ok"  # theta = 0 must be no-solution
    assert bw.check_sweep_rows(wrong_status)
    wrong_phase = [dict(r) for r in rows]
    wrong_phase[1]["phi_geo_T"] = repr(float(rows[1]["phi_geo_T"]) * (1.0 + 1e-8))
    assert bw.check_sweep_rows(wrong_phase)
    assert bw.check_sweep_rows(rows[:-1])


def test_scan_check(tmp_path):
    inputs = bw.write_inputs("line_scan", 2, str(tmp_path))
    outcome = _run("scan", inputs)
    assert outcome.problems == [] and outcome.digest
    freqs = inputs["frequencies"]
    spacing = freqs[1] - freqs[0]
    assert bw.check_scan_peak(inputs["expected_peak"] + 2.0 * spacing, inputs["expected_peak"], freqs)


def test_changed_artifacts_between_repetitions_fail(tmp_path):
    runner = run.Runner(bw.write_inputs("line_scan", 1, str(tmp_path)))
    runner._record(bw.Outcome("scan", exit_code=0, digest="a"))
    runner._record(bw.Outcome("scan", exit_code=0, digest="a"))
    assert runner.failed == 0
    runner._record(bw.Outcome("scan", exit_code=0, digest="b"))
    assert runner.failed == 1

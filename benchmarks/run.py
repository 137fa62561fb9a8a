"""spinrot benchmark: run one workload for a fixed time and print its metrics.

    python3 benchmarks/run.py --workload cone_demo --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (untraced); with --trace 1 they are the per-layer ones
from a traced run. The lines before it give per-command medians with tail
percentiles and sample counts, verify_fail_share and the environment; the
same record, with the trace spans, is written under benchmarks/_out/.
See benchmarks/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy
import scipy

import bench_trace
import bench_workloads as bw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "op_p75_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "simulate_s": "s", "verify_s": "s", "sweep_s": "s", "scan_s": "s",
    "verify_fail_share": "ratio",
    "trajectory.calls": "count", "trajectory.points": "count", "trajectory.self_s": "s",
    "invariant.integrate_self_s": "s", "invariant.steps": "count",
    "invariant.halvings": "count", "invariant.residual_s": "s",
    "phases.accumulate_s": "s", "phases.lr_states_s": "s",
    "oracle.propagate_s": "s", "oracle.steps": "count", "oracle.fidelity_s": "s",
    "spin_algebra.propagators_s": "s", "accuracy.phase_mismatch_rad": "rad",
    "io_utils.write_s": "s", "io_utils.bytes": "B", "io_utils.rows": "count",
    "config.resolve_s": "s", "config.resolve_calls": "count",
    "cli.sweep_points": "count", "cli.sweep_ok_ratio": "ratio", "cli.sweep_workers": "count",
    "spectroscopy.scan_s": "s", "spectroscopy.scan_elements": "count",
    "spectroscopy.scan_bytes_computed": "B",
    "trace.overhead_s": "s", "src_lines": "count",
}

SETUP_REPS = 5
MIN_OPS = 3

# A fresh interpreter pays this on every CLI call: import the package,
# validate and resolve the config (a tabulated run loads its CSV here).
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import spinrot
from spinrot.config import load_json_config, resolve_run_config
cfg = resolve_run_config(load_json_config(sys.argv[2]), sys.argv[3])
print(cfg.trajectory.kind, cfg.sha256)
"""

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would not exceed the median, so the
    maximum (p100) is given instead; `n` says how much it rests on.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        pct = math.floor(100.0 * (1.0 - 10.0 / n))
        value = xs[max(0, math.ceil(pct / 100.0 * n) - 1)]
    else:
        pct, value = 100, xs[-1]
    return {"median": statistics.median(xs), "tail_pct": pct, "tail": value, "n": n,
            "values": list(values)}


def p75(values: list[float]) -> float:
    """Upper quartile, interpolated between order statistics.

    Per-operation times on a shared host are bimodal: a neighbour that
    contends for the core slows an operation by 1.3x to 1.6x, in stretches
    of seconds. How much of a run is contended changes from run to run,
    and the median jumps between the two modes with it; the upper quartile
    stays in the contended mode (see README.md for the measured spreads).
    """
    return statistics.quantiles(values, n=4, method="inclusive")[-1] if len(values) > 1 else values[0]


def src_lines() -> int:
    """Non-blank, non-comment lines of src/spinrot/*.py."""
    count = 0
    for path in sorted((SRC / "spinrot").glob("*.py")):
        for line in path.read_text().splitlines():
            s = line.strip()
            count += bool(s) and not s.startswith("#")
    return count


def git_commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "spinrot").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "SPINROT_WORKERS": os.environ.get("SPINROT_WORKERS"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


class Runner:
    """Runs and checks the operations of one workload, keeping times and failures."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.commands = bw.COMMANDS[inputs["workload"]]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.command_times = defaultdict(list)
        self.verify_runs = 0
        self.verify_fails = 0
        self.phase_mismatch = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def operation(self, tracer=None, capture_meta=False, timed=True) -> float:
        """Run the workload's commands once; return their summed wall time."""
        total = 0.0
        for command in self.commands:
            call = bw.command_call(command, self.inputs)
            gc.collect()  # start each command from the same heap state; not timed
            metas: list[dict] = []
            restore = self._capture_meta(metas) if capture_meta and command == "simulate" else None
            self.attempted += 1
            span = tracer.span(f"bench.{command}") if tracer else contextlib.nullcontext()
            try:
                t0 = time.perf_counter()
                with span:
                    result = call()
                elapsed = time.perf_counter() - t0
            except Exception:  # an operation that raises is counted and the run goes on
                self.fail(f"{command}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                if restore:
                    restore()
            total += elapsed
            meta = {k: v for m in metas for k, v in m.items()} if restore else None
            outcome = bw.check_command(command, self.inputs, result, meta)
            if timed:
                self.command_times[command].append(elapsed)
            self._record(outcome)
        return total

    def _capture_meta(self, metas: list):
        from spinrot import cli
        original = cli.integrate_auxiliary

        def capturing(*args, **kwargs):
            sol = original(*args, **kwargs)
            metas.append(dict(sol.meta))
            return sol

        cli.integrate_auxiliary = capturing

        def restore():
            cli.integrate_auxiliary = original
        return restore

    def _record(self, oc) -> None:
        if oc.command == "verify" and oc.exit_code in (0, 4):
            self.verify_runs += 1
            self.verify_fails += oc.verify_failed
            self.phase_mismatch = max(self.phase_mismatch, oc.phase_mismatch_rad)
        first = self.digests.setdefault(oc.command, oc.digest)
        if oc.digest != first:
            oc.problems.append(f"{oc.command}: artifacts differ from the first repetition")
        if oc.problems:
            self.fail("; ".join(oc.problems))

    def setup_times(self, reps: int) -> list[float]:
        """Wall time of fresh interpreters importing spinrot and resolving the config."""
        from spinrot.config import load_json_config, resolve_run_config
        cfg_path = self.inputs["config"]
        base = os.path.dirname(cfg_path)
        cfg = resolve_run_config(load_json_config(cfg_path), base)
        expected = f"{cfg.trajectory.kind} {cfg.sha256}"
        times = []
        for _ in range(reps):
            self.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), cfg_path, base],
                                  capture_output=True, text=True, timeout=120)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0 or proc.stdout.strip() != expected:
                self.fail(f"setup: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            times.append(elapsed)
        return times

    def verify_fail_share(self) -> float:
        return self.verify_fails / self.verify_runs if self.verify_runs else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children (the sweep pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(runner: Runner, seconds: float) -> dict:
    """--trace 0: untraced operations for `seconds`, then the fresh-process set-up."""
    runner.operation(capture_meta=True, timed=False)  # warm-up: lazy imports, caches
    op_times = []
    t_start = time.perf_counter()
    while len(op_times) < MIN_OPS or time.perf_counter() - t_start < seconds:
        op_times.append(runner.operation())
    rss = peak_rss_mb()  # before the set-up interpreters become children too
    setup = runner.setup_times(SETUP_REPS)
    if not setup:
        raise RuntimeError("no fresh-process set-up succeeded: " + runner.problems[-1])
    summary = {"op_s": tail(op_times)}
    for command, times in runner.command_times.items():
        summary[f"{command}_s"] = tail(times)
    summary["setup_s"] = tail(setup)
    metrics = {"setup_s": summary["setup_s"]["median"], "op_p75_s": p75(op_times),
               "peak_rss_mb": rss}
    return {"metrics": metrics, "summary": summary}


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """--trace 1: untraced and traced operations alternate for `seconds`."""
    runner.operation(capture_meta=True, timed=False)
    tracer = bench_trace.Tracer()
    plain, traced = [], []
    t_start = time.perf_counter()
    while len(traced) < MIN_OPS or time.perf_counter() - t_start < seconds:
        plain.append(runner.operation())
        bench_trace.instrument(tracer)
        try:
            with tracer.operation(f"op.{runner.inputs['workload']}"):
                traced.append(runner.operation(tracer=tracer, timed=False))
        finally:
            tracer.restore()
    per_op = tracer.op_metrics()
    tracer.save(str(spans_path))
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    for command in ("simulate", "verify", "sweep", "scan"):
        times = runner.command_times.get(command)
        metrics[f"{command}_s"] = statistics.median(times) if times else 0.0
    metrics["verify_fail_share"] = runner.verify_fail_share()
    metrics["accuracy.phase_mismatch_rad"] = runner.phase_mismatch
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["src_lines"] = float(src_lines())
    summary = {"op_s": tail(plain), "traced_op_s": tail(traced), "spans": len(tracer.end),
               "spans_file": str(spans_path.relative_to(ROOT))}
    return {"metrics": {k: metrics[k] for k in PER_LAYER}, "summary": summary}


def report_lines(record: dict) -> list[str]:
    lines = [f"# spinrot benchmark {record['env']['workload']} seed={record['env']['seed']} "
             f"trace={record['env']['trace']}",
             "env " + json.dumps(record["env"], sort_keys=True)]
    for name, s in record["summary"].items():
        if isinstance(s, dict):
            lines.append(f"{name:<16} median {s['median']:.6g} s  {name}.tail p{s['tail_pct']} "
                         f"{s['tail']:.6g} s  (n={s['n']})")
    lines.append(f"failed_share      {record['failed']}/{record['attempted']}")
    lines.append(f"verify_fail_share {record['verify_fail_share']:.6g} "
                 f"({record['verify_fails']}/{record['verify_runs']} verify verdicts FAIL, exit 4)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spinrot" / "__init__.py").is_file():
        print(f"error: no spinrot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinrot
    if Path(spinrot.__file__).resolve().parent != SRC / "spinrot":
        print(f"error: imported spinrot from {spinrot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bw.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(bw.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.environ["SPINROT_WORKERS"] = str(len(os.sched_getaffinity(0)))

    out_dir = HERE / "_out"
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        runner = Runner(bw.write_inputs(args.workload, args.seed, str(work)))
        if args.trace:
            measured = measure_traced(runner, args.seconds, out_dir / f"spans-{tag}.npz")
            units = PER_LAYER
        else:
            measured = measure(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"env": environment(args), "summary": measured["summary"],
              "attempted": runner.attempted, "failed": runner.failed,
              "verify_fail_share": runner.verify_fail_share(), "verify_runs": runner.verify_runs,
              "verify_fails": runner.verify_fails, "problems": runner.problems[:20],
              "metrics": measured["metrics"]}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for problem in runner.problems[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("\n".join(report_lines(record)))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": measured["metrics"][name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

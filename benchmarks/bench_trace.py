"""In-memory span tracer for the benchmark's traced run.

The tracer wraps spinrot's public functions at the names their callers
look up (for example `spinrot.cli.integrate_auxiliary`, which `cli`
imported by name, and `OmegaTrajectory.angles_scalar` on the class). The
program itself is not changed. A span is (name, start, end, parent) and
lives in flat arrays until the run ends; each benchmark operation is one
root span, so the spans of an operation are the contiguous range from its
root to the next root.

Sweep points run in a forked process pool. The wrapper of
`cli._sweep_point` records the point's spans in the worker and returns
them inside the row dict; the wrapper of `cli.run_sweep` takes them out
of the rows again and files them under its own span. perf_counter is
CLOCK_MONOTONIC on Linux, so worker and parent times share one clock.

Self time is a span's duration minus the part of it covered by the union
of its child spans (children from two workers overlap).
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

TRACE_KEY = "__bench_trace__"

# metric -> (span names, self time?)  Inclusive time unless marked self.
SPAN_METRICS = {
    "trajectory.self_s": (("trajectory.angles_scalar", "trajectory.angles"), True),
    "invariant.integrate_self_s": (("invariant.integrate_auxiliary",), True),
    "invariant.residual_s": (("invariant.lvn_residual_samples", "invariant.lvn_residual_series"), False),
    "phases.accumulate_s": (("phases.accumulate_phases",), False),
    "phases.lr_states_s": (("phases.lr_states",), False),
    "oracle.propagate_s": (("oracle.propagate",), False),
    "oracle.fidelity_s": (("oracle.fidelity",), False),
    "spin_algebra.propagators_s": (("spin_algebra.spin_rotation_propagators",), False),
    "io_utils.write_s": (("io_utils.write_csv", "io_utils.write_json"), False),
    "config.resolve_s": (("config.resolve_run_config",), False),
    "spectroscopy.scan_s": (("spectroscopy.resonance_scan", "spectroscopy.peak_frequency"), False),
}

COUNT_METRICS = ("trajectory.calls", "trajectory.points", "invariant.steps", "invariant.halvings",
                 "oracle.steps", "io_utils.bytes", "io_utils.rows", "config.resolve_calls",
                 "cli.sweep_points", "cli.sweep_workers", "spectroscopy.scan_elements",
                 "spectroscopy.scan_bytes_computed")

# resonance_scan materializes np.outer (8 B), np.cos (8 B) and the complex
# product (16 B) per (frequency, sample) element.
SCAN_BYTES_PER_ELEMENT = 32


class Tracer:
    """Spans and per-operation counters of one traced run."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op_roots: list[int] = []
        self.op_counts: list[dict] = []
        self._patches: list[tuple] = []
        self._reset()

    def _reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = defaultdict(float)

    def name(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def begin(self, nid: int) -> int:
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, label: str):
        idx = self.begin(self.name(label))
        try:
            yield idx
        finally:
            self.finish(idx)

    @contextlib.contextmanager
    def operation(self, label: str):
        """One benchmark operation: a root span with fresh counters."""
        self.counts = defaultdict(float)
        self.op_roots.append(len(self.end))
        try:
            with self.span(label):
                yield
        finally:
            self.op_counts.append(dict(self.counts))

    # -- wrapping -------------------------------------------------------------

    def _set(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr, label, after=None, before=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        before(args) may return replacement positional args; after(result,
        args, span_index) runs once the span is closed.
        """
        fn = getattr(owner, attr)
        nid = self.name(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after is not None:
                after(result, args, idx)
            return result

        self._set(owner, attr, traced)

    def count_calls(self, owner, attr, key) -> None:
        """Replace owner.attr by a wrapper that only counts calls (no span)."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        self._set(owner, attr, counted)

    def wrap_pool_task(self, owner, attr, label) -> None:
        """Trace a function a process pool runs; a worker ships its spans in the result dict.

        The wrapper keeps the function's module and qualified name, so the
        pool pickles it by reference and a forked worker resolves it to
        the wrapper.
        """
        fn = getattr(owner, attr)
        nid = self.name(label)
        tracer = self

        @functools.wraps(fn)
        def traced(payload):
            in_worker = os.getpid() != tracer.pid
            if in_worker:
                tracer._reset()
            idx = tracer.begin(nid)
            try:
                row = fn(payload)
            finally:
                tracer.finish(idx)
            if in_worker:
                row[TRACE_KEY] = (tracer.name_id, tracer.parent, tracer.start, tracer.end,
                                  dict(tracer.counts))
            return row

        self._set(owner, attr, traced)

    def adopt(self, shipped, parent_idx: int) -> None:
        """File spans shipped from a worker under the span parent_idx."""
        name_id, parent, start, end, counts = shipped
        base = len(self.end)
        self.name_id.extend(name_id)
        self.parent.extend(parent_idx if p < 0 else base + p for p in parent)
        self.start.extend(start)
        self.end.extend(end)
        for key, value in counts.items():
            self.counts[key] += value

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start, end, parent = self.start.tolist(), self.end.tolist(), self.parent.tolist()
        covered = [0.0] * len(end)
        order = sorted((p, start[i], i) for i, p in enumerate(parent) if p >= 0)
        cur, lo, hi = -1, 0.0, 0.0
        for p, _, i in order:
            s, e = max(start[i], start[p]), min(end[i], end[p])
            if p != cur or s > hi:
                if cur >= 0:
                    covered[cur] += hi - lo
                cur, lo, hi = p, s, e
            else:
                hi = max(hi, e)
        if cur >= 0:
            covered[cur] += hi - lo
        return np.asarray(end) - np.asarray(start) - np.asarray(covered)

    def op_metrics(self) -> list[dict]:
        """Per-operation span metrics and counters, one dict per traced operation."""
        start, end = np.asarray(self.start), np.asarray(self.end)
        inclusive = end - start
        own = self.self_times()
        names = np.asarray(self.name_id)
        bounds = self.op_roots + [len(end)]
        out = []
        for k, counts in enumerate(self.op_counts):
            sl = slice(bounds[k], bounds[k + 1])
            m = {key: float(counts.get(key, 0.0)) for key in COUNT_METRICS}
            points = m["cli.sweep_points"]
            m["cli.sweep_ok_ratio"] = counts.get("cli.sweep_ok", 0.0) / points if points else 0.0
            for metric, (labels, use_self) in SPAN_METRICS.items():
                ids = [self._ids[lb] for lb in labels if lb in self._ids]
                sel = np.isin(names[sl], ids)
                m[metric] = float((own if use_self else inclusive)[sl][sel].sum())
            out.append(m)
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), name_id=np.asarray(self.name_id),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end), op_roots=np.asarray(self.op_roots, dtype=int))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public entry points at the names their callers use.

    io_utils is wrapped in the modules that imported write_csv/write_json.
    """
    from spinrot import cli, config, invariant, oracle, phases, spectroscopy, trajectory

    def counts():  # counters are replaced per operation, so look them up per call
        return tracer.counts

    def on_angles_scalar(result, args, idx):
        counts()["trajectory.calls"] += 1
        counts()["trajectory.points"] += 1

    def on_angles(result, args, idx):
        if np.ndim(args[1]):  # a scalar call is counted by the angles_scalar it makes
            counts()["trajectory.calls"] += 1
            counts()["trajectory.points"] += np.size(args[1])

    def add(key, amount):
        def hook(result, args, idx):
            counts()[key] += amount(result, args)
        return hook

    def count_rows(args):
        def rows(it):
            c = counts()
            for row in it:
                c["io_utils.rows"] += 1
                yield row
        return args[:2] + (rows(args[2]),) + args[3:]

    def on_workers(result, args, idx):
        counts()["cli.sweep_workers"] = max(counts()["cli.sweep_workers"], result)

    def on_sweep(rows, args, idx):
        for row in rows:
            shipped = row.pop(TRACE_KEY, None)
            if shipped is not None:
                tracer.adopt(shipped, idx)
        counts()["cli.sweep_points"] += len(rows)
        counts()["cli.sweep_ok"] += sum(row["status"] == "ok" for row in rows)

    def on_scan(result, args, idx):
        elements = np.size(args[5]) * args[3].n_samples
        counts()["spectroscopy.scan_elements"] += elements
        counts()["spectroscopy.scan_bytes_computed"] += SCAN_BYTES_PER_ELEMENT * elements

    file_bytes = add("io_utils.bytes", lambda r, a: os.path.getsize(a[0]))
    traj = trajectory.OmegaTrajectory
    tracer.wrap(traj, "angles_scalar", "trajectory.angles_scalar", after=on_angles_scalar)
    tracer.wrap(traj, "angles", "trajectory.angles", after=on_angles)
    for owner in (cli, config):
        tracer.wrap(owner, "resolve_run_config", "config.resolve_run_config",
                    after=add("config.resolve_calls", lambda r, a: 1))
    for owner in (cli, invariant):
        tracer.wrap(owner, "integrate_auxiliary", "invariant.integrate_auxiliary",
                    after=add("invariant.halvings", lambda r, a: r.n_halvings))
        tracer.wrap(owner, "lvn_residual_samples", "invariant.lvn_residual_samples")
    tracer.wrap(cli, "lvn_residual_series", "invariant.lvn_residual_series")
    tracer.count_calls(invariant, "_rk4_step", "invariant.steps")
    for owner in (cli, phases):
        tracer.wrap(owner, "accumulate_phases", "phases.accumulate_phases")
    tracer.wrap(cli, "lr_states", "phases.lr_states")
    tracer.wrap(cli, "propagate", "oracle.propagate",
                after=add("oracle.steps", lambda r, a: r.t.size - 1))
    tracer.wrap(cli, "fidelity", "oracle.fidelity")
    tracer.wrap(oracle, "spin_rotation_propagators", "spin_algebra.spin_rotation_propagators")
    for owner in (cli, invariant, oracle):
        tracer.wrap(owner, "write_csv", "io_utils.write_csv", before=count_rows, after=file_bytes)
    tracer.wrap(cli, "write_json", "io_utils.write_json", after=file_bytes)
    tracer.wrap(cli, "_worker_count", "cli.worker_count", after=on_workers)
    tracer.wrap_pool_task(cli, "_sweep_point", "cli.sweep_point")
    tracer.wrap(cli, "run_sweep", "cli.run_sweep", after=on_sweep)
    tracer.wrap(spectroscopy, "resonance_scan", "spectroscopy.resonance_scan", after=on_scan)
    tracer.wrap(spectroscopy, "peak_frequency", "spectroscopy.peak_frequency")

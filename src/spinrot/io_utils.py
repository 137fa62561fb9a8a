"""Deterministic CSV/JSON emission shared by the library and the CLI.

Floats are written with 17 significant digits ("%.17g") so files round-trip
exactly and are bit-identical across repeated runs.

Series (`write_csv`) are passed by column, and one call writes a
command's sibling files in one pass, 128 rows at a time. In each block
every distinct column is formatted once: a column that is the same array
as an earlier one, equals it or negates it takes that column's text, a
negation by flipping the leading "-". So the shared time grid and the
spin-down columns, which copy or negate spin-up ones (Theta = -i sigma_y
K), cost no formatting of their own. No whole-series text is held. The
sweep's rows of mixed cells (`write_rows`) go through csv.writer and
`format_value`. Both give the bytes csv.writer gives for the same cells.

With `workers` > 1 a pass of enough rows (`fork_parts`) is split at block
boundaries into contiguous slices, one per process. The text plan (which
column takes whose text, and where a zero's sign must be mended) is made
once, before any fork. The parent formats slice 0 into the files, and
each later slice is formatted by a forked child (`forked`) into unnamed
temporary files, which the parent then appends in order. So every file
holds the bytes of the one-process pass, and a failed child leaves no
file of its own behind.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import json
import os
import pickle
import shutil
import tempfile
import warnings

import numpy as np

# rows formatted and written per block; 256 and 512 raised the README demo's peak RSS
_BLOCK = 128
# a forked child's least share of output rows. A fork, the child's exit and the copy
# back cost several ms: split between two processes, a 14-column verify pass of 2,048
# rows took 18 ms against 22 ms in one, of 4,096 rows 29 against 41 ms and of 8,192
# rows 49 against 77 ms (2-CPU host); below this the gain drowns in host noise
_MIN_FORK_ROWS = 4096


def fork_parts(rows: int, workers: int) -> int:
    """Processes to share `rows` output rows: at most `workers`, each with at least
    _MIN_FORK_ROWS rows; 1, no fork, where os.fork is missing."""
    return max(1, min(workers, rows // _MIN_FORK_ROWS)) if hasattr(os, "fork") else 1


@contextlib.contextmanager
def forked(task):
    """Run task() in a forked child; yield a callable that returns its result.

    The callable raises what task() raised, and re-issues the warnings it
    issued. The child is reaped on leaving the block, killed first if its
    result was not taken.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child: ship (ok, value, warnings) pickled, never return
        status = 1
        try:
            os.close(r)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = (True, task())
                except BaseException as exc:
                    out = (False, exc)
            with open(w, "wb") as fh:
                pickle.dump(out + ([(m.message, m.category, m.filename, m.lineno)
                                    for m in caught],), fh, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    taken = False

    def result():
        # a whole pickle is the child's outcome: its exit is awaited on leaving the block
        nonlocal taken
        with open(r, "rb", closefd=False) as fh:
            data = fh.read()
        taken = True
        try:
            ok, value, caught = pickle.loads(data)
        except Exception as exc:
            raise ChildProcessError(f"forked child {pid} ended without its result") from exc
        for args in caught:
            warnings.warn_explicit(*args)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        os.close(r)
        if not taken:
            import signal  # not loaded by `import spinrot`
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def _write_head(fh, header: list[str], comments: list[str] | None):
    for line in comments or []:
        fh.write(f"# {line}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    return writer


def _text_sources(columns: list[np.ndarray]) -> list[tuple[int, bool, list, list]]:
    """Per column (source, negated, rows, zeros): the column whose block text it takes.

    A column that is the same array as an earlier distinct one, equals it
    or negates it takes that column's text, flipped if negated; NaN equals
    nothing, so a column holding one is its own source. rows are where the
    taken text gets the sign of a zero wrong, and zeros the right text.
    """
    plan: list[tuple[int, bool, list, list]] = []
    for j, c in enumerate(columns):
        for i, e in enumerate(columns[:j]):
            # a distinct column is a source; one whose first row differs is no match
            if plan[i][0] != i or c.size and c[0] != e[0] and c[0] != -e[0]:
                continue
            if c is e or np.array_equal(c, e):
                neg = False
            elif np.array_equal(c, -e):
                neg = True
            else:
                continue
            rows = np.flatnonzero((c == 0.0) & (np.signbit(c) != (np.signbit(e) ^ neg)))
            plan.append((i, neg, rows.tolist(), ["-0" if np.signbit(c[r]) else "0" for r in rows]))
            break
        else:
            plan.append((j, False, [], []))
    return plan


def _block_text(plan: list, cols: list[np.ndarray], spans: list[tuple[int, int]],
                i: int, k: int) -> list[str]:
    """The text of rows i to i + k of every file, one string per (first, count) column span."""
    text, cells = {}, []
    for j, (src, neg, rows, zeros) in enumerate(plan):
        if src == j:
            text[j] = "\n".join(["%.17g"] * k) % tuple(cols[j][i:i + k].tolist())
            c = text[j].split("\n")
        else:
            c = cells[src]
            if neg:  # every line gains a "-", and "--" drops both
                c = ("\n" + text[src]).replace("\n", "\n-").replace("\n--", "\n")[1:].split("\n")
            lo, hi = bisect.bisect_left(rows, i), bisect.bisect_left(rows, i + k)
            if lo < hi:
                c = list(c)
                for r, z in zip(rows[lo:hi], zeros[lo:hi]):
                    c[r - i] = z
        cells.append(c)
    return ["\r\n".join(map(",".join, zip(*cells[a:a + m]))) + "\r\n" for a, m in spans]


def write_csv(path, header: list[str], columns, comments: list[str] | None = None, *,
              siblings=(), workers: int = 1) -> None:
    """Write comment lines, the header and equal-length float columns as excel-dialect CSV.

    siblings are more (path, header, columns) files, written in the same
    pass with the same comments; every column of every file has one length,
    checked before any file opens. Each block of a file's rows joins its
    cells in row order, each distinct column's "%.17g" text formatted once
    per block. Float text holds no delimiter, quote or line break, so the
    bytes are those csv.writer gives. With workers > 1 the rows may be
    split into `fork_parts` slices, each later one formatted in a forked
    child (see the module docstring); the bytes are the same.
    """
    files = [(path, header, list(columns))] + [(p, h, list(c)) for p, h, c in siblings]
    cols = [np.asarray(c, dtype=float) for _, _, cs in files for c in cs]
    n = cols[0].size if cols else 0
    if any(c.shape != (n,) for c in cols) or n and not all(cs for _, _, cs in files):
        raise ValueError(f"columns differ in length: {[c.size for c in cols]}")
    plan = _text_sources(cols)
    spans, j = [], 0
    for _, _, cs in files:
        spans.append((j, len(cs)))
        j += len(cs)
    blocks = -(-n // _BLOCK)
    count = max(1, min(fork_parts(n, workers), blocks))
    bounds = [_BLOCK * (blocks * s // count) for s in range(count)] + [n]

    def write_rows_of(lo, hi, handles):
        for i in range(lo, hi, _BLOCK):
            for fh, text in zip(handles, _block_text(plan, cols, spans, i, min(_BLOCK, hi - i))):
                fh.write(text)

    with contextlib.ExitStack() as stack:
        children = []
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            parts = [stack.enter_context(tempfile.TemporaryFile("w+", newline=""))
                     for _ in files]

            def task(lo=lo, hi=hi, parts=parts):
                write_rows_of(lo, hi, parts)
                for part in parts:
                    part.flush()

            children.append((stack.enter_context(forked(task)), parts))
        # opened once the children run: truncating an earlier run's files takes milliseconds
        handles = [stack.enter_context(open(p, "w", newline="")) for p, _, _ in files]
        for fh, (_, h, _) in zip(handles, files):
            _write_head(fh, h, comments)
        write_rows_of(0, bounds[1], handles)
        for result, parts in children:
            result()
            for fh, part in zip(handles, parts):
                fh.flush()
                part.buffer.seek(0)
                shutil.copyfileobj(part.buffer, fh.buffer)


def write_rows(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write comment lines, the header and rows of mixed cells through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = _write_head(fh, header, comments)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def canonical_json(payload) -> str:
    """Key-sorted, whitespace-free JSON; the hashing preimage."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))

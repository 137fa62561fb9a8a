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
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import json

import numpy as np

# rows formatted and written per block; 256 and 512 raised the README demo's peak RSS
_BLOCK = 128


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


def write_csv(path, header: list[str], columns, comments: list[str] | None = None, *,
              siblings=()) -> None:
    """Write comment lines, the header and equal-length float columns as excel-dialect CSV.

    siblings are more (path, header, columns) files, written in the same
    pass with the same comments; every column of every file has one length,
    checked before any file opens. Each block of a file's rows is one
    template call over its cells in row order: "%.17g" for a column that no
    other column takes text from, "%s" for text formatted once per block.
    Float text holds no delimiter, quote or line break, so the bytes are
    those csv.writer gives.
    """
    files = [(path, header, list(columns))] + [(p, h, list(c)) for p, h, c in siblings]
    cols = [np.asarray(c, dtype=float) for _, _, cs in files for c in cs]
    n = cols[0].size if cols else 0
    if any(c.shape != (n,) for c in cols):
        raise ValueError(f"columns differ in length: {[c.size for c in cols]}")
    plan = _text_sources(cols)
    shared = {src for j, (src, *_) in enumerate(plan) if src != j}
    direct = [src == j and j not in shared for j, (src, *_) in enumerate(plan)]
    templates, j = [], 0
    for _, _, cs in files:
        cells = ["%.17g" if direct[i] else "%s" for i in range(j, j + len(cs))]
        templates.append((j, len(cs), ",".join(cells) + "\r\n"))
        j += len(cs)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(p, "w", newline="")) for p, _, _ in files]
        for fh, (_, h, _) in zip(handles, files):
            _write_head(fh, h, comments)
        for i in range(0, n, _BLOCK):
            k = min(_BLOCK, n - i)
            text, blocks = {}, []
            for j, (src, neg, rows, zeros) in enumerate(plan):
                if direct[j]:
                    cells = cols[j][i:i + k].tolist()
                elif src == j:
                    text[j] = "\n".join(["%.17g"] * k) % tuple(cols[j][i:i + k].tolist())
                    cells = text[j].split("\n")
                else:
                    cells = blocks[src]
                    if neg:  # every line gains a "-", and "--" drops both
                        cells = ("\n" + text[src]).replace("\n", "\n-").replace(
                            "\n--", "\n")[1:].split("\n")
                    lo, hi = bisect.bisect_left(rows, i), bisect.bisect_left(rows, i + k)
                    if lo < hi:
                        cells = list(cells)
                        for r, z in zip(rows[lo:hi], zeros[lo:hi]):
                            cells[r - i] = z
                blocks.append(cells)
            for fh, (first, m, row) in zip(handles, templates):
                flat = [None] * (k * m)
                for c in range(m):
                    flat[c::m] = blocks[first + c]
                fh.write(row * k % tuple(flat))


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

"""Deterministic CSV/JSON emission shared by the library and the CLI.

Floats are written with 17 significant digits ("%.17g") so files round-trip
exactly and are bit-identical across repeated runs.

Series (`write_csv`) are passed by column and written 512 rows at a time:
each block's cells are formatted by one template call and written at
once, so no whole-series float list is built. A time grid shared by
several files is formatted once (`format_floats`), the one text held for
a whole series, and passed to each file as its t column. The sweep's rows
of mixed cells (`write_rows`) go through csv.writer and `format_value`.
Both give the bytes csv.writer gives for the same cells.
"""

from __future__ import annotations

import csv
import json

import numpy as np

# rows formatted and written per block
_BLOCK = 512


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def format_floats(values) -> list[str]:
    """The "%.17g" text of each float of a 1-d array, one template call per block."""
    values = np.asarray(values, dtype=float)
    text: list[str] = []
    for i in range(0, values.size, _BLOCK):
        block = values[i:i + _BLOCK]
        text += ("\n".join(["%.17g"] * block.size) % tuple(block.tolist())).split("\n")
    return text


def _write_head(fh, header: list[str], comments: list[str] | None):
    for line in comments or []:
        fh.write(f"# {line}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    return writer


def write_csv(path, header: list[str], columns, comments: list[str] | None = None) -> None:
    """Write comment lines, the header and equal-length float columns as excel-dialect CSV.

    A column is a 1-d float array, or a `format_floats` list of one's text.
    Each block of rows is one template call over its cells in row order,
    "%.17g" for a float and "%s" for text. Float text holds no delimiter,
    quote or line break, so the bytes are those csv.writer gives.
    """
    columns = [c if isinstance(c, list) else np.asarray(c, dtype=float) for c in columns]
    m = len(columns)
    n = len(columns[0]) if m else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    row = ",".join(["%s" if isinstance(c, list) else "%.17g" for c in columns]) + "\r\n"
    with open(path, "w", newline="") as fh:
        _write_head(fh, header, comments)
        for i in range(0, n, _BLOCK):
            k = min(_BLOCK, n - i)
            cells = [None] * (k * m)
            for j, c in enumerate(columns):
                block = c[i:i + k]
                cells[j::m] = block if isinstance(block, list) else block.tolist()
            fh.write(row * k % tuple(cells))


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

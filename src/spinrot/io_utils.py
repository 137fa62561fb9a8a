"""Deterministic CSV/JSON emission shared by the library and the CLI.

Floats are written with 17 significant digits so files round-trip exactly
and are bit-identical across repeated runs.
"""

from __future__ import annotations

import csv
import json

_FLOAT_ONLY = {float}


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def write_csv(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write comment lines, the header and the rows as excel-dialect CSV.

    A row of exact Python floats is formatted by one "%.17g" template: no such
    float contains a delimiter, quote or line break, so the bytes are those
    csv.writer gives. Any other row goes through csv.writer and format_value.
    """
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        write = fh.write
        templates: dict[int, str] = {}
        for row in rows:
            row = tuple(row)
            if set(map(type, row)) == _FLOAT_ONLY:
                template = templates.get(len(row))
                if template is None:
                    template = templates[len(row)] = ",".join(["%.17g"] * len(row)) + "\r\n"
                write(template % row)
            else:
                writer.writerow([format_value(v) for v in row])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def canonical_json(payload) -> str:
    """Key-sorted, whitespace-free JSON; the hashing preimage."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))

"""Text formats: matrix CSV files and report tables.

Matrix CSV: first line is the dimension n, followed by n rows of n
comma-separated reals.

Report tables are plain CSV with a header row.  Floats are written with
``repr`` so equal runs produce identical bytes.  The column layouts of the
report tables belong to the commands that write them (:mod:`cli`).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = [
    "fmt",
    "read_matrix_csv",
    "write_csv",
    "write_matrix_csv",
]


def fmt(x) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def write_csv(path, header: list[str], rows) -> None:
    """Write the header line, then each row as it is drawn."""
    with Path(path).open("w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(fmt, row)) + "\n")


def write_matrix_csv(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=float)
    write_csv(path, [str(a.shape[0])], a)


def read_matrix_csv(path) -> np.ndarray:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the dimension") from None
    if len(lines) != n + 1:
        raise ValueError(f"{path}: expected {n} rows after the dimension line")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        vals = np.array(ln.split(","), dtype=float)  # float()'s parse, one call per row
        if vals.size != n:
            raise ValueError(f"{path}: line {i} has {vals.size} values, expected {n}")
        rows.append(vals)
    a = np.array(rows)
    if not np.isfinite(a).all():
        raise ValueError(f"{path}: matrix entries must be finite")
    return a


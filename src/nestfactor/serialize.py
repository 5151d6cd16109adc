"""Text formats: matrix CSV files, nest descriptors, and report tables.

Matrix CSV: first line is the dimension n, followed by n rows of n
comma-separated reals.

Nest descriptors are line-based ``key = value`` text with three kinds:

* ``standard``  -- stores ``n``; rebuilds the coordinate nest on [0, 1];
* ``channel``   -- stores ``blocks`` as comma-separated per-channel sizes,
  each block a standard nest;
* ``explicit``  -- stores the grid and every projection matrix in a CSV
  block headed ``[projection j] rank=r``.

Report tables are plain CSV with a header row.  Floats are written with
``repr`` so equal runs produce identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .linops import Projection
from .nests import Nest, channel_nest, explicit_nest, standard_nest
from .amplitude import DiagonalReport
from .factor import FactorizationReport
from .stability import ConvergenceReport

__all__ = [
    "DIAGONAL_HEADER",
    "FACTOR_HEADER",
    "STABILITY_HEADER",
    "convergence_rows",
    "diagonal_rows",
    "factorization_rows",
    "fmt",
    "load_nest",
    "read_matrix_csv",
    "save_nest",
    "write_csv",
    "write_matrix_csv",
]

DIAGONAL_HEADER = ["range", "cauchy_defect", "partial_norm", "intertwining_defect"]
FACTOR_HEADER = [
    "range",
    "residual",
    "admissibility_defect",
    "triangularity_defect",
    "cholesky_distance",
]
STABILITY_HEADER = [
    "alpha",
    "op_defect",
    "proj_defect",
    "max_pairing",
    "term1",
    "term2",
    "term3",
    "term4",
    "bound_margin",
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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def diagonal_rows(report: DiagonalReport) -> list[list[float]]:
    return [
        [r.range, r.cauchy_defect, r.norm, r.intertwining] for r in report.history
    ]


def factorization_rows(report: FactorizationReport) -> list[list[float]]:
    return [
        [r.range, r.residual, r.admissibility_defect, r.triangularity, r.cholesky_distance]
        for r in report.history
    ]


def convergence_rows(report: ConvergenceReport) -> list[list[float]]:
    return [
        [r.alpha, r.op_defect, r.proj_defect, r.max_pairing,
         r.term1, r.term2, r.term3, r.term4, r.bound_margin]
        for r in report.rows
    ]


def write_matrix_csv(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=float)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(",".join(fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


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
        vals = [float(x) for x in ln.split(",")]
        if len(vals) != n:
            raise ValueError(f"{path}: line {i} has {len(vals)} values, expected {n}")
        rows.append(vals)
    a = np.array(rows)
    if not np.isfinite(a).all():
        raise ValueError(f"{path}: matrix entries must be finite")
    return a


def _same_nest(a: Nest, b: Nest) -> bool:
    """Grid, ranks and basis agree exactly."""
    return (a.ranks == b.ranks and np.array_equal(a.grid, b.grid)
            and np.array_equal(a.basis, b.basis))


def _is_standard(nest: Nest) -> int | None:
    """Return n when the nest is exactly the coordinate nest on [0, 1]."""
    n = nest.dim
    if nest.horizon != 1.0 or not _same_nest(nest, standard_nest(n)):
        return None
    return n


def save_nest(path, nest: Nest, kind: str = "explicit", blocks=None) -> None:
    """Write a nest descriptor.

    ``standard`` requires the nest to be the coordinate nest; ``channel``
    requires ``blocks`` (per-channel sizes of standard blocks) matching the
    nest; ``explicit`` always works and dumps the projection matrices,
    forming and writing one at a time.
    """
    lines = [f"kind = {kind}", f"T = {fmt(nest.horizon)}"]
    if kind == "standard":
        n = _is_standard(nest)
        if n is None:
            raise ValueError("nest is not the standard coordinate nest")
        lines.append(f"n = {n}")
    elif kind == "channel":
        if blocks is None:
            raise ValueError("channel descriptor needs the block sizes")
        blocks = [int(b) for b in blocks]
        if not _same_nest(channel_nest([standard_nest(b) for b in blocks]), nest):
            raise ValueError("block sizes do not reproduce the nest")
        lines.append("blocks = " + ", ".join(str(b) for b in blocks))
    elif kind == "explicit":
        lines.append("grid = " + ", ".join(fmt(s) for s in nest.grid))
        lines.append(f"dim = {nest.dim}")
    else:
        raise ValueError(f"unknown nest kind {kind!r}")
    with Path(path).open("w") as fh:
        fh.write("\n".join(lines) + "\n")
        if kind == "explicit":
            for j, k in enumerate(nest.ranks):
                fh.write(f"[projection {j}] rank={k}\n")
                for row in nest.x(j):
                    fh.write(",".join(fmt(x) for x in row) + "\n")


def load_nest(path) -> Nest:
    """Read a nest descriptor written by :func:`save_nest`."""
    lines = Path(path).read_text().splitlines()
    fields: dict[str, str] = {}
    matrices: list[tuple[int, list[list[float]]]] = []
    current: list[list[float]] | None = None
    for ln in lines:
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("[projection"):
            head = ln.strip("[]")
            rank = int(head.split("rank=")[1])
            current = []
            matrices.append((rank, current))
        elif current is not None:
            current.append([float(x) for x in ln.split(",")])
        elif "=" in ln:
            key, _, value = ln.partition("=")
            fields[key.strip()] = value.strip()
        else:
            raise ValueError(f"{path}: unrecognized line {ln!r}")
    kind = fields.get("kind")
    if kind == "standard":
        return standard_nest(int(fields["n"]))
    if kind == "channel":
        blocks = [int(b) for b in fields["blocks"].split(",")]
        return channel_nest([standard_nest(b) for b in blocks])
    if kind == "explicit":
        horizon = float(fields["T"])
        grid = np.array([float(x) for x in fields["grid"].split(",")])
        dim = int(fields["dim"])
        projections = []
        for rank, rows in matrices:
            m = np.array(rows)
            if m.shape != (dim, dim):
                raise ValueError(f"{path}: projection block has shape {m.shape}")
            projections.append(Projection(m, rank))
        return explicit_nest(horizon, grid, projections)
    raise ValueError(f"{path}: unknown nest kind {kind!r}")

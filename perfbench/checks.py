"""Correctness check of one CLI invocation's outputs.

An invocation passes when it exits 0, writes the expected CSV files with the
expected row counts, every numeric cell is finite, and every round-off-level
column stays within the gate the CLI itself applies.  On the benchmark's
default seed the other cells must also match the checked-in reference within
a relative tolerance, so a reordered but equal computation passes while a
wrong answer does not.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
# Invocation indices of a default-seed run that have reference outputs.
REFERENCE_INDICES = range(6)
# |value - reference| <= RTOL * |reference| + ATOL.  ATOL covers cells that
# sit at round-off level in an otherwise well-scaled column.
RTOL = 1e-8
ATOL = 1e-13

# Round-off-level columns and their gates: (file, column) -> (op, limit).
GATES = {
    ("factorize.csv", "triangularity_defect"): ("<=", 1e-10),
    ("stability.csv", "bound_margin"): (">=", -1e-10),
    ("gap_terms.csv", "bound_margin"): (">=", -1e-10),
    ("channels.csv", "triangularity_defect"): ("<=", 1e-10),
    ("posdef_check.csv", "formula_defect"): ("<=", 1e-9),
    ("posdef_check.csv", "idempotence_defect"): ("<=", 1e-10),
    ("posdef_check.csv", "symmetry_defect"): ("<=", 1e-10),
}

ALPHAS = 6  # the CLI's default family size


def expected_rows(cfg: dict) -> dict[str, int]:
    """CSV files a config writes, with their data-row counts.  Refinement
    halves the partition intervals until the grid of ``n`` cells is exhausted
    or the schedule is spent."""
    levels = min(cfg.get("schedule", 0), math.ceil(math.log2(cfg["n"]))) + 1
    return {
        "factorize": {"factorize.csv": levels},
        "stability": {"stability.csv": ALPHAS, "uniformity.csv": ALPHAS + 1,
                      "gap_terms.csv": ALPHAS * levels},
        "channels": {"channels.csv": cfg.get("channels", 0) + 1},
        "posdef-check": {"posdef_check.csv": cfg.get("cases", 0)},
    }[cfg["command"]]


def _parse(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def check_outputs(outdir: Path, cfg: dict, exit_code: int,
                  reference: dict[str, str] | None = None) -> list[str]:
    """Problems found in one invocation's outputs; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    for name, nrows in expected_rows(cfg).items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        header, rows = _parse(path.read_text())
        if len(rows) != nrows:
            problems.append(f"{name}: {len(rows)} rows, expected {nrows}")
        ref_rows = _parse(reference[name])[1] if reference and name in reference else None
        for i, row in enumerate(rows):
            if len(row) != len(header):
                problems.append(f"{name} row {i}: {len(row)} cells, header has {len(header)}")
                continue
            for col, cell in zip(header, row):
                value = _number(cell)
                if value is None:
                    # Only the first column holds labels ("global", "sup").
                    if col != header[0]:
                        problems.append(f"{name} row {i} {col}: not a number: {cell!r}")
                    continue
                if not math.isfinite(value):
                    problems.append(f"{name} row {i} {col}: not finite: {cell}")
                    continue
                gate = GATES.get((name, col))
                if gate is not None:
                    op, limit = gate
                    if not (value <= limit if op == "<=" else value >= limit):
                        problems.append(f"{name} row {i} {col}: {value!r} not {op} {limit!r}")
        if ref_rows is not None:
            problems += _compare(name, header, rows, ref_rows)
    return problems


def _compare(name, header, rows, ref_rows) -> list[str]:
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, cell, ref_cell in zip(header, row, ref):
            if (name, col) in GATES:
                continue
            value, expect = _number(cell), _number(ref_cell)
            if value is None or expect is None:
                ok = cell == ref_cell
            else:
                ok = abs(value - expect) <= RTOL * abs(expect) + ATOL
            if not ok:
                problems.append(f"{name} row {i} {col}: {cell} differs from reference {ref_cell}")
    return problems


def load_reference(workload: str) -> dict[int, dict[str, str]]:
    """Reference CSV texts by invocation index for the default seed."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    return {int(k): v for k, v in data["outputs"].items()}

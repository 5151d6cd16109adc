"""The table of CLI runs that CI executes (.github/cli_runs.py), checked without running it."""

import importlib.util
from pathlib import Path

import pytest

from nestfactor.cli import (MAX_ALPHAS, MAX_CASES, MAX_CHANNELS, MAX_DIM, MAX_SCHEDULE,
                            POSDEF_MAX_DIM, ConfigError, parse_config)

_spec = importlib.util.spec_from_file_location(
    "cli_runs", Path(__file__).resolve().parents[1] / ".github" / "cli_runs.py")
cli_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_runs)

VOLTERRA = ("volterra", "volterra_factor", "identity")

# cap -> whether a parsed config reaches it, given the dimension of each CSV the script writes
CAPS = {
    "MAX_DIM as n": lambda c, dims: (c.command in ("factorize", "diagonal", "stability")
                                     and c.operator in VOLTERRA and c.n == MAX_DIM),
    "MAX_DIM as n x channels": lambda c, dims: (c.command == "channels"
                                                and c.n * c.channels == MAX_DIM),
    "MAX_DIM as trunc": lambda c, dims: c.command == "counterexample" and c.trunc == MAX_DIM,
    "MAX_DIM as csv dimension": lambda c, dims: (c.operator == "csv"
                                                 and dims.get(c.csv_path) == MAX_DIM),
    "MAX_DIM as diag_values length": lambda c, dims: (c.operator == "diagonal"
                                                      and len(c.diag_values) == MAX_DIM),
    "MAX_SCHEDULE": lambda c, dims: (c.command not in ("counterexample", "posdef-check")
                                     and c.schedule == MAX_SCHEDULE),
    "MAX_ALPHAS": lambda c, dims: (c.command in ("stability", "channels")
                                   and len(c.alphas) == MAX_ALPHAS),
    "MAX_CHANNELS": lambda c, dims: (c.command == "channels" or c.nest == "channel")
                                    and c.channels == MAX_CHANNELS,
    "MAX_CASES": lambda c, dims: c.command == "posdef-check" and c.cases == MAX_CASES,
    "POSDEF_MAX_DIM": lambda c, dims: c.command == "posdef-check" and c.n >= POSDEF_MAX_DIM,
}


def test_every_row_config_parses_for_its_command():
    """Each row names its own output directory; a row's config passes parse_config for its
    command, and is refused with ConfigError when the row expects exit 2."""
    assert len({row.name for row in cli_runs.ROWS}) == len(cli_runs.ROWS)
    for row in cli_runs.ROWS:
        if row.config is None:
            continue
        command = row.args.split()[0]
        if row.code == 2:
            with pytest.raises(ConfigError):
                parse_config(row.config, command)
        else:
            assert parse_config(row.config, command).command == command


@pytest.mark.parametrize("cap", list(CAPS))
def test_every_cap_is_reached_by_a_budgeted_row(cap, monkeypatch):
    dims = {}
    monkeypatch.setattr(cli_runs, "write_matrix_csv", lambda path, a: dims.update({path: len(a)}))
    cli_runs.rank300("rank300.csv")
    budgeted = [parse_config(row.config or "", row.args) for row in cli_runs.ROWS
                if row.rss_mb is not None]
    assert any(CAPS[cap](c, dims) for c in budgeted)

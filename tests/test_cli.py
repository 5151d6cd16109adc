import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nestfactor import (
    Nest,
    default_probes,
    diagonal,
    exp_volterra_matrix,
    image_nest,
    max_op_norm,
    op_norm,
    psd_sqrt,
    run_family,
    standard_nest,
    volterra_family,
    write_matrix_csv,
)
from nestfactor.serialize import fmt
from nestfactor.cli import (
    COMMANDS,
    DIAGONAL_HEADER,
    SCHEMA,
    ConfigError,
    ExperimentConfig,
    _idempotence_defect,
    main,
    parse_config,
    run,
    validate_config,
)
from conftest import (
    Projection,
    dense_d,
    dense_intertwining,
    gram_images,
    projection_defects,
    random_spd,
    serialize_config,
)
from test_acceptance import CLI_CONFIGS


def test_parse_config_requires_command():
    with pytest.raises(ConfigError, match="command required"):
        parse_config("")


def test_parse_config_basic():
    cfg = parse_config(
        "command = factorize\n"
        "\n"
        "# comment line\n"
        "n = 16   # inline comment\n"
        "kappa = 0.25\n"
    )
    assert cfg.command == "factorize"
    assert cfg.n == 16
    assert cfg.kappa == 0.25
    assert cfg.schedule == 5  # default untouched


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'kapa'"):
        parse_config("command = factorize\nkapa = 0.3\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="line 3: duplicate key 'n'"):
        parse_config("command = factorize\nn = 8\nn = 16\n")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError, match="line 1: bad value 'eight'"):
        parse_config("n = eight\n", command="factorize")


def test_parse_config_missing_equals():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("just some words\n", command="factorize")


def test_parse_config_range_check():
    with pytest.raises(ConfigError, match="n must lie in 2..1024"):
        parse_config("n = 1\n", command="factorize")


def test_parse_config_command_mismatch():
    with pytest.raises(ConfigError, match="says command = diagonal"):
        parse_config("command = diagonal\n", command="factorize")


def test_parse_config_command_agreement():
    cfg = parse_config("command = diagonal\n", command="diagonal")
    assert cfg.command == "diagonal"


@pytest.mark.parametrize(
    "text,match",
    [
        ("schedule = 1", "schedule"),
        ("channels = 0", "channels"),
        ("cases = 0", "cases"),
        ("nest = fancy", "nest"),
        ("operator = fourier", "operator"),
        ("alphas = 4, 2", "ascending"),
        ("alphas = 0.5, 2", "at least 1"),
        ("n_max = 1", "n_max"),
        ("n_max = 32\ntrunc = 32", "trunc"),
        ("seed = -3", "seed"),
        ("operator = diagonal\ndiag_values = " + ", ".join(["1"] * 1100), "diag_values"),
        ("trunc = 100000", "trunc"),
        ("alphas = " + ", ".join(str(a) for a in range(1, 5001)), "alphas must hold"),
        *((f"{key} = {value}", f"{key} must be auto or finite")
          for key in ("eps", "tol") for value in ("nan", "inf", "-1")),
        *((f"kappa = {value}", "kappa must lie in") for value in ("-0.5", "0", "nan")),
        *((f"alphas = 2, {value}", "alphas must be finite") for value in ("nan", "inf")),
    ],
)
def test_validate_rejects_out_of_range(text, match, tmp_path, monkeypatch, capsys):
    import nestfactor.cli as cli

    with pytest.raises(ConfigError, match=match):
        parse_config(text + "\n", command="factorize")

    def never(cfg, outdir):
        raise AssertionError("a refused config reached its runner")

    # main refuses with exit 2 before anything of n^2 size is built: an
    # operator at n = 1100 alone would take 9.7 MB.
    monkeypatch.setitem(cli._RUNNERS, "factorize", never)
    cfg_file = tmp_path / "factorize.cfg"
    cfg_file.write_text(text + "\n")
    tracemalloc.start()
    try:
        code = main(["factorize", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert match in capsys.readouterr().err
    assert peak < 1_000_000


# Tracemalloc peak of one run at n = 256 in n x n arrays of doubles, and its budget: the
# arrays each command holds at once (README, "Memory").  Measured 5.84, 6.07 and 4.83; with
# an n x n identity as the standard nest's basis and the family's limit held throughout,
# 6.97, 8.07 and 5.83, and with sqrt(C) and Q also held to the end, 8.97, 9.07 and 7.72.
PEAK_BUDGETS = {
    "factorize": ("n = 256\nschedule = 8\n", 6.0),
    "stability": ("n = 256\n", 6.2),
    "diagonal": ("n = 256\nschedule = 8\n", 5.0),
}


@pytest.mark.parametrize("command", list(PEAK_BUDGETS))
def test_command_peak_stays_within_its_array_budget(command, tmp_path):
    """One main() run, after a warm-up run in the same process takes the
    one-time allocations, peaks within its budget of n x n arrays: each
    command releases sqrt(C) (or W) and Q once it has read them."""
    text, budget = PEAK_BUDGETS[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 256 * 256) <= budget


# The six small CLI configs, and factorize and stability over channel nests.
_BASIS_RUNS = {**CLI_CONFIGS,
               "factorize-channel": "nest = channel\nchannels = 4\nn = 16\nschedule = 3\n",
               "stability-channel": "nest = channel\nchannels = 2\nn = 16\nschedule = 3\n"}


@pytest.mark.parametrize("name", list(_BASIS_RUNS))
def test_no_run_forms_a_coordinate_nest_basis(name, tmp_path, monkeypatch):
    """Every nest a command builds (standard, channel, projection-escape) is
    a coordinate nest, held as its permutation, and no route of the run
    forms its n x n basis on request (Nest.basis, spied)."""
    formed = []
    basis = Nest.basis

    def spied(nest):
        if nest._perm is not None:
            formed.append(nest.dim)
        return basis.fget(nest)

    monkeypatch.setattr(Nest, "basis", property(spied))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_BASIS_RUNS[name])
    assert main([name.split("-channel")[0], "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert formed == []
    standard_nest(3).basis
    assert formed == [3]


@settings(deadline=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True))
def test_validate_checks_kappa_and_alphas(x):
    """kappa is refused exactly outside (0, 1) and a one-entry alphas exactly
    outside [1, inf), nan and both infinities included, with a message
    naming the key."""
    for key, ok in (("kappa", 0 < x < 1), ("alphas", 1 <= x < math.inf)):
        text = f"{key} = {x!r}\n"
        if ok:
            parse_config(text, command="factorize")
        else:
            with pytest.raises(ConfigError, match=f"{key} must"):
                parse_config(text, command="factorize")


def test_stability_runs_at_the_edge_of_the_kappa_and_alphas_ranges(tmp_path):
    """kappa = 0.999 and alphas = 1 both lie inside the ranges the config
    accepts: the run completes with a verdict (exit 0 or 1)."""
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("n = 8\nschedule = 2\nkappa = 0.999\nalphas = 1\n")
    assert main(["stability", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) in (0, 1)


@pytest.mark.parametrize("text,dim", [("n = 1024\n", 8192), ("n = 1024\nchannels = 64\n", 65536)])
def test_channels_refuses_operators_past_max_dim(text, dim, tmp_path, monkeypatch, capsys):
    """channels assembles an operator of dimension n x channels; past
    MAX_DIM the config is refused with exit 2 before anything runs."""
    import nestfactor.cli as cli

    with pytest.raises(ConfigError, match=f"n x channels = 1024 x .* = {dim}, above MAX_DIM = 1024"):
        parse_config(text, command="channels")
    parse_config(text, command="factorize")                        # n alone is in range
    parse_config("n = 128\nchannels = 8\n", command="channels")   # dimension MAX_DIM

    def never(cfg, outdir):
        raise AssertionError("an oversized channels config reached its runner")

    monkeypatch.setitem(cli._RUNNERS, "channels", never)
    cfg_file = tmp_path / "channels.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert main(["channels", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "n x channels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["factorize", "diagonal", "stability"])
def test_channel_nest_refuses_channels_not_dividing_n(command, tmp_path, capsys):
    """A channel nest whose channels do not divide the dimension is refused
    with exit 2 by every command that builds one, naming the divisibility."""
    cfg_file = tmp_path / "channel.cfg"
    cfg_file.write_text("nest = channel\nchannels = 3\nn = 64\n")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert "channel nest needs channels (3) dividing dim (64)" in capsys.readouterr().err


@settings(max_examples=50, deadline=None)
@given(
    command=st.sampled_from(("factorize", "diagonal", "stability")),
    kappa=st.floats(min_value=0.01, max_value=0.9),
    n=st.integers(min_value=2, max_value=256),
    schedule=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
    eps=st.one_of(st.none(), st.floats(min_value=1e-12, max_value=1.0)),
    alphas=st.lists(
        st.floats(min_value=1.0, max_value=1e6),
        min_size=1,
        max_size=6,
        unique=True,
    ).map(lambda xs: tuple(sorted(xs))),
)
def test_config_round_trip(command, kappa, n, schedule, seed, eps, alphas):
    cfg = ExperimentConfig(
        command=command, kappa=kappa, n=n, schedule=schedule, seed=seed,
        eps=eps, alphas=alphas,
    )
    validate_config(cfg)
    assert parse_config(serialize_config(cfg)) == cfg


def test_run_factorize_identity(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        command="factorize", operator="identity", n=8, schedule=3, out=str(out)
    )
    assert run(cfg) == 0
    summary = (out / "summary.txt").read_text()
    assert "verdict = pass" in summary
    assert "residual = 0.0" in summary
    assert (out / "factorize.csv").exists()


def test_run_factorize_csv_operator(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    c = a.T @ a + 0.5 * np.eye(6)
    path = tmp_path / "op.csv"
    write_matrix_csv(path, c)
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        command="factorize", operator="csv", csv_path=str(path), schedule=4,
        out=str(out),
    )
    assert run(cfg) == 0
    assert "verdict = pass" in (out / "summary.txt").read_text()


def test_run_diagonal_triangular_operator(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        command="diagonal", operator="volterra_factor", n=16, schedule=4,
        out=str(out),
    )
    assert run(cfg) == 0
    lines = (out / "diagonal.csv").read_text().splitlines()
    assert lines[0].startswith("range,")
    assert len(lines) >= 2


def test_run_counterexample_matches_closed_forms(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        command="counterexample", n_max=8, trunc=16, out=str(out)
    )
    assert run(cfg) == 0
    lines = (out / "counterexample.csv").read_text().splitlines()
    assert lines[0] == (
        "n,op_gap,op_gap_bound,proj_gap,proj_gap_closed,projection_agreement"
    )
    for line in lines[1:]:
        vals = line.split(",")
        n = int(vals[0])
        assert float(vals[2]) == 2.0 / n
        closed = np.sqrt(1.0 - 1.0 / (1.0 + n * n / 4.0))
        assert float(vals[4]) == pytest.approx(closed, abs=1e-12)
        assert float(vals[3]) == pytest.approx(closed, abs=1e-10)
        assert float(vals[5]) <= 1e-10
    summary = (out / "summary.txt").read_text()
    assert "verdict = pass" in summary
    assert "regular convergence verdict = fail" in summary


def test_run_channels_small(tmp_path):
    out = tmp_path / "out"
    # n=4 at this schedule leaves the pairing defect above the auto
    # threshold and honestly exits 1; n=8 converges
    cfg = ExperimentConfig(
        command="channels", n=8, channels=2, schedule=3, out=str(out)
    )
    assert run(cfg) == 0
    lines = (out / "channels.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 + 1  # header, two channels, global row
    assert lines[-1].startswith("global,")


def test_run_posdef_check_small(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        command="posdef-check", n=8, cases=3, out=str(out)
    )
    assert run(cfg) == 0
    lines = (out / "posdef_check.csv").read_text().splitlines()
    assert len(lines) == 4


def test_posdef_check_states_its_dimension_cap(tmp_path):
    """n above the cap of 32 is accepted; the sampled dimensions stay at
    most 32, and summary.txt says so."""
    cfg_file = tmp_path / "posdef.cfg"
    cfg_file.write_text("n = 1024\ncases = 3\n")
    out = tmp_path / "out"
    assert main(["posdef-check", "--config", str(cfg_file), "--out", str(out)]) == 0
    dims = [int(line.split(",")[1])
            for line in (out / "posdef_check.csv").read_text().splitlines()[1:]]
    assert len(dims) == 3 and all(2 <= dim <= 32 for dim in dims)
    assert "sampled dimensions = 2..32 (min(n, 32) for n = 1024)" in (
        out / "summary.txt").read_text().splitlines()
    assert "min(n, 32)" in SCHEMA["n"][2]


def test_main_reports_missing_config(tmp_path, capsys):
    code = main(["factorize", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "error in factorize" in capsys.readouterr().err


def test_one_parser_takes_options_around_the_command(tmp_path, capsys):
    """One parser: the options may come before or after the command and
    give the same files; an unknown or missing command exits 2, and --help
    lists all six commands."""
    cfg_file = tmp_path / "f.cfg"
    cfg_file.write_text("operator = identity\nn = 4\nschedule = 2\n")
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(["--config", str(cfg_file), "--seed", "3", "--out", str(before),
                 "factorize"]) == 0
    assert main(["factorize", "--config", str(cfg_file), "--out", str(after),
                 "--seed", "3"]) == 0
    assert (before / "factorize.csv").read_bytes() == (after / "factorize.csv").read_bytes()
    assert (before / "summary.txt").read_text() == (after / "summary.txt").read_text()
    capsys.readouterr()
    for argv in (["bogus"], [], ["--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "bogus" in err
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in COMMANDS)
    assert "config keys" in text


def test_main_reports_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("garbage = 1\n")
    assert main(["factorize", "--config", str(cfg_file)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_main_reports_command_mismatch(tmp_path, capsys):
    cfg_file = tmp_path / "d.cfg"
    cfg_file.write_text("command = diagonal\n")
    assert main(["factorize", "--config", str(cfg_file)]) == 2
    assert "says command = diagonal" in capsys.readouterr().err


def test_main_reports_memory_error(tmp_path, monkeypatch, capsys):
    import nestfactor.cli as cli

    def exhausted(cfg, outdir):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setitem(cli._RUNNERS, "factorize", exhausted)
    assert main(["factorize", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error in factorize: out of memory (Unable to allocate 8.00 GiB)" in err
    assert "Traceback" not in err


def test_main_out_and_seed_overrides(tmp_path):
    cfg_file = tmp_path / "f.cfg"
    cfg_file.write_text("command = factorize\noperator = identity\nn = 4\nschedule = 2\n")
    out = tmp_path / "elsewhere"
    code = main(["factorize", "--config", str(cfg_file), "--out", str(out),
                 "--seed", "7"])
    assert code == 0
    assert (out / "factorize.csv").exists()
    assert "seed = 7" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("command", list(CLI_CONFIGS))
def test_main_runs_are_deterministic(tmp_path, command):
    """Two runs of one command with one config and seed write the same
    files: every CSV and summary.txt, byte for byte."""
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(CLI_CONFIGS[command])
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([command, "--config", str(cfg_file), "--out", str(out),
                     "--seed", "5"]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "summary.txt" in outs[0] and any(name.endswith(".csv") for name in outs[0])
    assert outs[0] == outs[1]


def test_stability_refuses_a_threshold_no_defect_can_fail(tmp_path, capsys):
    """At n = 32, schedule 3 the pairing defect (4.9e-4) fails tol = 1e-9,
    yet tol = nan passed the family, since each defect > nan is False: it
    is refused with exit 2.  auto and 0 stay valid."""
    cfg_path = tmp_path / "stability.cfg"
    cfg_path.write_text("n = 32\nschedule = 3\ntol = nan\n")
    assert main(["stability", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "tol must be auto or finite and >= 0, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg = parse_config("eps = 0\ntol = auto\n", "stability")
    assert (cfg.eps, cfg.tol) == (0.0, None)


def test_diagonal_of_a_rank_deficient_csv_operator_takes_no_qr(tmp_path, monkeypatch):
    """diagonal on the square root of a seeded rank-60 PSD matrix (n = 96,
    operator = csv) measures intertwining in the image basis Q: no
    completed basis, so no QR, and the coarsest level reads exactly 0."""
    a = np.random.default_rng(96).standard_normal((60, 96))
    csv_path = tmp_path / "w.csv"
    write_matrix_csv(csv_path, psd_sqrt(a.T @ a))
    cfg_path = tmp_path / "diagonal.cfg"
    cfg_path.write_text(f"operator = csv\ncsv_path = {csv_path}\nschedule = 7\n")

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    out = tmp_path / "out"
    assert main(["diagonal", "--config", str(cfg_path), "--out", str(out)]) == 0
    column = np.genfromtxt(out / "diagonal.csv", delimiter=",", names=True)["intertwining_defect"]
    assert column[0] == 0.0 and column.max() <= 1e-10


def test_diagonal_intertwining_column_matches_dense_oracle(tmp_path):
    """The intertwining_defect column of the diagonal command, on its
    acceptance config, against the dense commutator formulas."""
    body = "command = diagonal\n" + CLI_CONFIGS["diagonal"]
    cfg_path = tmp_path / "diagonal.cfg"
    cfg_path.write_text(body)
    out = tmp_path / "out"
    assert main(["diagonal", "--config", str(cfg_path), "--out", str(out), "--seed", "3"]) == 0
    column = np.genfromtxt(out / "diagonal.csv", delimiter=",", names=True)["intertwining_defect"]
    lines = (out / "diagonal.csv").read_text().splitlines()
    assert lines[0] == ",".join(DIAGONAL_HEADER)
    assert all(len(line.split(",")) == len(DIAGONAL_HEADER) for line in lines)

    cfg = parse_config(body)
    assert cfg.operator == "volterra_factor" and cfg.nest == "standard"
    w = exp_volterra_matrix(cfg.kappa, cfg.n)
    nest = standard_nest(cfg.n)
    rep = diagonal(w, nest, cfg.schedule, eps=cfg.eps, probes=default_probes(cfg.n, 3))
    img = image_nest(w, nest)
    dense = [dense_intertwining(dense_d(rep, part), nest, img, part) for part in rep.levels]
    npt.assert_allclose(column, dense, rtol=1e-8, atol=1e-13)


def test_stability_builds_one_image_nest_per_operator(tmp_path, monkeypatch):
    """At its acceptance config, stability builds the image nest of each
    operator's square root once (limit plus members): no second pass over
    the raw operators.  The operators swept are counted over every lockstep
    batch."""
    sweeps = _record_sweeps(monkeypatch)
    body = "command = stability\n" + CLI_CONFIGS["stability"]
    cfg_path = tmp_path / "stability.cfg"
    cfg_path.write_text(body)
    assert main(["stability", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--seed", "3"]) == 0
    alphas = parse_config(body).alphas
    assert sum(len(ws) for _, ws in sweeps if ws is not None) == len(alphas) + 1


def test_stability_uniformity_sup_reads_the_last_refinement(tmp_path):
    """When the grid runs out before ``schedule`` refinements (n = 8 allows
    three of five), the summary's uniformity sup reads the last refinement's
    column, not the zero padding past it."""
    out = tmp_path / "out"
    cfg = ExperimentConfig(command="stability", n=8, schedule=5, out=str(out))
    assert run(cfg) == 0
    fam = volterra_family(cfg.kappa, cfg.alphas, cfg.n)
    uni = run_family(fam, standard_nest(cfg.n), cfg.schedule,
                     probes=default_probes(cfg.n, cfg.seed)).uniformity
    assert not uni[:, 3:].any() and uni[:, 2].min() > 0.0
    summary = (out / "summary.txt").read_text().splitlines()
    assert f"uniformity sup = {fmt(float(uni[:, 2].max()))}" in summary


def test_counterexample_builds_one_image_nest_per_operator(tmp_path, monkeypatch):
    """counterexample reads each member's P_n row and its regular-convergence
    row off one image nest: the limit and the members are swept as one
    stream, each once."""
    import nestfactor.amplitude as amplitude

    streams, swept = [], []
    original, sweep = amplitude._image_nests, amplitude._sweep

    def counted(pairs, nest):
        streams.append(nest)
        return original(pairs, nest)

    def counted_sweep(ws, *args):
        swept.append(len(ws))
        return sweep(ws, *args)

    for key, module in list(sys.modules.items()):
        if (key == "nestfactor" or key.startswith("nestfactor.")) and \
                getattr(module, "_image_nests", None) is original:
            monkeypatch.setattr(module, "_image_nests", counted)
    monkeypatch.setattr(amplitude, "_sweep", counted_sweep)
    cfg_path = tmp_path / "counterexample.cfg"
    cfg_path.write_text("command = counterexample\n" + CLI_CONFIGS["counterexample"])
    out = tmp_path / "out"
    assert main(["counterexample", "--config", str(cfg_path), "--out", str(out)]) == 0
    members = len((out / "counterexample.csv").read_text().splitlines()) - 1
    assert members == 3  # n = 2, 4, 8
    assert len(streams) == 1
    assert sum(swept) == members + 1


def test_counterexample_draws_each_member_once(tmp_path, monkeypatch):
    """counterexample draws each W_n once from the family's member rule and
    builds each closed-form P_n once."""
    import nestfactor.cli as cli
    import nestfactor.stability as stability

    drawn, closed = [], []
    member, projection = stability._escape_member, stability.escape_projection

    def counted_member(n, trunc):
        drawn.append(n)
        return member(n, trunc)

    def counted_projection(n, trunc):
        closed.append(n)
        return projection(n, trunc)

    monkeypatch.setattr(stability, "_escape_member", counted_member)
    monkeypatch.setattr(cli, "escape_projection", counted_projection)
    cfg_path = tmp_path / "counterexample.cfg"
    cfg_path.write_text("command = counterexample\n" + CLI_CONFIGS["counterexample"])
    assert main(["counterexample", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert drawn == closed == [2, 4, 8]


_NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None   # any import of scipy or scipy.* now fails
from nestfactor.cli import main
runs = json.loads(sys.argv[1])
codes = [main([command, "--config", cfg, "--out", out]) for command, cfg, out in runs]
loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod)
print(json.dumps({"codes": codes, "scipy_modules": loaded, "numpy_ma": "numpy.ma" in sys.modules}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """The runtime needs NumPy only: with SciPy blocked from import, every
    command at the CI smoke sizes, and a singular factorize that takes the
    NotPositiveDefiniteError route of the Cholesky oracle, exits 0 as with
    SciPy present.  The same runs never load numpy.ma, which NumPy imports
    lazily (np.unique does) and which costs about 1 MB of peak RSS."""
    configs = dict(CLI_CONFIGS, singular="operator = diagonal\ndiag_values = 1, 0, 2\n")
    runs = []
    for name, body in configs.items():
        command = "factorize" if name == "singular" else name
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(f"command = {command}\n" + body)
        runs.append([command, str(cfg_path), str(tmp_path / name)])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(runs), "scipy_modules": [], "numpy_ma": False}
    summary = (tmp_path / "singular" / "summary.txt").read_text()
    assert "cholesky distance = nan" in summary


DIAGNOSTICS = ("check_intertwining", "factor_diagnostics", "cholesky_upper")


def _count_calls(monkeypatch, names):
    """Wrap each named function wherever a nestfactor module binds it and
    return the live per-name call counts."""
    import nestfactor

    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items())
               if key == "nestfactor" or key.startswith("nestfactor.")]
    for name in names:
        fn = getattr(nestfactor, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("command, expected", [
    ("stability", dict.fromkeys(DIAGNOSTICS, 0)),
    ("factorize", {"check_intertwining": 0}),
])
def test_commands_measure_only_the_diagnostics_they_print(command, expected, tmp_path,
                                                         monkeypatch):
    """The family run of stability reads no per-level factor diagnostic, and
    factorize prints no intertwining defect, so neither measures one."""
    counts = _count_calls(monkeypatch, expected)
    cfg_path = tmp_path / f"{command}.cfg"
    cfg_path.write_text(f"command = {command}\n" + CLI_CONFIGS[command])
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert counts == expected


@pytest.mark.parametrize("command, text, expected", [
    ("factorize", "n = 160\nschedule = 5\n", {"decompositions": 184}),
    ("channels", "n = 24\nchannels = 4\nschedule = 5\n", {"decompositions": 117}),
])
def test_frobenius_pruned_commands_keep_their_decomposition_counts(command, text, expected,
                                                                   tmp_path, monkeypatch):
    """max_op_norm prunes the triangularity, intertwining and commutation
    blocks on their widened Frobenius norms, which keeps factorize and
    channels at the benchmark sizes at these counts of decompositions:
    np.linalg.svd, eigvalsh and order-2 np.linalg.norm calls together,
    whichever route each norm or spectrum takes."""
    counts = []

    def counted(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            if name != "norm" or (args[1:] or (kwargs.get("ord"),))[0] == 2:
                counts.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("svd", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    cfg_path = tmp_path / f"{command}.cfg"
    cfg_path.write_text(text)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert {"decompositions": len(counts)} == expected


def test_factorize_takes_no_svd_outside_the_image_nest_sweep(tmp_path, monkeypatch):
    """At the factorize-dense size every block spectrum clears GRAM_FLOOR,
    and each norm that is not exactly symmetric takes the Gram route, so
    the only SVDs are the image-nest sweep's rank cuts, one per grid point
    (161), and no order-2 np.linalg.norm is taken."""
    callers = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return svd(*args, **kwargs)

    def norm_spy(*args, **kwargs):
        assert (args[1:] or (kwargs.get("ord"),))[0] != 2
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    cfg_path = tmp_path / "factorize.cfg"
    cfg_path.write_text("n = 160\nschedule = 5\n")
    assert main(["factorize", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert callers == ["_sweep"] * 161


@pytest.mark.parametrize("command, per_level", [
    ("stability", 0),
    ("factorize", 1),
    ("diagonal", 1),
])
def test_commands_compute_only_the_block_spectra_they_read(command, per_level, tmp_path,
                                                          monkeypatch):
    """Block spectra are computed on request: the family run of stability
    reads none, factorize reads one per level (its rank defect reuses the
    deepest) and diagonal one per level for ||D||."""
    from nestfactor import amplitude

    calls = []
    original = amplitude.DiagonalReport.spectrum

    def counted(self, part):
        calls.append(part)
        return original(self, part)

    monkeypatch.setattr(amplitude.DiagonalReport, "spectrum", counted)
    cfg_path = tmp_path / f"{command}.cfg"
    cfg_path.write_text(f"command = {command}\n" + CLI_CONFIGS[command])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    if per_level:
        rows = len((out / f"{command}.csv").read_text().splitlines()) - 1
        assert rows >= 3
        assert len(calls) == rows and len(set(calls)) == rows
    else:
        assert calls == []


def test_diagonal_measures_intertwining_once_per_level(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, ["check_intertwining"])
    cfg_path = tmp_path / "diagonal.cfg"
    cfg_path.write_text("command = diagonal\n" + CLI_CONFIGS["diagonal"])
    out = tmp_path / "out"
    assert main(["diagonal", "--config", str(cfg_path), "--out", str(out)]) == 0
    levels = len((out / "diagonal.csv").read_text().splitlines()) - 1
    assert levels == parse_config(CLI_CONFIGS["diagonal"], "diagonal").schedule + 1
    assert counts == {"check_intertwining": levels}


def test_channels_measures_one_factor_row_per_report(tmp_path, monkeypatch):
    """channels prints the deepest row of each channel's and of the global
    factorization, and its assembly defect reads the same factors, so it
    forms channels + 1 factors, each at the deepest level (9 at the
    defaults).  It prints no Cholesky distance, so it forms no Cholesky
    triangle, and the runner reads no report: cli has no factor_defects."""
    import nestfactor.cli as cli
    from nestfactor import amplitude

    original = amplitude.DiagonalReport.factor
    monkeypatch.setattr(cli, "factor_diagnostics", None)
    cholesky = _count_calls(monkeypatch, ["cholesky_upper"])
    for label, text in (("small", CLI_CONFIGS["channels"]), ("defaults", "")):
        deepest = []

        def counted(rep, part):
            deepest.append(part == rep.levels[-1])
            return original(rep, part)

        monkeypatch.setattr(amplitude.DiagonalReport, "factor", counted)
        cfg_path = tmp_path / f"{label}.cfg"
        cfg_path.write_text("command = channels\n" + text)
        assert main(["channels", "--config", str(cfg_path), "--out", str(tmp_path / label)]) == 0
        channels = parse_config(text, "channels").channels
        assert deepest == [True] * (channels + 1), label
    assert cholesky == {"cholesky_upper": 0}
    assert not hasattr(cli, "factor_defects")


def test_idempotence_defect_matches_dense_oracle():
    """||P^2 - P|| for P = Y Y^T read off Y^T Y equals the dense formula: on
    the bases the Gram route returns (round-off, within the 1e-10 gate)
    and on non-orthonormal Y, where the defect is O(1).  On a full
    Gram-route basis it also equals the largest defect over the
    leading blocks, the per-grid-point loop it replaces in posdef-check,
    since every case meets the interlacing condition lam_min(Y^T Y) >= 1/2."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(2, 17))
        c = random_spd(rng, dim)
        images = gram_images(c, standard_nest(dim))
        for k in images.ranks:
            y = images.basis[:, :k]
            dense = projection_defects(Projection(y @ y.T, k))["idempotence"]
            fast = _idempotence_defect(y)
            assert fast <= 1e-10 and dense <= 1e-10
            assert abs(fast - dense) <= 1e-14
        y = rng.standard_normal((dim, int(rng.integers(1, dim + 1))))
        dense = projection_defects(Projection(y @ y.T, y.shape[1]))["idempotence"]
        assert abs(_idempotence_defect(y) - dense) <= 1e-12 * max(1.0, dense)
    for _ in range(80):
        dim = int(rng.integers(2, 33))
        c = random_spd(rng, dim)
        y = gram_images(c, standard_nest(dim)).basis
        assert np.linalg.eigvalsh(y.T @ y)[0] >= 0.5
        per_block = max(_idempotence_defect(y[:, :k]) for k in range(dim + 1))
        assert abs(_idempotence_defect(y) - per_block) <= 1e-15


def _run_posdef(tmp_path, text, code=0):
    """Run posdef-check on a config text, expecting exit ``code``; its CSV
    rows as floats."""
    cfg_path = tmp_path / "posdef.cfg"
    cfg_path.write_text("command = posdef-check\n" + text)
    assert main(["posdef-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == code
    lines = (tmp_path / "out" / "posdef_check.csv").read_text().splitlines()[1:]
    return [[float(x) for x in line.split(",")] for line in lines]


def _posdef_oracle(n, cases, seed, norm=lambda root: None):
    """posdef-check one case at a time: psd_sqrt, the Gram route alone,
    image_nest (at the rank cut ``norm(root)``, op_norm(root) for None),
    max_op_norm of the gaps and _idempotence_defect, on the cases it draws."""
    rng = np.random.default_rng(seed)
    rows = []
    for case in range(cases):
        dim = int(rng.integers(2, min(n, 32) + 1))
        c = random_spd(rng, dim)
        nest = standard_nest(dim)
        root = psd_sqrt(c)
        images = gram_images(c, nest)
        img = image_nest(root, nest, norm(root))
        gaps = [images.x(j) - img.basis[:, :r] @ img.basis[:, :r].T for j, r in enumerate(img.ranks)]
        rows.append([case, dim, max_op_norm(gaps), _idempotence_defect(images.basis)])
    return rows


def _record_sweeps(monkeypatch):
    """Record each stack that amplitude._sweep takes, as (dimension, its
    operators), the operators None for a batch whose ranks part."""
    import nestfactor.amplitude as amplitude

    sweeps = []
    sweep = amplitude._sweep

    def recorded_sweep(ws, u, k, cut):
        out = sweep(ws, u, k, cut)
        sweeps.append((u.shape[0], None if out is None else list(ws)))
        return out

    monkeypatch.setattr(amplitude, "_sweep", recorded_sweep)
    return sweeps


def test_posdef_check_batches_equal_the_per_case_oracle(tmp_path, monkeypatch):
    """The lockstep route writes the per-case oracle's rows bit for bit: with
    dimensions drawn once (n = 32, 20 cases), and with batches split by
    STACK_BYTES (n = 4, 30 cases, at most three 4 x 4 operators a batch)."""
    import nestfactor.amplitude as amplitude

    rows = _run_posdef(tmp_path, "n = 32\ncases = 20\nseed = 3\n")
    assert rows == _posdef_oracle(32, 20, 3)
    dims = [int(row[1]) for row in rows]
    assert any(dims.count(d) == 1 for d in dims) and len(set(dims)) < len(dims)

    expected = _posdef_oracle(4, 30, 5)
    monkeypatch.setattr(amplitude, "STACK_BYTES", 3 * 8 * 4 * 4)
    sweeps = _record_sweeps(monkeypatch)
    assert _run_posdef(tmp_path, "n = 4\ncases = 30\nseed = 5\n") == expected
    sizes = {}  # dimension -> its batch sizes, in order
    for dim, ws in sweeps:
        sizes.setdefault(dim, []).append(len(ws))
    assert sizes[4][0] == 3 and len(sizes[4]) > 1 and max(sizes[2]) > 3
    assert max(sizes[4]) == 3 and sum(map(sum, sizes.values())) == 30


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_posdef_check_equals_the_per_case_oracle_on_200_cases(tmp_path, seed):
    """At n = 32 with 200 cases, several of each dimension in one stack,
    the stacked route writes the per-case oracle's rows bit for bit."""
    rows = _run_posdef(tmp_path, f"n = 32\ncases = 200\nseed = {seed}\n")
    assert rows == _posdef_oracle(32, 200, seed)


def test_posdef_check_decomposes_few_gaps(tmp_path, monkeypatch):
    """On the posdef-small config (n = 32, 80 cases, seed 0) the formula
    defect takes an eigvalsh of at most 110 of its 1473 gaps: the stacked
    fourth-power bounds prune the rest (516 on Frobenius bounds alone)."""
    import nestfactor.cli as cli

    decomposed, inside = [], []
    eigvalsh, distances = np.linalg.eigvalsh, cli._nest_distances

    def counted(a):
        if inside:
            decomposed.append(len(a) if a.ndim == 3 else 1)
        return eigvalsh(a)

    def watched(*args):
        inside.append(True)
        try:
            return distances(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(np.linalg, "norm", None)  # and no SVD through op_norm
    monkeypatch.setattr(cli, "_nest_distances", watched)
    rows = _run_posdef(tmp_path, "n = 32\ncases = 80\nseed = 0\n")
    assert sum(int(row[1]) + 1 for row in rows) == 1473
    assert 0 < sum(decomposed) <= 110


def test_posdef_check_resweeps_a_batch_whose_ranks_part(tmp_path, monkeypatch):
    """A batch whose ranks part at some increment is swept again one case at
    a time, and still writes the oracle's rows: the rank cut of every case
    whose root has root[0, 0] > root[1, 1] is raised to 0.5 ||sqrt(C)||."""
    import nestfactor.cli as cli

    def raised(root):
        return 5e9 * op_norm(root) if root[0, 0] > root[1, 1] else None

    with_norms = cli._posdef_projections

    def cut_raised(cs, nest):
        roots, norms, ys = with_norms(cs, nest)
        return roots, [norm if raised(root) is None else raised(root)
                       for root, norm in zip(roots, norms)], ys

    monkeypatch.setattr(cli, "_posdef_projections", cut_raised)
    sweeps = _record_sweeps(monkeypatch)
    rows = _run_posdef(tmp_path, "n = 6\ncases = 24\nseed = 1\n", code=1)
    assert rows == _posdef_oracle(6, 24, 1, raised)
    assert None in [ws for _, ws in sweeps]


def test_posdef_check_takes_no_svd_for_idempotence(tmp_path, monkeypatch):
    """No gap Y_j Y_j^T - Q_j Q_j^T that the formula defect bounds or visits
    is asymmetric, so the fourth-power bounds hold and no visited gap takes
    the SVD branch of op_norm: each is exactly symmetric or zero, so its norm
    comes from an eigvalsh (stacked over the batch); no op_norm that
    posdef-check takes goes through an SVD, and the idempotence defect comes
    from the eigenvalues of the dim x dim Gram matrix Y^T Y."""
    import nestfactor
    import nestfactor.amplitude as amplitude
    import nestfactor.linops as linops

    svd_route, gaps = [], []
    original = linops.op_norm
    lockstep, bound = amplitude._max_op_norms, amplitude._symmetric_norm_bounds

    def counted(a):
        a = np.asarray(a, dtype=float)
        if a.any() and not np.array_equal(a, a.T):
            svd_route.append(a.shape)
        return original(a)

    def watched(bounds, form):
        def formed(c, i):
            gap = form(c, i)
            gaps.append(not gap.any() or np.array_equal(gap, gap.T))
            return gap
        return lockstep(bounds, formed)

    def bounded(stack):
        gaps.extend(np.array_equal(g, g.T) for g in stack)
        return bound(stack)

    for key, module in list(sys.modules.items()):
        if (key == "nestfactor" or key.startswith("nestfactor.")) and \
                getattr(module, "op_norm", None) is original:
            monkeypatch.setattr(module, "op_norm", counted)
    monkeypatch.setattr(amplitude, "_max_op_norms", watched)
    monkeypatch.setattr(amplitude, "_symmetric_norm_bounds", bounded)
    _run_posdef(tmp_path, "n = 32\ncases = 20\n")
    assert svd_route == [] and gaps and all(gaps)
    assert nestfactor.op_norm is counted


def test_posdef_check_takes_one_idempotence_spectrum_per_batch(tmp_path, monkeypatch):
    """posdef-check reads the idempotence defects of a batch, the cases of
    one dimension, off one stacked spectrum, one call of
    _idempotence_defect per dimension, and each row equals
    _idempotence_defect of its case's own dim x dim basis."""
    import nestfactor.cli as cli

    calls = []
    original = cli._idempotence_defect

    def counted(ys):
        calls.append((ys, original(ys)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "_idempotence_defect", counted)
    rows = _run_posdef(tmp_path, "n = 32\ncases = 20\n")
    assert len(calls) == len({row[1] for row in rows}) < 20
    assert all(len({y.shape for y in ys}) == 1 for ys, _ in calls)
    for ys, defects in calls:
        assert defects == [original(y) for y in ys]
    by_dim = sorted(rows, key=lambda row: row[1])
    assert [row[3] for row in by_dim] == [d for _, defects in calls for d in defects]


def test_posdef_check_sweeps_each_case_once(tmp_path, monkeypatch):
    """posdef-check cross-checks each case's Gram-formula projections
    against the image nest of its sqrt(C), the production SVD route: every
    case is swept exactly once, in a lockstep batch of its dimension, no
    image_nest is called, and each image nest equals the solo image_nest of
    its root bit for bit."""
    import nestfactor.amplitude as amplitude
    import nestfactor.cli as cli

    images = []
    distances, solo_route = amplitude._nest_distances, amplitude.image_nest

    def recorded(ys, ranks, imgs):
        imgs = list(imgs)
        images.extend(imgs)
        return distances(ys, ranks, imgs)

    for key, module in list(sys.modules.items()):
        if (key == "nestfactor" or key.startswith("nestfactor.")) and \
                getattr(module, "image_nest", None) is solo_route:
            monkeypatch.setattr(module, "image_nest", None)
    monkeypatch.setattr(cli, "_nest_distances", recorded)
    sweeps = _record_sweeps(monkeypatch)
    rows = _run_posdef(tmp_path, "n = 32\ncases = 20\n")
    swept = [w for _, ws in sweeps for w in ws]
    assert len(swept) == len(images) == 20
    assert sorted(int(row[1]) for row in rows) == [img.dim for img in images]
    assert [id(img.source) for img in images] == [id(w) for w in swept]
    monkeypatch.undo()
    for img in images:
        solo = image_nest(img.source, standard_nest(img.dim))
        assert solo.ranks == img.ranks and np.array_equal(solo.basis, img.basis)


MATRIX_KINDS = ("raw", "singular", "indefinite")


def _fuzz_operator(kind, a, zero_rows):
    """A non-symmetric, singular PSD or symmetric indefinite matrix built
    from the drawn entries ``a``."""
    if kind == "raw":
        return a
    if kind == "singular":
        b = a.copy()
        b[:max(1, zero_rows)] = 0.0
        return b.T @ b
    # e_0^T S e_0 < 0 < e_n^T S e_n, so S has eigenvalues of both signs
    s = a + a.T
    big = 1.0 + np.abs(s).sum()
    s[0, 0], s[-1, -1] = -big, big
    return s


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    dim=st.integers(min_value=2, max_value=8),
    entries=st.data(),
    kind=st.sampled_from(MATRIX_KINDS),
    zero_rows=st.integers(min_value=0, max_value=7),
    nest=st.sampled_from(("standard", "channel")),
    channels=st.integers(min_value=1, max_value=4),
    schedule=st.integers(min_value=2, max_value=3),
    alphas=st.lists(st.floats(min_value=1.0, max_value=64.0), min_size=1, max_size=3,
                    unique=True).map(lambda xs: tuple(sorted(xs))),
    eps=st.one_of(st.none(), st.floats(min_value=1e-12, max_value=1.0)),
    n_max=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_main_on_small_configs_exits_cleanly(command, dim, entries, kind, zero_rows, nest,
                                             channels, schedule, alphas, eps, n_max, seed):
    """Every small config, including singular, indefinite and non-symmetric
    CSV operators, ends in exit 0, 1 or 2 without an escaping traceback."""
    a = entries.draw(hnp.arrays(float, (dim, dim),
                                elements=st.floats(-4.0, 4.0, allow_subnormal=False)))
    n = max(2, dim // channels) if command == "channels" else dim
    lines = ["operator = csv", f"n = {n}", f"nest = {nest}", f"channels = {channels}",
             f"schedule = {schedule}", f"alphas = {', '.join(map(repr, alphas))}",
             f"eps = {'auto' if eps is None else repr(eps)}",
             f"tol = {'auto' if eps is None else repr(eps)}",
             f"n_max = {n_max}", f"trunc = {n_max + 1}", "cases = 2"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "operator.csv"
        write_matrix_csv(csv_path, _fuzz_operator(kind, a, zero_rows))
        cfg_path = Path(tmp) / "fuzz.cfg"
        cfg_path.write_text("\n".join([*lines, f"csv_path = {csv_path}"]) + "\n")
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([command, "--config", str(cfg_path), "--out", str(Path(tmp) / "out"),
                         "--seed", str(seed)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

import contextlib
import io
import json
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
    default_probes,
    diagonal,
    exp_volterra_matrix,
    image_nest,
    posdef_projection,
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
    operator's square root once (limit plus members) and hands them to one
    regular_convergence_check: no second pass over the raw operators.  The
    operators swept are counted over every lockstep batch."""
    import nestfactor.amplitude as amplitude
    import nestfactor.cli as cli
    import nestfactor.stability as stability

    nests_built = []
    checks = []
    check = stability.regular_convergence_check
    build = amplitude._image_nests

    def counting_sweep(ws, nest, norms):
        nests_built.extend(ws)
        return build(ws, nest, norms)

    def counting_check(*args, **kwargs):
        checks.append(args)
        return check(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.startswith("nestfactor") and getattr(module, "_image_nests", None) is build:
            monkeypatch.setattr(module, "_image_nests", counting_sweep)
    monkeypatch.setattr(cli, "regular_convergence_check", counting_check)
    monkeypatch.setattr(stability, "regular_convergence_check", counting_check)
    body = "command = stability\n" + CLI_CONFIGS["stability"]
    cfg_path = tmp_path / "stability.cfg"
    cfg_path.write_text(body)
    assert main(["stability", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--seed", "3"]) == 0
    alphas = parse_config(body).alphas
    assert len(nests_built) == len(alphas) + 1
    assert len(checks) == 1 and checks[0][0] == alphas


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
    row off one image nest: limit plus members, none built twice."""
    import nestfactor.amplitude as amplitude

    built = []
    original = amplitude.image_nest

    def counted(w, nest):
        built.append(w)
        return original(w, nest)

    for key, module in list(sys.modules.items()):
        if (key == "nestfactor" or key.startswith("nestfactor.")) and \
                getattr(module, "image_nest", None) is original:
            monkeypatch.setattr(module, "image_nest", counted)
    cfg_path = tmp_path / "counterexample.cfg"
    cfg_path.write_text("command = counterexample\n" + CLI_CONFIGS["counterexample"])
    out = tmp_path / "out"
    assert main(["counterexample", "--config", str(cfg_path), "--out", str(out)]) == 0
    members = len((out / "counterexample.csv").read_text().splitlines()) - 1
    assert members == 3  # n = 2, 4, 8
    assert len(built) == members + 1


def test_counterexample_builds_each_instance_once(tmp_path, monkeypatch):
    """counterexample builds one closed-form instance per member and draws
    nothing from the family's member rule, which would build W_n again."""
    import nestfactor.cli as cli
    import nestfactor.stability as stability

    built = []
    original = stability.counterexample_instance

    def counted(n, trunc):
        built.append(n)
        return original(n, trunc)

    def refuse(fam):
        raise AssertionError("counterexample drew a member from the family")

    monkeypatch.setattr(cli, "counterexample_instance", counted)
    monkeypatch.setattr(stability, "counterexample_instance", counted)
    monkeypatch.setattr(stability.OperatorFamily, "members", refuse)
    cfg_path = tmp_path / "counterexample.cfg"
    cfg_path.write_text("command = counterexample\n" + CLI_CONFIGS["counterexample"])
    assert main(["counterexample", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert built == [2, 4, 8]


_NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None   # any import of scipy or scipy.* now fails
from nestfactor.cli import main
runs = json.loads(sys.argv[1])
codes = [main([command, "--config", cfg, "--out", out]) for command, cfg, out in runs]
loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod)
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """The runtime needs NumPy only: with SciPy blocked from import, every
    command at the CI smoke sizes, and a singular factorize that takes the
    NotPositiveDefiniteError route of the Cholesky oracle, exits 0 as with
    SciPy present."""
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
    assert result == {"codes": [0] * len(runs), "scipy_modules": []}
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
    factorization, so it measures channels + 1 rows, one Cholesky each."""
    import nestfactor.cli as cli

    rows = []
    original = cli.factor_diagnostics

    def counted(c, rep, levels):
        out = original(c, rep, levels)
        rows.append(len(out))
        return out

    monkeypatch.setattr(cli, "factor_diagnostics", counted)
    cholesky = _count_calls(monkeypatch, ["cholesky_upper"])
    cfg_path = tmp_path / "channels.cfg"
    cfg_path.write_text("command = channels\n" + CLI_CONFIGS["channels"])
    assert main(["channels", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    channels = parse_config(CLI_CONFIGS["channels"], "channels").channels
    assert rows == [1] * (channels + 1)
    assert cholesky == {"cholesky_upper": channels + 1}


def test_idempotence_defect_matches_dense_oracle():
    """||P^2 - P|| for P = Y Y^T read off Y^T Y equals the dense formula: on
    the bases posdef_projection returns (round-off, within the 1e-10 gate)
    and on non-orthonormal Y, where the defect is O(1).  On a full
    posdef_projection basis it also equals the largest defect over the
    leading blocks, the per-grid-point loop it replaces in posdef-check,
    since every case meets the interlacing condition lam_min(Y^T Y) >= 1/2."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(2, 17))
        c = random_spd(rng, dim)
        images = posdef_projection(c, standard_nest(dim), psd_sqrt(c))
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
        y = posdef_projection(c, standard_nest(dim), psd_sqrt(c)).basis
        assert np.linalg.eigvalsh(y.T @ y)[0] >= 0.5
        per_block = max(_idempotence_defect(y[:, :k]) for k in range(dim + 1))
        assert abs(_idempotence_defect(y) - per_block) <= 1e-15


def test_posdef_check_takes_no_svd_for_idempotence(tmp_path, monkeypatch):
    """Every op_norm that posdef-check takes is of an exactly symmetric or
    zero matrix, so none takes an n x n SVD; the idempotence defect comes
    from the eigenvalues of the dim x dim Gram matrix Y^T Y."""
    import nestfactor
    import nestfactor.linops as linops

    svd_route = []
    original = linops.op_norm

    def counted(a):
        a = np.asarray(a, dtype=float)
        if a.any() and not np.array_equal(a, a.T):
            svd_route.append(a.shape)
        return original(a)

    for key, module in list(sys.modules.items()):
        if (key == "nestfactor" or key.startswith("nestfactor.")) and \
                getattr(module, "op_norm", None) is original:
            monkeypatch.setattr(module, "op_norm", counted)
    cfg_path = tmp_path / "posdef.cfg"
    cfg_path.write_text("command = posdef-check\nn = 32\ncases = 20\n")
    assert main(["posdef-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert svd_route == []
    assert nestfactor.op_norm is counted


def test_posdef_check_takes_one_idempotence_spectrum_per_case(tmp_path, monkeypatch):
    """posdef-check reads each case's idempotence defect off one spectrum,
    that of its full dim x dim basis: exactly ``cases`` calls of
    _idempotence_defect, not one per grid point."""
    import nestfactor.cli as cli

    shapes = []
    original = cli._idempotence_defect

    def counted(y):
        shapes.append(y.shape)
        return original(y)

    monkeypatch.setattr(cli, "_idempotence_defect", counted)
    cfg_path = tmp_path / "posdef.cfg"
    cfg_path.write_text("command = posdef-check\nn = 32\ncases = 20\n")
    assert main(["posdef-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    dims = [int(line.split(",")[1])
            for line in (tmp_path / "out" / "posdef_check.csv").read_text().splitlines()[1:]]
    assert shapes == [(dim, dim) for dim in dims] and len(shapes) == 20


def test_posdef_check_builds_one_image_nest_per_case(tmp_path, monkeypatch):
    """posdef-check cross-checks each case's Gram-formula projections
    against one image nest of sqrt(C), the production SVD route: exactly
    ``cases`` image_nest calls, one per case, from anywhere in the package."""
    import nestfactor.amplitude as amplitude

    built = []
    original = amplitude.image_nest

    def counted(w, nest):
        built.append(nest.dim)
        return original(w, nest)

    for key, module in list(sys.modules.items()):
        if (key == "nestfactor" or key.startswith("nestfactor.")) and \
                getattr(module, "image_nest", None) is original:
            monkeypatch.setattr(module, "image_nest", counted)
    cfg_path = tmp_path / "posdef.cfg"
    cfg_path.write_text("command = posdef-check\nn = 32\ncases = 20\n")
    assert main(["posdef-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    dims = [int(line.split(",")[1])
            for line in (tmp_path / "out" / "posdef_check.csv").read_text().splitlines()[1:]]
    assert built == dims and len(built) == 20


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

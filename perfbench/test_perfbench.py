"""Tests of the benchmark itself, at the acceptance-test CLI sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER, Tracer, installed_wrappers, span_table  # noqa: E402
from workloads import WORKLOADS, config, config_text  # noqa: E402


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args, "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(PER_LAYER.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(workload):
    result, out = bench("--workload", workload, "--seconds", "0.5")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"{workload}: failed_frac = 0 (fraction; 0 of " in out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    result, out = bench("--workload", workload, "--seconds", "0.5", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(PER_LAYER)
    if workload == "stability-family":
        assert "factor.canonical_factor: 14 calls / 7 distinct inputs" in out
        assert "amplitude.image_nest: 27 calls / 14 distinct inputs" in out
    if workload == "factorize-dense":
        assert result["metrics"]["amplitude.image_nest.scaling_exp"]["value"] > 0


def test_missing_span_is_reported(tmp_path, monkeypatch, capsys):
    baseline = tmp_path / "baseline.json"
    reached = ["amplitude.no_longer_public", "factor.canonical_factor"]
    baseline.write_text(json.dumps(
        {"workloads": {"stability-family": {"trace": {"reached": reached}}}}))
    monkeypatch.setattr(run, "BASELINE", baseline)
    assert run.main(["--workload", "stability-family", "--smoke", "--seconds", "0.2",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    assert "missing spans (reached in the baseline, not now): amplitude.no_longer_public" in out
    assert json.loads(out.strip().splitlines()[-1])["metrics"]["trace.missing_spans"]["value"] == 1


def test_tracer_wraps_every_module_namespace_and_unwinds(tmp_path):
    from nestfactor import cli, factor, linops

    original = linops.op_norm
    tracer = Tracer()
    tracer.install()
    try:
        assert factor.op_norm is linops.op_norm is not original
        cfg = config("factorize-dense", smoke=True)
        (tmp_path / "c.cfg").write_text(config_text(cfg, 0.3))
        assert cli.main(["factorize", "--config", str(tmp_path / "c.cfg"),
                         "--out", str(tmp_path / "out")]) == 0
        table = span_table(tracer.take())
    finally:
        tracer.uninstall()
    assert installed_wrappers() == 0 and linops.op_norm is original
    assert table["cli.main"]["calls"] == 1
    assert table["factor.canonical_factor"]["calls"] == 1
    for row in table.values():
        assert row["self_s"] <= row["incl_s"] + 1e-9


def test_check_flags_a_wrong_answer_and_a_broken_gate(tmp_path):
    cfg = config("factorize-dense", smoke=True)
    (tmp_path / "c.cfg").write_text(config_text(cfg, 0.3))
    from nestfactor import cli

    out = tmp_path / "out"
    assert cli.main(["factorize", "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 0
    text = (out / "factorize.csv").read_text()
    assert checks.check_outputs(out, cfg, 0, {"factorize.csv": text}) == []
    header, *rows = text.splitlines()
    cells = rows[1].split(",")
    wrong = [cells[0], repr(float(cells[1]) * (1 + 1e-6)), *cells[2:]]
    (out / "factorize.csv").write_text("\n".join([header, rows[0], ",".join(wrong), *rows[2:]]) + "\n")
    problems = checks.check_outputs(out, cfg, 0, {"factorize.csv": text})
    assert len(problems) == 1 and "residual" in problems[0]
    broken = [*cells[:3], "1e-6", cells[4]]
    (out / "factorize.csv").write_text("\n".join([header, rows[0], ",".join(broken), *rows[2:]]) + "\n")
    assert any("triangularity_defect" in p for p in checks.check_outputs(out, cfg, 0))
    assert checks.check_outputs(out, cfg, 1) == ["exit code 1"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "posdef-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

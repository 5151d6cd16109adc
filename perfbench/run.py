"""Benchmark of the nestfactor CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload NAME --smoke # acceptance-test sizes
    python3 perfbench/run.py --workload NAME --write-reference

Each workload runs in processes of its own (``worker.py``) with the BLAS and
OpenMP thread counts pinned to 1, importing ``nestfactor`` from ``src``.

``--trace 0`` measures the end-to-end metrics with no tracer installed.
Times are in reference seconds (``calibrate.py``): each is scaled by a
calibration kernel timed next to it, which cancels most of a shared host's
speed drift.

* ``wall_s``: median wall time of one ``nestfactor.cli.main`` invocation
  after the warm-up;
* ``setup_s``: seconds from a workload process's start to the end of its
  warm-up invocation (imports plus one cold invocation), the median over the
  run's processes;
* ``peak_rss_mb``: the largest peak resident memory of those processes.

A run starts ``PROCESSES`` workload processes one after another; each sets up
and then times invocations for its share of ``--seconds``, so process-level
effects (memory layout, a cold cache) are averaged within the run.

``--trace 1`` times invocations in one untraced process for ``--seconds``,
then replays its first inputs in a fresh process with every public function
of the package wrapped (``tracer.py``) and reports the per-layer metrics, the
tracing overhead against the untraced times of the same inputs, and spans the
workload reached in the baseline but no longer reaches.

Every invocation is checked (``checks.py``); ``failed_frac`` is failed over
attempted invocations, warm-ups included.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROCESSES = 3        # workload processes per untraced run
INDEX_STRIDE = 10_000  # input indices of one process: first + 0, 1, 2, ...
TRACE_REPLAYS = 3    # inputs replayed under the tracer
RUN_BUDGET_S = 170   # a run that takes longer is killed and fails
BASELINE = HERE / "baseline.json"
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # Leave no bytecode cache in the checkout, so every run compiles the
    # package as the first one did.
    "PYTHONDONTWRITEBYTECODE": "1",
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(spec: dict, deadline: float) -> tuple[float | None, dict]:
    """Run one worker; return (seconds from start to its warm event, done
    event)."""
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    watchdog.start()
    warm_at, done = None, None
    try:
        for line in proc.stdout:
            if not line.startswith("PERFBENCH "):
                continue
            event = json.loads(line[len("PERFBENCH "):])
            if event["event"] == "warm":
                warm_at = time.perf_counter() - start
            elif event["event"] == "done":
                done = event
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or done is None:
        raise BenchError(f"worker {spec['mode']} for {spec['workload']} exited with {code}")
    return warm_at, done


def summarize_failures(records: list[dict]) -> tuple[int, int]:
    failed = [r for r in records if r["problems"]]
    for r in failed[:5]:
        print(f"failed invocation {r['tag']}-{r['index']}: {r['problems'][:3]}", file=sys.stderr)
    return len(records), len(failed)


def run_untraced(base: dict, seconds: float, deadline: float) -> dict:
    setups, raw_setups, records, peaks, wrappers = [], [], [], [], 0
    for index in range(PROCESSES):
        setup_s, done = spawn(dict(base, mode="run", warm=index,
                                   first=PROCESSES + index * INDEX_STRIDE,
                                   seconds=seconds / PROCESSES), deadline)
        warm = next(r for r in done["records"] if r["tag"] == "warm")
        raw_setups.append(setup_s)
        setups.append(scale(setup_s, warm["kernel_s"]))
        records += done["records"]
        peaks.append(done["peak_rss_mb"])
        wrappers += done["wrappers_in_timed_run"]
    timed = [r for r in records if r["tag"] == "run"]
    attempted, failed = summarize_failures(records)
    name = base["workload"]
    values = {
        "wall_s": statistics.median(scale(r["wall_s"], r["kernel_s"]) for r in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peaks),
    }
    raw_wall = statistics.median(r["wall_s"] for r in timed)
    print(f"{name}: wall_s = {values['wall_s']:.4f} s (reference seconds; median of "
          f"{len(timed)} timed invocations; raw median {raw_wall:.4f} s)")
    print(f"{name}: setup_s = {values['setup_s']:.4f} s (reference seconds; median of "
          f"{len(setups)} processes; raw median {statistics.median(raw_setups):.4f} s)")
    print(f"{name}: peak_rss_mb = {values['peak_rss_mb']:.1f} MB (largest of {len(peaks)} processes)")
    print(f"{name}: failed_frac = {failed / attempted:g} (fraction; {failed} of {attempted} "
          f"invocations failed, warm-ups included)")
    print("environment: " + json.dumps(done["environment"]))
    correct = failed == 0 and wrappers == 0
    if wrappers:
        print("a traced wrapper was installed during the timed run", file=sys.stderr)
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def baseline_spans(name: str) -> list[str]:
    """Spans the workload's traced baseline run reached."""
    if not BASELINE.is_file():
        return []
    entry = json.loads(BASELINE.read_text())["workloads"].get(name, {})
    return entry.get("trace", {}).get("reached", [])


def run_traced(base: dict, seconds: float, deadline: float) -> dict:
    from tracer import PER_LAYER

    name = base["workload"]
    _, plain = spawn(dict(base, mode="run", warm=0, first=PROCESSES, seconds=seconds), deadline)
    timed = [r for r in plain["records"] if r["tag"] == "run"]
    replay = [r["index"] for r in timed[:TRACE_REPLAYS]]
    half = WORKLOADS[name].get("trace_half_n", False)
    _, traced = spawn(dict(base, mode="trace", warm=1, replay=replay,
                           half=half), deadline)
    records = plain["records"] + traced["records"]
    attempted, failed = summarize_failures(records)

    per_inv = traced["per_invocation"]
    values = {m: statistics.median(scale(inv[m], inv["kernel_s"]) if unit == "s" else inv[m]
                                   for inv in per_inv)
              for m, unit in PER_LAYER.items() if m in per_inv[0]}
    values["amplitude.image_nest.scaling_exp"] = traced["scaling_exp"]
    traced_wall = statistics.median(scale(r["wall_s"], r["kernel_s"])
                                    for r in traced["records"] if r["tag"] == "trace")
    values["trace.overhead_s"] = traced_wall - statistics.median(
        scale(r["wall_s"], r["kernel_s"]) for r in timed[:len(replay)])
    missing = sorted(set(baseline_spans(name)) - set(traced["reached"]))
    values["trace.missing_spans"] = len(missing)

    for span, (calls, distinct) in traced["distinct"].items():
        print(f"{name}: {span}: {calls} calls / {distinct} distinct inputs")
    print(f"{name}: reached spans: {json.dumps(traced['reached'])}")
    if missing:
        print(f"{name}: missing spans (reached in the baseline, not now): {', '.join(missing)}")
    print(f"{name}: traced wall {traced_wall:.4f} s (reference seconds) over "
          f"{len(replay)} replayed inputs; the table below is in raw seconds")
    print(f"{'span':<42} {'calls':>9} {'errors':>6} {'self_s':>9} {'incl_s':>9}")
    for span, row in sorted(traced["table"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{span:<42} {row['calls']:>9g} {row['errors']:>6g} "
              f"{row['self_s']:>9.4f} {row['incl_s']:>9.4f}")
    correct = (failed == 0 and plain["wrappers_in_timed_run"] == 0
               and traced["wrappers_left"] == 0)
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()},
    }


def run_workload(name: str, args, workdir: Path) -> dict:
    base = {"root": str(ROOT), "workdir": str(workdir), "workload": name,
            "seed": args.seed, "smoke": args.smoke}
    deadline = time.perf_counter() + RUN_BUDGET_S
    if args.write_reference:
        _, done = spawn(dict(base, mode="reference", smoke=False, seed=0), deadline)
        print(f"{name}: wrote {done['reference']}")
        return {}
    if args.trace:
        return run_traced(base, args.seconds, deadline)
    return run_untraced(base, args.seconds, deadline)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at the acceptance-test CLI sizes")
    parser.add_argument("--write-reference", action="store_true",
                        help="write the default-seed reference outputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nestfactor" / "cli.py").is_file():
        print(f"no nestfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".perfbench_work"
    results = {}
    try:
        for name in names:
            workdir = work_root / f"{name}-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                results[name] = run_workload(name, args, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when empty
    if args.write_reference:
        return 0
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

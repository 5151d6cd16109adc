"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 0]
                                [--trace-runs 0] [--write-baseline]

For each workload this runs ``run.py`` once per seed, as a fresh process
from the repository root, and prints every end-to-end metric's median and the
distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.
``--trace-runs`` adds traced runs whose per-layer medians and reached spans
go into the baseline; ``--write-baseline`` writes ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import BASELINE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Wall seconds of every run.py process, by workload.
ELAPSED: dict[str, list[float]] = {}


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    ELAPSED.setdefault(workload, []).append(time.perf_counter() - start)
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    baseline = {"workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        environment = None
        for seed in seeds:
            result, lines = bench(name, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect result {result}")
                ok = False
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            environment = next(json.loads(ln.split(": ", 1)[1]) for ln in lines
                               if ln.startswith("environment: "))
        entry = {"end_to_end": {m: spread(v) for m, v in values.items()}}
        for metric, s in entry["end_to_end"].items():
            bound = bounds[metric]
            flag = "" if metric == "setup_s" or s["spread"] < bound / 3 else "  <-- not below bound/3"
            print(f"{name:<18} {metric:<12} median {s['median']:.4f}  "
                  f"spread {s['spread']:.4f}  bound {bound}{flag}  "
                  f"values {' '.join(f'{v:.4g}' for v in s['values'])}", flush=True)
        if args.trace_runs:
            per_layer: dict[str, list[float]] = {}
            reached: set[str] = set()
            for seed in seeds[:args.trace_runs]:
                result, lines = bench(name, seed, seconds, 1)
                if not result["correct"] or result["failed"]:
                    print(f"{name} seed {seed} traced: incorrect result {result}")
                    ok = False
                for metric, e in result["metrics"].items():
                    per_layer.setdefault(metric, []).append(e["value"])
                reached |= set(next(json.loads(ln.split(": ", 2)[2]) for ln in lines
                                    if ln.startswith(f"{name}: reached spans: ")))
            entry["trace"] = {
                "per_layer": {m: statistics.median(v) for m, v in per_layer.items()},
                "reached": sorted(reached),
            }
        print(f"{name:<18} run.py took {statistics.mean(ELAPSED[name]):.1f} s on average, "
              f"{max(ELAPSED[name]):.1f} s at most", flush=True)
        entry["run_py_s"] = ELAPSED[name]
        baseline["workloads"][name] = entry
        baseline["environment"] = environment
    if args.write_baseline:
        baseline["run_seconds"] = seconds
        baseline["seeds"] = list(seeds)
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

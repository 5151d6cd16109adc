"""One workload process of the benchmark.

``run.py`` starts this script with a JSON spec as its only argument and with
the BLAS thread count pinned in its environment.  It imports ``nestfactor``
from the checkout's ``src``, drives ``nestfactor.cli.main`` in-process and
reports on standard output, one ``PERFBENCH <json>`` line per event:

* ``warm``: the warm-up invocation finished (``run.py`` times set-up from
  the process start to this line);
* ``done``: every invocation record, peak RSS and, for traced runs, the
  per-layer metrics.

Modes: ``run`` (warm-up, then timed invocations for ``seconds`` on inputs
from ``first`` on), ``trace`` (warm-up, then traced replays of given inputs)
and ``reference`` (write the default-seed reference outputs).
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

from checks import (  # noqa: E402  (script directory is on sys.path)
    DEFAULT_SEED,
    REFERENCE_DIR,
    REFERENCE_INDICES,
    check_outputs,
    expected_rows,
    load_reference,
)
from workloads import WORKLOADS, config, config_text, invocation_input  # noqa: E402


def emit(event: str, **fields) -> None:
    print("PERFBENCH " + json.dumps({"event": event, **fields}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> dict[str, int]:
    """Thread count each OpenBLAS bundled with NumPy and SciPy reports, by
    library file name."""
    import numpy
    import scipy

    out = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


class Worker:
    def __init__(self, spec: dict):
        self.spec = spec
        self.name = spec["workload"]
        self.seed = spec["seed"]
        self.smoke = spec["smoke"]
        self.cfg = config(self.name, self.smoke)
        self.workdir = Path(spec["workdir"])
        with_reference = self.seed == DEFAULT_SEED and not self.smoke
        self.reference = load_reference(self.name) if with_reference else {}
        self.records: list[dict] = []
        from nestfactor import cli
        self.cli = cli

    def invoke(self, index: int, tag: str, cfg: dict | None = None,
               check_reference: bool = True) -> dict:
        """Run one CLI invocation on input ``index`` and check its outputs."""
        cfg = cfg or self.cfg
        inp = invocation_input(self.name, self.seed, index)
        outdir = self.workdir / f"{tag}-{index}"
        cfg_path = self.workdir / f"{tag}-{index}.cfg"
        cfg_path.write_text(config_text(cfg, inp["kappa"]))
        argv = [cfg["command"], "--config", str(cfg_path), "--out", str(outdir),
                "--seed", str(inp["seed"])]
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # a crash counts as a failed invocation
            code = None
            crash = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        if code is None:
            problems = ["raised: " + crash]
        else:
            ref = self.reference.get(index) if check_reference else None
            problems = check_outputs(outdir, cfg, code, ref)
        record = {"index": index, "tag": tag, "wall_s": wall, "problems": problems}
        self.records.append(record)
        return record

    def setup(self) -> None:
        record = self.invoke(self.spec["warm"], "warm")
        emit("warm")
        from calibrate import kernel_s
        self.kernel = record["kernel_s"] = kernel_s()

    def calibrated(self, index: int, tag: str, cfg: dict | None = None,
                   check_reference: bool = True) -> dict:
        """Invoke, then run the calibration kernel; the record gets the mean
        kernel time from just before and just after the invocation."""
        from calibrate import kernel_s
        record = self.invoke(index, tag, cfg, check_reference)
        after = kernel_s()
        record["kernel_s"] = (self.kernel + after) / 2
        self.kernel = after
        return record

    def run(self) -> dict:
        from tracer import installed_wrappers

        self.setup()
        wrappers = installed_wrappers()
        deadline = time.perf_counter() + self.spec["seconds"]
        index = self.spec["first"]
        while True:
            self.calibrated(index, "run")
            index += 1
            if time.perf_counter() >= deadline:
                break
        wrappers += installed_wrappers()
        return {"peak_rss_mb": peak_rss_mb(), "wrappers_in_timed_run": wrappers,
                "environment": environment()}

    def trace(self) -> dict:
        from tracer import (
            DISTINCT, Tracer, distinct_count, installed_wrappers, invocation_metrics,
            scaling_exponent, span_table,
        )

        self.setup()
        tracer = Tracer()
        tracer.install()
        per_invocation, tables, distinct = [], [], {}
        try:
            for index in self.spec["replay"]:
                tracer.take()
                record = self.calibrated(index, "trace")
                spans = tracer.take()
                tables.append(span_table(spans))
                per_invocation.append(dict(invocation_metrics(spans),
                                           kernel_s=record["kernel_s"]))
                distinct = distinct or {s: distinct_count(spans, s) for s in DISTINCT}
                record["problems"] += self._compare_bytes(index)
            half = []
            if self.spec.get("half"):
                cfg = dict(self.cfg, n=self.cfg["n"] // 2)
                for index in self.spec["replay"]:
                    tracer.take()
                    self.calibrated(index, "half", cfg, check_reference=False)
                    row = span_table(tracer.take()).get("amplitude.image_nest")
                    half.append(row["incl_s"] if row else 0.0)
        finally:
            tracer.uninstall()
        scaling = 0.0
        if half:
            full = statistics.median(m["amplitude.image_nest.incl_s"] for m in per_invocation)
            scaling = scaling_exponent(statistics.median(half), full, 2.0)
        # Mean per invocation of every span's calls, errors and times.
        table: dict[str, dict] = {}
        for t in tables:
            for span, row in t.items():
                acc = table.setdefault(span, dict.fromkeys(row, 0.0))
                for field, value in row.items():
                    acc[field] += value / len(tables)
        return {
            "per_invocation": per_invocation,
            "scaling_exp": scaling,
            "reached": sorted(table),
            "table": table,
            "distinct": distinct,
            "wrappers_left": installed_wrappers(),
        }

    def _compare_bytes(self, index: int) -> list[str]:
        """Traced CSVs must equal the untraced run's CSVs on the same input."""
        plain, traced = self.workdir / f"run-{index}", self.workdir / f"trace-{index}"
        out = []
        for name in expected_rows(self.cfg):
            a, b = plain / name, traced / name
            if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
                out.append(f"input {index}: traced {name} differs from untraced")
        return out

    def write_reference(self) -> dict:
        outputs = {}
        for index in REFERENCE_INDICES:
            rec = self.invoke(index, "ref", check_reference=False)
            if rec["problems"]:
                raise SystemExit(f"input {index} fails its checks: {rec['problems']}")
            outdir = self.workdir / f"ref-{index}"
            outputs[str(index)] = {name: (outdir / name).read_text()
                                   for name in expected_rows(self.cfg)}
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{self.name}.json"
        path.write_text(json.dumps({
            "workload": self.name, "seed": DEFAULT_SEED, "config": self.cfg,
            "outputs": outputs,
        }, indent=1) + "\n")
        return {"reference": str(path.relative_to(HERE.parent))}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["workload"] not in WORKLOADS:
        raise SystemExit(f"unknown workload {spec['workload']!r}")
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    worker = Worker(spec)
    mode = spec["mode"]
    if mode == "run":
        extra = worker.run()
    elif mode == "trace":
        extra = worker.trace()
    elif mode == "reference":
        extra = worker.write_reference()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    emit("done", records=worker.records, **extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())

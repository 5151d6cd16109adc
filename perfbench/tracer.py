"""Outside-in tracer for the nestfactor layers.

The tracer wraps every function named in the ``__all__`` of each package
module and rebinds the wrapper in every ``nestfactor`` module namespace that
holds the original, so calls made inside the package (``image_nest`` from
``factor``, ``op_norm`` from almost everywhere) are traced too.  Nothing under
``src/`` changes.  Spans stay in memory; the worker turns them into per-layer
metrics at the end of a traced invocation.

A span is ``[name, start, end, parent, error, extra]``; ``parent`` is the
index of the enclosing span (-1 at top level) and ``extra`` holds counters
computed at the boundary: a hash of the operator argument (for distinct-input
ratios), the work of an ``op_norm`` call, bytes of the arrays a call returned
and bytes of a CSV written.  Byte counts are computed from array sizes, not
measured.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import math
import os
import sys
import time

import numpy as np

LAYERS = ("linops", "nests", "amplitude", "factor", "stability", "serialize", "cli")

# Marks a wrapper so a timed run can prove none is installed.
MARK = "__perfbench_traced__"

# name -> unit, in the order the per-layer result lists them.
PER_LAYER = {
    "linops.range_projection.calls": "count",
    "linops.range_projection.self_s": "s",
    "linops.op_norm.calls": "count",
    "linops.op_norm.self_s": "s",
    "linops.op_norm.work_n3": "count",
    "linops.psd_sqrt.calls": "count",
    "linops.psd_sqrt.self_s": "s",
    "linops.psd_sqrt.distinct_ratio": "ratio",
    "linops.require_symmetric.calls": "count",
    "linops.require_symmetric.incl_s": "s",
    "nests.standard_nest.incl_s": "s",
    "nests.channel_nest.incl_s": "s",
    "nests.refine.calls": "count",
    "nests.nest_bytes": "bytes_computed",
    "amplitude.image_nest.calls": "count",
    "amplitude.image_nest.incl_s": "s",
    "amplitude.image_nest.distinct_ratio": "ratio",
    "amplitude.image_nest.scaling_exp": "exponent",
    "amplitude.image_bytes": "bytes_computed",
    "amplitude.partial_diagonal.calls": "count",
    "amplitude.partial_diagonal.self_s": "s",
    "amplitude.check_intertwining.calls": "count",
    "amplitude.check_intertwining.incl_s": "s",
    "amplitude.diagonal.incl_s": "s",
    "factor.canonical_factor.calls": "count",
    "factor.canonical_factor.incl_s": "s",
    "factor.canonical_factor.distinct_ratio": "ratio",
    "factor.triangularity_defect.calls": "count",
    "factor.triangularity_defect.incl_s": "s",
    "factor.admissibility.incl_s": "s",
    "factor.compare_to_cholesky.incl_s": "s",
    "factor.cholesky_upper.incl_s": "s",
    "factor.cholesky_upper.errors": "count",
    "stability.stability_harness.incl_s": "s",
    "stability.gap_term_sweep.incl_s": "s",
    "stability.regular_convergence_check.incl_s": "s",
    "stability.uniformity_diagnostic.incl_s": "s",
    "stability.channel_assembly.incl_s": "s",
    "stability.posdef_projection.calls": "count",
    "stability.posdef_projection.self_s": "s",
    "stability.posdef_projection.errors": "count",
    "serialize.write_csv.calls": "count",
    "serialize.write_csv.incl_s": "s",
    "serialize.csv_bytes": "bytes",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
}

# Spans whose operator argument is hashed to count distinct inputs.
DISTINCT = ("linops.psd_sqrt", "amplitude.image_nest", "factor.canonical_factor")
# Spans whose returned arrays are counted (bytes not already in the arguments).
_RESULT_BYTES = ("nests.standard_nest", "nests.channel_nest", "amplitude.image_nest")


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "nestfactor" or n.startswith("nestfactor.")]


def installed_wrappers() -> int:
    """Number of traced wrappers bound anywhere in the package."""
    return sum(1 for m in _package_modules() for v in list(vars(m).values())
               if getattr(v, MARK, False))


def _operator_key(args, kwargs) -> str:
    a = args[0] if args else next(iter(kwargs.values()))
    a = np.ascontiguousarray(a, dtype=float)
    h = hashlib.blake2b(a.tobytes(), digest_size=16)
    h.update(repr(a.shape).encode())
    return h.hexdigest()


def _walk_arrays(obj, seen: set, out: list) -> None:
    """Collect the arrays reachable from ``obj`` through dataclass fields,
    tuples, lists and dicts, each owning buffer once."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if isinstance(obj.base, np.ndarray):
            _walk_arrays(obj.base, seen, out)
        else:
            out.append(obj.nbytes)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _walk_arrays(getattr(obj, f.name), seen, out)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _walk_arrays(item, seen, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _walk_arrays(item, seen, out)


def result_bytes(result, args, kwargs) -> int:
    """Bytes of the arrays in ``result`` that the arguments did not already
    hold, computed from array sizes."""
    seen: set = set()
    _walk_arrays((args, kwargs), seen, [])
    out: list = []
    _walk_arrays(result, seen, out)
    return int(sum(out))


class Tracer:
    """Installs wrappers around the package's public functions and records
    one span per call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._bound: list = []   # (module, attribute, original)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"nestfactor.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def take(self) -> list:
        """Return the spans recorded since the last call and forget them.
        Call between invocations, when no span is open."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        distinct = name in DISTINCT
        counts_bytes = name in _RESULT_BYTES
        is_op_norm = name == "linops.op_norm"
        is_write_csv = name == "serialize.write_csv"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = {}
            if distinct:
                extra["key"] = _operator_key(args, kwargs)
            if is_op_norm:
                shape = np.shape(args[0] if args else kwargs["a"])
                if len(shape) == 2:
                    extra["work_n3"] = shape[0] * shape[1] * min(shape)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, extra]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counts_bytes:
                extra["bytes"] = result_bytes(result, args, kwargs)
            if is_write_csv:
                extra["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])
            return result

        setattr(traced, MARK, True)
        return traced


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, errors, self and inclusive seconds.

    Self time is a span's duration minus its child spans; inclusive time
    counts only calls with no enclosing call of the same name.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    table: dict[str, dict] = {}
    for i, (name, start, end, parent, error, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "errors": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["errors"] += int(error)
        row["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["incl_s"] += end - start
    return table


def invocation_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, from the spans
    :meth:`Tracer.take` returned.  ``trace.*`` and ``scaling_exp`` are filled
    in by the worker from several invocations."""
    table = span_table(spans)
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        row = table.get(span)
        if field in ("calls", "errors", "self_s", "incl_s"):
            out[metric] = row[field] if row else 0
    for span in DISTINCT:
        calls, distinct = distinct_count(spans, span)
        out[f"{span}.distinct_ratio"] = distinct / calls if calls else 0.0
    out["linops.op_norm.work_n3"] = sum(
        s[5].get("work_n3", 0) for s in spans if s[0] == "linops.op_norm")
    out["nests.nest_bytes"] = max(
        (s[5].get("bytes", 0) for s in spans
         if s[0] in ("nests.standard_nest", "nests.channel_nest")), default=0)
    out["amplitude.image_bytes"] = max(
        (s[5].get("bytes", 0) for s in spans if s[0] == "amplitude.image_nest"), default=0)
    out["serialize.csv_bytes"] = sum(
        s[5].get("bytes", 0) for s in spans if s[0] == "serialize.write_csv")
    return out


def distinct_count(spans, span: str) -> tuple[int, int]:
    """(calls, distinct operator inputs) of one span name."""
    keys = [s[5]["key"] for s in spans if s[0] == span]
    return len(keys), len(set(keys))


def scaling_exponent(t_small: float, t_large: float, ratio: float) -> float:
    """Exponent p in t ~ n^p from two sizes n and n/ratio."""
    if t_small <= 0.0 or t_large <= 0.0:
        return 0.0
    return math.log(t_large / t_small) / math.log(ratio)

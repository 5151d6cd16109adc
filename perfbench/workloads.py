"""The benchmark's workloads and the inputs each run draws for them.

Every workload drives one CLI command at a fixed size.  Each invocation gets
its own ``kappa`` and ``--seed``, drawn from the run's workload seed, so a run
sees the same input sequence every time while no two invocations in a run
share an input: a cross-invocation memo, which one-shot CLI users never
benefit from, cannot read as a gain.
"""

from __future__ import annotations

import random

# Sizes are chosen so that one run (three processes, each with its set-up)
# stays near thirty seconds on a 2-core host and takes five or more timed
# samples, while the layer that makes each workload interesting still
# dominates it (the "why" of each workload in BENCHMARK.json).
WORKLOADS = {
    "factorize-dense": {
        "command": "factorize",
        "config": {"operator": "volterra", "nest": "standard", "n": 160, "schedule": 5},
        "smoke": {"operator": "volterra", "nest": "standard", "n": 16, "schedule": 4},
        # The traced run also times the image nest at n/2 to fit its scaling.
        "trace_half_n": True,
    },
    "stability-family": {
        "command": "stability",
        "config": {"nest": "standard", "n": 64, "schedule": 5},
        "smoke": {"nest": "standard", "n": 16, "schedule": 4},
    },
    "channels-block": {
        "command": "channels",
        "config": {"n": 24, "channels": 4, "schedule": 5},
        "smoke": {"n": 8, "channels": 2, "schedule": 3},
    },
    "posdef-small": {
        "command": "posdef-check",
        "config": {"n": 32, "cases": 80},
        "smoke": {"n": 8, "cases": 5},
    },
}

KAPPA_RANGE = (0.2, 0.4)


def config(name: str, smoke: bool = False) -> dict:
    """The fixed part of a workload's config (command included)."""
    spec = WORKLOADS[name]
    return {"command": spec["command"], **spec["smoke" if smoke else "config"]}


def invocation_input(name: str, seed: int, index: int) -> dict:
    """Input of the ``index``-th invocation of a run with workload seed
    ``seed``: its ``kappa`` and its CLI ``--seed``."""
    rng = random.Random(f"{name}:{seed}:{index}")
    lo, hi = KAPPA_RANGE
    return {"kappa": lo + (hi - lo) * rng.random(), "seed": rng.randrange(2**31)}


def config_text(cfg: dict, kappa: float) -> str:
    """Render a config file for the CLI (``key = value`` lines)."""
    lines = [f"{key} = {value}" for key, value in cfg.items()]
    lines.append(f"kappa = {kappa!r}")
    return "\n".join(lines) + "\n"

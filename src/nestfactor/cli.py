"""Command-line experiment runner.

Commands: factorize, diagonal, stability, counterexample, channels,
posdef-check, named by the one positional argument of one parser.  Each
reads an optional ``key = value`` config file, writes CSV reports plus a
plain-text summary into the output directory, and exits 0 on a pass
verdict, 1 on a fail verdict, 2 on input errors.  Identical configs and
seeds produce byte-identical CSV output.
"""

from __future__ import annotations

# Kept under 4096 parser tokens (tests/test_exports.py): past that its compile peaks
# 0.23 MB higher (CHANGES.md).
import argparse
import math
import sys
from dataclasses import astuple, dataclass, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .linops import _idempotence_defect, op_norm
from .nests import Nest, channel_nest, standard_nest
from .amplitude import _image_nests, _nest_distances, check_intertwining, default_probes, diagonal
from .factor import FactorizationRow, _posdef_projections, canonical_factor, factor_diagnostics
from .stability import (
    ConvergenceRow,
    channel_assembly,
    channel_volterra_family,
    counterexample_family,
    escape_projection,
    exp_volterra_matrix,
    exp_volterra_operator,
    regular_convergence_check,
    run_family,
    volterra_family,
)
from .serialize import fmt, read_matrix_csv, write_csv

__all__ = ["ConfigError", "ExperimentConfig", "main", "parse_config", "run"]

COMMANDS = (
    "factorize",
    "diagonal",
    "stability",
    "counterexample",
    "channels",
    "posdef-check",
)

OPERATORS = ("volterra", "volterra_factor", "identity", "diagonal", "csv")

MAX_DIM = 1024
MAX_SCHEDULE = 12
MAX_ALPHAS = 32       # one more factorization per alpha: ~0.7 s at n = MAX_DIM, schedule 12
POSDEF_MAX_DIM = 32   # posdef-check samples dimensions 2..min(n, POSDEF_MAX_DIM)
MAX_CHANNELS = 64
MAX_CASES = 1000

# Column layouts of the factorize, diagonal and stability tables; the other
# tables are laid out inline where they are written.
DIAGONAL_HEADER = ["range", "cauchy_defect", "partial_norm", "intertwining_defect"]
FACTOR_HEADER = [
    "range",
    "residual",
    "admissibility_defect",
    "triangularity_defect",
    "cholesky_distance",
]
STABILITY_HEADER = [f.name for f in fields(ConvergenceRow)]


def _verdict_line(name: str, report) -> str:
    """``NAME verdict = VERDICT``, with the failure reason when there is one."""
    return f"{name} verdict = {report.verdict}" + (f" ({report.failure})" if report.failure else "")


def factorization_rows(history: list[FactorizationRow]) -> list[list[float]]:
    return [
        [r.range, r.residual, r.admissibility_defect, r.triangularity, r.cholesky_distance]
        for r in history
    ]


class ConfigError(ValueError):
    """Bad configuration: unknown key, malformed value, or out-of-range
    setting."""


@dataclass
class ExperimentConfig:
    command: str
    operator: str = "volterra"
    kappa: float = 0.3
    n: int = 128
    csv_path: str = ""
    diag_values: tuple[float, ...] = (4.0, 1.0)
    nest: str = "standard"
    channels: int = 8
    schedule: int = 5
    alphas: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    eps: float | None = None
    tol: float | None = None
    n_max: int = 32
    trunc: int = 64
    cases: int = 50
    out: str = "out"
    seed: int = 0


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_optional_float(text: str) -> float | None:
    return None if text == "auto" else float(text)


def _show_optional(value) -> str:
    return "auto" if value is None else fmt(value)


def _show_list(values) -> str:
    return ", ".join(fmt(v) for v in values)


# key -> (parse, show, help)
SCHEMA = {
    "command": (str, str, "one of: " + ", ".join(COMMANDS)),
    "operator": (str, str, "builtin operator: " + ", ".join(OPERATORS)),
    "kappa": (float, fmt, "kernel weight for the volterra operators, 0 < kappa < 1"),
    "n": (int, str, f"grid size / operator dimension, 2..{MAX_DIM} (per channel for the "
          f"channels command, with n x channels at most {MAX_DIM}; posdef-check samples "
          f"dimensions 2..min(n, {POSDEF_MAX_DIM}))"),
    "csv_path": (str, str, "matrix CSV path for operator = csv"),
    "diag_values": (_parse_float_list, _show_list,
                    f"diagonal entries for operator = diagonal, 1..{MAX_DIM} of them"),
    "nest": (str, str, "nest kind: standard or channel"),
    "channels": (int, str, f"number of channel blocks, 1..{MAX_CHANNELS}"),
    "schedule": (int, str, f"refinement count, 2..{MAX_SCHEDULE}"),
    "alphas": (_parse_float_list, _show_list,
               "family parameters, ascending, each finite and at least 1, "
               f"1..{MAX_ALPHAS} of them"),
    "eps": (_parse_optional_float, _show_optional,
            "Cauchy threshold for the diagonal refinement, finite and >= 0; "
            "auto = 1e-8 * (1 + norm)"),
    "tol": (_parse_optional_float, _show_optional,
            "pass threshold for stability verdicts, finite and >= 0; "
            "auto scales with the operator norm"),
    "n_max": (int, str, "largest member index for the counterexample command"),
    "trunc": (int, str, f"truncation dimension for the counterexample command, n_max + 1..{MAX_DIM}"),
    "cases": (int, str, f"number of seeded cases for posdef-check, 1..{MAX_CASES}"),
    "out": (str, str, "output directory"),
    "seed": (int, str, "seed for probe vectors and sampled operators"),
}


def parse_config(text: str, command: str | None = None) -> ExperimentConfig:
    """Parse ``key = value`` lines into a config.

    ``#`` starts a comment; blank lines are skipped.  Unknown keys, duplicate
    keys and malformed values raise :class:`ConfigError` naming the line.  A
    command must come from the file or the ``command`` argument (and must
    agree when both are present).
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parse = SCHEMA[key][0]
        try:
            values[key] = parse(val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {val!r} for key {key!r}"
            ) from None
    file_command = values.pop("command", None)
    if command is not None and file_command is not None and command != file_command:
        raise ConfigError(
            f"config file says command = {file_command}, invoked as {command}"
        )
    final_command = command if command is not None else file_command
    if final_command is None:
        raise ConfigError("command required (none in config, none given)")
    cfg = ExperimentConfig(command=str(final_command), **values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.operator not in OPERATORS:
        raise ConfigError(f"unknown operator {cfg.operator!r}")
    if not 0 < cfg.kappa < 1:
        raise ConfigError(f"kappa must lie in (0, 1), got {cfg.kappa}")
    if not 2 <= cfg.n <= MAX_DIM:
        raise ConfigError(f"n must lie in 2..{MAX_DIM}, got {cfg.n}")
    if not 2 <= cfg.schedule <= MAX_SCHEDULE:
        raise ConfigError(f"schedule must lie in 2..{MAX_SCHEDULE}, got {cfg.schedule}")
    if not 1 <= cfg.channels <= MAX_CHANNELS:
        raise ConfigError(f"channels must lie in 1..{MAX_CHANNELS}, got {cfg.channels}")
    if cfg.command == "channels" and cfg.n * cfg.channels > MAX_DIM:
        raise ConfigError(
            f"channels assembles an operator of dimension n x channels = "
            f"{cfg.n} x {cfg.channels} = {cfg.n * cfg.channels}, above MAX_DIM = {MAX_DIM}"
        )
    if not 1 <= cfg.cases <= MAX_CASES:
        raise ConfigError(f"cases must lie in 1..{MAX_CASES}, got {cfg.cases}")
    if cfg.nest not in ("standard", "channel"):
        raise ConfigError(f"nest must be standard or channel, got {cfg.nest!r}")
    if not 1 <= len(cfg.alphas) <= MAX_ALPHAS:
        raise ConfigError(f"alphas must hold 1..{MAX_ALPHAS} entries, got {len(cfg.alphas)}")
    if any(b <= a for a, b in zip(cfg.alphas[:-1], cfg.alphas[1:])):
        raise ConfigError(f"alphas must be strictly ascending, got {cfg.alphas}")
    if not all(1.0 <= a < math.inf for a in cfg.alphas):
        raise ConfigError(f"alphas must be finite and at least 1, got {cfg.alphas}")
    if cfg.n_max < 2:
        raise ConfigError(f"n_max must be at least 2, got {cfg.n_max}")
    if not cfg.n_max + 1 <= cfg.trunc <= MAX_DIM:
        raise ConfigError(
            f"trunc must lie in n_max + 1..{MAX_DIM}, got trunc={cfg.trunc}, n_max={cfg.n_max}"
        )
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if not 1 <= len(cfg.diag_values) <= MAX_DIM:
        raise ConfigError(f"diag_values must hold 1..{MAX_DIM} entries, got {len(cfg.diag_values)}")
    for key in ("eps", "tol"):
        if not 0 <= (getattr(cfg, key) or 0) < math.inf:  # every defect passes nan and inf
            raise ConfigError(f"{key} must be auto or finite and >= 0, got {getattr(cfg, key)}")


def _build_operator(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.operator == "volterra":
        return exp_volterra_operator(cfg.kappa, cfg.n)
    if cfg.operator == "volterra_factor":
        return exp_volterra_matrix(cfg.kappa, cfg.n)
    if cfg.operator == "identity":
        return np.eye(cfg.n)
    if cfg.operator == "diagonal":
        return np.diag(np.asarray(cfg.diag_values, dtype=float))
    if cfg.operator == "csv":
        if not cfg.csv_path:
            raise ConfigError("operator = csv requires csv_path")
        a = read_matrix_csv(cfg.csv_path)
        if not 2 <= a.shape[0] <= MAX_DIM:
            raise ConfigError(
                f"matrix dimension {a.shape[0]} outside 2..{MAX_DIM}"
            )
        return a
    raise ConfigError(f"unknown operator {cfg.operator!r}")


def _block_dim(cfg: ExperimentConfig, dim: int) -> int:
    if dim % cfg.channels:
        raise ConfigError(f"channel nest needs channels ({cfg.channels}) dividing dim ({dim})")
    return dim // cfg.channels


def _build_nest(cfg: ExperimentConfig, dim: int) -> Nest:
    if cfg.nest == "standard":
        return standard_nest(dim)
    return channel_nest(standard_nest(_block_dim(cfg, dim)), cfg.channels)


def _run_factorize(cfg: ExperimentConfig, outdir: Path) -> tuple[bool, list[str]]:
    c = _build_operator(cfg)
    nest = _build_nest(cfg, c.shape[0])
    probes = default_probes(nest.dim, cfg.seed)
    rep = canonical_factor(c, nest, cfg.schedule, eps=cfg.eps, probes=probes)
    rep.image = rep.probed = None  # the diagnostics read G and the shape alone
    history = factor_diagnostics(c, rep, rep.levels)
    write_csv(outdir / "factorize.csv", FACTOR_HEADER, factorization_rows(history))
    last = history[-1]
    bound = rep.norm ** 2 * last.admissibility_defect + 1e-9
    ok = (
        rep.verdict != "diverged"
        and last.triangularity <= 1e-10
        and last.residual <= bound
    )
    return ok, [
        f"diagonal verdict = {rep.verdict}",
        f"residual = {fmt(last.residual)}",
        f"residual bound = {fmt(bound)}",
        f"admissibility defect = {fmt(last.admissibility_defect)}",
        f"rank defect = {last.rank_defect}",
        f"triangularity defect = {fmt(last.triangularity)}",
        f"cholesky distance = {fmt(last.cholesky_distance)}",
    ]


def _run_diagonal(cfg: ExperimentConfig, outdir: Path) -> tuple[bool, list[str]]:
    w = _build_operator(cfg)
    nest = _build_nest(cfg, w.shape[0])
    probes = default_probes(nest.dim, cfg.seed)
    rep = diagonal(w, nest, cfg.schedule, eps=cfg.eps, probes=probes)
    rep._qq  # Q^T Q for rep.adapted, formed while Q is held
    rep.image = rep.probed = w = None  # the rows read G, Q^T Q and the shape alone
    # range, Cauchy defect against the previous level, ||D||, intertwining
    rows = []
    for part, defect in zip(rep.levels, [math.nan, *rep.cauchy]):
        # D's n x n product first: under glibc malloc the small arrays of a finest-level
        # spectrum split the previous product's freed block, and the product took 7 MB
        # of new heap at n = 1024 (CHANGES.md)
        intertwining = check_intertwining(rep.adapted(part), rep, part)
        rows.append([part.range, defect, float(rep.spectrum(part).max(initial=0.0)), intertwining])
    write_csv(outdir / "diagonal.csv", DIAGONAL_HEADER, rows)
    norm_bound = rep.norm + 1e-9
    norm_ok = all(r[2] <= norm_bound for r in rows)
    intertwining_ok = all(r[3] <= 1e-10 for r in rows)
    ok = rep.verdict != "diverged" and norm_ok and intertwining_ok
    return ok, [
        f"diagonal verdict = {rep.verdict}",
        f"cauchy defect = {fmt(rep.cauchy[-1] if rep.cauchy else math.nan)}",
        f"cauchy eps = {fmt(rep.eps)}",
        f"norm bound ({fmt(norm_bound)}) holds = {norm_ok}",
        f"intertwining defect = {fmt(max(r[3] for r in rows))}",
    ]


def _build_family(cfg: ExperimentConfig):
    if cfg.nest == "standard":
        return volterra_family(cfg.kappa, cfg.alphas, cfg.n), standard_nest(cfg.n)
    return channel_volterra_family(cfg.kappa, cfg.alphas, _block_dim(cfg, cfg.n), cfg.channels)


def _run_stability(cfg: ExperimentConfig, outdir: Path) -> tuple[bool, list[str]]:
    fam, nest = _build_family(cfg)
    probes = default_probes(nest.dim, cfg.seed)
    harness, reg, sweep, uni = run_family(
        fam, nest, cfg.schedule, eps=cfg.tol, probes=probes
    )
    write_csv(outdir / "stability.csv", STABILITY_HEADER, map(astuple, harness.rows))
    uni_header = ["alpha"] + [f"step{j + 1}" for j in range(uni.shape[1])]
    uni_rows = [[alpha] + list(row) for alpha, row in zip(fam.alphas, uni)]
    uni_rows.append(["sup"] + list(uni.max(axis=0)))
    write_csv(outdir / "uniformity.csv", uni_header, uni_rows)
    write_csv(
        outdir / "gap_terms.csv",
        ["range", "alpha", "max_pairing", "term1", "term2", "term3", "term4",
         "bound_margin"],
        sweep,
    )
    margin_ok = all(r.bound_margin >= -1e-10 for r in harness.rows)
    ok = harness.passed and reg.passed and margin_ok
    # Refinements the grid allowed (at least one, as n >= 2); the uniformity
    # columns past them are zero padding.
    steps = len(sweep) // len(fam.alphas) - 1
    return ok, [
        _verdict_line("harness", harness),
        _verdict_line("regular convergence", reg),
        f"pairing defect = {fmt(harness.rows[-1].max_pairing)}",
        f"bound margin = {fmt(min(r.bound_margin for r in harness.rows))}",
        f"uniformity sup = {fmt(float(uni[:, steps - 1].max()))}",
    ]


def _run_counterexample(cfg: ExperimentConfig, outdir: Path) -> tuple[bool, list[str]]:
    n_values = [2 ** k for k in range(1, cfg.n_max.bit_length())]  # 2, 4, ... up to n_max
    fam, nest = counterexample_family(n_values, cfg.trunc)
    # The limit's image nest, then each member's, swept as one stream.
    images = _image_nests(((w, None) for w in chain([fam.limit], fam.members())), nest)
    limit = next(images)
    rows = []

    def read_row(n, img):
        """Append the CSV row of W_n, read off its image nest, and pass that on."""
        # the measured P_n: the image projection of W_n at the nest's M
        q = img.basis[:, :img.ranks[1]]
        measured = q @ q.T
        rows.append([
            n,
            op_norm(img.source - limit.source),
            2.0 / n,
            float(np.linalg.norm(measured[:, 0])),   # (P_n - P) phi_1, as P phi_1 = 0
            float(np.sqrt(1.0 - 1.0 / (1.0 + n * n / 4.0))),
            op_norm(measured - escape_projection(n, cfg.trunc)),
        ])
        return img

    probes = default_probes(nest.dim, cfg.seed)
    reg = regular_convergence_check(fam.alphas, chain([limit], map(read_row, n_values, images)),
                                    probes, cfg.tol)
    write_csv(
        outdir / "counterexample.csv",
        ["n", "op_gap", "op_gap_bound", "proj_gap", "proj_gap_closed",
         "projection_agreement"],
        rows,
    )
    bound_ok = all(op_gap <= bound + 1e-12 for _, op_gap, bound, *_ in rows)
    worst_gap = max(abs(gap - closed) for *_, gap, closed, _ in rows)
    worst_agreement = max(agreement for *_, agreement in rows)
    # The family is built to defeat regular convergence: reproducing the
    # escape is the pass condition here.
    ok = (
        bound_ok
        and worst_gap <= 1e-10
        and worst_agreement <= 1e-10
        and reg.verdict == "fail"
    )
    return ok, [
        f"operator gap bound 2/n holds = {bound_ok}",
        f"projection gap closed-form defect = {fmt(worst_gap)}",
        f"projection agreement defect = {fmt(worst_agreement)}",
        _verdict_line("regular convergence", reg),
        f"projection defect at largest member = {fmt(reg.rows[-1].proj_defect)}",
    ]


def _run_channels(cfg: ExperimentConfig, outdir: Path) -> tuple[bool, list[str]]:
    fam, cnest = channel_volterra_family(cfg.kappa, cfg.alphas, cfg.n, cfg.channels)
    asm = channel_assembly(fam.limit, cnest, cfg.schedule)
    # The CSV reads the deepest level of each factorization, channels first.
    *lasts, glob = asm.rows
    mins = [*asm.channel_min_eigenvalues, min(asm.channel_min_eigenvalues)]
    labels = [*map(str, range(1, len(lasts) + 1)), "global"]
    write_csv(
        outdir / "channels.csv",
        ["channel", "residual", "admissibility_defect", "triangularity_defect",
         "min_eigenvalue"],
        ([label, row.residual, row.admissibility_defect, row.triangularity, mineig]
         for label, row, mineig in zip(labels, asm.rows, mins)),
    )
    residual_gap = abs(glob.residual - max(r.residual for r in lasts))
    probes = default_probes(cnest.dim, cfg.seed)
    harness = run_family(fam, cnest, cfg.schedule, eps=cfg.tol, probes=probes).harness
    ok = (
        glob.triangularity <= 1e-10
        and residual_gap <= 1e-12
        and asm.commutation_defect <= 1e-12
        and asm.assembly_defect <= 1e-10
        and harness.passed
    )
    return ok, [
        f"triangularity defect = {fmt(glob.triangularity)}",
        f"residual assembly gap = {fmt(residual_gap)}",
        f"assembly defect = {fmt(asm.assembly_defect)}",
        f"channel commutation defect = {fmt(asm.commutation_defect)}",
        f"global min eigenvalue = {fmt(mins[-1])}",
        f"first channel min eigenvalue = {fmt(mins[0])}",
        _verdict_line("harness", harness),
    ]


def _run_posdef_check(cfg: ExperimentConfig, outdir: Path) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(cfg.seed)
    max_dim = min(cfg.n, POSDEF_MAX_DIM)
    by_dim = {}
    for case in range(cfg.cases):
        dim = int(rng.integers(2, max_dim + 1))
        a = rng.standard_normal((dim, dim))
        c = a.T @ a
        c += (0.05 * np.trace(c) / dim) * np.eye(dim)
        by_dim.setdefault(dim, []).append((case, c))
    rows = []
    # Per dimension: one stacked Gram route, one lockstep sweep
    # (amplitude._image_nests batches it), stacked gap bounds and one
    # stacked spectrum per round of the formula defect, one for the law.
    # Smallest dimension first; the cases go once stacked, the roots (which the
    # image nests' sources view) once the distances are taken.
    for dim in sorted(by_dim):
        ids = [case for case, _ in by_dim[dim]]
        nest = standard_nest(dim)
        roots, norms, ys = _posdef_projections((c for _, c in by_dim.pop(dim)), nest)
        images = _image_nests(zip(roots, norms), nest)
        del roots
        rows += zip(ids, [dim] * len(ids), _nest_distances(ys, nest.ranks, images),
                    _idempotence_defect(ys))
    rows.sort()
    write_csv(
        outdir / "posdef_check.csv",
        ["case", "dim", "formula_defect", "idempotence_defect"],
        rows,
    )
    *_, worst, worst_law = map(max, zip(*rows))
    ok = worst <= 1e-9 and worst_law <= 1e-10
    return ok, [
        f"cases = {cfg.cases}",
        f"sampled dimensions = 2..{max_dim} (min(n, {POSDEF_MAX_DIM}) for n = {cfg.n})",
        f"formula defect = {fmt(worst)}",
        f"projection law defect = {fmt(worst_law)}",
    ]


_RUNNERS = {
    "factorize": _run_factorize,
    "diagonal": _run_diagonal,
    "stability": _run_stability,
    "counterexample": _run_counterexample,
    "channels": _run_channels,
    "posdef-check": _run_posdef_check,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one configured experiment and write its ``summary.txt``.

    Each runner writes its CSV reports and returns its verdict with its
    summary lines; the summary opens with the command, the seed and the
    verdict.  Returns the exit code: 0 on pass, 1 on fail.
    """
    validate_config(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ok, lines = _RUNNERS[cfg.command](cfg, outdir)
    preamble = [f"command = {cfg.command}", f"seed = {cfg.seed}",
                f"verdict = {'pass' if ok else 'fail'}"]
    (outdir / "summary.txt").write_text("\n".join(preamble + lines) + "\n")
    return 0 if ok else 1


def _epilog() -> str:
    lines = ["config keys (key = value per line, # comments):"]
    defaults = ExperimentConfig(command="factorize")
    for key, (_, show, help_text) in SCHEMA.items():
        if key == "command":
            continue
        lines.append(f"  {key:<12} {help_text} (default: {show(getattr(defaults, key))})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nestfactor",
        description="Nest-relative diagonals, triangular factorization, and "
        "stability experiments.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="FILE", help="path to a key = value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, metavar="N", help="seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text() if args.config else ""
        cfg = parse_config(text, command=args.command)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        return run(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error in {args.command}: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

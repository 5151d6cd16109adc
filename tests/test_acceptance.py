"""Acceptance suite: ten gate criteria, one test and one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside the pytest verdicts.
"""

import numpy as np
import pytest

from nestfactor import (
    Nest,
    canonical_factor,
    check_intertwining,
    cholesky_upper,
    counterexample_family,
    diagonal,
    escape_projection,
    factor_diagnostics,
    image_nest,
    op_norm,
    partition,
    psd_sqrt,
    regular_convergence_check,
    standard_nest,
)
from nestfactor.cli import main as cli_main
from nestfactor.linops import _block_diag
from conftest import (
    dense_d,
    full_partition,
    gram_images,
    projection_at,
    projection_defects,
    random_spd,
    range_projection,
)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _random_setup(rng):
    """Random operator, random rotated nest, random partition."""
    dim = int(rng.integers(2, 33))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    n_interior = int(rng.integers(0, dim))
    interior = sorted(rng.choice(np.arange(1, dim), size=n_interior, replace=False))
    ranks = [0, *map(int, interior), dim]
    horizon = float(rng.uniform(0.5, 2.0))
    k = len(ranks) - 2
    jitter = rng.uniform(-0.4, 0.4, size=k)
    grid = np.concatenate((
        [0.0], (np.arange(1, k + 1) + jitter) / (k + 1) * horizon, [horizon],
    ))
    nest = Nest(grid, q, ranks)
    m = len(grid) - 1
    keep = [0, *(j for j in range(1, m) if rng.random() < 0.5), m]
    part = partition(nest, keep)
    w = rng.standard_normal((dim, dim))
    return w, nest, part


def test_criterion_01_diagonal_sums_on_random_nests():
    rng = np.random.default_rng(1)
    worst_norm = worst_inter = worst_tri = -np.inf
    for _ in range(1000):
        w, nest, part = _random_setup(rng)
        rep = diagonal(w, nest, schedule=2)
        d = dense_d(rep, part)
        worst_norm = max(worst_norm, op_norm(d) - op_norm(w))
        worst_inter = max(worst_inter, check_intertwining(rep.adapted(part), rep.image, part))
        c = w.T @ w
        rep_s = diagonal(psd_sqrt(c), nest, schedule=2)
        worst_tri = max(worst_tri, factor_diagnostics(c, rep_s, [part])[0].triangularity)
    ok = worst_norm <= 1e-9 and worst_inter <= 1e-10 and worst_tri <= 1e-10
    _report(
        1,
        "1000 random nests: norm bound, intertwining, triangularity",
        ok,
        f"norm excess {worst_norm:.2e}, intertwining {worst_inter:.2e}, "
        f"triangularity {worst_tri:.2e}",
    )


def test_criterion_02_diagonal_operator_is_its_own_diagonal():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 33))
        w = np.diag(rng.uniform(0.5, 3.0, size=dim))
        nest = standard_nest(dim)
        rep = diagonal(w, nest, schedule=2)
        d = dense_d(rep, full_partition(nest))
        worst = max(worst, float(np.abs(d - w).max()))
    ok = worst <= 1e-12
    _report(2, "positive diagonal operators reproduce exactly", ok,
            f"max entry gap {worst:.2e}")


def test_criterion_03_two_level_reference_values():
    c = np.diag([4.0, 1.0])
    rep = canonical_factor(c, standard_nest(2), schedule=2)
    last = factor_diagnostics(c, rep, rep.levels)[-1]
    adm, residual = last.admissibility_defect, last.residual
    ok = abs(adm - 3.0) <= 1e-12 and abs(residual - 12.0) <= 1e-10
    _report(3, "diag(4,1) reference: coisometry defect 3, residual 12", ok,
            f"defect {adm!r}, residual {residual!r}")


def test_criterion_04_volterra_refinement_convergence(volterra128):
    c, nest, rep = volterra128
    history = factor_diagnostics(c, rep, rep.levels)
    residuals = [r.residual for r in history]
    adms = [r.admissibility_defect for r in history]
    ratios = [b / a for a, b in zip(residuals[:-1], residuals[1:])]
    ratios += [b / a for a, b in zip(adms[:-1], adms[1:])]
    monotone = all(b < a for a, b in zip(residuals[:-1], residuals[1:])) and all(
        b < a for a, b in zip(adms[:-1], adms[1:])
    )
    in_band = all(0.3 <= r <= 0.8 for r in ratios)
    chol = cholesky_upper(c)
    dist = history[-1].cholesky_distance
    chol_ok = dist <= 0.05 * op_norm(chol)
    ok = monotone and in_band and chol_ok
    _report(4, "volterra n=128: geometric refinement decay, near Cholesky", ok,
            f"ratio span [{min(ratios):.3f}, {max(ratios):.3f}], "
            f"cholesky distance {dist:.2e} vs cap {0.05 * op_norm(chol):.2e}")


def test_criterion_05_counterexample_closed_forms():
    n_values = (2, 4, 8, 16, 32)
    fam, nest = counterexample_family(n_values, 64)   # X at grid index 1 is M
    phi1 = np.zeros(64)
    phi1[0] = 1.0
    p = range_projection(fam.limit, projection_at(nest, 1)).matrix
    worst_form = worst_agree = 0.0
    for n, w_n in zip(n_values, fam.members()):
        p_n = escape_projection(n, 64)
        norm_sq = 1.0 + n * n / 4.0
        psi = phi1 - (n / 2.0) * np.eye(64)[n - 1]
        worst_form = max(worst_form, abs(psi @ psi - norm_sq))
        worst_form = max(
            worst_form,
            abs(phi1 @ p_n @ phi1 - (1.0 - 1.0 / norm_sq)),
            abs(phi1 @ p @ phi1),
            max(0.0, op_norm(w_n - fam.limit) - 2.0 / n),
        )
        measured = range_projection(w_n, projection_at(nest, 1))
        worst_agree = max(worst_agree, op_norm(measured.matrix - p_n))
    ok = worst_form <= 1e-10 and worst_agree <= 1e-10
    _report(5, "escape family closed forms and measured projections", ok,
            f"closed-form gap {worst_form:.2e}, agreement {worst_agree:.2e}")


def test_criterion_06_gram_formula_matches_svd_route():
    rng = np.random.default_rng(6)
    worst_formula = worst_law = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 33))
        c = random_spd(rng, dim)
        nest = standard_nest(dim)
        sqrt_c = psd_sqrt(c)
        images = gram_images(c, nest)
        for j in range(len(nest.grid)):
            p = projection_at(images, j)
            oracle = range_projection(sqrt_c, projection_at(nest, j))
            worst_formula = max(worst_formula, op_norm(p.matrix - oracle.matrix))
            d = projection_defects(p)
            worst_law = max(worst_law, d["idempotence"], d["symmetry"])
    ok = worst_formula <= 1e-9 and worst_law <= 1e-10
    _report(6, "200 SPD cases: Gram-block projection equals SVD projection", ok,
            f"formula gap {worst_formula:.2e}, projection laws {worst_law:.2e}")


def test_criterion_07_weak_stability_of_factors(volterra128_run):
    harness, reg = volterra128_run.harness, volterra128_run.regular
    pairs = [r.max_pairing for r in harness.rows]
    monotone = all(b < a for a, b in zip(pairs[:-1], pairs[1:]))
    margins_ok = all(r.bound_margin >= -1e-10 for r in harness.rows)
    ok = harness.passed and monotone and margins_ok and reg.passed
    _report(7, "volterra family: pairing defects fall, four-term bound holds", ok,
            f"pairing {pairs[0]:.2e} -> {pairs[-1]:.2e}, "
            f"min margin {min(r.bound_margin for r in harness.rows):.1e}, "
            f"regular convergence {reg.verdict}")


def test_criterion_08_channel_assembly(channels8):
    blocks, asm, harness = channels8
    *lasts, glob = asm.rows
    residual_gap = abs(glob.residual - max(r.residual for r in lasts))
    # the assembled operator's least eigenvalue, from its dense spectrum
    global_min = np.linalg.eigvalsh(_block_diag(*blocks))[0]
    eig_ok = global_min <= asm.channel_min_eigenvalues[0] / 8.0 + 1e-12
    ok = (
        glob.triangularity <= 1e-10
        and residual_gap <= 1e-12
        and harness.passed
        and eig_ok
    )
    _report(8, "eight channels: assembled factor reduces to the blocks", ok,
            f"triangularity {glob.triangularity:.2e}, residual gap "
            f"{residual_gap:.2e}, min eig {global_min:.4f} vs single "
            f"{asm.channel_min_eigenvalues[0]:.4f}")


def test_criterion_09_projection_escape_detected():
    fam, nest = counterexample_family((2, 4, 8, 16, 32), 64)
    images = (image_nest(w, nest) for w in (fam.limit, *fam.members()))
    reg = regular_convergence_check(fam.alphas, images)
    defect = reg.rows[-1].proj_defect
    ok = reg.verdict == "fail" and defect >= 0.9
    _report(9, "norm-convergent escape family fails regular convergence", ok,
            f"verdict {reg.verdict}, projection defect {defect:.4f} at "
            f"alpha={reg.rows[-1].alpha:g}")


CLI_CONFIGS = {
    "factorize": "n = 16\nschedule = 4\n",
    "diagonal": "operator = volterra_factor\nn = 16\nschedule = 4\n",
    "stability": "n = 16\nschedule = 4\n",
    "counterexample": "n_max = 8\ntrunc = 16\n",
    "channels": "n = 8\nchannels = 2\nschedule = 3\n",
    "posdef-check": "n = 8\ncases = 5\n",
}


def test_criterion_10_cli_determinism(tmp_path):
    mismatches = []
    for command, body in CLI_CONFIGS.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(f"command = {command}\n" + body)
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}-{attempt}"
            code = cli_main([
                command, "--config", str(cfg), "--out", str(out), "--seed", "3",
            ])
            csvs = {
                p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))
            }
            outputs.append((code, csvs))
        (code_a, csv_a), (code_b, csv_b) = outputs
        if code_a != 0 or code_b != 0:
            mismatches.append(f"{command}: exit codes {code_a}/{code_b}")
        elif csv_a.keys() != csv_b.keys() or not csv_a:
            mismatches.append(f"{command}: csv sets differ")
        else:
            for name in csv_a:
                if csv_a[name] != csv_b[name]:
                    mismatches.append(f"{command}: {name} bytes differ")
    ok = not mismatches
    _report(10, "CLI reruns with one seed are byte-identical", ok,
            "; ".join(mismatches) if mismatches else
            f"{len(CLI_CONFIGS)} subcommands x 2 runs")

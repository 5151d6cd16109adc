"""Metamorphic checks: known maps of the operator move the outputs in a known way.

C -> 4^k C scales sqrt(C) by exactly 2^k, and every floating-point step of
the factorization commutes with a power-of-two scale, so the columns that
are homogeneous in sqrt(C) scale bit for bit.  The residual, the
admissibility defect, the Cholesky distance and every verdict are not
compared: D does not scale with W, and the CLI gates are absolute.

C -> P C P^T over the nest whose basis is the permutation P is the same
operator in other coordinates; the coordinate nest takes the gather path,
and the eigendecomposition of the permuted C rounds differently, so the
outputs agree at round-off.
"""

import numpy as np
import pytest

from nestfactor import (
    Nest,
    OperatorFamily,
    canonical_factor,
    check_intertwining,
    default_probes,
    exp_volterra_operator,
    factor_defects,
    run_family,
    standard_nest,
    volterra_family,
)

N = 96


def _operators():
    """The Volterra C (kappa = 0.3) and a seeded rank-60 C = A^T A / 96."""
    a = np.random.default_rng(60).standard_normal((60, N))
    return {"volterra": exp_volterra_operator(0.3, N), "rank60": a.T @ a / N}


@pytest.fixture(scope="module", params=["volterra", "rank60"])
def operator_and_factor(request):
    c = _operators()[request.param]
    return c, canonical_factor(c, standard_nest(N), 6, full_schedule=True)


@pytest.mark.parametrize("k", [-20, -12, -6, 6, 12, 20])
def test_factor_scales_with_the_operator(operator_and_factor, k):
    """Under C -> 4^k C: G, every Cauchy defect, every level's block
    spectrum and the intertwining defects scale by 2^k and the
    triangularity defects by 4^k, bit for bit; rank defects are equal."""
    c, base = operator_and_factor
    s = 2.0 ** k
    rep = canonical_factor(4.0 ** k * c, standard_nest(N), 6, full_schedule=True)
    np.testing.assert_array_equal(rep.g, s * base.g)
    assert rep.cauchy == [s * d for d in base.cauchy]
    assert rep.levels == base.levels
    for part in base.levels:
        np.testing.assert_array_equal(rep.spectrum(part), s * base.spectrum(part))
        assert (check_intertwining(rep.adapted(part), rep.image, part)
                == s * check_intertwining(base.adapted(part), base.image, part))
        row, ref = factor_defects(4.0 ** k * c, rep, part), factor_defects(c, base, part)
        assert row.triangularity == s * s * ref.triangularity
        assert row.rank_defect == ref.rank_defect


@pytest.fixture(scope="module")
def volterra_run():
    fam = volterra_family(0.3, (2.0, 4.0, 8.0, 16.0), 64)
    return fam, run_family(fam, standard_nest(64), 5, eps=1e-3)


@pytest.mark.parametrize("k", [-12, -6, 6, 12])
def test_family_run_scales_with_the_family(volterra_run, k):
    """Under C_a -> 4^k C_a for the limit and every member, with a fixed
    eps: the pairing defect, the four bound terms and the bound margin
    scale by 4^k, the operator defects and the uniformity table by 2^k,
    and the projection defects are equal, bit for bit."""
    fam, base = volterra_run
    s = 2.0 ** k
    scaled = OperatorFamily(fam.alphas, 4.0 ** k * fam.limit,
                            lambda alpha: 4.0 ** k * fam.member(alpha))
    run = run_family(scaled, standard_nest(64), 5, eps=1e-3)
    for row, ref in zip(run.harness.rows, base.harness.rows, strict=True):
        for name in ("max_pairing", "term1", "term2", "term3", "term4", "bound_margin"):
            assert getattr(row, name) == s * s * getattr(ref, name), name
        assert row.op_defect == s * ref.op_defect
        assert row.proj_defect == ref.proj_defect
    np.testing.assert_array_equal(run.uniformity, s * base.uniformity)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_factor_is_equivariant_under_coordinate_permutations(operator_and_factor, seed):
    """C -> P C P^T over Nest(grid, P, ranks), with the probes permuted too,
    is the same factorization in other coordinates: G and the Cauchy
    defects agree at round-off (measured 4.0e-15 absolute for ||W|| up to
    1.7, and 3.3e-13 relative), and every rank defect and the verdict are
    equal."""
    c, base = operator_and_factor
    perm = np.random.default_rng(seed).permutation(N)
    u = np.eye(N)[:, perm]
    nest = Nest(standard_nest(N).grid, u, standard_nest(N).ranks)
    assert nest._perm is not None   # a coordinate nest: the gather path
    c_perm = np.empty_like(c)
    c_perm[np.ix_(perm, perm)] = c   # U C U^T
    rep = canonical_factor(c_perm, nest, 6, probes=default_probes(N) @ u.T, full_schedule=True)
    assert np.abs(rep.g - base.g).max() <= 4e-14
    assert rep.levels == base.levels
    for d, ref in zip(rep.cauchy, base.cauchy, strict=True):
        assert abs(d - ref) <= 2.5e-12 * ref
    assert rep.verdict == base.verdict
    for part in base.levels:
        assert (factor_defects(c_perm, rep, part).rank_defect
                == factor_defects(c, base, part).rank_defect)

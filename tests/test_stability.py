import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag, cholesky, solve_triangular

from nestfactor import (
    Nest,
    OperatorFamily,
    SingularGramError,
    anticausal_exp_kernel,
    canonical_factor,
    channel_assembly,
    channel_nest,
    channel_volterra_family,
    coarsest_partition,
    counterexample_family,
    counterexample_instance,
    default_probes,
    diagonal,
    exp_volterra_matrix,
    exp_volterra_operator,
    factor_diagnostics,
    grid_embed,
    image_nest,
    op_norm,
    posdef_projection,
    psd_sqrt,
    refine,
    regular_convergence_check,
    run_family,
    standard_nest,
    stability,
    volterra_family,
)
from conftest import (
    dense_commutation_defect,
    dense_d,
    dense_factor,
    gram_projection,
    pairing_defect,
    partial_diagonal,
    pointwise_image_defect,
    projection_at,
    random_spd,
    range_projection,
    rotated_nest,
)

ALPHAS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def constant_family(c, alphas=ALPHAS):
    return OperatorFamily(alphas, tuple(c.copy() for _ in alphas), c)


def test_regular_convergence_constant_family_passes():
    c = exp_volterra_operator(0.3, 8)
    rep = regular_convergence_check(constant_family(c), standard_nest(8))
    assert rep.passed
    for row in rep.rows:
        assert row.op_defect == pytest.approx(0.0, abs=1e-14)
        assert row.proj_defect == pytest.approx(0.0, abs=1e-12)


def test_regular_convergence_volterra_passes():
    fam = volterra_family(0.3, ALPHAS, 64)
    rep = regular_convergence_check(fam, standard_nest(64))
    assert rep.passed
    ops = [r.op_defect for r in rep.rows]
    projs = [r.proj_defect for r in rep.rows]
    assert all(b < a for a, b in zip(ops[:-1], ops[1:]))
    assert all(b < a for a, b in zip(projs[:-1], projs[1:]))


def test_regular_convergence_fails_on_projection_escape():
    fam, nest = counterexample_family((2, 4, 8, 16, 32), 64)
    rep = regular_convergence_check(fam, nest, tol=0.05)
    assert not rep.passed
    assert "projection defect" in rep.failure
    assert rep.rows[-1].proj_defect >= 0.9


def diagonal_2x2_family(last_entries, scale=1.0):
    """C = diag(1, 4) over the nest {0, span{(1, 1)}, R^2}, with members
    diag(1, e) for e in ``last_entries``, all times ``scale``.  sqrt(C) maps
    (1, 1) to (1, 2), C maps it to (1, 4), so the two routes see different
    image nests."""
    basis = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    nest = Nest(np.array([0.0, 0.5, 1.0]), basis, (0, 1, 2))
    alphas = tuple(float(a) for a in range(1, len(last_entries) + 1))
    members = tuple(scale * np.diag([1.0, e]) for e in last_entries)
    return OperatorFamily(alphas, members, scale * np.diag([1.0, 4.0])), nest


def test_regular_convergence_is_judged_on_square_root_images():
    """The family run's regular-convergence rows are the strong defects of
    sqrt(C_a) and of the projections onto sqrt(C_a) X_s, not those of C_a."""
    fam, nest = diagonal_2x2_family([4.0 + 1.0 / a for a in (2, 4, 8, 16)])
    probes = default_probes(2)
    reg = run_family(fam, nest, schedule=2, probes=probes).regular
    raw = regular_convergence_check(fam, nest, probes=probes)
    sq = psd_sqrt(fam.limit)
    for row, raw_row, c_a in zip(reg.rows, raw.rows, fam.members):
        sq_a = psd_sqrt(c_a)
        proj = max(
            np.linalg.norm((range_projection(sq_a, projection_at(nest, j)).matrix
                            - range_projection(sq, projection_at(nest, j)).matrix)
                           @ probes.T, axis=0).max()
            for j in range(len(nest.grid))
        )
        op = np.linalg.norm((sq_a - sq) @ probes.T, axis=0).max()
        assert row.proj_defect == pytest.approx(proj, rel=1e-12, abs=1e-15)
        assert row.op_defect == pytest.approx(op, rel=1e-12)
        assert raw_row.proj_defect >= 1.1 * row.proj_defect
        assert raw_row.op_defect >= 3.0 * row.op_defect
    # with the default tol 1e-2 * (1 + ||C||) = 0.05 the routes disagree
    assert reg.passed
    assert raw.failure == "operator defect 6.250e-02 at alpha=4 exceeds tol 5.000e-02"


def test_run_family_default_tolerances_scale_with_the_limit_norm():
    """Without eps the harness uses 1e-3 * (1 + ||C||) and the regular
    verdict 1e-2 * (1 + ||C||), both from ||C|| = 4 here."""
    fam, nest = diagonal_2x2_family([5.0] * 3)
    run = run_family(fam, nest, schedule=2)
    assert run.harness.failure.endswith("exceeds eps 5.000e-03")
    assert run.regular.failure == (
        f"operator defect {math.sqrt(5.0) - 2.0:.3e} at alpha=3 exceeds tol 5.000e-02"
    )
    # an explicit eps serves both verdicts
    explicit = run_family(fam, nest, schedule=2, eps=0.1)
    assert explicit.harness.failure.endswith("exceeds eps 1.000e-01")
    assert explicit.regular.failure.endswith("exceeds tol 1.000e-01")


def _image_defect_cases():
    """Image nests of square roots of a limit and a member, as
    (label, member image, limit image, probe columns): on standard,
    channel and counterexample nests, and on a standard nest with n = 512."""
    fam = volterra_family(0.3, (2.0, 64.0), 48)
    nest = standard_nest(48)
    for alpha, c_a in zip(fam.alphas, fam.members):
        yield (f"standard alpha={alpha:g}", image_nest(psd_sqrt(c_a), nest),
               image_nest(psd_sqrt(fam.limit), nest), default_probes(48, 2).T)
    fam, nest = channel_volterra_family(0.3, (2.0, 16.0), 20, 4)
    yield ("channel", image_nest(psd_sqrt(fam.members[0]), nest),
           image_nest(psd_sqrt(fam.limit), nest), default_probes(80, 4).T)
    fam, nest = counterexample_family((2, 4, 32), 48)
    for n, w_n in zip(fam.alphas, fam.members):
        yield (f"counterexample n={n:g}", image_nest(w_n, nest),
               image_nest(fam.limit, nest), default_probes(48, 6).T)
    n = 512
    fam = volterra_family(0.3, (2.0,), n)
    nest = standard_nest(n)
    yield ("standard n=512", image_nest(psd_sqrt(fam.members[0]), nest),
           image_nest(psd_sqrt(fam.limit), nest), default_probes(n, 1).T)


def test_prefix_sum_image_defect_matches_per_point_oracle():
    """The prefix-sum projection defect finds the per-point oracle's worst
    grid index, and its value within 1e-12 relative: the summation drift
    over 513 grid points stays inside that bound."""
    for label, img_a, img, f_cols in _image_defect_cases():
        fast, fast_j = stability._image_defect(img_a, img, f_cols)
        oracle, oracle_j = pointwise_image_defect(img_a, img, f_cols)
        assert oracle > 1e-6, label
        assert fast_j == oracle_j, label
        assert abs(fast - oracle) <= 1e-12 * oracle, label


def test_family_regular_report_equals_check_on_square_roots():
    """FamilyRun.regular is regular_convergence_check run on the family of
    square roots, bit for bit, on either failure branch and on a pass.  The
    scaled 2 x 2 family has projection defects above its operator defects."""
    builds = [
        (volterra_family(0.3, ALPHAS, 16), standard_nest(16)),
        channel_volterra_family(0.3, (2.0, 8.0, 32.0), 6, 3),
        diagonal_2x2_family([4.0 + 1.0 / a for a in (2, 4, 8, 16)], scale=0.01),
    ]
    failures = set()
    for fam, nest in builds:
        probes = default_probes(nest.dim, 5)
        sqrt_fam = OperatorFamily(fam.alphas, tuple(psd_sqrt(m) for m in fam.members),
                                  psd_sqrt(fam.limit))
        last = run_family(fam, nest, 4, probes=probes).regular.rows[-1]
        for tol in (1.0, 0.5 * (last.op_defect + last.proj_defect),
                    0.5 * min(last.op_defect, last.proj_defect)):
            reg = run_family(fam, nest, 4, eps=tol, probes=probes).regular
            check = regular_convergence_check(sqrt_fam, nest, probes=probes, tol=tol)
            assert [(r.alpha, r.op_defect, r.proj_defect) for r in reg.rows] == [
                (r.alpha, r.op_defect, r.proj_defect) for r in check.rows]
            assert (reg.verdict, reg.failure) == (check.verdict, check.failure)
            failures.add(reg.failure and reg.failure.split()[0])
    assert failures == {None, "operator", "projection"}


def test_counterexample_closed_forms():
    _, nest = counterexample_family((2,), 64)   # X at grid index 1 is M
    for n in (2, 4, 8, 16, 32):
        inst = counterexample_instance(n, 64)
        psi = np.zeros(64)
        psi[0], psi[n - 1] = 1.0, -n / 2.0
        assert psi @ psi == pytest.approx(1.0 + n * n / 4.0)
        expected_pn = np.eye(64) - np.outer(psi, psi) / (psi @ psi)
        npt.assert_allclose(inst.p_n, expected_pn, atol=1e-12)
        phi1 = np.eye(64)[0]
        assert phi1 @ inst.p_n @ phi1 == pytest.approx(
            1.0 - 1.0 / (1.0 + n * n / 4.0), abs=1e-12
        )
        assert phi1 @ inst.p @ phi1 == pytest.approx(0.0, abs=1e-14)
        measured = range_projection(inst.w_n, projection_at(nest, 1))
        assert op_norm(measured.matrix - inst.p_n) <= 1e-10
        block = np.array([[0.0, 1.0 / n], [1.0 / n, 2.0 / n**2 - 1.0 / n]])
        assert op_norm(inst.w_n - inst.w) == pytest.approx(op_norm(block), abs=1e-12)
        assert op_norm(inst.w_n - inst.w) <= 2.0 / n + 1e-12


def test_counterexample_instance_validation():
    with pytest.raises(ValueError):
        counterexample_instance(1, 8)
    with pytest.raises(ValueError):
        counterexample_instance(4, 4)


def test_harness_constant_family_all_zero():
    c = exp_volterra_operator(0.3, 8)
    rep = run_family(constant_family(c), standard_nest(8), schedule=3).harness
    assert rep.passed
    for row in rep.rows:
        assert row.max_pairing == pytest.approx(0.0, abs=1e-13)


def test_harness_volterra_small():
    fam = volterra_family(0.3, ALPHAS, 32)
    rep = run_family(fam, standard_nest(32), schedule=4).harness
    assert rep.passed
    pairs = [r.max_pairing for r in rep.rows]
    assert all(b < a for a, b in zip(pairs[:-1], pairs[1:]))
    for row in rep.rows:
        assert row.bound_margin >= -1e-10


def test_gap_decomposition_identical_operators():
    c = exp_volterra_operator(0.3, 8)
    rows = run_family(constant_family(c), standard_nest(8), schedule=3).sweep
    assert len(rows) == 4 * len(ALPHAS)
    for _, alpha, pairing, t1, t2, t3, t4, _ in rows:
        assert t3 == pytest.approx(0.0, abs=1e-13)
        assert t4 == pytest.approx(0.0, abs=1e-13)
        assert t1 == pytest.approx(t2, abs=1e-12)


def test_gap_term_sweep_trends():
    """Refinement terms fade as the split partition deepens; the
    cross-operator terms dominate and shrink with alpha."""
    fam = volterra_family(0.3, ALPHAS, 32)
    nest = standard_nest(32)
    rows = run_family(fam, nest, schedule=4).sweep
    assert len(rows) == 5 * len(ALPHAS)
    for rng_, alpha, pairing, t1, t2, t3, t4, margin in rows:
        assert margin >= -1e-10
    # deepest level: refinement terms are zero by construction
    deepest = [r for r in rows if r[0] == min(r[0] for r in rows)]
    for _, alpha, pairing, t1, t2, t3, t4, _ in deepest:
        assert t1 == pytest.approx(0.0, abs=1e-13)
        assert t2 == pytest.approx(0.0, abs=1e-13)
        assert t3 + t4 + 1e-10 >= pairing


def test_run_family_factors_each_operator_once(monkeypatch):
    seen = []

    def counting(c, *args, **kwargs):
        seen.append(c)
        return canonical_factor(c, *args, **kwargs)

    monkeypatch.setattr(stability, "canonical_factor", counting)
    fam = volterra_family(0.3, ALPHAS, 16)
    run_family(fam, standard_nest(16), schedule=4)
    assert len(seen) == len(fam.alphas) + 1
    expected = [fam.limit, *fam.members]
    assert all(a is b for a, b in zip(seen, expected))


def test_run_family_rows_match_sweep_and_cauchy_oracles():
    """Harness rows are the mid-level sweep rows plus the strong defects,
    and uniformity rows are the Cauchy defects of a separate diagonal run
    on each member's square root, bit for bit, and those of its dense
    partial sums (the oracle) to round-off."""
    fam, nest = channel_volterra_family(0.3, (2.0, 8.0, 32.0), 6, 3)
    probes = default_probes(nest.dim, 5)
    schedule = 5
    harness, _, sweep, uni = run_family(fam, nest, schedule, probes=probes)
    m = len(fam.alphas)
    mid_level = len(sweep) // m // 2
    mid = sweep[mid_level * m:(mid_level + 1) * m]
    for row, srow in zip(harness.rows, mid):
        assert (row.alpha, row.max_pairing, row.term1, row.term2, row.term3,
                row.term4, row.bound_margin) == srow[1:]
    assert uni.shape == (len(fam.alphas), schedule)
    for i, c_a in enumerate(fam.members):
        sq = psd_sqrt(c_a)
        cauchy = diagonal(sq, nest, schedule, probes=probes, full_schedule=True).cauchy
        expected = np.zeros(schedule)
        expected[:len(cauchy)] = cauchy
        npt.assert_array_equal(uni[i], expected)
        img = image_nest(sq, nest)
        part = coarsest_partition(nest)
        d, _ = partial_diagonal(img, part)
        dense = np.zeros(schedule)
        for j in range(schedule):
            nxt = refine(part, nest)
            if nxt.indices == part.indices:
                break
            d_next, _ = partial_diagonal(img, nxt)
            dense[j] = pairing_defect(d_next - d, probes)
            part, d = nxt, d_next
        npt.assert_allclose(uni[i], dense, rtol=0.0, atol=1e-13 * (1.0 + op_norm(sq)))
    # the 7-point channel grid reaches its finest partition in three steps
    assert uni[:, -1].max() == 0.0


def test_run_family_forms_no_dense_diagonal_or_factor(monkeypatch):
    """The family run applies every D, D_lvl and V = D^T sqrt(C) to the
    probes through the reports: it forms no n x n matrix of either, not
    even in adapted coordinates, on a standard and on a channel family."""
    from nestfactor import amplitude

    def refuse(*args):
        raise AssertionError("run_family formed an n x n diagonal or factor")

    monkeypatch.setattr(amplitude.DiagonalReport, "factor", refuse)
    monkeypatch.setattr(amplitude.DiagonalReport, "adapted", refuse)
    for fam, nest in ((volterra_family(0.3, (2.0, 8.0, 32.0), 16), standard_nest(16)),
                      channel_volterra_family(0.3, (2.0, 8.0), 4, 3)):
        run = run_family(fam, nest, schedule=4)
        assert len(run.harness.rows) == len(fam.alphas)
        assert len(run.sweep) >= 3 * len(fam.alphas)


def test_commutation_defect_matches_dense_commutator_oracle():
    """The channel commutation defect read off index masks equals the dense
    commutators of the channel projections with C and with every X_s: zero
    for a block-diagonal C on a channel nest, nonzero when C couples two
    channels (symmetric or not) or the nest is rotated."""
    rng = np.random.default_rng(29)
    dims = [4, 4, 4]
    block = block_diag(*[random_spd(rng, d) for d in dims])
    coupled = block.copy()
    coupled[1, 6] = coupled[6, 1] = 0.7
    one_sided = block.copy()   # column 5 of channel 1 fed from channels 0 and 2
    one_sided[[2, 9], 5] = 0.6
    cnest = channel_nest([standard_nest(4)] * 3)
    assert stability._commutation_defect(block, cnest, dims) == 0.0
    nonzero = 0
    for c in (block, coupled, one_sided, random_spd(rng, 12)):
        for nest in (cnest, standard_nest(12), rotated_nest(rng, 12)):
            fast = stability._commutation_defect(c, nest, dims)
            dense = dense_commutation_defect(c, nest, dims)
            assert abs(fast - dense) <= 1e-13 * max(1.0, dense)
            nonzero += dense >= 0.1
    assert nonzero >= 9


def test_run_family_terms_match_scalar_oracle():
    """Each sweep row equals the four terms evaluated on the attaining probe
    pair from independently factored operators.  Dense random probes keep
    every term visible at the attaining pair."""
    fam = volterra_family(0.3, (2.0, 8.0, 32.0), 16)
    nest = standard_nest(16)
    probes = np.random.default_rng(2).standard_normal((6, 16))
    sweep = run_family(fam, nest, schedule=4, probes=probes).sweep
    lim = canonical_factor(fam.limit, nest, 4, probes=probes, full_schedule=True)
    levels = lim.levels
    assert len(sweep) == len(levels) * len(fam.alphas)
    for k, (alpha, c_a) in enumerate(zip(fam.alphas, fam.members)):
        rep = canonical_factor(c_a, nest, 4, probes=probes, full_schedule=True)
        v_gap = dense_factor(lim) - dense_factor(rep)
        gaps = np.abs(probes @ v_gap @ probes.T)
        gi, fi = np.unravel_index(np.argmax(gaps), gaps.shape)
        f, g = probes[fi], probes[gi]
        sq, sq_a = lim.image.source, rep.image.source
        d, d_a = dense_d(lim, levels[-1]), dense_d(rep, rep.levels[-1])
        for level, part in enumerate(levels):
            d_lvl = dense_d(lim, part)
            d_lvl_a = dense_d(rep, rep.levels[level])
            row = sweep[level * len(fam.alphas) + k]
            assert row[:2] == (part.range, alpha)
            expected = (
                abs(g @ (v_gap @ f)),
                abs((sq @ f) @ ((d - d_lvl) @ g)),
                abs((sq_a @ f) @ ((d_a - d_lvl_a) @ g)),
                abs((sq @ f) @ ((d_lvl - d_lvl_a) @ g)),
                abs(((sq - sq_a) @ f) @ (d_lvl_a @ g)),
            )
            npt.assert_allclose(row[2:7], expected, rtol=1e-10, atol=1e-14)


def test_uniformity_constant_family_identical_rows():
    c = exp_volterra_operator(0.3, 16)
    out = run_family(constant_family(c), standard_nest(16), schedule=4).uniformity
    for row in out[1:]:
        npt.assert_allclose(row, out[0], atol=1e-14)


def band_family(n=64, alphas=ALPHAS, kappa=0.3):
    """Members rough at scale 1/alpha: band kernel of width 1/alpha and
    amplitude alpha, so refinement never converges uniformly in alpha."""
    def member(alpha):
        k = lambda t, tau: np.where((tau > t) & (tau - t <= 1.0 / alpha), kappa * alpha, 0.0)
        m = np.eye(n) + grid_embed(k, n)
        return m.T @ m

    members = tuple(member(a) for a in alphas)
    return OperatorFamily(alphas, members, member(alphas[-1]))


def test_uniformity_flags_roughening_family():
    nest = standard_nest(64)
    sup_smooth = run_family(
        volterra_family(0.3, ALPHAS, 64), nest, schedule=5
    ).uniformity.max(axis=0)
    sup_rough = run_family(band_family(), nest, schedule=5).uniformity.max(axis=0)
    assert sup_smooth[-1] <= 0.5 * sup_smooth[0]
    assert sup_rough[-1] >= 0.5 * sup_rough[0]


def test_posdef_projection_identity_and_diagonal():
    nest = standard_nest(3)
    for c in (np.eye(3), np.diag([2.0, 5.0, 1.0])):
        images = posdef_projection(c, nest, psd_sqrt(c))
        assert images.ranks == nest.ranks
        npt.assert_array_equal(images.grid, nest.grid)
        for j in range(len(nest.grid)):
            npt.assert_allclose(images.x(j), nest.x(j), atol=1e-12)


def test_posdef_projection_matches_svd_route():
    rng = np.random.default_rng(20)
    c = random_spd(rng, 6)
    nest = standard_nest(6)
    sq = psd_sqrt(c)
    images = posdef_projection(c, nest, sq)
    for j in range(len(nest.grid)):
        oracle = range_projection(sq, projection_at(nest, j))
        assert op_norm(images.x(j) - oracle.matrix) <= 1e-10


@pytest.mark.parametrize("kind", ["standard", "channel", "rotated"])
def test_posdef_projection_matches_per_point_gram_oracle(kind):
    rng = np.random.default_rng(21)
    for _ in range(5):
        if kind == "standard":
            nest = standard_nest(int(rng.integers(2, 17)))
        elif kind == "channel":
            nest = channel_nest([standard_nest(4)] * 3)
        else:
            nest = rotated_nest(rng, int(rng.integers(2, 17)))
        c = random_spd(rng, nest.dim)
        sq = psd_sqrt(c)
        images = posdef_projection(c, nest, sqrt_c=sq)
        for j in range(len(nest.grid)):
            x = images.x(j)
            npt.assert_array_equal(x, x.T)
            assert op_norm(x - gram_projection(c, nest, j, sq)) <= 1e-12


@pytest.mark.parametrize("n", [2, 32, 256])
def test_posdef_projection_substitution_matches_solve_triangular(n):
    """The basis Y = sqrt(C) U R^{-1} that posdef_projection forms by column
    substitution agrees with LAPACK's triangular solve."""
    rng = np.random.default_rng(22)
    c = random_spd(rng, n)
    nest = rotated_nest(rng, n)
    sq = psd_sqrt(c)
    u = nest.basis
    gram = u.T @ c @ u
    r = cholesky(0.5 * (gram + gram.T), lower=False)
    oracle = solve_triangular(r, (sq @ u).T, trans="T", lower=False).T
    y = posdef_projection(c, nest, sqrt_c=sq).basis
    assert np.abs(y - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_block_diag_matches_scipy():
    rng = np.random.default_rng(23)
    for dims in ([1], [3], [1, 1], [2, 5, 1], [4] * 6):
        blocks = [rng.standard_normal((k, k)) for k in dims]
        npt.assert_array_equal(stability._block_diag(*blocks), block_diag(*blocks))


def test_posdef_projection_rejects_singular_gram():
    c = np.diag([1.0, 0.0, 1.0])
    with pytest.raises(SingularGramError) as err:
        posdef_projection(c, standard_nest(3), psd_sqrt(c))
    assert err.value.cond == math.inf
    with pytest.raises(SingularGramError):
        gram_projection(c, standard_nest(3), 2)


def test_posdef_projection_rejects_singular_full_block():
    # Only the last Gram block is singular: the per-point sweep raises at
    # s = 1 alone, the whole-nest route on G itself.
    c = np.diag([1.0, 1.0, 0.0])
    nest = standard_nest(3)
    for j in range(3):
        gram_projection(c, nest, j)
    with pytest.raises(SingularGramError):
        gram_projection(c, nest, 3)
    with pytest.raises(SingularGramError):
        posdef_projection(c, nest, psd_sqrt(c))


def test_singular_gram_error_carries_the_condition_number_of_g():
    rng = np.random.default_rng(22)
    nest = rotated_nest(rng, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    c = (q * np.logspace(0.0, -13.0, 6)) @ q.T
    c = 0.5 * (c + c.T)
    gram = nest.basis.T @ c @ nest.basis
    evals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    with pytest.raises(SingularGramError) as err:
        posdef_projection(c, nest, psd_sqrt(c))
    assert err.value.cond == evals[-1] / evals[0]
    assert err.value.cond > stability.GRAM_COND_LIMIT


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.floats(0.0, 10.0), st.floats(14.0, 18.0)),
    st.booleans(),
)
def test_posdef_projection_raises_exactly_when_the_per_point_sweep_raises(
    dim, seed, log_cond, rotated
):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    c = (q * np.logspace(0.0, -log_cond, dim)) @ q.T
    c = 0.5 * (c + c.T)
    nest = rotated_nest(rng, dim) if rotated else standard_nest(dim)
    sq = psd_sqrt(c)

    def raises(call):
        try:
            call()
        except SingularGramError:
            return True
        return False

    sweep = raises(lambda: [gram_projection(c, nest, j, sq) for j in range(len(nest.grid))])
    assert raises(lambda: posdef_projection(c, nest, sqrt_c=sq)) == sweep
    assert sweep == (log_cond >= 14.0)


def test_channel_assembly_single_channel_matches_direct():
    c = exp_volterra_operator(0.3, 8)
    nest = standard_nest(8)
    asm = channel_assembly([c], [nest], schedule=3)
    direct = canonical_factor(c, nest, schedule=3, full_schedule=True)
    npt.assert_allclose(dense_factor(asm.report), dense_factor(direct), atol=1e-12)
    assert asm.assembly_defect <= 1e-10
    assert asm.commutation_defect <= 1e-12


def test_assembly_defect_matches_dense_oracle(channels8):
    """The assembly defect, read in nest coordinates, against the dense
    ||V - blockdiag(V_l)||: at round-off for the channels8 assembly, and at
    order one when each channel is factored from a perturbed block."""
    blocks, asm, _ = channels8
    dims = [b.shape[0] for b in blocks]

    def dense(report, channel_reports):
        return op_norm(dense_factor(report)
                       - block_diag(*[dense_factor(r) for r in channel_reports]))

    reference = dense(asm.report, asm.channel_reports)
    assert asm.assembly_defect <= 1e-12
    assert abs(asm.assembly_defect - reference) <= 1e-13
    rng = np.random.default_rng(5)
    perturbed = [canonical_factor(b + 0.1 * random_spd(rng, b.shape[0]), standard_nest(16), 4,
                                  full_schedule=True) for b in blocks]
    reference = dense(asm.report, perturbed)
    fast = stability._assembly_defect(asm.report, perturbed, dims)
    assert reference >= 0.1
    assert abs(fast - reference) <= 1e-12 * reference


def test_channel_assembly_two_diagonal_blocks():
    asm = channel_assembly(
        [np.diag([4.0, 1.0]), np.eye(2)],
        [standard_nest(2), standard_nest(2)],
        schedule=2,
    )
    expected_v = np.diag([4.0, 1.0, 1.0, 1.0])
    npt.assert_allclose(dense_factor(asm.report), expected_v, atol=1e-12)
    last = factor_diagnostics(asm.operator, asm.report, asm.report.levels)[-1]
    assert last.residual == pytest.approx(12.0, abs=1e-10)
    assert asm.min_eigenvalue == pytest.approx(1.0)


def test_volterra_family_members():
    fam = volterra_family(0.3, (1.0, 2.0, 64.0), 16)
    npt.assert_allclose(fam.members[0], np.eye(16), atol=1e-14)   # alpha=1 -> kappa 0
    gaps = [op_norm(m - fam.limit) for m in fam.members]
    assert gaps[0] > gaps[1] > gaps[2]
    # O(1/alpha) trend: quadrupling alpha by 32 shrinks the gap ~32-fold
    ratio = gaps[1] / gaps[2]
    assert 16.0 <= ratio <= 64.0


def test_volterra_family_rejects_bad_kappa():
    with pytest.raises(ValueError):
        volterra_family(1.5, ALPHAS, 8)


def test_anticausal_kernel_support():
    k = anticausal_exp_kernel(0.3)
    assert k(0.5, 0.25) == 0.0
    assert k(0.25, 0.5) == pytest.approx(0.3 * np.exp(0.25))
    m = exp_volterra_matrix(0.3, 8)
    npt.assert_allclose(np.tril(m, -1), 0.0)
    npt.assert_allclose(np.diag(m), 1.0)

import math
import tracemalloc
import weakref
from itertools import chain

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag, cholesky, solve_triangular

from nestfactor import (
    Nest,
    OperatorFamily,
    SingularGramError,
    canonical_factor,
    channel_assembly,
    channel_nest,
    channel_volterra_family,
    coarsest_partition,
    counterexample_family,
    default_probes,
    diagonal,
    escape_projection,
    exp_volterra_matrix,
    exp_volterra_operator,
    factor_defects,
    factor_diagnostics,
    image_nest,
    op_norm,
    psd_sqrt,
    refine,
    regular_convergence_check,
    run_family,
    standard_nest,
    stability,
    volterra_family,
)
from nestfactor.factor import GRAM_COND_LIMIT
from conftest import (
    dense_commutation_defect,
    dense_d,
    dense_factor,
    gram_images,
    gram_projection,
    midpoint_embed,
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
    return OperatorFamily(alphas, c, lambda alpha: c.copy())


def image_nests(fam, nest, root=lambda w: w):
    """The image nests of root(W) for the limit, then for each member, each
    built when drawn: the ``images`` of :func:`regular_convergence_check`."""
    return (image_nest(root(w), nest) for w in chain([fam.limit], fam.members()))


def test_regular_convergence_constant_family_passes():
    c = exp_volterra_operator(0.3, 8)
    fam, nest = constant_family(c), standard_nest(8)
    rep = regular_convergence_check(fam.alphas, image_nests(fam, nest))
    assert rep.passed
    for row in rep.rows:
        assert row.op_defect == 0.0
        assert row.proj_defect == pytest.approx(0.0, abs=1e-12)


def test_op_defect_matches_the_dense_difference():
    """The op defect, read as max ||W_a f - W f|| off W F taken once,
    equals the dense max ||(W_a - W) f|| within 1e-12 relative: on the
    counterexample family, whose W_n - W is one 2 x 2 block, and on the
    square roots of a seeded rank-deficient family (rank 10, n = 24)."""
    a, e = np.random.default_rng(24).standard_normal((2, 10, 24))

    def member(alpha):
        b = a + e / alpha
        return b.T @ b

    builds = [
        (counterexample_family((2, 4, 32), 48), lambda w: w),
        ((OperatorFamily((2.0, 8.0, 32.0), member(math.inf), member), standard_nest(24)),
         psd_sqrt),
    ]
    for (fam, nest), root in builds:
        probes = default_probes(nest.dim, 3)
        rep = regular_convergence_check(fam.alphas, image_nests(fam, nest, root), probes)
        w = root(fam.limit)
        for row, c_a in zip(rep.rows, fam.members()):
            dense = np.linalg.norm((root(c_a) - w) @ probes.T, axis=0).max()
            assert dense > 1e-3
            assert row.op_defect == pytest.approx(dense, rel=1e-12)


def test_regular_convergence_volterra_passes():
    fam = volterra_family(0.3, ALPHAS, 64)
    rep = regular_convergence_check(fam.alphas, image_nests(fam, standard_nest(64)))
    assert rep.passed
    ops = [r.op_defect for r in rep.rows]
    projs = [r.proj_defect for r in rep.rows]
    assert all(b < a for a, b in zip(ops[:-1], ops[1:]))
    assert all(b < a for a, b in zip(projs[:-1], projs[1:]))


def test_regular_convergence_fails_on_projection_escape():
    fam, nest = counterexample_family((2, 4, 8, 16, 32), 64)
    rep = regular_convergence_check(fam.alphas, image_nests(fam, nest), tol=0.05)
    assert not rep.passed
    assert "projection defect" in rep.failure
    assert rep.rows[-1].proj_defect >= 0.9


def test_regular_convergence_refuses_images_that_run_out():
    """Too few image nests for the alphas raise ValueError naming both
    counts, not a bare StopIteration, and no alphas raise ValueError as
    OperatorFamily does, not a bare IndexError."""
    fam, nest = counterexample_family((2, 4), 8)
    images = list(image_nests(fam, nest))
    with pytest.raises(ValueError, match="2 alphas need 3 image nests .* got 2"):
        regular_convergence_check(fam.alphas, iter(images[:2]))
    with pytest.raises(ValueError, match="got 0"):
        regular_convergence_check(fam.alphas, iter([]))
    with pytest.raises(ValueError, match="need at least one alpha"):
        regular_convergence_check((), images[:1])
    assert regular_convergence_check(fam.alphas, iter(images)).rows[-1].alpha == 4.0


def test_regular_convergence_releases_each_member_image_before_the_next():
    """The check holds the limit's image nest and at most one member's: the
    previous member's image nest is released before the next one is built."""
    fam, nest = counterexample_family((2, 4, 8), 12)
    alive = []

    def images():
        yield image_nest(fam.limit, nest)
        previous = None
        for w in fam.members():
            alive.append(previous is not None and previous() is not None)
            img = image_nest(w, nest)
            previous = weakref.ref(img)
            yield img
            del img

    regular_convergence_check(fam.alphas, images())
    assert alive == [False, False, False]


def diagonal_2x2_family(last_entries, scale=1.0):
    """C = diag(1, 4) over the nest {0, span{(1, 1)}, R^2}, with members
    diag(1, e) for e in ``last_entries``, all times ``scale``.  sqrt(C) maps
    (1, 1) to (1, 2), C maps it to (1, 4), so the two routes see different
    image nests."""
    basis = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    nest = Nest(np.array([0.0, 0.5, 1.0]), basis, (0, 1, 2))
    entries = {float(a): e for a, e in enumerate(last_entries, start=1)}
    return OperatorFamily(tuple(entries), scale * np.diag([1.0, 4.0]),
                          lambda alpha: scale * np.diag([1.0, entries[alpha]])), nest


def test_regular_convergence_is_judged_on_square_root_images():
    """The family run's regular-convergence rows are the strong defects of
    sqrt(C_a) and of the projections onto sqrt(C_a) X_s, not those of C_a."""
    fam, nest = diagonal_2x2_family([4.0 + 1.0 / a for a in (2, 4, 8, 16)])
    probes = default_probes(2)
    reg = run_family(fam, nest, schedule=2, probes=probes).regular
    raw = regular_convergence_check(fam.alphas, image_nests(fam, nest), probes=probes)
    sq = psd_sqrt(fam.limit)
    for row, raw_row, c_a in zip(reg.rows, raw.rows, fam.members()):
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
    for alpha, c_a in zip(fam.alphas, fam.members()):
        yield (f"standard alpha={alpha:g}", image_nest(psd_sqrt(c_a), nest),
               image_nest(psd_sqrt(fam.limit), nest), default_probes(48, 2).T)
    fam, nest = channel_volterra_family(0.3, (2.0, 16.0), 20, 4)
    yield ("channel", image_nest(psd_sqrt(next(fam.members())), nest),
           image_nest(psd_sqrt(fam.limit), nest), default_probes(80, 4).T)
    fam, nest = counterexample_family((2, 4, 32), 48)
    for n, w_n in zip(fam.alphas, fam.members()):
        yield (f"counterexample n={n:g}", image_nest(w_n, nest),
               image_nest(fam.limit, nest), default_probes(48, 6).T)
    n = 512
    fam = volterra_family(0.3, (2.0,), n)
    nest = standard_nest(n)
    yield ("standard n=512", image_nest(psd_sqrt(next(fam.members())), nest),
           image_nest(psd_sqrt(fam.limit), nest), default_probes(n, 1).T)


def test_prefix_sum_image_defect_matches_per_point_oracle():
    """The prefix-sum projection defect finds the per-point oracle's worst
    grid index, and its value within 1e-12 relative: the summation drift
    over 513 grid points stays inside that bound."""
    for label, img_a, img, f_cols in _image_defect_cases():
        fast, fast_j = stability._image_defect((img_a.basis, img_a.ranks),
                                               (img.basis, img.ranks), f_cols)
        oracle, oracle_j = pointwise_image_defect(img_a, img, f_cols)
        assert oracle > 1e-6, label
        assert fast_j == oracle_j, label
        assert abs(fast - oracle) <= 1e-12 * oracle, label


def test_family_regular_report_equals_check_on_square_roots():
    """FamilyRun.regular is regular_convergence_check run on the family of
    square roots, bit for bit, on either failure branch and on a pass.  The
    scaled 2 x 2 family has projection defects above its operator defects.
    The channel family's operators are stacks of blocks, so its square roots
    and image nests here take the block route the run takes; the dense
    route is compared with it, to round-off, in test_factor's
    test_direct_sum_report_matches_the_dense_route."""
    builds = [
        (volterra_family(0.3, ALPHAS, 16), standard_nest(16)),
        channel_volterra_family(0.3, (2.0, 8.0, 32.0), 6, 3),
        diagonal_2x2_family([4.0 + 1.0 / a for a in (2, 4, 8, 16)], scale=0.01),
    ]
    failures = set()
    for fam, nest in builds:
        probes = default_probes(nest.dim, 5)
        last = run_family(fam, nest, 4, probes=probes).regular.rows[-1]
        for tol in (1.0, 0.5 * (last.op_defect + last.proj_defect),
                    0.5 * min(last.op_defect, last.proj_defect)):
            reg = run_family(fam, nest, 4, eps=tol, probes=probes).regular
            check = regular_convergence_check(fam.alphas, image_nests(fam, nest, psd_sqrt),
                                              probes=probes, tol=tol)
            assert [(r.alpha, r.op_defect, r.proj_defect) for r in reg.rows] == [
                (r.alpha, r.op_defect, r.proj_defect) for r in check.rows]
            assert (reg.verdict, reg.failure) == (check.verdict, check.failure)
            failures.add(reg.failure and reg.failure.split()[0])
    assert failures == {None, "operator", "projection"}


def test_counterexample_closed_forms():
    """The family's members and the closed form P_n against the dense
    oracles; the measured image projection of the limit at M annihilates
    phi_1, and the CLI's projection gap, the norm of column 0 of the
    measured P_n, is ||(P_n - P) phi_1|| for the closed form P = I -
    phi_1 phi_1^T bit for bit."""
    n_values = (2, 4, 8, 16, 32)
    fam, nest = counterexample_family(n_values, 64)   # X at grid index 1 is M
    phi1 = np.eye(64)[0]
    p = range_projection(fam.limit, projection_at(nest, 1)).matrix
    assert phi1 @ p @ phi1 == pytest.approx(0.0, abs=1e-14)
    for n, w_n in zip(n_values, fam.members()):
        p_n = escape_projection(n, 64)
        psi = np.zeros(64)
        psi[0], psi[n - 1] = 1.0, -n / 2.0
        assert psi @ psi == pytest.approx(1.0 + n * n / 4.0)
        expected_pn = np.eye(64) - np.outer(psi, psi) / (psi @ psi)
        npt.assert_allclose(p_n, expected_pn, atol=1e-12)
        assert phi1 @ p_n @ phi1 == pytest.approx(
            1.0 - 1.0 / (1.0 + n * n / 4.0), abs=1e-12
        )
        measured = range_projection(w_n, projection_at(nest, 1))
        assert op_norm(measured.matrix - p_n) <= 1e-10
        block = np.array([[0.0, 1.0 / n], [1.0 / n, 2.0 / n**2 - 1.0 / n]])
        assert op_norm(w_n - fam.limit) == pytest.approx(op_norm(block), abs=1e-12)
        assert op_norm(w_n - fam.limit) <= 2.0 / n + 1e-12
        img = image_nest(w_n, nest)
        q = img.basis[:, :img.ranks[1]]
        swept = q @ q.T
        closed_p = np.eye(64) - np.outer(phi1, phi1)
        assert np.linalg.norm(swept[:, 0]) == np.linalg.norm((swept - closed_p) @ phi1)


def test_escape_member_and_projection_validation():
    """A member index below 2, or one the truncation cannot hold, is refused
    by the closed form P_n and when the family draws that member."""
    for n, trunc in ((1, 8), (4, 4)):
        with pytest.raises(ValueError):
            escape_projection(n, trunc)
        with pytest.raises(ValueError):
            next(counterexample_family((n,), trunc)[0].members())


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
    """Each operator's square root is taken once, in order, and each root is
    swept once: the operators swept, the limit's alone and the seven
    members' in one lockstep batch at n = 64, are those roots."""
    from nestfactor import amplitude, factor

    seen, roots, swept = [], [], []
    take_root, sweep = factor._psd_sqrt_with_norm, amplitude._sweep

    def counting_root(c):
        seen.append(c)
        roots.append(take_root(c))
        return roots[-1]

    def counting_sweep(ws, *args):
        out = sweep(ws, *args)
        if out is not None:
            swept.append(list(ws))
        return out

    monkeypatch.setattr(factor, "_psd_sqrt_with_norm", counting_root)
    monkeypatch.setattr(amplitude, "_sweep", counting_sweep)
    base = volterra_family(0.3, tuple(float(2 + k) for k in range(7)), 64)
    built = []

    def member(alpha):
        built.append(base.member(alpha))
        return built[-1]

    fam = OperatorFamily(base.alphas, base.limit, member)
    run_family(fam, standard_nest(64), schedule=4)
    assert len(seen) == len(fam.alphas) + 1
    expected = [fam.limit, *built]
    assert all(a is b for a, b in zip(seen, expected))
    assert [len(ws) for ws in swept] == [1, 7]
    assert all(w is root for w, (root, _) in zip(sum(swept, []), roots))


@pytest.mark.parametrize("channel", [False, True], ids=["standard", "channel"])
def test_run_family_batches_equal_one_operator_per_batch(monkeypatch, channel):
    """A family run swept in STACK_BYTES batches (six members in one at
    n = 64, six members of 4 blocks of 16 in one) equals, with ==, the run
    with one operator per batch."""
    from nestfactor import amplitude

    alphas = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    if channel:
        fam, nest = channel_volterra_family(0.3, alphas, 16, 4)
    else:
        fam, nest = volterra_family(0.3, alphas, 64), standard_nest(64)
    probes = default_probes(nest.dim, 7)
    sizes = []
    sweep = amplitude._sweep

    def counting_sweep(ws, *args):
        sizes.append(len(ws))
        return sweep(ws, *args)

    monkeypatch.setattr(amplitude, "_sweep", counting_sweep)
    batched = run_family(fam, nest, 5, probes=probes)
    assert sizes == ([4, 24] if channel else [1, 6])
    sizes.clear()
    monkeypatch.setattr(amplitude, "STACK_BYTES", 1)
    solo = run_family(fam, nest, 5, probes=probes)
    assert sizes == [4 if channel else 1] * 7
    assert batched[:3] == solo[:3]
    assert (batched.uniformity == solo.uniformity).all()


@pytest.mark.parametrize("channel", [False, True], ids=["standard", "channel"])
def test_run_family_releases_each_report_before_its_projection_defect(monkeypatch, channel):
    """The projection defect of each member is read once its report (and
    with it G) is released: at every _image_defect call no member report is
    alive and exactly one member image nest is, the one compared."""
    if channel:
        fam, nest = channel_volterra_family(0.3, (2.0, 8.0, 32.0), 6, 3)
    else:
        fam, nest = volterra_family(0.3, ALPHAS, 16), standard_nest(16)
    factors, image_defect = stability._canonical_factors, stability._image_defect
    reports, images, alive = [], [], []

    def record(rep):
        reports.append(weakref.ref(rep))
        images.append(weakref.ref(rep.image))
        return rep

    def counting_image_defect(*args):
        alive.append((sum(r() is not None for r in reports),
                      sum(r() is not None for r in images)))
        return image_defect(*args)

    monkeypatch.setattr(stability, "_canonical_factors",
                        lambda *args: map(record, factors(*args)))
    monkeypatch.setattr(stability, "_image_defect", counting_image_defect)
    run_family(fam, nest, 4)
    assert alive == [(0, 1)] * len(fam.alphas)


def test_run_family_rows_match_sweep_and_cauchy_oracles():
    """Harness rows are the mid-level sweep rows plus the strong defects,
    and uniformity rows are the Cauchy defects of a separate diagonal run
    on each member's square root, bit for bit, and those of its dense
    partial sums (the oracle) to round-off.  The members are stacks of
    blocks, whose square roots and diagonals take the run's block route;
    the dense route is compared in test_factor's
    test_direct_sum_report_matches_the_dense_route."""
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
    for i, c_a in enumerate(fam.members()):
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


def test_channel_family_sweeps_its_members_blocks_in_one_call(monkeypatch):
    """A channel family's limit and members are stacks of their blocks.  At
    n = 24 x 4 a member's blocks take 8 * 96 * 24 bytes, so one STACK_BYTES
    batch holds fourteen members: with fourteen alphas the run sweeps the
    limit's 4 blocks, then the members' 56 blocks in one lockstep stack over
    the block nest."""
    from nestfactor import amplitude

    swept = []
    sweep = amplitude._sweep

    def counting_sweep(ws, *args):
        swept.append([np.shape(w) for w in ws])
        return sweep(ws, *args)

    monkeypatch.setattr(amplitude, "_sweep", counting_sweep)
    fam, nest = channel_volterra_family(0.3, tuple(float(2 ** k) for k in range(1, 15)), 24, 4)
    assert fam.limit.shape == (4, 24, 24) and nest.dim == 96
    assert amplitude.STACK_BYTES // (8 * 96 * 24) == 14
    run_family(fam, nest, schedule=5)
    assert swept == [[(24, 24)] * 4, [(24, 24)] * 56]


def test_family_run_refines_its_nest_once(monkeypatch):
    """Every report of a family run is refined over the one nest the run was
    given, whose refinement chain is built once: refine runs once per level
    for all seven reports, standard or channel."""
    from nestfactor import nests

    calls = []
    refine_once = nests.refine

    def counting(part, nest):
        calls.append(nest)
        return refine_once(part, nest)

    monkeypatch.setattr(nests, "refine", counting)
    for fam, nest in ((volterra_family(0.3, ALPHAS, 16), standard_nest(16)),
                      channel_volterra_family(0.3, ALPHAS, 16, 3)):
        calls.clear()
        run = run_family(fam, nest, schedule=3)
        assert len(calls) == 3 and all(n is nest for n in calls)
        assert len(run.sweep) == 4 * len(ALPHAS)


def test_family_run_masks_each_level_once(monkeypatch):
    """A six-alpha family run reads each factorization's levels on the
    probes once, in its refinement: one mask of G per level for each of the
    seven operators (n = 64, schedule 5: six levels), 42 in all."""
    from nestfactor import amplitude

    calls = []
    masked = amplitude.DiagonalReport._masked

    def counting(rep, part):
        calls.append(part)
        return masked(rep, part)

    monkeypatch.setattr(amplitude.DiagonalReport, "_masked", counting)
    run = run_family(volterra_family(0.3, ALPHAS, 64), standard_nest(64), schedule=5)
    assert len(run.sweep) == 6 * len(ALPHAS)
    assert len(calls) == 7 * 6


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
    cnest = channel_nest(standard_nest(4), 3)
    assert stability._commutation_defect(block, cnest, 3) == 0.0
    nonzero = 0
    for c in (block, coupled, one_sided, random_spd(rng, 12)):
        for nest in (cnest, standard_nest(12), rotated_nest(rng, 12)):
            fast = stability._commutation_defect(c, nest, 3)
            dense = dense_commutation_defect(c, nest, dims)
            assert abs(fast - dense) <= 1e-13 * max(1.0, dense)
            nonzero += dense >= 0.1
    assert nonzero >= 9


class _ProductSpy(np.ndarray):
    """A nest basis that records the shape of every matmul taken with it."""

    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) for x in inputs]
        out = getattr(ufunc, method)(*inputs, **kwargs)
        if ufunc is np.matmul:
            _ProductSpy.products.append(out.shape)
        return out


class _SpiedNest(Nest):
    """A nest whose basis, when formed on request, records its products."""

    @property
    def basis(self):
        return super().basis.view(_ProductSpy)


def _spied(nest):
    """A copy of ``nest`` whose basis, held or formed, records its products
    (_ProductSpy)."""
    out = _SpiedNest(nest.grid, nest.basis, nest.ranks)
    if out._dense is not None:
        object.__setattr__(out, "_dense", out._dense.view(_ProductSpy))
    return out


def test_commutation_defect_scans_no_block_off_a_channel_nest(monkeypatch):
    """On a channel nest U^T F U is zero off its diagonal, so the nest part
    reads 0.0 with no max_op_norm call and no n x n product U[rows]^T U[rows],
    for a block-diagonal C and for one coupling two channels; a rotated nest
    forms the product and takes the scan, one of each per channel, and
    keeps the dense value."""
    rng = np.random.default_rng(29)
    dims = [4, 4, 4]
    block = block_diag(*[random_spd(rng, d) for d in dims])
    coupled = block.copy()
    coupled[1, 6] = coupled[6, 1] = 0.7
    cnest = _spied(channel_nest(standard_nest(4), 3))
    rotated = _spied(rotated_nest(rng, 12))
    calls = []
    scan = stability.max_op_norm

    def counted(blocks):
        calls.append(1)
        return scan(blocks)

    monkeypatch.setattr(stability, "max_op_norm", counted)
    monkeypatch.setattr(_ProductSpy, "products", [])
    assert stability._commutation_defect(block, cnest, 3) == 0.0
    assert calls == [] and _ProductSpy.products == []
    assert stability._commutation_defect(coupled, cnest, 3) == op_norm(coupled[:4, 4:])
    assert calls == [] and _ProductSpy.products == []
    fast = stability._commutation_defect(block, rotated, 3)
    assert len(calls) == 3 and _ProductSpy.products == [(12, 12)] * 3
    dense = dense_commutation_defect(block, rotated, dims)
    assert dense >= 0.1 and abs(fast - dense) <= 1e-13 * dense


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
    for k, (alpha, c_a) in enumerate(zip(fam.alphas, fam.members())):
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
        m = np.eye(n) + midpoint_embed(k, n)
        return m.T @ m

    return OperatorFamily(alphas, member(alphas[-1]), member)


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
        images = gram_images(c, nest)
        assert images.ranks == nest.ranks
        npt.assert_array_equal(images.grid, nest.grid)
        for j in range(len(nest.grid)):
            npt.assert_allclose(images.x(j), nest.x(j), atol=1e-12)


def test_posdef_projection_matches_svd_route():
    rng = np.random.default_rng(20)
    c = random_spd(rng, 6)
    nest = standard_nest(6)
    sq = psd_sqrt(c)
    images = gram_images(c, nest)
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
            nest = channel_nest(standard_nest(4), 3)
        else:
            nest = rotated_nest(rng, int(rng.integers(2, 17)))
        c = random_spd(rng, nest.dim)
        sq = psd_sqrt(c)
        images = gram_images(c, nest)
        for j in range(len(nest.grid)):
            x = images.x(j)
            npt.assert_array_equal(x, x.T)
            assert op_norm(x - gram_projection(c, nest, j, sq)) <= 1e-12


@pytest.mark.parametrize("n", [2, 32, 256])
def test_posdef_projection_substitution_matches_solve_triangular(n):
    """The basis Y = sqrt(C) U R^{-1} that the Gram route forms by column
    substitution agrees with LAPACK's triangular solve."""
    rng = np.random.default_rng(22)
    c = random_spd(rng, n)
    nest = rotated_nest(rng, n)
    sq = psd_sqrt(c)
    u = nest.basis
    gram = u.T @ c @ u
    r = cholesky(0.5 * (gram + gram.T), lower=False)
    oracle = solve_triangular(r, (sq @ u).T, trans="T", lower=False).T
    y = gram_images(c, nest).basis
    assert np.abs(y - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_block_diag_matches_scipy():
    rng = np.random.default_rng(23)
    for dims in ([1], [3], [1, 1], [2, 5, 1], [4] * 6):
        blocks = [rng.standard_normal((k, k)) for k in dims]
        npt.assert_array_equal(stability._block_diag(*blocks), block_diag(*blocks))


def test_posdef_projection_rejects_singular_gram():
    c = np.diag([1.0, 0.0, 1.0])
    with pytest.raises(SingularGramError) as err:
        gram_images(c, standard_nest(3))
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
        gram_images(c, nest)


def test_singular_gram_error_carries_the_condition_number_of_g():
    rng = np.random.default_rng(22)
    nest = rotated_nest(rng, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    c = (q * np.logspace(0.0, -13.0, 6)) @ q.T
    c = 0.5 * (c + c.T)
    gram = nest.basis.T @ c @ nest.basis
    evals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    with pytest.raises(SingularGramError) as err:
        gram_images(c, nest)
    assert err.value.cond == evals[-1] / evals[0]
    assert err.value.cond > GRAM_COND_LIMIT


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
    assert raises(lambda: gram_images(c, nest)) == sweep
    assert sweep == (log_cond >= 14.0)


def test_channel_assembly_single_channel_matches_direct():
    """One channel: the channel's row and the assembled row are both the
    row of the direct factorization, bit for bit."""
    c = exp_volterra_operator(0.3, 8)
    nest = standard_nest(8)
    asm = channel_assembly(c[None], nest, schedule=3)
    direct = canonical_factor(c, nest, schedule=3, full_schedule=True)
    assert asm.rows == [factor_defects(c, direct, direct.levels[-1])] * 2
    assert asm.assembly_defect <= 1e-10
    assert asm.commutation_defect <= 1e-12


def test_channel_assembly_sweeps_its_channels_in_one_batch(channels8, monkeypatch):
    """The 8 channel image nests of channels8 are swept in one lockstep
    stack, each channel report is canonical_factor's, bit for bit, and the
    rows are factor_defects of canonical_factor's reports, bit for bit."""
    from nestfactor import amplitude

    blocks, _, _ = channels8
    calls, drawn = [], []
    sweep, factors = amplitude._sweep, stability._canonical_factors

    def counting(ws, *args):
        calls.append(len(ws))
        return sweep(ws, *args)

    def kept(*args):
        for rep in factors(*args):
            drawn.append(rep)
            yield rep

    monkeypatch.setattr(amplitude, "_sweep", counting)
    monkeypatch.setattr(stability, "_canonical_factors", kept)
    cnest = channel_nest(standard_nest(16), 8)
    asm = channel_assembly(blocks, cnest, schedule=4)
    assert calls == [8, 1]   # the channels in one batch, then the assembly
    monkeypatch.undo()
    refs = [canonical_factor(b, standard_nest(16), 4, full_schedule=True) for b in blocks]
    assert len(drawn) == len(refs)
    for rep, ref in zip(drawn, refs):
        npt.assert_array_equal(rep.g, ref.g)
        assert rep.levels == ref.levels and rep.cauchy == ref.cauchy
        assert rep.verdict == ref.verdict
        npt.assert_array_equal(rep.image.basis, ref.image.basis)
        assert rep.image.ranks == ref.image.ranks and rep.image.norm == ref.image.norm
    c = block_diag(*blocks)
    glob = canonical_factor(c, cnest, 4, full_schedule=True)
    assert asm.rows == [factor_defects(op, rep, rep.levels[-1])
                        for op, rep in zip([*blocks, c], [*refs, glob])]


def test_channel_assembly_refuses_a_schedule_below_two():
    with pytest.raises(ValueError, match="schedule must be at least 2"):
        channel_assembly(np.stack([np.eye(2)] * 2), channel_nest(standard_nest(2), 2), schedule=1)


def test_channel_assembly_refuses_a_nest_of_other_channels():
    """The blocks' nest is read off the channel nest, so a nest not built
    by channel_nest with as many channels as blocks is refused."""
    blocks = np.stack([np.eye(2)] * 2)
    for nest in (standard_nest(4), channel_nest(standard_nest(1), 4)):
        with pytest.raises(ValueError, match="needs a channel nest of 2 channels"):
            channel_assembly(blocks, nest, schedule=2)


def test_assembly_defect_matches_dense_oracle(channels8):
    """The assembly defect, read in nest coordinates, against the dense
    ||V - blockdiag(V_l)||: at round-off for the channels8 assembly, and at
    order one when each channel is factored from a perturbed block.  The
    reports are canonical_factor's, as channel_assembly's are."""
    blocks, asm, _ = channels8
    cnest = channel_nest(standard_nest(16), 8)
    report = canonical_factor(block_diag(*blocks), cnest, 4, full_schedule=True)
    channel_reports = [canonical_factor(b, standard_nest(16), 4, full_schedule=True)
                       for b in blocks]

    def dense(channel_reports):
        return op_norm(dense_factor(report)
                       - block_diag(*[dense_factor(r) for r in channel_reports]))

    def deepest(rep):
        return rep.factor(rep.levels[-1])

    reference = dense(channel_reports)
    assert asm.assembly_defect <= 1e-12
    assert abs(asm.assembly_defect - reference) <= 1e-13
    assert stability._assembly_defect(deepest(report), map(deepest, channel_reports),
                                      cnest) == asm.assembly_defect
    rng = np.random.default_rng(5)
    perturbed = [canonical_factor(b + 0.1 * random_spd(rng, b.shape[0]), standard_nest(16), 4,
                                  full_schedule=True) for b in blocks]
    reference = dense(perturbed)
    fast = stability._assembly_defect(deepest(report), map(deepest, perturbed), cnest)
    assert reference >= 0.1
    assert abs(fast - reference) <= 1e-12 * reference


def test_channel_assembly_two_diagonal_blocks():
    blocks = np.stack([np.diag([4.0, 1.0]), np.eye(2)])
    cnest = channel_nest(standard_nest(2), 2)
    asm = channel_assembly(blocks, cnest, schedule=2)
    expected_v = np.diag([4.0, 1.0, 1.0, 1.0])
    report = canonical_factor(block_diag(*blocks), cnest, 2, full_schedule=True)
    npt.assert_allclose(dense_factor(report), expected_v, atol=1e-12)
    assert asm.rows[-1].residual == pytest.approx(12.0, abs=1e-10)
    assert asm.channel_min_eigenvalues == pytest.approx([1.0, 1.0])


def test_channel_assembly_reads_min_eigenvalues_off_the_blocks():
    """The minimum eigenvalues come from one stacked eigvalsh of the blocks; they match each
    block's own and, at round-off, the dense spectrum of the assembled operator."""
    fam, cnest = channel_volterra_family(0.3, (2.0,), 16, 4)
    asm = channel_assembly(fam.limit, cnest, schedule=3)
    assert asm.channel_min_eigenvalues == [np.linalg.eigvalsh(b)[0] for b in fam.limit]
    assert min(asm.channel_min_eigenvalues) == pytest.approx(
        np.linalg.eigvalsh(block_diag(*fam.limit))[0], rel=1e-12)


def test_volterra_family_members():
    fam = volterra_family(0.3, (1.0, 2.0, 64.0), 16)
    members = list(fam.members())
    npt.assert_allclose(members[0], np.eye(16), atol=1e-14)   # alpha=1 -> kappa 0
    gaps = [op_norm(m - fam.limit) for m in members]
    assert gaps[0] > gaps[1] > gaps[2]
    # O(1/alpha) trend: quadrupling alpha by 32 shrinks the gap ~32-fold
    ratio = gaps[1] / gaps[2]
    assert 16.0 <= ratio <= 64.0


def test_family_member_of_wrong_dimension_raises_when_drawn():
    """A member rule is called only when its member is drawn, and a member
    whose dimension is not the limit's is refused then."""
    calls = []

    def member(alpha):
        calls.append(alpha)
        return np.eye(3 if alpha < 4.0 else 4)

    fam = OperatorFamily((2.0, 4.0), np.eye(3), member)
    assert calls == []
    members = fam.members()
    npt.assert_array_equal(next(members), np.eye(3))
    with pytest.raises(ValueError, match="alpha=4"):
        next(members)
    assert calls == [2.0, 4.0]
    with pytest.raises(ValueError):
        run_family(fam, standard_nest(3), schedule=2)


def _run_family_peak(alphas, n=256):
    """Peak traced bytes of building a Volterra family at n and running it."""
    tracemalloc.start()
    try:
        run_family(volterra_family(0.3, alphas, n), standard_nest(n), schedule=4)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_family_peak_memory_does_not_grow_with_family_size():
    """Members are built when drawn and released once factored, so eight
    alphas peak within 10 % of one at n = 256 (a member is 0.5 MB there).
    A first run takes the one-time allocations (1.9 MB here) out of both."""
    _run_family_peak((2.0,))
    one = _run_family_peak((2.0,))
    eight = _run_family_peak(tuple(float(2 ** k) for k in range(1, 9)))
    assert eight <= 1.1 * one, (one, eight)


def test_run_family_peak_memory_is_bounded_by_the_batch():
    """At n = 64 the image nests of eight operators are swept in lockstep
    and held until read; the peak is set by one batch, so it does not grow
    from two batches (15 alphas) to four (31 alphas)."""
    from nestfactor.amplitude import STACK_BYTES

    assert STACK_BYTES // (8 * 64 * 64) == 8
    _run_family_peak((2.0,), n=64)
    two = _run_family_peak(tuple(float(2 + k) for k in range(15)), n=64)
    four = _run_family_peak(tuple(float(2 + k) for k in range(31)), n=64)
    assert four <= 1.1 * two, (two, four)


def test_counterexample_family_member_builds_only_w_n():
    """Drawing one member of the projection-escape family builds W_n alone,
    equal to its closed form, and no other trunc x trunc array (a rule that
    built W, W_n, P and P_n to keep W_n peaked at 50.3 MB at trunc = 1024)."""
    trunc = 1024
    fam, _ = counterexample_family((2, 4), trunc)
    tracemalloc.start()
    try:
        member = next(fam.members())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * member.nbytes, (peak, member.nbytes)
    expected = np.diag(1.0 / np.arange(1, trunc + 1))
    expected[:2, :2] = [[1.0, 0.5], [0.5, 0.5]]   # W_2 on span{phi_1, phi_2}
    npt.assert_array_equal(member, expected)


def test_volterra_family_rejects_bad_kappa():
    with pytest.raises(ValueError):
        volterra_family(1.5, ALPHAS, 8)


def test_built_in_families_draw_their_limit_by_a_rule():
    """The built-in families hold no operator: each read of ``limit`` builds
    a new array, bit for bit the closed form, and a grid too small for
    the limit is refused when the family is built.  A family checks every
    draw against the shape of its first, so a limit given by a rule that
    disagrees with the members drawn before it is refused when drawn."""
    for fam, limit in ((volterra_family(0.3, ALPHAS, 16), exp_volterra_operator(0.3, 16)),
                       (counterexample_family((2, 4), 16)[0], np.diag(1.0 / np.arange(1, 17))),
                       (channel_volterra_family(0.3, ALPHAS, 8, 3)[0], None)):
        assert not any(isinstance(v, np.ndarray) for v in vars(fam).values())
        first, second = fam.limit, fam.limit
        assert first is not second and first.tobytes() == second.tobytes()
        if limit is not None:
            assert first.tobytes() == limit.tobytes()
    scales = 1.0 / np.arange(1, 4)[:, None, None]
    assert fam.limit.tobytes() == (scales * exp_volterra_operator(0.3, 8)).tobytes()
    with pytest.raises(ValueError, match="grid size"):
        volterra_family(0.3, ALPHAS, 1)
    fam = OperatorFamily((2.0, 4.0), lambda: np.eye(4), lambda alpha: np.eye(3))
    assert next(fam.members()).shape == (3, 3)
    with pytest.raises(ValueError, match="limit has shape"):
        fam.limit


def test_anticausal_kernel_support():
    """I + L in closed form is, byte for byte, the identity plus the
    midpoint embedding of the anticausal kernel kappa * exp(tau - t) on
    tau > t: upper triangular with unit diagonal."""
    kernel = lambda t, tau: np.where(tau > t, 0.3 * np.exp(tau - t), 0.0)
    for n in (2, 8, 160):
        m = exp_volterra_matrix(0.3, n)
        assert m.tobytes() == (np.eye(n) + midpoint_embed(kernel, n)).tobytes()
        npt.assert_array_equal(np.tril(m, -1), 0.0)
        npt.assert_array_equal(np.diag(m), 1.0)
    with pytest.raises(ValueError, match="grid size"):
        exp_volterra_matrix(0.3, 1)
    with pytest.raises(ValueError, match="kernel weight"):
        exp_volterra_matrix(math.nan, 8)

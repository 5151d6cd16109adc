import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from nestfactor import (
    Partition,
    admissibility,
    canonical_factor,
    channel_nest,
    check_intertwining,
    coarsest_partition,
    counterexample_family,
    default_probes,
    diagonal,
    exp_volterra_matrix,
    exp_volterra_operator,
    image_nest,
    op_norm,
    partition,
    psd_sqrt,
    refine,
    standard_nest,
)
from nestfactor import linops
from nestfactor.linops import RANK_TOL
from conftest import (
    Projection,
    block_spectrum,
    dense_admissibility,
    dense_d,
    dense_intertwining,
    dense_op_norm,
    full_partition,
    image_projection,
    pairing_defect,
    partial_diagonal,
    projection_at,
    random_spd,
    range_basis,
    range_projection,
    rotated_nest,
    zero_projection,
)


def test_image_nest_identity():
    nest = standard_nest(3)
    img = image_nest(np.eye(3), nest)
    for j in range(4):
        npt.assert_allclose(image_projection(img, j), nest.x(j), atol=1e-12)


def test_image_nest_invertible_diagonal():
    nest = standard_nest(4)
    img = image_nest(np.diag([2.0, 0.5, 1.0, 3.0]), nest)
    for j in range(5):
        npt.assert_allclose(image_projection(img, j), nest.x(j), atol=1e-12)


def test_image_nest_shear():
    nest = standard_nest(2)
    img = image_nest(np.array([[1.0, 1.0], [0.0, 1.0]]), nest)
    npt.assert_allclose(image_projection(img, 1), np.diag([1.0, 0.0]), atol=1e-12)
    npt.assert_allclose(image_projection(img, 2), np.eye(2), atol=1e-12)


def test_image_nest_ranks_non_decreasing_seeded():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        w = rng.standard_normal((dim, dim))
        if rng.integers(2):
            w[:, rng.integers(dim)] = 0.0          # force a rank drop
        img = image_nest(w, standard_nest(dim))
        ranks = list(img.ranks)
        assert ranks == sorted(ranks)
        wx = w @ img.base.x(dim)
        assert op_norm(image_projection(img, dim) @ wx - wx) <= 1e-9 * (1.0 + op_norm(w))


def _assert_matches_oracle(w, nest):
    """Every grid point of the image nest against the dense SVD route."""
    img = image_nest(w, nest)
    q = img.basis
    assert op_norm(q.T @ q - np.eye(q.shape[1])) <= 1e-12
    for j in range(len(nest.grid)):
        oracle = range_projection(w, projection_at(nest, j))
        assert img.ranks[j] == oracle.rank
        assert op_norm(image_projection(img, j) - oracle.matrix) <= 1e-12


def test_image_nest_matches_oracle_standard_nest():
    rng = np.random.default_rng(41)
    for _ in range(20):
        dim = int(rng.integers(2, 17))
        _assert_matches_oracle(rng.standard_normal((dim, dim)), standard_nest(dim))
    _assert_matches_oracle(psd_sqrt(exp_volterra_operator(0.3, 32)), standard_nest(32))
    # the cases posdef-check draws at its defaults (seed 0, dims 2..32): it
    # cross-checks the Gram formula against these image nests of sqrt(C)
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = random_spd(rng, int(rng.integers(2, 33)))
        _assert_matches_oracle(psd_sqrt(c), standard_nest(c.shape[0]))


def test_image_nest_matches_oracle_channel_nest():
    rng = np.random.default_rng(43)
    nest = channel_nest(standard_nest(4), 3)
    for _ in range(10):
        _assert_matches_oracle(rng.standard_normal((12, 12)), nest)


def test_image_nest_matches_oracle_rotated_nests():
    rng = np.random.default_rng(47)
    for _ in range(20):
        dim = int(rng.integers(2, 17))
        _assert_matches_oracle(rng.standard_normal((dim, dim)), rotated_nest(rng, dim))


def test_image_nest_matches_oracle_counterexample_nest():
    fam, nest = counterexample_family((2, 4, 8), trunc=16)
    for w in (fam.limit, *fam.members()):
        _assert_matches_oracle(w, nest)


def test_image_nest_matches_oracle_singular_operators():
    _assert_matches_oracle(psd_sqrt(np.diag([1.0, 0.0, 0.0, 2.0])), standard_nest(4))
    rng = np.random.default_rng(53)
    for _ in range(20):
        dim = int(rng.integers(2, 17))
        w = rng.standard_normal((dim, dim))
        w[:, rng.integers(dim)] = 0.0
        _assert_matches_oracle(w, standard_nest(dim))
        _assert_matches_oracle(w, rotated_nest(rng, dim))


def test_image_nest_rank_cut_is_relative_to_the_operator_norm():
    """A leading column at 1e-12 ||W|| is below the cut RANK_TOL * ||W||, so
    the image nest drops it; the dense oracle cuts relative to ||W X_s|| and
    keeps it."""
    rng = np.random.default_rng(59)
    w = rng.standard_normal((6, 6))
    w[:, 0] *= 1e-12 * op_norm(w) / np.linalg.norm(w[:, 0])
    nest = standard_nest(6)
    img = image_nest(w, nest)
    assert range_projection(w, projection_at(nest, 1)).rank == 1
    assert img.ranks[1] == 0
    assert list(img.ranks[2:]) == [range_projection(w, projection_at(nest, j)).rank
                                   for j in range(2, len(nest.grid))]


def _increment_sweep(w, nest):
    """Reference image-nest sweep taking each increment's basis straight from
    range_basis rather than from the nest basis.  Returns (basis, ranks)."""
    n = nest.dim
    cut = RANK_TOL * op_norm(w)
    q = np.empty((n, n))
    r = 0
    ranks = []
    prev = zero_projection(n)
    for j in range(len(nest.grid)):
        xp = projection_at(nest, j)
        y = w @ range_basis(Projection(xp.matrix - prev.matrix, xp.rank - prev.rank))
        prev = xp
        if r:
            done = q[:, :r]
            y -= done @ (done.T @ y)
            y -= done @ (done.T @ y)
        u, sv, _ = np.linalg.svd(y, full_matrices=False)
        k = int(np.count_nonzero(sv > cut))
        q[:, r:r + k] = u[:, :k]
        r += k
        ranks.append(r)
    return q[:, :r], tuple(ranks)


def test_image_nest_from_nest_basis_is_bit_identical_on_coordinate_nests():
    rng = np.random.default_rng(61)
    for nest in (standard_nest(12), channel_nest(standard_nest(4), 3)):
        for _ in range(5):
            w = rng.standard_normal((12, 12))
            if rng.integers(2):
                w[:, rng.integers(12)] = 0.0
            img = image_nest(w, nest)
            basis, ranks = _increment_sweep(w, nest)
            assert img.ranks == ranks
            npt.assert_array_equal(img.basis, basis)


def _seeded_column(w, j, size):
    """Make column j of W a combination of the earlier columns plus ``size``
    times a unit vector orthogonal to them, so the image nest meets a
    residual with the single singular value ``size`` at increment j."""
    q, _ = np.linalg.qr(w[:, :j])
    u = np.random.default_rng(j).standard_normal(w.shape[0])
    u -= q @ (q.T @ u)
    w[:, j] = w[:, :j] @ np.linspace(0.5, 1.5, j) / j + size * u / np.linalg.norm(u)


def test_panel_sweep_matches_increment_sweep_past_one_panel():
    """Past one panel (n > PANEL), the BCGS2 image nest keeps the ranks of
    the per-increment sweep and its basis within 1e-13: with zeroed columns
    in the first and in a later panel, on a standard and a channel nest."""
    from nestfactor.amplitude import PANEL

    rng = np.random.default_rng(67)
    for nest in (standard_nest(150), channel_nest(standard_nest(50), 3)):
        n = nest.dim
        assert n > 2 * PANEL
        w = rng.standard_normal((n, n))
        w[:, [7, PANEL + 20, n - 3]] = 0.0
        img = image_nest(w, nest)
        basis, ranks = _increment_sweep(w, nest)
        assert img.ranks == ranks
        assert img.ranks[-1] == n - 3
        assert np.abs(img.basis - basis).max() <= 1e-13


def test_panel_sweep_keeps_rank_decisions_near_the_cut():
    """Residual singular values seeded 10x above and 10x below
    ``RANK_TOL * ||W||``, in the first and in a later panel, get the same
    keep/drop decision as in the per-increment sweep.  The kept near-cut
    direction is the last column, as round-off in a residual that small
    moves its direction by about eps * ||W|| / (10 * RANK_TOL * ||W||); the
    columns before it agree within 1e-13."""
    from nestfactor.amplitude import PANEL

    n = 2 * PANEL + 20
    nest = standard_nest(n)
    w = np.random.default_rng(71).standard_normal((n, n))
    cut = RANK_TOL * op_norm(w)
    for j, size in ((20, 10.0 * cut), (30, 0.1 * cut),
                    (PANEL + 30, 0.1 * cut), (n - 1, 10.0 * cut)):
        _seeded_column(w, j, size)
    cut = RANK_TOL * op_norm(w)
    img = image_nest(w, nest)
    basis, ranks = _increment_sweep(w, nest)
    assert img.ranks == ranks
    steps = np.diff(img.ranks)
    assert steps[[20, n - 1]].tolist() == [1, 1]
    assert steps[[30, PANEL + 30]].tolist() == [0, 0]
    assert img.ranks[-1] == n - 2
    assert np.abs(img.basis[:, :-1] - basis[:, :-1]).max() <= 1e-13
    assert np.abs(img.basis[:, -1] - basis[:, -1]).max() <= 1e-6


def _lockstep_cases(rng):
    """Stacks of operators over one nest, as (nest, operators): square roots
    of Volterra operators of full rank and of A^T A of lower ranks, and a
    general matrix with zeroed columns, so the operators keep different
    numbers of columns at some increments, inside a panel and at its edge;
    on a standard and a channel nest past one panel, and on a small nest."""
    from nestfactor.amplitude import PANEL

    for nest in (standard_nest(150), channel_nest(standard_nest(50), 3), standard_nest(12)):
        n = nest.dim
        ws = [psd_sqrt(exp_volterra_operator(kappa, n)) for kappa in (0.1, 0.3)]
        for rank in (n // 2, n // 3, PANEL if n > PANEL else n - 1):
            a = rng.standard_normal((rank, n))
            ws.append(psd_sqrt(a.T @ a))
        w = rng.standard_normal((n, n))
        w[:, [3, n - 5]] = 0.0
        ws.append(w)
        yield nest, ws


def test_lockstep_sweep_equals_each_solo_sweep_bit_for_bit(monkeypatch):
    """Image nests swept in lockstep (amplitude._image_nests) are those of
    each operator's own sweep, bit for bit: basis, ranks and norm, with the
    operator itself as the source, also on stacks whose ranks part, so that
    each operator is swept again on its own.  The operators are drawn from
    a stream, with a STACK_BYTES budget of all of them and of four, so that
    the stream also runs longer than one batch (batches of 4 and 2)."""
    import nestfactor.amplitude as amplitude

    batches = []
    sweep = amplitude._sweep

    def counting(ws, *args):
        if len(ws) > 1:   # a batch's lockstep pass, not a solo re-sweep
            batches.append(len(ws))
        return sweep(ws, *args)

    monkeypatch.setattr(amplitude, "_sweep", counting)
    for nest, ws in _lockstep_cases(np.random.default_rng(89)):
        solo = [image_nest(w, nest) for w in ws]
        assert len({img.ranks for img in solo}) >= 4   # the ranks part
        assert len(ws) == 6
        for per_batch, sizes in ((6, [6]), (4, [4, 2])):
            monkeypatch.setattr(amplitude, "STACK_BYTES", per_batch * ws[0].nbytes)
            for norms in ([None] * len(ws), [img.norm for img in solo]):
                batches.clear()
                locked = amplitude._image_nests(zip(ws, norms), nest)
                for img, lock, w in zip(solo, locked, ws):
                    assert lock.source is w and lock.base is nest
                    assert lock.ranks == img.ranks and lock.norm == img.norm
                    assert all(type(k) is int for k in lock.ranks + img.ranks)
                    npt.assert_array_equal(lock.basis, img.basis)
                    assert lock.basis.flags.c_contiguous
                assert batches == sizes


def test_lockstep_sweep_passes(monkeypatch):
    """Copies of one rank-deficient operator keep equal ranks at every
    increment and take one lockstep pass.  A rank-40 and a full-rank
    operator, whose ranks part at increment 41, take one lockstep pass that
    gives up and then one pass each, equal to each operator's solo sweep.
    STACK_BYTES is raised to three operators, so each list is one batch."""
    import nestfactor.amplitude as amplitude

    a = np.random.default_rng(97).standard_normal((40, 100))
    w = psd_sqrt(a.T @ a)
    full = psd_sqrt(exp_volterra_operator(0.3, 100))
    nest = standard_nest(100)
    solo = [image_nest(v, nest) for v in (w, full)]
    ranks = zip(solo[0].ranks, solo[1].ranks)
    assert next(j for j, (a, b) in enumerate(ranks) if a != b) == 41

    passes = []
    sweep = amplitude._sweep

    def counting(ws, *args):
        swept = sweep(ws, *args)
        passes.append((len(ws), swept is None))
        return swept

    monkeypatch.setattr(amplitude, "_sweep", counting)
    monkeypatch.setattr(amplitude, "STACK_BYTES", 3 * w.nbytes)
    for img in amplitude._image_nests([(w, None), (w.copy(), None), (w.copy(), None)], nest):
        assert img.ranks == solo[0].ranks
        npt.assert_array_equal(img.basis, solo[0].basis)
    assert passes == [(3, False)]
    passes.clear()
    for img, ref in zip(amplitude._image_nests([(w, None), (full, None)], nest), solo):
        assert img.ranks == ref.ranks and img.norm == ref.norm
        npt.assert_array_equal(img.basis, ref.basis)
    assert passes == [(2, True), (1, False), (1, False)]


def _sum_at(w, nest, part):
    """Dense diagonal sum of W over any partition of the nest, read from
    the diagonal report's G."""
    rep = diagonal(w, nest, schedule=2)
    return dense_d(rep, part)


def test_partial_diagonal_identity():
    nest = standard_nest(4)
    for part in (coarsest_partition(nest), full_partition(nest)):
        npt.assert_allclose(_sum_at(np.eye(4), nest, part), np.eye(4),
                            atol=1e-12)


def test_partial_diagonal_commuting_diagonal():
    w = np.diag([1.0, 0.5, 1.0 / 3.0])
    nest = standard_nest(3)
    d = _sum_at(w, nest, full_partition(nest))
    npt.assert_allclose(d, w, atol=1e-12)


def test_partial_diagonal_shear_collapses_to_identity():
    w = np.array([[1.0, 1.0], [0.0, 1.0]])
    nest = standard_nest(2)
    d = _sum_at(w, nest, full_partition(nest))
    npt.assert_allclose(d, np.eye(2), atol=1e-12)


def test_diagonal_identity_converges_immediately():
    rep = diagonal(np.eye(8), standard_nest(8), schedule=4)
    assert rep.verdict == "converged"
    npt.assert_allclose(dense_d(rep, rep.levels[-1]), np.eye(8), atol=1e-12)
    assert rep.cauchy[0] <= rep.eps


def test_diagonal_smooth_triangular_converges_with_explicit_eps():
    w = exp_volterra_matrix(0.3, 128)
    nest = standard_nest(128)
    eps = 1e-3 * (1.0 + op_norm(w))
    rep = diagonal(w, nest, schedule=7, eps=eps)
    assert rep.verdict == "converged"
    assert rep.cauchy[-1] <= eps
    # defect decays roughly linearly in the partition range
    ranges = np.array([part.range for part in rep.levels][1:])
    slope = np.polyfit(np.log(ranges), np.log(rep.cauchy), 1)[0]
    assert 0.4 <= slope <= 1.5


def test_diagonal_rough_operator_exhausts_but_stays_bounded():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((16, 16))
    nest = standard_nest(16)
    rep = diagonal(w, nest, schedule=6)
    assert rep.verdict in ("exhausted", "diverged")
    bound = op_norm(w) + 1e-9
    for part in rep.levels:
        assert op_norm(dense_d(rep, part)) <= bound


def test_diagonal_full_schedule_records_every_level():
    w = exp_volterra_matrix(0.3, 16)
    rep = diagonal(w, standard_nest(16), schedule=4, full_schedule=True)
    assert len(rep.levels) == 5
    ranges = [part.range for part in rep.levels]
    assert ranges == sorted(ranges, reverse=True)


@pytest.mark.parametrize("full_schedule", [False, True])
def test_diagonal_verdicts_with_and_without_full_schedule(full_schedule):
    """One verdict rule, read after the refinement loop.  The identity
    converges at once (2 levels, or every level of the full schedule).  The
    128 x 128 Hilbert matrix stalls on three refinements running: it
    diverges at 5 levels when stopped early, and on the full schedule its
    defect falls again, so it is exhausted at the finest partition
    (8 levels).  The smooth Volterra operator is exhausted either way."""
    i = np.arange(128)
    hilbert = 1.0 / (i[:, None] + i[None, :] + 1.0)
    cases = [
        (np.eye(8), 4, "converged", 4 if full_schedule else 2),
        (hilbert, 8, "exhausted" if full_schedule else "diverged", 8 if full_schedule else 5),
        (exp_volterra_matrix(0.3, 64), 5, "exhausted", 6),
    ]
    for w, schedule, verdict, levels in cases:
        rep = diagonal(w, standard_nest(w.shape[0]), schedule, full_schedule=full_schedule)
        assert (rep.verdict, len(rep.levels)) == (verdict, levels)
        assert (rep.cauchy[-1] <= rep.eps) == (verdict == "converged")


def test_check_intertwining_identity_zero():
    nest = standard_nest(4)
    rep = diagonal(np.eye(4), nest, schedule=2)
    part = full_partition(nest)
    assert check_intertwining(rep.adapted(part), rep.image, part) == pytest.approx(0.0, abs=1e-14)


def test_check_intertwining_shear():
    w = np.array([[1.0, 1.0], [0.0, 1.0]])
    nest = standard_nest(2)
    rep = diagonal(w, nest, schedule=2)
    part = full_partition(nest)
    assert check_intertwining(rep.adapted(part), rep.image, part) <= 1e-12


def test_intertwining_property_seeded():
    rng = np.random.default_rng(17)
    for _ in range(100):
        dim = int(rng.integers(2, 33))
        w = rng.standard_normal((dim, dim))
        nest = standard_nest(dim)
        rep = diagonal(w, nest, schedule=2)
        part = coarsest_partition(nest)
        for _ in range(int(rng.integers(0, 4))):
            part = refine(part, nest)
        assert check_intertwining(rep.adapted(part), rep.image, part) <= 1e-10


def _partitions(nest):
    """Coarsest, two refinements, and the full partition."""
    part = coarsest_partition(nest)
    yield part
    for _ in range(2):
        part = refine(part, nest)
        yield part
    yield full_partition(nest)


def _intertwining_cases(rng):
    """(W, nest) pairs on standard, channel, rotated and counterexample nests;
    every other W has a zeroed column, so its image misses a direction."""
    fam, cnest = counterexample_family((2, 4, 8), trunc=16)
    yield fam.limit, cnest
    yield [*fam.members()][-1], cnest
    yield psd_sqrt(np.diag([1.0, 0.0, 0.0, 2.0])), standard_nest(4)
    for _ in range(6):
        m = int(rng.integers(2, 6))
        for nest in (standard_nest(3 * m), channel_nest(standard_nest(m), 3),
                     rotated_nest(rng, 3 * m)):
            w = rng.standard_normal((3 * m, 3 * m))
            yield w, nest
            w = w.copy()
            w[:, rng.integers(3 * m)] = 0.0
            yield w, nest


def test_coordinate_nests_gather_what_the_basis_products_give():
    """On a coordinate nest (standard, channel, counterexample) every
    product with the nest basis U is a gather of rows or columns: the
    sweep's W U (also on a W holding -0 entries), G, U^T F, each level's
    probe product mask(G) U^T F and U^T C U equal the explicit GEMMs bit for
    bit, C-contiguous like them.  A rotated nest has no permutation and
    takes the GEMMs."""
    import nestfactor.amplitude as amplitude
    from nestfactor.factor import _nest_gram

    rng = np.random.default_rng(103)
    kinds = {True: 0, False: 0}
    for w, nest in _intertwining_cases(rng):
        u = nest.basis
        coordinate = bool(np.isin(u, (0.0, 1.0)).all())
        assert (nest._perm is not None) == coordinate
        kinds[coordinate] += 1
        probes = default_probes(nest.dim, 3)
        rep = diagonal(w, nest, schedule=3, probes=probes)
        img = rep.image
        f = rng.standard_normal((nest.dim, 3))
        c = w.T @ w
        products = [
            (rep.g, (img.basis.T @ img.source) @ u),
            (nest._ut_times(f), u.T @ f),
            (_nest_gram(c, nest), u.T @ c @ u),
        ]
        assert len(rep.probed) == len(rep.levels)
        products += [(m, rep._masked(part) @ (u.T @ probes.T))
                     for m, part in zip(rep.probed, rep.levels)]
        for fast, gemm in products:
            assert fast.shape == gemm.shape and fast.tobytes() == gemm.tobytes()
            assert fast.flags.c_contiguous
        signed = w.copy()
        signed[0, signed[0] == 0.0] = -0.0
        signed[1] = -0.0
        cut = RANK_TOL * np.array([op_norm(signed)])
        for v in (w, signed):
            solo = amplitude._sweep([v], u, nest.ranks, cut)
            if coordinate:
                (basis, ranks), = amplitude._sweep([v], nest._perm, nest.ranks, cut)
                assert ranks == solo[0][1] and basis.tobytes() == solo[0][0].tobytes()
    assert kinds[True] >= 20 and kinds[False] >= 10


def test_check_intertwining_matches_dense_oracle():
    """The diagonal command's route, read off (Q^T Q) mask(G) without
    forming D, against the dense commutators of the formed D, on standard,
    channel, rotated and counterexample nests and on the square root of a
    rank-60 PSD matrix with n = 96.  Both can show only the round-off of
    ||Q^T Q - I|| times ||W||: the gap stays within 2e-14 (1 + ||W||)
    (largest seen 1.4e-13, at ||W|| = 17)."""
    rng = np.random.default_rng(67)
    cases = list(_intertwining_cases(rng))
    a = np.random.default_rng(96).standard_normal((60, 96))
    cases.append((psd_sqrt(a.T @ a), standard_nest(96)))
    singular = 0
    for w, nest in cases:
        rep = diagonal(w, nest, schedule=2)
        img = rep.image
        singular += img.ranks[-1] < nest.dim
        for part in _partitions(nest):
            fast = check_intertwining(rep.adapted(part), img, part)
            dense = dense_intertwining(dense_d(rep, part), nest, img, part)
            assert abs(fast - dense) <= 2e-14 * (1.0 + op_norm(w))
    assert img.ranks[-1] < 96
    assert singular >= 20


def test_adapted_diagonal_of_a_rank_deficient_operator_lives_in_its_image_basis():
    """For the square root of a rank-60 PSD matrix with n = 96, D is written
    in the image basis Q alone: ``adapted`` is r x n, and at the coarsest
    partition {0, T} no corner is left, so the intertwining defect is
    exactly 0 (a completed basis read its own round-off there, 7.4e-15)."""
    a = np.random.default_rng(96).standard_normal((60, 96))
    rep = diagonal(psd_sqrt(a.T @ a), standard_nest(96), schedule=2)
    assert rep.image.ranks[-1] == 60
    for part in rep.levels:
        assert rep.adapted(part).shape == (60, 96)
    assert check_intertwining(rep.adapted(rep.levels[0]), rep.image, rep.levels[0]) == 0.0


def test_check_intertwining_measures_a_non_intertwining_operator():
    """A random D is far from intertwining, and its range leaves range(Q);
    given in a completed basis B = [Q, Q_perp], the block route must still
    give the dense value to 1e-12 relative."""
    rng = np.random.default_rng(71)
    large = 0
    for w, nest in _intertwining_cases(rng):
        img = image_nest(w, nest)
        d = rng.standard_normal(w.shape)
        q, r = img.basis, img.ranks[-1]
        b = np.hstack([q, np.linalg.qr(q, mode="complete")[0][:, r:]])
        adapted = b.T @ d @ nest.basis
        for part in _partitions(nest):
            fast = check_intertwining(adapted, img, part)
            dense = dense_intertwining(d, nest, img, part)
            assert abs(fast - dense) <= 1e-12 * max(1.0, dense)
            large += dense >= 0.5
    assert large >= 100


def test_block_spectrum_matches_dense_decompositions():
    """The singular values the report reads off G's blocks give ||D||,
    ||D D^T - I|| and rank(D) of the assembled D, on standard, channel,
    rotated and counterexample nests and on W whose image misses a
    direction; there D D^T has a zero eigenvalue and, with ||W|| <= 1, the
    coisometry defect is exactly 1."""
    rng = np.random.default_rng(83)
    singular = 0
    for w, nest in _intertwining_cases(rng):
        rep = diagonal(w, nest, schedule=2)
        short = rep.image.ranks[-1] < nest.dim
        if short:
            w = w / (2.0 * op_norm(w))
            rep = diagonal(w, nest, schedule=2)
        for part in _partitions(nest):
            d, sv = dense_d(rep, part), rep.spectrum(part)
            fast = admissibility(sv, nest.dim)
            dense = dense_admissibility(d)
            assert fast[1] == dense[1]
            assert abs(fast[0] - dense[0]) <= 1e-13 * (1.0 + dense_op_norm(d) ** 2)
            assert abs(sv.max() - dense_op_norm(d)) <= 1e-13 * (1.0 + dense_op_norm(d))
            if short:
                assert sv.size < nest.dim
                assert fast[0] == 1.0
        singular += short
    assert singular >= 19


def test_block_spectrum_gram_route_matches_the_svd_oracle(monkeypatch):
    """The Gram route of DiagonalReport.spectrum against one SVD per block
    of G (conftest): the same number of values, each within
    1e-13 (1 + ||D||), and the same rank count, on Volterra reports, all of
    whose blocks clear GRAM_FLOOR, and on semidefinite ones, whose blocks
    below it reach the SVD: the square root of a rank-60 PSD matrix
    (n = 96), and diag(4, 1, 1e-8, 0) as factorize and diagonal read it
    (its root 1e-4 and the value 1e-8 clear the rank cut but not the
    floor)."""
    a = np.random.default_rng(96).standard_normal((60, 96))
    diag = np.diag([4.0, 1.0, 1e-8, 0.0])
    volterra = [
        diagonal(exp_volterra_matrix(0.3, 64), standard_nest(64), schedule=6, full_schedule=True),
        canonical_factor(exp_volterra_operator(0.3, 64), standard_nest(64), schedule=6,
                         full_schedule=True),
        canonical_factor(exp_volterra_operator(0.3, 48), channel_nest(standard_nest(12), 4),
                         schedule=4, full_schedule=True),
    ]
    semidefinite = [
        canonical_factor(a.T @ a, standard_nest(96), schedule=6, full_schedule=True),
        canonical_factor(diag, standard_nest(4), schedule=2, full_schedule=True),
        diagonal(diag, standard_nest(4), schedule=2, full_schedule=True),
    ]
    assert [rep.image.ranks[-1] for rep in semidefinite] == [60, 3, 3]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    for reports, reaches_svd in ((volterra, False), (semidefinite, True)):
        blocks_by_svd = 0
        for rep in reports:
            dim = rep.image.dim
            for part in rep.levels:
                before = len(calls)
                fast = rep.spectrum(part)
                blocks_by_svd += len(calls) - before
                oracle = block_spectrum(rep, part)
                assert fast.shape == oracle.shape
                tol = 1e-13 * (1.0 + oracle.max(initial=0.0))
                assert np.abs(fast - oracle).max(initial=0.0) <= tol
                assert admissibility(fast, dim)[1] == admissibility(oracle, dim)[1]
        assert (blocks_by_svd > 0) == reaches_svd
    assert admissibility(semidefinite[1].spectrum(semidefinite[1].levels[0]), 4)[1] == 1


def test_block_spectrum_takes_the_svd_below_the_gram_floor():
    """A block whose smallest singular value, 1e-9 of its largest, is
    spread over all its entries: its Gram eigenvalue 1e-18 lies under the
    Gram matrix's round-off (about 1e-16), below GRAM_FLOOR, so the block
    takes the SVD, which resolves the value to 1e-16."""
    rng = np.random.default_rng(9)
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    g = (q1 * [1.0, 1.0, 1.0, 1e-9]) @ q2.T
    lam, _ = linops._gram_eigvalsh(g[None])
    assert lam[0, 0] < linops.GRAM_FLOOR * lam[0, -1]
    rep = dataclasses.replace(diagonal(np.eye(4), standard_nest(4), schedule=2), g=g)
    part = rep.levels[0]
    fast = rep.spectrum(part)
    npt.assert_array_equal(fast, block_spectrum(rep, part))
    assert abs(fast[-1] - 1e-9) <= 1e-15
    assert admissibility(fast, 4)[1] == 0


def _dense_partial_diagonal(w, nest, part, img):
    """Dense oracle for the diagonal sum: each nest increment dX formed as
    an n x n matrix."""
    d = np.zeros_like(w)
    for a, b in zip(part.indices[:-1], part.indices[1:]):
        qk = img.basis[:, img.ranks[a]:img.ranks[b]]
        d += qk @ ((qk.T @ w) @ (nest.x(b) - nest.x(a)))
    return d


def test_partial_diagonal_matches_dense_increment_oracle():
    """The term-by-term oracle of the diagonal sum (conftest) against the
    dense increments: bit for bit on the coordinate nests (standard,
    channel, counterexample), within 1e-13 on rotated nests."""
    rng = np.random.default_rng(79)
    rotated = 0
    for w, nest in _intertwining_cases(rng):
        img = image_nest(w, nest)
        coordinate = np.isin(nest.basis, (0.0, 1.0)).all()
        for part in _partitions(nest):
            fast, _ = partial_diagonal(img, part)
            dense = _dense_partial_diagonal(w, nest, part, img)
            if coordinate:
                npt.assert_array_equal(fast, dense)
            else:
                assert op_norm(fast - dense) <= 1e-13
                rotated += 1
    assert rotated >= 40


def test_report_diagonal_and_applies_match_partial_diagonal_oracle():
    """One G per operator: d(level) and the block spectrum agree with the
    term-by-term oracle on standard, channel, rotated and counterexample
    nests, at the coarsest, refined and full partitions; each level's kept
    probe product gives D_lvl F = Q probed[k] for the probe columns F, in
    agreement with the same oracle."""
    rng = np.random.default_rng(89)
    rotated = 0
    for w, nest in _intertwining_cases(rng):
        probes = default_probes(nest.dim, 5)
        rep = diagonal(w, nest, schedule=2, probes=probes)
        assert rep.g.shape == (rep.image.ranks[-1], nest.dim)
        f = probes.T
        rotated += not np.isin(nest.basis, (0.0, 1.0)).all()
        for part in _partitions(nest):
            dense, sv = partial_diagonal(rep.image, part)
            tol = 1e-13 * (1.0 + op_norm(dense))
            assert op_norm(dense_d(rep, part) - dense) <= tol
            spectrum = rep.spectrum(part)
            assert spectrum.shape == sv.shape
            assert np.abs(spectrum - sv).max(initial=0.0) <= tol
        assert len(rep.probed) == len(rep.levels)
        for part, m in zip(rep.levels, rep.probed):
            assert m.shape == (rep.image.ranks[-1], f.shape[1])
            dense, _ = partial_diagonal(rep.image, part)
            tol = 1e-13 * (1.0 + op_norm(dense))
            assert op_norm(rep.image.basis @ m - dense @ f) <= tol * op_norm(f)
    assert rotated >= 6


def test_cauchy_defects_match_dense_pairing_oracle():
    """The Cauchy defect taken in probe coordinates equals the pairing of the
    dense difference of consecutive partial sums, to round-off."""
    rng = np.random.default_rng(97)
    cases = list(_intertwining_cases(rng))
    cases.append((exp_volterra_matrix(0.3, 32), standard_nest(32)))
    for w, nest in cases:
        probes = default_probes(nest.dim, seed=3)
        rep = diagonal(w, nest, schedule=4, probes=probes, full_schedule=True)
        sums = [partial_diagonal(rep.image, part)[0] for part in rep.levels]
        assert len(rep.cauchy) == len(sums) - 1
        for defect, d, d_next in zip(rep.cauchy, sums[:-1], sums[1:]):
            oracle = pairing_defect(d_next - d, probes)
            assert abs(defect - oracle) <= 1e-13 * (1.0 + op_norm(w))


def test_levels_hold_no_square_array():
    """A level is its partition alone, never an array; the report holds
    the one r x n G, and each level's block spectrum (at most n values) is
    computed only when read."""
    n = 64
    rep = diagonal(exp_volterra_matrix(0.3, n), standard_nest(n), schedule=5,
                   full_schedule=True)
    assert rep.g.shape == (n, n)
    for part in rep.levels:
        assert type(part) is Partition
        assert all(type(i) is int for i in part.indices)
        spectrum = rep.spectrum(part)
        assert spectrum.ndim == 1 and spectrum.size <= n


def test_triangular_operator_keeps_exact_block_support():
    """For a nest-triangular operator with full-rank leading blocks the image
    projections equal the coordinate truncations, so every partial sum is a
    block extraction: entries outside the partition's diagonal blocks vanish
    exactly (stored zeros, not small numbers)."""
    w = exp_volterra_matrix(0.4, 16)
    nest = standard_nest(16)
    rep = diagonal(w, nest, schedule=2)
    part = coarsest_partition(nest)
    for _ in range(4):
        part = refine(part, nest)
        d = dense_d(rep, part)
        idx = part.indices
        for a, b in zip(idx[:-1], idx[1:]):
            assert np.count_nonzero(d[b:, a:b]) == 0        # below: exact zeros
            npt.assert_allclose(d[:a, a:b], 0.0, atol=1e-14)  # above: round-off
            npt.assert_allclose(d[a:b, a:b], w[a:b, a:b], atol=1e-14)


def test_default_probes_shape_and_determinism():
    p1 = default_probes(64, seed=7)
    p2 = default_probes(64, seed=7)
    npt.assert_array_equal(p1, p2)
    npt.assert_allclose(np.linalg.norm(p1[:8], axis=1), 1.0, atol=1e-12)
    # basis probes include the first coordinate
    assert any(np.array_equal(row, np.eye(64)[0]) for row in p1[8:])


def test_pairing_defect_matches_max_pairing():
    probes = default_probes(4, seed=1)
    delta = np.diag([0.0, 0.5, 0.0, 0.0])
    val = pairing_defect(delta, probes)
    manual = max(abs(f @ delta @ g) for f in probes for g in probes)
    assert val == pytest.approx(manual)


def test_diagonal_norm_never_exceeds_source():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(2, 25))
        w = rng.standard_normal((dim, dim))
        rep = diagonal(w, standard_nest(dim), schedule=4, full_schedule=True)
        for part in rep.levels:
            assert rep.spectrum(part).max(initial=0.0) <= op_norm(w) + 1e-9

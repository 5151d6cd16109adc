from itertools import permutations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from nestfactor import (
    NotPositiveDefiniteError,
    admissibility,
    canonical_factor,
    channel_assembly,
    channel_nest,
    channel_volterra_family,
    cholesky_upper,
    counterexample_family,
    diagonal,
    exp_volterra_operator,
    factor_defects,
    factor_diagnostics,
    image_nest,
    op_norm,
    psd_sqrt,
    standard_nest,
)
from nestfactor import NotPositiveError, NotSymmetricError, SingularGramError
from nestfactor.factor import _gauge_distance, _posdef_projections
from nestfactor.linops import PSD_TOL, RANK_TOL, _block_diag, _psd_sqrt_with_norm
from conftest import (
    channel_projections,
    cholesky_factor,
    compare_to_cholesky,
    dense_admissibility,
    dense_cholesky_distance,
    dense_d,
    dense_factor,
    full_partition,
    image_projection,
    random_spd,
    rotated_nest,
    triangularity_defect,
)


def _deepest(c, rep):
    """The deepest level's diagonal, its diagnostics row, and its
    admissibility pair (||D D^T - I||, rank defect)."""
    levels = rep.levels
    d = dense_d(rep, levels[-1])
    return (d, factor_diagnostics(c, rep, levels)[-1],
            admissibility(rep.spectrum(levels[-1]), d.shape[0]))


def test_canonical_factor_identity():
    rep = canonical_factor(np.eye(3), standard_nest(3), schedule=3)
    d, last, adm = _deepest(np.eye(3), rep)
    npt.assert_allclose(rep.image.source, np.eye(3), atol=1e-12)
    npt.assert_allclose(d, np.eye(3), atol=1e-12)
    npt.assert_allclose(dense_factor(rep), np.eye(3), atol=1e-12)
    assert last.residual <= 1e-12
    assert adm[0] <= 1e-12
    assert adm[1] == 0


def test_canonical_factor_two_level_diagonal():
    """diag(4,1) on the two-point nest: the diagonal of sqrt(C) is sqrt(C)
    itself, so V = C and the factorization misses by exactly the square."""
    c = np.diag([4.0, 1.0])
    rep = canonical_factor(c, standard_nest(2), schedule=3)
    d, last, adm = _deepest(c, rep)
    npt.assert_allclose(d, np.diag([2.0, 1.0]), atol=1e-12)
    assert adm[0] == pytest.approx(3.0, abs=1e-12)
    assert adm[1] == 0
    npt.assert_allclose(dense_factor(rep), np.diag([4.0, 1.0]), atol=1e-12)
    assert last.residual == pytest.approx(12.0, abs=1e-10)


def test_cholesky_examples():
    npt.assert_allclose(cholesky_upper(np.eye(3)), np.eye(3))
    npt.assert_allclose(cholesky_upper(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    c = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = cholesky_upper(c)
    expected = np.array([[np.sqrt(2.0), 1.0 / np.sqrt(2.0)], [0.0, np.sqrt(1.5)]])
    npt.assert_allclose(r, expected, atol=1e-12)
    npt.assert_allclose(r.T @ r, c, atol=1e-12)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_upper(np.diag([1.0, -1.0, 1.0]))


def test_cholesky_refuses_semidefinite_input_after_one_factorization(monkeypatch):
    """On the paper's case, C positive but not positive definite, the oracle
    makes one Cholesky factorization and refuses: diag(4, 1, 0, 0) and a
    seeded rank-60 A^T A / 96.  factor_diagnostics then reads nan."""
    a = np.random.default_rng(60).standard_normal((60, 96))
    calls = []
    factorize = np.linalg.cholesky

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return factorize(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    for c in (np.diag([4.0, 1.0, 0.0, 0.0]), a.T @ a / 96):
        calls.clear()
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_upper(c)
        assert calls == [c.shape]
        rep = canonical_factor(c, standard_nest(c.shape[0]), schedule=4)
        rows = factor_diagnostics(c, rep, rep.levels)
        assert rows and all(np.isnan(row.cholesky_distance) for row in rows)


def test_cholesky_upper_matches_lapack_dpotrf_bit_for_bit():
    rng = np.random.default_rng(30)
    for n in (1, 2, 5, 17, 32, 64, 200):
        for _ in range(3):
            c = random_spd(rng, n)
            r, info = lapack.dpotrf(c, lower=0, clean=1)
            assert info == 0
            npt.assert_array_equal(cholesky_upper(c), r)


def test_cholesky_pivot_matches_lapack_dpotrf_on_clearly_indefinite_input():
    """C = R^T S R with R unit upper triangular and S = diag(+-1): by
    Sylvester's law of inertia the leading minor of order k is positive
    definite exactly when S_1..S_k are all +1, and each pivot is +-1, far
    above round-off.  dpotrf stops at the first -1, and cholesky_upper
    raises exactly when dpotrf's info is nonzero: on every sign pattern
    with a -1, and on none with S = I."""
    rng = np.random.default_rng(31)
    for n in (2, 3, 8, 33, 100):
        for _ in range(4):
            r = np.eye(n) + np.triu(rng.uniform(-0.3, 0.3, (n, n)), 1) / np.sqrt(n)
            first = int(rng.integers(0, n))
            s = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            s[:first] = 1.0
            s[first] = -1.0
            for signs in (s, np.ones(n)):
                c = r.T @ (signs[:, None] * r)
                c = 0.5 * (c + c.T)
                info = lapack.dpotrf(c, lower=0, clean=1)[1]
                assert info == (first + 1 if signs is s else 0)
                if info:
                    with pytest.raises(NotPositiveDefiniteError):
                        cholesky_upper(c)
                else:
                    assert cholesky_upper(c).shape == (n, n)


def test_admissibility_examples():
    """From a spectrum, against the dense formula on the matching D; a
    missing singular value is a zero one."""
    dropped = np.eye(3)
    dropped[:, 1] = 0.0
    cases = (
        (np.eye(4), np.ones(4), (0.0, 0)),
        (np.diag([2.0, 1.0]), [2.0, 1.0], (3.0, 0)),
        (dropped, [1.0, 0.0, 1.0], (1.0, 1)),
        (dropped, [1.0, 1.0], (1.0, 1)),
        (np.zeros((2, 2)), [], (1.0, 2)),
    )
    for d, spectrum, expected in cases:
        assert admissibility(spectrum, d.shape[0]) == expected
        defect, rank_defect = dense_admissibility(d)
        assert defect == pytest.approx(expected[0], abs=1e-14)
        assert rank_defect == expected[1]


def test_compare_to_cholesky_sign_gauge():
    """The in-place gauge distance of factor_diagnostics: zero on R and on
    -R, and the matrix it is given becomes S A - R."""
    r = cholesky_upper(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert _gauge_distance(r.copy(), r) == pytest.approx(0.0, abs=1e-14)
    a = -r
    assert _gauge_distance(a, r) == pytest.approx(0.0, abs=1e-14)
    npt.assert_allclose(a, 0.0, atol=1e-15)


def test_compare_to_cholesky_gram_route_matches_dense_oracle():
    """sqrt(||M^T M||) against the SVD of M = S A - R, from distances of
    order one down to the round-off of the finest-partition factor, for the
    in-place route of factor_diagnostics and the dense V oracle alike."""
    rng = np.random.default_rng(29)
    for dim in (2, 7, 16, 40):
        c = random_spd(rng, dim)
        r = cholesky_upper(c)
        signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
        for noise in (1.0, 1e-6, 1e-12, 0.0):
            v = signs[:, None] * (r + noise * rng.standard_normal((dim, dim)))
            dense = dense_cholesky_distance(v, r)
            assert abs(compare_to_cholesky(v, r) - dense) <= 1e-13 * dense
            assert abs(_gauge_distance(v.copy(), r) - dense) <= 1e-13 * dense
    rep = canonical_factor(exp_volterra_operator(0.3, 32), standard_nest(32), 5,
                           full_schedule=True)
    r = cholesky_upper(exp_volterra_operator(0.3, 32))
    v = dense_factor(rep)
    dense = dense_cholesky_distance(v, r)
    assert abs(compare_to_cholesky(v, r) - dense) <= 1e-13 * max(dense, 1e-15)
    assert abs(_gauge_distance(v.copy(), r) - dense) <= 1e-13 * max(dense, 1e-15)
    # A in nest coordinates is V up to round-off, and so is its distance
    fast = _gauge_distance(rep.factor(rep.levels[-1]), r)
    assert dense <= 1e-14 and abs(fast - dense) <= 1e-16


def test_commutation_defect_is_the_triangularity_defect_of_a_projection():
    """||F X_s - X_s F|| = ||(I - X_s) F X_s|| for projections: the channel
    projections commute with a channel nest (defect exactly 0), a rotated
    F does not, and both agree with the dense commutators."""
    rng = np.random.default_rng(31)
    chans = channel_projections([4, 4, 4])
    cnest = channel_nest(standard_nest(4), 3)
    for f in chans:
        assert triangularity_defect(f.matrix, cnest) == 0.0
    large = 0
    for _, nest in _triangularity_cases(rng):
        dim = nest.dim
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        k = int(rng.integers(1, dim))
        f = q[:, :k] @ q[:, :k].T
        dense = max(op_norm(f @ nest.x(j) - nest.x(j) @ f) for j in range(len(nest.grid)))
        assert abs(triangularity_defect(f, nest) - dense) <= 1e-12 * max(1.0, dense)
        large += dense >= 0.1
    assert large >= 20


def test_triangularity_defect_examples():
    nest = standard_nest(2)
    upper = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert triangularity_defect(upper, nest) == pytest.approx(0.0, abs=1e-14)
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert triangularity_defect(lower, nest) == pytest.approx(1.0)


def _dense_triangularity(v, nest, indices):
    """Dense oracle for triangularity_defect: (I - X_s) V X_s formed as an
    n x n matrix at every selected grid point."""
    eye = np.eye(nest.dim)
    return max(op_norm((eye - nest.x(j)) @ v @ nest.x(j)) for j in indices)


def _triangularity_cases(rng):
    """(C, nest) pairs on standard, channel, rotated and counterexample nests;
    every other C is singular."""
    fam, cnest = counterexample_family((2, 4, 8), trunc=16)
    yield fam.limit.T @ fam.limit, cnest
    yield np.diag([1.0, 0.0, 0.0, 2.0]), standard_nest(4)
    for _ in range(4):
        m = int(rng.integers(2, 5))
        for nest in (standard_nest(3 * m), channel_nest(standard_nest(m), 3),
                     rotated_nest(rng, 3 * m)):
            c = random_spd(rng, 3 * m)
            yield c, nest
            a = rng.standard_normal((3 * m, 3 * m))
            a[:, rng.integers(3 * m)] = 0.0
            yield a.T @ a, nest


def test_triangularity_defect_matches_dense_oracle():
    """The diagnostics read off G in nest coordinates against the dense
    route through V = D^T sqrt(C), at every refinement level, coarsest to
    full, of factors on each nest kind, including singular C and a rank-60
    PSD matrix with n = 96: the residual within 1e-12 relative, the
    triangularity within 1e-15 (1 + ||C||) (the dense oracle's own
    round-off; 1e-14 absolute for ||C|| <= 9), and on the standard nest,
    where chol(U^T C U) = chol(C), the Cholesky distance within 1e-12
    relative."""
    rng = np.random.default_rng(79)
    cases = list(_triangularity_cases(rng))
    a = np.random.default_rng(60).standard_normal((60, 96))
    cases.append((a.T @ a, standard_nest(96)))
    cholesky_checked = 0
    for c, nest in cases:
        rep = canonical_factor(c, nest, schedule=4 if nest.dim < 96 else 7,
                               full_schedule=True)
        levels = rep.levels
        assert levels[-1] == full_partition(nest)
        standard = np.array_equal(nest.basis, np.eye(nest.dim))
        try:
            chol = cholesky_upper(c) if standard else None
        except NotPositiveDefiniteError:
            chol = None
        for part, row in zip(levels, factor_diagnostics(c, rep, levels)):
            v = dense_factor(rep, part)
            residual = op_norm(v.T @ v - c)
            assert abs(row.residual - residual) <= 1e-12 * residual
            dense = _dense_triangularity(v, nest, part.indices)
            assert abs(row.triangularity - dense) <= 1e-15 * (1.0 + op_norm(c))
            if chol is not None:
                distance = compare_to_cholesky(v, chol)
                assert abs(row.cholesky_distance - distance) <= 1e-12 * distance
                cholesky_checked += 1
            elif standard:
                assert np.isnan(row.cholesky_distance)
    assert cholesky_checked >= 15


def test_triangularity_defect_measures_a_non_triangular_operator():
    """A random V is far from triangular; the block route must still give
    the dense value to 1e-12 relative."""
    rng = np.random.default_rng(83)
    large = 0
    for c, nest in _triangularity_cases(rng):
        v = rng.standard_normal(c.shape)
        dense = _dense_triangularity(v, nest, range(len(nest.grid)))
        assert abs(triangularity_defect(v, nest) - dense) <= 1e-12 * max(1.0, dense)
        large += dense >= 0.5
    assert large >= 20


def test_residual_identity_on_seeded_operators():
    rng = np.random.default_rng(8)
    for _ in range(25):
        dim = int(rng.integers(2, 17))
        c = random_spd(rng, dim)
        rep = canonical_factor(c, standard_nest(dim), schedule=3)
        d, last, adm = _deepest(c, rep)
        bound = op_norm(rep.image.source) ** 2 * adm[0] + 1e-9
        assert last.residual <= bound
        npt.assert_allclose(dense_factor(rep), d.T @ psd_sqrt(c), atol=1e-14)


def test_triangularity_exact_for_seeded_operators():
    rng = np.random.default_rng(13)
    for _ in range(25):
        dim = int(rng.integers(2, 65))
        c = random_spd(rng, dim)
        rep = canonical_factor(c, standard_nest(dim), schedule=4)
        assert factor_diagnostics(c, rep, rep.levels)[-1].triangularity <= 1e-10


def test_rank_deficient_c_reports_rank_defect():
    c = np.diag([1.0, 0.0, 2.0])
    rep = canonical_factor(c, standard_nest(3), schedule=3)
    _, last, adm = _deepest(c, rep)
    assert adm[1] >= 1
    assert last.triangularity <= 1e-10
    # Cholesky column is meaningless here and must be flagged, not faked
    assert np.isnan(last.cholesky_distance)


def test_rank_60_psd_matrix_reports_its_rank_defect():
    """C = A^T A for a seeded 60 x 96 A: the image nest of sqrt(C) has rank
    60 and D the rank defect 96 - 60 = 36 at schedule 7, since psd_sqrt
    gives the round-off eigenvalues of C zero roots."""
    a = np.random.default_rng(60).standard_normal((60, 96))
    c = a.T @ a
    rep = canonical_factor(c, standard_nest(96), schedule=7, full_schedule=True)
    assert rep.image.ranks[-1] == 60
    assert factor_diagnostics(c, rep, rep.levels[-1:])[0].rank_defect == 36


def test_volterra_refinement_trend(volterra128):
    c, nest, rep = volterra128
    history = factor_diagnostics(c, rep, rep.levels)
    res = [r.residual for r in history]
    adm = [r.admissibility_defect for r in history]
    chol = [r.cholesky_distance for r in history]
    assert all(b < a for a, b in zip(res[:-1], res[1:]))
    assert all(b < a for a, b in zip(adm[:-1], adm[1:]))
    # Cholesky distance trends down, allowing 10% slack per step
    assert all(b <= 1.1 * a for a, b in zip(chol[:-1], chol[1:]))
    assert chol[-1] < chol[0]


def test_channel_nest_cholesky_distance_falls_with_refinement():
    """On a channel nest the factor approaches the Cholesky triangle of C in
    the nest's own order, R = chol(U^T C U): over six levels the distance
    falls 0.480 -> 0.018 here, about halving per level as on the standard
    nest, where against chol(C), the triangle of the standard order, it
    stalls near 0.26.  The deepest value matches the dense V oracle in nest
    coordinates."""
    c = exp_volterra_operator(0.4, 96)
    nest = channel_nest(standard_nest(24), 4)
    rep = canonical_factor(c, nest, 5, full_schedule=True)
    chol = [row.cholesky_distance for row in factor_diagnostics(c, rep, rep.levels)]
    assert len(chol) == 6
    assert chol[-1] <= chol[0] / 2
    u = nest.basis
    dense = compare_to_cholesky(u.T @ dense_factor(rep) @ u, cholesky_upper(u.T @ c @ u))
    assert abs(chol[-1] - dense) <= 1e-12 * dense


def test_volterra_coarsest_level_matches_eigenvalue_oracle(volterra128):
    """At the coarsest partition D = sqrt(C), so the residual and the
    admissibility defect reduce to spectral quantities of C."""
    c, nest, rep = volterra128
    eigs = np.linalg.eigvalsh((c + c.T) / 2.0)
    first = factor_diagnostics(c, rep, rep.levels)[0]
    assert first.residual == pytest.approx(np.abs(eigs**2 - eigs).max(), rel=1e-9)
    assert first.admissibility_defect == pytest.approx(np.abs(eigs - 1.0).max(), rel=1e-9)


def test_canonical_factor_takes_no_norm_of_the_square_root(monkeypatch):
    """||sqrt(C)||, the image nest's rank scale, is the largest root of the
    eigenvalues psd_sqrt has already found: canonical_factor calls no
    op_norm on sqrt(C), and the norm it keeps matches one within 1e-15
    relative.  An image nest built without the norm takes that op_norm."""
    import sys

    from nestfactor import image_nest

    seen = []

    def counted(a):
        seen.append(np.array(a))
        return op_norm(a)

    for key, module in list(sys.modules.items()):
        if key.startswith("nestfactor") and getattr(module, "op_norm", None) is op_norm:
            monkeypatch.setattr(module, "op_norm", counted)
    for c, nest in ((exp_volterra_operator(0.3, 64), standard_nest(64)),
                    (np.diag([1.0, 0.0, 2.0, 0.5]), channel_nest(standard_nest(2), 2))):
        rep = canonical_factor(c, nest, schedule=4)
        root = rep.image.source
        assert not any(a.shape == root.shape and np.array_equal(a, root) for a in seen)
        assert abs(rep.image.norm - op_norm(root)) <= 1e-15 * op_norm(root)
        image_nest(root, nest)
        assert np.array_equal(seen[-1], root)


def test_no_dense_diagonal_route_and_diagnostics_peak_below_it():
    """The library forms no n x n D or V: DiagonalReport has no dense D, and
    the V-space triangularity and Cholesky routes are test oracles only.
    Under tracemalloc, factor_diagnostics over the six levels of an n = 256
    factorization on the standard nest peaks at 3.50 n x n arrays
    (1,837,352 bytes) beyond what the caller holds; the route that formed
    D and V peaked at 4.27 (2,237,112 bytes)."""
    import tracemalloc

    import nestfactor
    from nestfactor import DiagonalReport, factor

    assert not hasattr(DiagonalReport, "d")
    for name in ("triangularity_defect", "compare_to_cholesky"):
        assert not hasattr(nestfactor, name) and not hasattr(factor, name)
    n = 256
    c = exp_volterra_operator(0.3, n)
    rep = canonical_factor(c, standard_nest(n), 5, full_schedule=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows = factor_diagnostics(c, rep, rep.levels)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(rows) == 6
    assert peak <= 4.0 * 8 * n * n


def test_psd_sqrt_feeds_factorization_consistently():
    c = np.array([[2.0, 1.0], [1.0, 2.0]])
    rep = canonical_factor(c, standard_nest(2), schedule=2)
    npt.assert_allclose(rep.image.source, psd_sqrt(c), atol=1e-14)


@pytest.mark.parametrize("n, schedule", [(16, 4), (32, 5)])
def test_finest_partition_factor_is_the_cholesky_triangle(n, schedule):
    """On the standard nest the finest-partition factor is the Cholesky
    triangle up to row signs."""
    c = exp_volterra_operator(0.3, n)
    nest = standard_nest(n)
    rep = canonical_factor(c, nest, schedule, full_schedule=True)
    assert rep.levels[-1] == full_partition(nest)
    assert compare_to_cholesky(dense_factor(rep), cholesky_upper(c)) <= 1e-12


def _cholesky_gap(c, rep):
    """Largest ||V - U mask(R)^T R U^T|| over the levels of a factorization,
    relative to ||V|| = ||C||^(1/2), with V = U rep.factor(part) U^T."""
    nest = rep.image.base
    u = nest.basis
    return max(op_norm(u @ rep.factor(part) @ u.T - cholesky_factor(c, nest, part))
               for part in rep.levels) / np.sqrt(op_norm(c))


@pytest.mark.parametrize("operator", ["volterra", "diagonal", "identity"])
@pytest.mark.parametrize("n, channels", [(16, 1), (64, 1), (64, 4), (128, 4)])
def test_factor_matches_the_cholesky_oracle_at_every_level(operator, n, channels):
    """For the CLI's positive definite operators the factor at every level
    is the Cholesky closed form U mask(R)^T R U^T, on the standard and the
    channel nest.  Measured gaps reach 7.2e-15 (Volterra at n = 128); the
    tolerance is 1e-13."""
    c = {"volterra": exp_volterra_operator(0.3, n),
         "diagonal": np.diag(np.linspace(4.0, 1.0, n)),
         "identity": np.eye(n)}[operator]
    nest = channel_nest(standard_nest(n // channels), channels)
    rep = canonical_factor(c, nest, 6, full_schedule=True)
    assert len(rep.levels) >= 3
    assert _cholesky_gap(c, rep) <= 1e-13


def test_channel_assembly_factors_match_the_cholesky_oracle():
    """The global and every per-channel factor of a channel assembly match
    the Cholesky closed form at every level (measured 3.9e-15).  Its reports
    are canonical_factor's (test_stability.py), re-derived here, and its
    rows are theirs."""
    fam, cnest = channel_volterra_family(0.3, (2.0,), 16, 8)
    asm = channel_assembly(fam.limit, cnest, schedule=4)
    c = _block_diag(*fam.limit)
    ops = [*fam.limit, c]
    reports = [*(canonical_factor(block, standard_nest(16), 4, full_schedule=True)
                 for block in fam.limit), canonical_factor(c, cnest, 4, full_schedule=True)]
    for op, rep in zip(ops, reports):
        assert _cholesky_gap(op, rep) <= 1e-13
    assert asm.rows == [factor_defects(op, rep, rep.levels[-1]) for op, rep in zip(ops, reports)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 24), rotated=st.booleans())
def test_factor_of_random_spd_matches_the_cholesky_oracle(seed, dim, rotated):
    """Drawn SPD matrices on standard and rotated nests: the factor matches
    the Cholesky closed form at every level.  Over 1500 seeded draws the gap
    peaked at 6.2e-14 (condition numbers up to about 80); the tolerance is
    5e-13."""
    rng = np.random.default_rng(seed)
    c = random_spd(rng, dim)
    nest = rotated_nest(rng, dim) if rotated else standard_nest(dim)
    rep = canonical_factor(c, nest, 5, full_schedule=True)
    assert _cholesky_gap(c, rep) <= 5e-13


@pytest.mark.parametrize("rank, n", [(60, 96), (5, 12), (20, 40)])
def test_factor_does_not_depend_on_the_square_root_of_singular_input(rank, n):
    """V = D_W^T W for any W with W^T W = C.  On singular PSD C = A^T A,
    the eigen factor W = Lambda^(1/2) E^T (round-off eigenvalues clamped as
    psd_sqrt clamps them) gives the factor of sqrt(C) at every level, on the
    standard and a channel nest: measured gaps reach 3.9e-14 relative to
    ||C||^(1/2); the tolerance is 5e-13."""
    a = np.random.default_rng(rank + n).standard_normal((rank, n))
    c = a.T @ a
    lam, e = np.linalg.eigh(c)
    root = np.sqrt(np.where(lam > PSD_TOL * np.abs(lam).max(), lam, 0.0))
    w = root[:, None] * e.T
    for nest in (standard_nest(n), channel_nest(standard_nest(n // 4), 4)):
        rep = canonical_factor(c, nest, 7, full_schedule=True)
        rep_w = diagonal(w, nest, 7, full_schedule=True)
        assert rep.image.ranks[-1] == rep_w.image.ranks[-1] == rank
        assert [part.indices for part in rep_w.levels] == [part.indices for part in rep.levels]
        gap = max(op_norm(rep.factor(part) - rep_w.factor(part)) for part in rep.levels)
        assert gap <= 5e-13 * np.sqrt(op_norm(c))


def _direct_sum_cases():
    """Stacks of blocks with the nest they share: Volterra blocks scaled by
    1/l on a standard nest, and rank-deficient blocks of unequal scales
    (1e-3 to 20) on a rotated nest."""
    base = exp_volterra_operator(0.3, 12)
    yield "volterra", np.stack([base / l for l in range(1, 5)]), standard_nest(12)
    rng = np.random.default_rng(41)
    blocks = []
    for rank, scale in ((10, 1.0), (6, 1e-3), (3, 20.0), (12, 0.5)):
        a = rng.standard_normal((rank, 12))
        blocks.append(scale * (a.T @ a))
    yield "rank-deficient", np.stack(blocks), rotated_nest(rng, 12)


def test_direct_sum_report_matches_the_dense_route():
    """A stack of blocks factored over the channel nest (block square roots,
    one sweep over the block nest, assembled image nest) is the dense
    canonical_factor of the block-diagonal operator at every level, within
    round-off: the factor A = rep.factor(part), which does not depend on the
    basis chosen inside an increment, within 1e-13 ||C||; block spectra and
    Cauchy defects within 1e-13 ||sqrt(C)||; image projections within 1e-12;
    ranks and partitions exactly.  The largest gaps seen are 1.4e-15 ||C||
    and 3.3e-15.  Its image nest interleaves the blocks' own image nests,
    swept with the sum's rank cut, bit for bit."""
    for label, blocks, nest in _direct_sum_cases():
        cnest = channel_nest(nest, len(blocks))
        rep = canonical_factor(blocks, cnest, 6, full_schedule=True)
        dense = canonical_factor(_block_diag(*blocks), cnest, 6, full_schedule=True)
        norm_c = op_norm(_block_diag(*blocks))
        assert rep.image.ranks == dense.image.ranks, label
        assert rep.levels == dense.levels and len(rep.levels) >= 4, label
        npt.assert_array_equal(rep.image.source, _block_diag(*psd_sqrt(blocks)))
        for part in rep.levels:
            assert np.abs(rep.factor(part) - dense.factor(part)).max() <= 1e-13 * norm_c, label
            assert (np.abs(rep.spectrum(part) - dense.spectrum(part)).max()
                    <= 1e-13 * np.sqrt(norm_c)), label
        npt.assert_allclose(rep.cauchy, dense.cauchy, rtol=0.0, atol=1e-13 * np.sqrt(norm_c))
        for j in range(len(cnest.grid)):
            gap = np.abs(image_projection(rep.image, j) - image_projection(dense.image, j))
            assert gap.max() <= 1e-12, label
        row, dense_row = factor_defects(_block_diag(*blocks), rep, rep.levels[-1]), \
            factor_diagnostics(_block_diag(*blocks), dense, dense.levels[-1:])[0]
        assert row.residual == pytest.approx(dense_row.residual, rel=1e-13, abs=1e-13 * norm_c)
        assert row.rank_defect == dense_row.rank_defect, label
        m = nest.dim
        own = [image_nest(root, nest, _norm=rep.image.norm) for root in psd_sqrt(blocks)]
        for l, img in enumerate(own):
            cols = np.flatnonzero(rep.image.basis[l * m:(l + 1) * m].any(axis=0))
            npt.assert_array_equal(rep.image.basis[l * m:(l + 1) * m, cols], img.basis)


def _rotated(rng, values):
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    c = (q * np.asarray(values)) @ q.T
    return 0.5 * (c + c.T)


def test_direct_sum_tolerances_read_the_sum_not_the_block():
    """Every tolerance of the block route reads the direct sum's scale, as
    the dense route does, not the block's.  ||C|| = 1 and block 2 has norm
    1e-6, so PSD_TOL ||C_2|| = 1e-18 < 1e-13 < PSD_TOL ||C|| = 1e-12:

    * an eigenvalue 1e-13 of block 2 is clamped, so sqrt(C) and its image
      nest lose that direction (kept, with a per-block clamp, it would root
      to 3e-7, far above the rank cut);
    * an eigenvalue -1e-13 is clamped too, with no NotPositiveError, and an
      eigenvalue -2e-12 raises with the global minimum and bound;
    * an asymmetry of 5e-10 in a block of norm 1 passes beside a block of
      norm 1000 (bound SYM_TOL (1 + 1000)), and 5e-9 raises;
    * a block of norm 1e-3 with an increment residual of 1e-11 loses it to
      the rank cut RANK_TOL ||W|| = 1e-10."""
    rng = np.random.default_rng(43)
    nest = standard_nest(3)
    cnest = channel_nest(nest, 2)
    big = _rotated(rng, [1.0, 0.5, 0.25])
    for last in (1e-13, -1e-13):
        blocks = np.stack([big, 1e-6 * _rotated(rng, [1.0, 0.5, last * 1e6])])
        for c in (blocks, _block_diag(*blocks)):
            rep = canonical_factor(c, cnest, 3)
            assert rep.image.ranks[-1] == 5, (last, c.ndim)
        roots = psd_sqrt(blocks)
        assert np.linalg.matrix_rank(roots[1], tol=1e-9 * 1e-3) == 2
    blocks = np.stack([_rotated(rng, [1.0, 0.5, -0.5e-12]), _rotated(rng, [1e-6, 0.5e-6, -2e-12])])
    for c in (blocks, _block_diag(*blocks)):
        with pytest.raises(NotPositiveError) as err:
            psd_sqrt(c)
        assert err.value.eigenvalue == pytest.approx(-2e-12, rel=1e-6)
        assert err.value.bound == pytest.approx(PSD_TOL, rel=1e-12)
    for skew, raises in ((5e-10, False), (5e-9, True)):
        small = _rotated(rng, [1.0, 0.5, 0.25])
        small[0, 1] += skew
        blocks = np.stack([1000.0 * big, small])
        for c in (blocks, _block_diag(*blocks)):
            if raises:
                with pytest.raises(NotSymmetricError):
                    psd_sqrt(c)
            else:
                assert psd_sqrt(c).shape == c.shape
    with pytest.raises(ValueError, match="channel nest of 2 channels"):
        canonical_factor(np.stack([big, big]), standard_nest(6))   # a stack needs its channel nest
    w = np.stack([np.eye(2), np.diag([1e-3, 1e-11])])
    wnest = channel_nest(standard_nest(2), 2)
    for op in (w, _block_diag(*w)):
        img = image_nest(op, wnest)
        assert img.ranks == (0, 2, 3) and img.norm == 1.0
    assert 1e-11 < RANK_TOL * img.norm


@pytest.mark.parametrize("kind", ["standard", "channel", "rotated"])
def test_posdef_projections_equal_the_one_case_route(kind):
    """The stacked route gives each case the root and norm of its own
    psd_sqrt and the basis the route gives that case alone, bit for bit, on
    stacks of one, two and seven cases."""
    rng = np.random.default_rng(31)
    for count in (1, 2, 7):
        nest = {"standard": standard_nest(9), "channel": channel_nest(standard_nest(3), 3),
                "rotated": rotated_nest(rng, 9)}[kind]
        cs = [random_spd(rng, nest.dim) for _ in range(count)]
        roots, norms, ys = _posdef_projections(cs, nest)
        assert len(roots) == len(norms) == len(ys) == count
        for c, root, norm, y in zip(cs, roots, norms, ys):
            solo_root, solo_norm = _psd_sqrt_with_norm(c)
            assert np.array_equal(root, solo_root) and norm == solo_norm
            assert np.array_equal(y, _posdef_projections([c], nest)[2][0])


def _first_error(call):
    try:
        call()
    except (NotPositiveError, NotSymmetricError, SingularGramError) as exc:
        return type(exc), str(exc)
    return None


def test_posdef_projections_raise_the_first_error_of_the_per_case_loop():
    """Whatever the order of the cases, the stacked route raises the error,
    type and message, that psd_sqrt and the route raise first when run one
    case at a time: a singular Gram matrix of a PSD C, an
    ill-conditioned positive definite C, an indefinite C and an asymmetric
    C, mixed with positive definite cases."""
    rng = np.random.default_rng(32)
    nest = standard_nest(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    ill = (q * np.logspace(0.0, -13.0, 4)) @ q.T
    bad = [np.diag([1.0, 1.0, 0.0, 1.0]), 0.5 * (ill + ill.T), np.diag([1.0, -1.0, 2.0, 1.0]),
           random_spd(rng, 4) + np.triu(np.full((4, 4), 1e-3), 1)]
    good = [random_spd(rng, 4) for _ in range(2)]
    seen = set()
    for order in permutations(bad + good[:1]):
        cases = [*order, good[1]]
        expected = _first_error(lambda: [(psd_sqrt(c), _posdef_projections([c], nest))
                                         for c in cases])
        assert expected is not None
        assert _first_error(lambda: _posdef_projections(cases, nest)) == expected
        seen.add(expected[0])
    assert seen == {NotPositiveError, NotSymmetricError, SingularGramError}

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import lapack

from nestfactor import (
    NotPositiveDefiniteError,
    admissibility,
    canonical_factor,
    channel_nest,
    cholesky_upper,
    counterexample_family,
    exp_volterra_operator,
    factor_diagnostics,
    op_norm,
    psd_sqrt,
    standard_nest,
)
from nestfactor.factor import _gauge_distance
from conftest import (
    channel_projections,
    compare_to_cholesky,
    dense_admissibility,
    dense_cholesky_distance,
    dense_d,
    dense_factor,
    full_partition,
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


def test_cholesky_rejects_indefinite_with_pivot():
    c = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_upper(c)
    assert exc.value.pivot == 2


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
    above round-off.  The pivot is the first -1 and equals dpotrf's info."""
    rng = np.random.default_rng(31)
    for n in (2, 3, 8, 33, 100):
        for _ in range(4):
            r = np.eye(n) + np.triu(rng.uniform(-0.3, 0.3, (n, n)), 1) / np.sqrt(n)
            first = int(rng.integers(0, n))
            s = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            s[:first] = 1.0
            s[first] = -1.0
            c = r.T @ (s[:, None] * r)
            c = 0.5 * (c + c.T)
            info = lapack.dpotrf(c, lower=0, clean=1)[1]
            with pytest.raises(NotPositiveDefiniteError) as exc:
                cholesky_upper(c)
            assert exc.value.pivot == info == first + 1


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
    cnest = channel_nest([standard_nest(4)] * 3)
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
        for nest in (standard_nest(3 * m), channel_nest([standard_nest(m)] * 3),
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
    nest = channel_nest([standard_nest(24)] * 4)
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
                    (np.diag([1.0, 0.0, 2.0, 0.5]), channel_nest([standard_nest(2)] * 2))):
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

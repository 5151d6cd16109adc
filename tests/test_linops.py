import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nestfactor import linops
from nestfactor import (
    NotPositiveError,
    NotSymmetricError,
    as_operator,
    asymmetry,
    max_op_norm,
    op_norm,
    psd_sqrt,
    require_symmetric,
    standard_nest,
)
from conftest import (
    Projection,
    dense_op_norm,
    projection_at,
    projection_defects,
    range_basis,
    range_projection,
)


def test_as_operator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_require_symmetric_tolerates_roundoff():
    a = np.array([[1.0, 1e-14], [0.0, 1.0]])
    require_symmetric(a)
    assert asymmetry(a) == 1e-14


def test_require_symmetric_bound_scales_with_the_norm():
    """An asymmetry above SYM_TOL but within SYM_TOL * (1 + ||A||) passes;
    one above that bound raises, carrying the bound."""
    a = np.diag([1e3, 1.0])
    a[0, 1] = 5e-10
    require_symmetric(a)
    a[0, 1] = 2e-9
    with pytest.raises(NotSymmetricError) as exc:
        require_symmetric(a)
    assert exc.value.defect == 2e-9
    assert exc.value.bound == linops.SYM_TOL * (1.0 + op_norm(a))
    b = np.eye(2)
    b[0, 1] = 3e-12
    with pytest.raises(NotSymmetricError):
        require_symmetric(b)


@pytest.mark.parametrize("shape", [(7, 7), (5, 6, 6), (3, 1, 1)])
def test_from_eigen_symmetrizes_as_the_two_temporary_form(shape):
    """V diag(root) V^T symmetrized with one temporary equals
    0.5 * (S + S^T) bit for bit, on one matrix and on stacks, and is exactly
    symmetric."""
    rng = np.random.default_rng(shape[-1] + len(shape))
    v = rng.standard_normal(shape)
    root = rng.uniform(0.0, 3.0, shape[:-1])
    s = (v * root[..., None, :]) @ v.mT
    out = linops._from_eigen(v, root)
    assert out.shape == shape and out.tobytes() == (0.5 * (s + s.mT)).tobytes()
    assert np.array_equal(out, out.mT)


def test_psd_sqrt_examples():
    npt.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    npt.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)
    c = np.array([[2.0, 1.0], [1.0, 2.0]])
    s3 = np.sqrt(3.0)
    expected = 0.5 * np.array([[s3 + 1.0, s3 - 1.0], [s3 - 1.0, s3 + 1.0]])
    s = psd_sqrt(c)
    npt.assert_allclose(s, expected, atol=1e-12)
    npt.assert_allclose(s @ s, c, atol=1e-12)


def test_psd_sqrt_clamps_and_rejects():
    # eigenvalue at -1e-14 is clamped to zero
    tiny = np.diag([1.0, -1e-14])
    s = psd_sqrt(tiny)
    npt.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-7)
    with pytest.raises(NotPositiveError) as exc:
        psd_sqrt(np.diag([1.0, -1.0]))
    assert exc.value.eigenvalue == pytest.approx(-1.0)
    with pytest.raises(NotSymmetricError) as exc:
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert exc.value.defect > 0


def test_psd_sqrt_clamps_positive_roundoff_eigenvalues():
    """Eigenvalues in (0, PSD_TOL * ||C||] are round-off and get a zero
    root, not one near sqrt(PSD_TOL); above that band the root is kept."""
    npt.assert_allclose(psd_sqrt(np.diag([1.0, 1e-13])), np.diag([1.0, 0.0]),
                        rtol=0.0, atol=1e-15)
    npt.assert_allclose(psd_sqrt(np.diag([1.0, 2e-12])),
                        np.diag([1.0, np.sqrt(2e-12)]), rtol=1e-12, atol=0.0)
    # the band is relative: 2e-12 is round-off beside 4
    npt.assert_allclose(psd_sqrt(np.diag([4.0, 2e-12])), np.diag([2.0, 0.0]),
                        rtol=0.0, atol=1e-15)
    # C = A^T A of rank 60 in dimension 96: its 36 round-off eigenvalues,
    # some of them positive, all get zero roots
    a = np.random.default_rng(60).standard_normal((60, 96))
    roots = np.linalg.eigvalsh(psd_sqrt(a.T @ a))
    assert np.count_nonzero(np.abs(roots) > 1e-10 * roots.max()) == 60


def test_psd_sqrt_round_trip_seeded():
    rng = np.random.default_rng(0)
    for _ in range(25):
        dim = int(rng.integers(2, 33))
        a = rng.standard_normal((dim, dim))
        c = a.T @ a
        s = psd_sqrt(c)
        assert op_norm(s @ s - c) <= 1e-9 * (1.0 + op_norm(c))


def test_range_projection_identity_and_zero():
    x = projection_at(standard_nest(3), 1)
    p = range_projection(np.eye(3), x)
    npt.assert_allclose(p.matrix, x.matrix, atol=1e-14)
    z = range_projection(np.zeros((3, 3)), x)
    assert z.rank == 0
    npt.assert_allclose(z.matrix, 0.0)
    p = range_projection(np.ones((2, 2)), Projection(np.eye(2), 2))
    npt.assert_allclose(p.matrix, 0.5 * np.ones((2, 2)), atol=1e-14)
    npt.assert_array_equal(p.matrix, p.matrix.T)
    assert p.rank == 1


def test_range_projection_perturbed_scale_operator():
    # diag(1/k) on 8 basis vectors, with the first and second directions mixed
    n, N = 2, 8
    w = np.diag(1.0 / np.arange(1, N + 1, dtype=float))
    w[:, 0] = 0.0
    w[0, 0] = 1.0
    w[n - 1, n - 1] = 0.0
    w[0, n - 1] = 1.0 / n
    w[n - 1, 0] = 1.0 / n
    w[n - 1, n - 1] = 2.0 / n**2
    m = np.eye(N)
    m[0, 0] = 0.0
    p = range_projection(w, Projection(m, N - 1))
    psi = np.zeros(N)
    psi[0], psi[1] = 1.0, -1.0          # phi_1 - (n/2) phi_n at n = 2
    expected = np.eye(N) - np.outer(psi, psi) / 2.0
    npt.assert_allclose(p.matrix, expected, atol=1e-10)


def test_range_projection_invariants_seeded():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        dim = int(rng.integers(2, 33))
        w = rng.standard_normal((dim, dim))
        k = int(rng.integers(0, dim + 1))
        x = projection_at(standard_nest(dim), k)
        p = range_projection(w, x)
        d = projection_defects(p)
        assert d["idempotence"] <= 1e-10
        assert d["symmetry"] <= 1e-12
        assert d["trace"] <= 1e-8
        wx = w @ x.matrix
        assert op_norm(p.matrix @ wx - wx) <= 1e-9 * (1.0 + op_norm(w))


def test_op_norm_examples():
    assert op_norm(np.eye(5)) == pytest.approx(1.0)
    assert op_norm(np.diag([1.0, 0.5, 1.0 / 3.0])) == pytest.approx(1.0)
    block = np.array([[0.0, 0.5], [0.5, 0.0]])   # the n=2 perturbation block
    assert op_norm(block) == pytest.approx(0.5, abs=1e-12)


def test_op_norm_submultiplicative_seeded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9


def test_op_norm_zero_and_nonzero(monkeypatch):
    rng = np.random.default_rng(12)
    for shape in ((1, 1), (3, 3), (4, 7), (9, 2)):
        a = rng.standard_normal(shape)
        expected = dense_op_norm(a)
        assert abs(op_norm(a) - expected) <= 1e-13 * expected
    # NaN is not zero: it still reaches a decomposition's route, which refuses it
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(np.array([[1.0, np.inf], [0.0, 0.0]]))
    # an all-zero matrix takes no decomposition
    for name in ("norm", "svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, None)
    assert op_norm(np.zeros((5, 5))) == 0.0
    assert op_norm(np.zeros((96, 96))) == 0.0


def test_op_norm_takes_eigvalsh_on_exactly_symmetric_input(monkeypatch):
    """Exactly symmetric input never reaches the Gram route and still
    matches the SVD to round-off: indefinite, PSD, identity, negative
    definite, clustered spectrum, 1 x 1."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    q, _ = np.linalg.qr(a)
    clustered = (q * (1.0 + 1e-12 * rng.random(40))) @ q.T
    cases = {
        "indefinite": a + a.T,
        "psd": a.T @ a,
        "identity": np.eye(40),
        "negative definite": -3.0 * np.eye(40) - a.T @ a / 100.0,
        "clustered": 0.5 * (clustered + clustered.T),
        "one by one": np.array([[-2.5]]),
    }
    expected = {key: dense_op_norm(m) for key, m in cases.items()}
    # NaN is not equal to itself, so symmetric NaN input goes to the Gram
    # route, which refuses it
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(np.array([[np.nan, 1.0], [1.0, 0.0]]))
    monkeypatch.setattr(linops, "_gram_eigvalsh", None)
    monkeypatch.setattr(np.linalg, "svd", None)
    for key, m in cases.items():
        assert np.array_equal(m, m.T), key
        assert abs(op_norm(m) - expected[key]) <= 1e-13 * expected[key], key
    assert op_norm(np.zeros((7, 7))) == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_op_norm_gram_route_matches_the_svd(scale, monkeypatch):
    """Input that is not exactly symmetric takes the root of the largest
    eigenvalue of its smaller Gram matrix, never the SVD; against the SVD
    oracle it agrees within the Gram route's bound
    (max(p, k) + 1) min(p, k) u (README), with u = 2^-53, on wide, tall,
    rank-deficient, single-row, single-column and nearly symmetric input,
    unscaled and scaled by 1e-200 or 1e200, where the unscaled Gram matrix
    would underflow or overflow."""
    rng = np.random.default_rng(8)
    sym = rng.standard_normal((30, 30))
    cases = [
        rng.standard_normal((5, 40)),
        rng.standard_normal((40, 5)),
        rng.standard_normal((64, 64)),
        rng.standard_normal((30, 3)) @ rng.standard_normal((3, 20)),
        rng.standard_normal((1, 30)),
        rng.standard_normal((30, 1)),
        sym + sym.T + np.triu(np.full((30, 30), 1e-14), 1),
        np.array([[3.0, 4.0]]),
    ]
    cases = [scale * a for a in cases]
    expected = [dense_op_norm(a) for a in cases]
    monkeypatch.setattr(np.linalg, "svd", None)
    monkeypatch.setattr(np.linalg, "norm", None)
    for a, norm in zip(cases, expected):
        assert not np.array_equal(a, a.T) and np.isfinite(norm) and norm > 0.0
        bound = (max(a.shape) + 1) * min(a.shape) * 2.0 ** -53
        assert abs(op_norm(a) - norm) <= bound * norm, a.shape
    assert op_norm(scale * np.zeros((4, 6))) == 0.0
    assert abs(op_norm(cases[-1]) - 5.0 * scale) <= 2.0 ** -52 * 5.0 * scale


# Exact Frobenius ties: every block has Frobenius norm 5, operator norm 5 or 4.
_TIES = (
    np.array([[3.0, 4.0]]),
    np.array([[0.0, 5.0]]),
    np.array([[3.0, 0.0], [0.0, 4.0]]),
    np.array([[0.0, 3.0], [4.0, 0.0]]),
    np.array([[5.0]]),
)

_BLOCKS = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: hnp.arrays(
        float, shape, elements=st.floats(-1e3, 1e3, allow_subnormal=False)
    )
)


@settings(max_examples=300, deadline=None)
@given(
    blocks=st.lists(_BLOCKS, max_size=8),
    scale=st.integers(-600, 60),
    ties=st.lists(st.sampled_from(range(len(_TIES))), max_size=5),
    tie_scale=st.integers(-60, 60),
    zeros=st.integers(0, 3),
)
def test_max_op_norm_equals_the_unpruned_maximum(blocks, scale, ties, tie_scale, zeros):
    """Bit for bit, over random staircases scaled down to where the
    Frobenius sum underflows, repeated blocks, exact Frobenius ties, and
    all-zero and empty blocks."""
    blocks = [np.ldexp(b, scale) for b in blocks]
    blocks += blocks[:2]
    blocks += [np.ldexp(_TIES[i], tie_scale) for i in ties]
    blocks += [np.zeros((zeros, 3)), np.zeros((0, 4)), np.zeros((2, 0))]
    expected = max((op_norm(b) for b in blocks), default=0.0)
    assert max_op_norm(blocks) == expected


def test_max_op_norm_stops_at_the_frobenius_bound(monkeypatch):
    calls = []
    op_norm_svd = linops.op_norm
    monkeypatch.setattr(linops, "op_norm", lambda a: calls.append(a.shape) or op_norm_svd(a))
    blocks = [1e-3 * np.ones((4, 4)), np.diag([2.0, 1.0]), np.ones((3, 1)), np.zeros((2, 2))]
    # Frobenius norms 0.004, 2.24, 1.73, 0: after diag(2, 1) (norm 2) no
    # other block can exceed 2
    assert max_op_norm(blocks) == 2.0
    assert calls == [(2, 2)]
    assert max_op_norm([]) == 0.0


def _fro_bounds(blocks):
    """The widened Frobenius bounds that max_op_norm hands the prune."""
    return [float(np.linalg.norm(b)) * (1.0 + linops._FRO_RTOL) + linops._FRO_ATOL
            for b in blocks]


def _lockstep(lists, bounds=None):
    """``linops._max_op_norms`` over held lists (on their widened Frobenius
    bounds unless ``bounds`` are given), with the (list, block) of every
    form call: the visits."""
    calls = []

    def form(c, i):
        calls.append((c, i))
        return lists[c][i]

    if bounds is None:
        bounds = [_fro_bounds(blocks) for blocks in lists]
    return linops._max_op_norms(bounds, form), calls


_SQUARE = st.integers(1, 4).flatmap(
    lambda m: st.lists(hnp.arrays(float, (m, m), elements=st.floats(-1e3, 1e3, allow_subnormal=False)),
                       min_size=1, max_size=4)
)


@settings(max_examples=200, deadline=None)
@given(
    lists=st.lists(st.lists(_BLOCKS, max_size=5), max_size=5),
    square=st.lists(_SQUARE, max_size=4),
    ties=st.lists(st.sampled_from(range(len(_TIES))), max_size=4),
    symmetric=st.booleans(),
)
def test_max_op_norms_lockstep_equals_max_op_norm_per_list(lists, square, ties, symmetric):
    """The lockstep route gives each list its ``max_op_norm``, bit for bit,
    and visits in each list the blocks that list visits alone: the prune is
    max_op_norm's, list by list.  Lists of one shape share stacked spectra;
    the draws cover all-zero and empty blocks, asymmetric blocks (the SVD
    branch), exactly symmetric ones, equal Frobenius bounds, one-block lists
    and empty lists."""
    if symmetric:
        square = [[b + b.T for b in blocks] for blocks in square]
    lists = lists + square + [[_TIES[i]] for i in ties] + [[np.zeros((3, 3))], []]
    norms, visits = _lockstep(lists)
    assert norms == [max_op_norm(blocks) for blocks in lists]
    assert norms == [max((op_norm(b) for b in blocks), default=0.0) for blocks in lists]
    for c, blocks in enumerate(lists):
        alone = _lockstep([blocks])[1]
        assert [i for d, i in visits if d == c] == [i for _, i in alone]


def test_max_op_norms_shares_one_spectrum_per_round(monkeypatch):
    """Each round takes one stacked eigvalsh over the live lists' exactly
    symmetric blocks of one shape; a block of another shape, an asymmetric
    block and an all-zero block take op_norm on their own, and each of
    those that is nonzero one decomposition of its own."""
    rng = np.random.default_rng(5)
    sym = [a + a.T for a in rng.standard_normal((6, 4, 4))]
    lists = [[sym[0], sym[1]], [sym[2], sym[3]], [sym[4]], [sym[5]],
             [rng.standard_normal((4, 4))], [np.zeros((4, 4))], [np.eye(2)]]
    expected = [max(map(op_norm, blocks)) for blocks in lists]
    stacks, solo = [], []
    for name in ("eigvalsh", "svd"):
        def counted(a, *args, decompose=getattr(np.linalg, name), **kw):
            stacks.append(a.shape)
            return decompose(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    op_norm_solo = linops.op_norm
    monkeypatch.setattr(linops, "op_norm", lambda a: solo.append(a.shape) or op_norm_solo(a))
    norms, _ = _lockstep(lists)
    # round 1: the four symmetric 4 x 4 blocks in one call, then the
    # asymmetric, zero and eye(2) blocks in op_norm
    stacked = [shape for shape in stacks if len(shape) == 3 and shape[0] > 1]
    assert stacked[0] == (4, 4, 4)
    assert solo[:3] == [(4, 4), (4, 4), (2, 2)]
    assert len(stacks) == len(stacked) + len(solo) - 1  # the zero block takes none
    assert norms == expected


def _symmetric_blocks(rng, m):
    """Exactly symmetric m x m blocks: indefinite, PSD, rank one of either
    sign, clustered, zero and, for m = 1, single entries whose square is
    subnormal."""
    a = rng.standard_normal((m, m))
    v = rng.standard_normal((m, 1))
    q, _ = np.linalg.qr(a)
    clustered = (q * (1.0 + 1e-12 * rng.random(m))) @ q.T
    blocks = [a + a.T, a.T @ a, v @ v.T, -(v @ v.T), 0.5 * (clustered + clustered.T),
              np.zeros((m, m))]
    if m == 1:
        blocks += [np.array([[x]]) for x in np.geomspace(1e-162, 1e-153, 40)]
        blocks += [np.array([[-1e-159]]), np.array([[5e-324]])]
    return blocks


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150])
@pytest.mark.parametrize("m", [1, 2, 5, 32])
def test_symmetric_norm_bounds_cover_the_operator_norm(m, scale):
    """Each widened bound is at least op_norm of its block, on symmetric,
    rank-one, zero and 1 x 1 blocks, scaled down to where the Frobenius
    sum underflows and up to 1e150.  It is never looser than the widened
    Frobenius bound of max_op_norm, and at most m^(1/8) times the norm
    (||g^4||_F^(1/4) <= (m ||g||^8)^(1/8)) away from underflow."""
    rng = np.random.default_rng(m)
    blocks = [scale * b for b in _symmetric_blocks(rng, m)]
    assert all(np.array_equal(b, b.T) for b in blocks)
    bounds = linops._symmetric_norm_bounds(np.stack(blocks))
    for b, bound, fro in zip(blocks, bounds, _fro_bounds(blocks)):
        norm = op_norm(b)
        assert norm <= bound <= fro
        if norm > 1e-140:
            assert bound <= m ** 0.125 * norm * (1.0 + 1e-9)


@settings(max_examples=200, deadline=None)
@given(
    lists=st.lists(_SQUARE, min_size=1, max_size=5),
    scale=st.integers(-560, 490),
    rank_one=st.booleans(),
)
# entries near 3.4e153, whose Frobenius square overflows unless the block is scaled first
@example(lists=[[np.full((4, 4), 725.0)]], scale=490, rank_one=True)
def test_max_op_norms_on_symmetric_bounds_equals_the_brute_force_maximum(lists, scale, rank_one):
    """On the bounds of _symmetric_norm_bounds the lockstep prune gives each
    list of exactly symmetric blocks its maximum op_norm, bit for bit,
    across scales from Frobenius underflow to past the overflow of the
    Frobenius square and on rank-one blocks, whose norm equals their
    Frobenius norm."""
    if rank_one:
        lists = [[b[:, :1] @ b[:, :1].T for b in blocks] for blocks in lists]
    lists = [[np.ldexp(b + b.T, scale) for b in blocks] for blocks in lists]
    bounds = [linops._symmetric_norm_bounds(np.stack(blocks)) for blocks in lists]
    norms, _ = _lockstep(lists, bounds)
    assert norms == [max(op_norm(b) for b in blocks) for blocks in lists]


def test_range_basis_coordinate_and_general_projections():
    coord = Projection(np.diag([1.0, 0.0, 1.0]), 2)
    npt.assert_array_equal(range_basis(coord), np.eye(3)[:, [0, 2]])
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rotated = Projection(q[:, :2] @ q[:, :2].T, 2)
    u = range_basis(rotated)
    assert u.shape == (5, 2)
    npt.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
    npt.assert_allclose(u @ u.T, rotated.matrix, atol=1e-12)

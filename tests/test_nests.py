import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from nestfactor import (
    InvalidNestError,
    Nest,
    Projection,
    channel_nest,
    coarsest_partition,
    explicit_nest,
    op_norm,
    partition,
    refine,
    standard_nest,
)
from conftest import channel_projections, full_partition, nest_defects, projection_at


def test_standard_nest_one_dim():
    nest = standard_nest(1)
    npt.assert_allclose(nest.grid, [0.0, 1.0])
    npt.assert_allclose(nest.x(0), 0.0)
    npt.assert_allclose(nest.x(1), np.eye(1))


def test_standard_nest_truncations():
    nest = standard_nest(3)
    npt.assert_allclose(nest.x(2), np.diag([1.0, 1.0, 0.0]))
    assert nest_defects(nest).ok


def test_validate_flags_reordered_projections():
    nest = standard_nest(2)
    with pytest.raises(InvalidNestError) as refusal:
        explicit_nest(1.0, nest.grid, [projection_at(standard_nest(2), k) for k in (2, 1, 0)])
    report = refusal.value.defects
    assert not report.ok
    assert report.max_defect >= 1.0


def test_explicit_nest_refuses_a_nonzero_start():
    """X_0 must vanish: a start of norm 0.5 is refused with that defect."""
    grid = (0.0, 0.5, 1.0)
    mats = [np.diag([0.0, 0.5]), np.diag([0.0, 1.0]), np.eye(2)]
    with pytest.raises(InvalidNestError) as refusal:
        explicit_nest(1.0, grid, [Projection(m, r) for m, r in zip(mats, (0, 1, 2))])
    assert refusal.value.defects.border_start == 0.5
    assert not refusal.value.defects.ok


def test_explicit_nest_refuses_ranks_that_miss_the_matrices():
    """Valid matrices with a wrong rank label pass the projection identities
    but not the basis check."""
    grid = (0.0, 0.5, 1.0)
    mats = [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.eye(2)]
    for ranks in ((0, 2, 2), (0, 0, 2), (0, 1, 3)):
        with pytest.raises(InvalidNestError) as refusal:
            explicit_nest(1.0, grid, [Projection(m, r) for m, r in zip(mats, ranks)])
        defects = refusal.value.defects
        assert defects.symmetry == defects.idempotence == defects.monotonicity == 0.0
        assert defects.basis >= 1.0 and not defects.ok
    nest = explicit_nest(1.0, grid, [Projection(m, r) for m, r in zip(mats, (0, 1, 2))])
    assert nest.ranks == (0, 1, 2) and nest_defects(nest).ok


def test_nest_rejects_ranks_that_do_not_rise_from_zero_to_n():
    for ranks in ((1, 2), (0, 1), (0, 2, 1, 2)):
        with pytest.raises(ValueError, match="ranks"):
            Nest(1.0, np.linspace(0.0, 1.0, len(ranks)), np.eye(2), ranks)


def test_validate_single_step_nest():
    base = standard_nest(2)
    nest = explicit_nest(1.0, (0.0, 1.0), (projection_at(base, 0), projection_at(base, 2)))
    assert nest_defects(nest).ok


def test_partition_requires_endpoints():
    nest = standard_nest(4)
    with pytest.raises(ValueError):
        partition(nest, (0, 2))
    with pytest.raises(ValueError):
        partition(nest, (1, 4))
    with pytest.raises(ValueError):
        partition(nest, (0, 2, 2, 4))


def test_partition_range():
    nest = standard_nest(4)
    part = partition(nest, (0, 1, 4))
    assert part.range == pytest.approx(0.75)
    assert coarsest_partition(nest).range == pytest.approx(1.0)
    assert full_partition(nest).range == pytest.approx(0.25)


def increment_blocks(nest, part):
    """Columns of the nest basis spanning each increment X_b - X_a along a
    partition (the blocks the image nest and the diagonal sums read)."""
    return [nest.basis[:, nest.ranks[a]:nest.ranks[b]]
            for a, b in zip(part.indices[:-1], part.indices[1:])]


def test_increments_standard_full():
    nest = standard_nest(2)
    incs = increment_blocks(nest, full_partition(nest))
    npt.assert_allclose(incs[0] @ incs[0].T, np.diag([1.0, 0.0]))
    npt.assert_allclose(incs[1] @ incs[1].T, np.diag([0.0, 1.0]))


def test_increments_coarsest_is_identity():
    nest = standard_nest(3)
    incs = increment_blocks(nest, coarsest_partition(nest))
    assert len(incs) == 1
    npt.assert_allclose(incs[0] @ incs[0].T, np.eye(3))


def test_increments_rank_two():
    nest = standard_nest(4)
    incs = increment_blocks(nest, partition(nest, (0, 2, 4)))
    assert [q.shape[1] for q in incs] == [2, 2]
    total = sum(q @ q.T for q in incs)
    npt.assert_allclose(total, np.eye(4), atol=1e-10)
    npt.assert_allclose((incs[0] @ incs[0].T) @ (incs[1] @ incs[1].T), 0.0, atol=1e-12)


def test_refine_midpoint_insertion():
    nest = standard_nest(4)
    part = refine(coarsest_partition(nest), nest)
    npt.assert_allclose(part.svalues, (0.0, 0.5, 1.0))


def test_refine_finest_fixed_point():
    nest = standard_nest(4)
    finest = full_partition(nest)
    assert refine(finest, nest).indices == finest.indices


def test_refine_uneven_partition():
    nest = standard_nest(8)
    part = partition(nest, (0, 2, 8))           # {0, 1/4, 1}
    out = refine(part, nest)
    npt.assert_allclose(out.svalues, (0.0, 0.125, 0.25, 0.625, 1.0))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=6))
def test_refine_never_increases_range(n, steps):
    nest = standard_nest(n)
    part = coarsest_partition(nest)
    for _ in range(steps):
        nxt = refine(part, nest)
        assert nxt.range <= part.range + 1e-15
        part = nxt


def test_channel_nest_single_block_unchanged():
    nest = standard_nest(3)
    joined = channel_nest([nest])
    npt.assert_allclose(joined.grid, nest.grid)
    for j in range(4):
        npt.assert_allclose(joined.x(j), nest.x(j))


def test_channel_nest_two_blocks():
    joined = channel_nest([standard_nest(2), standard_nest(2)])
    npt.assert_allclose(joined.x(1), np.diag([1.0, 0.0, 1.0, 0.0]))
    assert nest_defects(joined).ok
    for f in channel_projections([2, 2]):
        for j in range(len(joined.grid)):
            comm = f.matrix @ joined.x(j) - joined.x(j) @ f.matrix
            assert op_norm(comm) <= 1e-12


def test_channel_nest_rejects_mismatched_grids():
    with pytest.raises(ValueError):
        channel_nest([standard_nest(2), standard_nest(3)])


def test_finest_increments_sum_to_identity():
    for n in (1, 2, 5, 8):
        nest = standard_nest(n)
        total = sum(q @ q.T for q in increment_blocks(nest, full_partition(nest)))
        assert op_norm(total - np.eye(n)) <= 1e-10


def _assert_adapted_basis(nest, mats):
    """Orthonormal columns whose leading ranks[j] span the given X_j."""
    u = nest.basis
    assert u.shape == (nest.dim, nest.dim)
    assert op_norm(u.T @ u - np.eye(nest.dim)) <= 1e-14
    for k, x in zip(nest.ranks, mats):
        assert op_norm(u[:, :k] @ u[:, :k].T - x) <= 1e-14


def _channel_matrices(n, channels):
    """X_j of a channel nest of standard blocks, formed densely as block
    diagonals of coordinate truncations."""
    base = standard_nest(n)
    return [block_diag(*[base.x(k)] * channels) for k in range(n + 1)]


def test_nest_basis_spans_every_projection():
    rng = np.random.default_rng(89)
    for _ in range(30):
        dim = int(rng.integers(2, 33))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        ranks = [0, *sorted(rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)),
                                       replace=False)), dim]
        mats = [q[:, :r] @ q[:, :r].T for r in ranks]
        nest = explicit_nest(1.0, np.linspace(0.0, 1.0, len(ranks)),
                             [Projection(x, int(r)) for x, r in zip(mats, ranks)])
        _assert_adapted_basis(nest, mats)
    _assert_adapted_basis(channel_nest([standard_nest(3), standard_nest(3)]),
                          _channel_matrices(3, 2))


def test_standard_nest_basis_is_the_identity():
    for n in (1, 2, 7):
        nest = standard_nest(n)
        npt.assert_array_equal(nest.basis, np.eye(n))
        assert nest.ranks == tuple(range(n + 1))


def test_channel_nest_basis_is_a_permutation():
    nest = channel_nest([standard_nest(4)] * 3)
    u = nest.basis
    assert set(np.unique(u)) == {0.0, 1.0}
    npt.assert_array_equal(u.sum(axis=0), 1.0)
    npt.assert_array_equal(u.sum(axis=1), 1.0)
    for k, x in zip(nest.ranks, _channel_matrices(4, 3)):
        npt.assert_array_equal(u[:, :k] @ u[:, :k].T, x)


def test_direct_constructors_match_explicit_nest_bit_for_bit():
    """standard_nest and channel_nest store the basis and ranks that
    explicit_nest derives from the dense matrices X_j."""
    for n in (1, 2, 7, 16):
        nest = standard_nest(n)
        ref = explicit_nest(1.0, nest.grid, [projection_at(nest, k) for k in range(n + 1)])
        npt.assert_array_equal(nest.basis, ref.basis)
        assert nest.ranks == ref.ranks
    for n, channels in ((1, 3), (4, 3), (5, 2), (8, 8)):
        nest = channel_nest([standard_nest(n)] * channels)
        mats = _channel_matrices(n, channels)
        ref = explicit_nest(1.0, nest.grid, [Projection(x, int(np.trace(x))) for x in mats])
        npt.assert_array_equal(nest.basis, ref.basis)
        assert nest.ranks == ref.ranks
        for j, x in enumerate(mats):
            npt.assert_array_equal(nest.x(j), x)


def test_direct_constructors_allocate_one_basis():
    """standard_nest(1024) and an 8 x 128 channel nest each allocate at most
    two n x n float arrays: no matrix per grid point."""
    n = 1024
    tracemalloc.start()
    try:
        standard_nest(n)
        _, peak_standard = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        channel_nest([standard_nest(n // 8)] * 8)
        _, peak_channel = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_standard <= 2 * n * n * 8
    assert peak_channel <= 2 * n * n * 8

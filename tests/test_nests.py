import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from nestfactor import (
    Nest,
    channel_nest,
    nests,
    coarsest_partition,
    counterexample_family,
    op_norm,
    partition,
    refine,
    standard_nest,
)
from conftest import channel_projections, full_partition, nest_defects


def test_standard_nest_one_dim():
    nest = standard_nest(1)
    npt.assert_allclose(nest.grid, [0.0, 1.0])
    npt.assert_allclose(nest.x(0), 0.0)
    npt.assert_allclose(nest.x(1), np.eye(1))


def test_standard_nest_truncations():
    nest = standard_nest(3)
    npt.assert_allclose(nest.x(2), np.diag([1.0, 1.0, 0.0]))
    assert nest_defects(nest).ok


def test_nest_rejects_ranks_that_do_not_rise_from_zero_to_n():
    for ranks in ((1, 2), (0, 1), (0, 2, 1, 2)):
        with pytest.raises(ValueError, match="ranks"):
            Nest(np.linspace(0.0, 1.0, len(ranks)), np.eye(2), ranks)


def test_validate_single_step_nest():
    nest = Nest((0.0, 1.0), np.eye(2), (0, 2))
    npt.assert_array_equal(nest.x(1), np.eye(2))
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
    joined = channel_nest(nest, 1)
    npt.assert_allclose(joined.grid, nest.grid)
    for j in range(4):
        npt.assert_allclose(joined.x(j), nest.x(j))


def test_channel_nest_two_blocks():
    joined = channel_nest(standard_nest(2), 2)
    npt.assert_allclose(joined.x(1), np.diag([1.0, 0.0, 1.0, 0.0]))
    assert nest_defects(joined).ok
    for f in channel_projections([2, 2]):
        for j in range(len(joined.grid)):
            comm = f.matrix @ joined.x(j) - joined.x(j) @ f.matrix
            assert op_norm(comm) <= 1e-12


def test_identity_nest_products_are_their_input_uncopied():
    """On standard_nest(n), whose basis is I, A U and U^T B equal the
    np.take gathers bit for bit, -0 entries included, and are A and B
    themselves when those are C-contiguous: no copy is made.  A transposed
    view, as the probe columns F = P^T are, is copied C-contiguous, as the
    gather made it.  A permuting coordinate nest still gathers into a new
    C-contiguous array."""
    rng = np.random.default_rng(5)
    for n in (1, 4, 9):
        nest = standard_nest(n)
        perm = nest._perm
        a = rng.standard_normal((3, n, n))
        a[0, 0] = -0.0
        b = rng.standard_normal((n, 4))
        assert nest._identity
        assert nest._times_u(a) is a and nest._ut_times(b) is b
        assert a.tobytes() == np.take(a, perm, axis=-1).tobytes()
        assert b.tobytes() == np.take(b, perm, axis=0).tobytes()
        f = b.T.copy().T  # F-contiguous
        uf = nest._ut_times(f)
        assert uf.flags.c_contiguous and uf.tobytes() == np.take(f, perm, axis=0).tobytes()
    cnest = channel_nest(standard_nest(3), 2)
    a = rng.standard_normal((6, 6))
    assert not cnest._identity
    gathered = cnest._times_u(a)
    assert gathered is not a and gathered.flags.c_contiguous
    assert np.array_equal(gathered, a @ cnest.basis)


def test_channel_nest_needs_a_channel():
    with pytest.raises(ValueError, match="at least one channel"):
        channel_nest(standard_nest(2), 0)


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
        nest = Nest(np.linspace(0.0, 1.0, len(ranks)), q, ranks)
        _assert_adapted_basis(nest, mats)
        assert nest_defects(nest).ok
    _assert_adapted_basis(channel_nest(standard_nest(3), 2),
                          _channel_matrices(3, 2))


def test_standard_nest_basis_is_the_identity():
    for n in (1, 2, 7):
        nest = standard_nest(n)
        npt.assert_array_equal(nest.basis, np.eye(n))
        assert nest.ranks == tuple(range(n + 1))


def test_channel_nest_basis_is_a_permutation():
    nest = channel_nest(standard_nest(4), 3)
    u = nest.basis
    assert set(np.unique(u)) == {0.0, 1.0}
    npt.assert_array_equal(u.sum(axis=0), 1.0)
    npt.assert_array_equal(u.sum(axis=1), 1.0)
    for k, x in zip(nest.ranks, _channel_matrices(4, 3)):
        npt.assert_array_equal(u[:, :k] @ u[:, :k].T, x)


def test_direct_constructors_store_coordinate_bases_bit_for_bit():
    """standard_nest, channel_nest and the projection-escape nest hold
    coordinate permutations, written down directly: their X_j are exact 0/1
    diagonals and pass the dense nest identities.  The escape nest's basis
    lists vectors 2..N, then vector 1."""
    for n in (1, 2, 7, 16):
        nest = standard_nest(n)
        npt.assert_array_equal(nest.basis, np.eye(n))
        assert nest_defects(nest).ok
    for n, channels in ((1, 3), (4, 3), (5, 2), (8, 8)):
        nest = channel_nest(standard_nest(n), channels)
        for j, x in enumerate(_channel_matrices(n, channels)):
            npt.assert_array_equal(nest.x(j), x)
        assert nest_defects(nest).ok
    for trunc in (3, 16, 64):
        _, nest = counterexample_family((2,), trunc)
        npt.assert_array_equal(nest.basis, np.eye(trunc)[:, [*range(1, trunc), 0]])
        assert nest.ranks == (0, trunc - 1, trunc)
        npt.assert_array_equal(nest.x(1), np.diag([0.0] + [1.0] * (trunc - 1)))
        assert nest_defects(nest).ok


def test_direct_constructors_allocate_one_basis():
    """standard_nest(1024) and an 8 x 128 channel nest each allocate at most
    two n x n float arrays: no matrix per grid point."""
    n = 1024
    tracemalloc.start()
    try:
        standard_nest(n)
        _, peak_standard = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        channel_nest(standard_nest(n // 8), 8)
        _, peak_channel = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_standard <= 2 * n * n * 8
    assert peak_channel <= 2 * n * n * 8


def _interleaved_by_loop(bases, ranks):
    """Oracle for nests._direct_sum: for each increment, the increment
    columns of every summand in turn at the summand's rows, one slice at a
    time (the loop channel_nest used to run)."""
    k = bases[0].shape[0]
    out = np.zeros((len(bases) * k, sum(r[-1] for r in ranks)))
    col = 0
    for j in range(1, len(ranks[0])):
        for l, (b, r) in enumerate(zip(bases, ranks)):
            out[l * k:(l + 1) * k, col:col + r[j] - r[j - 1]] = b[:, r[j - 1]:r[j]]
            col += r[j] - r[j - 1]
    return out


def test_direct_sum_interleaves_like_the_increment_loop():
    """The shared interleaving of channel_nest and of assembled image nests
    places every column where the increment loop does, bit for bit, for
    summands of unequal ranks with empty increments, and sums the ranks;
    channel_nest of a rotated nest is the loop's basis."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        k, points, summands = int(rng.integers(1, 7)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        ranks = [(0, *sorted(rng.integers(0, k + 1, size=points - 1).tolist())) for _ in range(summands)]
        bases = [rng.standard_normal((k, r[-1])) for r in ranks]
        basis, total = nests._direct_sum(bases, ranks)
        npt.assert_array_equal(basis, _interleaved_by_loop(bases, ranks))
        assert total == tuple(int(t) for t in np.sum(ranks, axis=0))
    base = Nest(np.linspace(0.0, 1.0, 4), np.linalg.qr(rng.standard_normal((5, 5)))[0],
                (0, 2, 2, 5))
    joined = channel_nest(base, 3)
    npt.assert_array_equal(joined.basis, _interleaved_by_loop([base.basis] * 3, [base.ranks] * 3))
    assert joined.ranks == (0, 6, 6, 15)
    one = [rng.standard_normal((4, 3))]
    assert nests._direct_sum(one, [(0, 1, 3)])[0] is one[0]


def test_summand_of_a_channel_nest():
    """A channel nest knows the nest its channels copy; any nest is its own
    one-channel summand, and a nest not built with that many channels is
    refused."""
    base = standard_nest(4)
    joined = channel_nest(base, 3)
    assert nests._summand(joined, 3) is base
    assert nests._summand(joined, 1) is joined
    for nest, channels in ((joined, 2), (standard_nest(12), 3)):
        with pytest.raises(ValueError, match=f"{channels} channels"):
            nests._summand(nest, channels)


def test_refinement_chain_is_built_once_per_nest(monkeypatch):
    """The chain of refinements equals the refine loop from the coarsest
    partition, stops at the finest partition, and is computed once per nest:
    asking again, or for fewer levels, calls refine no more; asking for more
    extends it."""
    calls = []
    original = nests.refine

    def counting(part, nest):
        calls.append(len(part.indices))
        return original(part, nest)

    monkeypatch.setattr(nests, "refine", counting)
    for nest in (standard_nest(16), channel_nest(standard_nest(5), 3),
                 Nest(np.array([0.0, 0.1, 0.5, 0.55, 1.0]), np.eye(4), (0, 1, 2, 3, 4))):
        calls.clear()
        part, loop = coarsest_partition(nest), [coarsest_partition(nest)]
        for _ in range(8):
            part = original(part, nest)
            if part.indices == loop[-1].indices:
                break
            loop.append(part)
        assert nests._refinement_chain(nest, 2) == loop[:3]
        assert len(calls) == 2
        assert nests._refinement_chain(nest, 1) == loop[:2]
        assert nests._refinement_chain(nest, 8) == loop
        assert nests._refinement_chain(nest, 8) == loop
        assert len(calls) == len(loop)   # the finest partition's refine, once

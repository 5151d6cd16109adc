"""Bordered nests of orthogonal projections over a grid on [0, T].

A nest is a finite monotone family X_s of orthogonal projections indexed by
grid points 0 = s_0 < ... < s_m = T, with X_0 = 0 and X_T = I.  In finite
dimension such a chain is fully described by one adapted orthonormal basis U
and the ranks k_s = rank X_s: X_s = U_s U_s^T with U_s the leading k_s
columns of U.  :class:`Nest` stores exactly that, O(n^2) memory whatever the
grid size, and forms X_s only on request; it is the package's one format
for a chain of projections, with no dense projection family beside it.
Every nest built here and in :mod:`stability` has a coordinate permutation
as its basis, written down directly.  Partitions select grid points
(always keeping both endpoints) and drive the refinement schedules used by
the diagonal and factorization routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Nest",
    "Partition",
    "channel_nest",
    "coarsest_partition",
    "partition",
    "refine",
    "standard_nest",
]

GRID_TOL = 1e-12


@dataclass(frozen=True)
class Nest:
    """Nest over an ascending grid starting at 0, held as one adapted
    orthonormal basis plus one rank per grid point.

    The leading ``ranks[j]`` columns of the n x n ``basis`` span X at
    ``grid[j]``.  Construction checks only cheap structural facts (shapes,
    grid, ranks rising from 0 to n); the caller supplies an orthonormal
    basis.
    """

    grid: np.ndarray
    basis: np.ndarray
    ranks: tuple[int, ...]

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "ranks", tuple(int(k) for k in self.ranks))
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least the two endpoints")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly ascending")
        if abs(grid[0]) > GRID_TOL:
            raise ValueError("grid must start at 0")
        basis = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "basis", basis)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1] or basis.shape[0] < 1:
            raise ValueError(f"basis must be a square matrix, got shape {basis.shape}")
        n = basis.shape[0]
        if len(self.ranks) != grid.size:
            raise ValueError("one rank per grid point required")
        ranks = self.ranks
        if ranks[0] != 0 or ranks[-1] != n or any(b < a for a, b in zip(ranks[:-1], ranks[1:])):
            raise ValueError(f"ranks must rise from 0 to {n}")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def x(self, j: int) -> np.ndarray:
        """Projection matrix X_j = U_j U_j^T at grid index j, formed on
        demand."""
        u = self.basis[:, :self.ranks[j]]
        return u @ u.T

    @cached_property
    def _perm(self) -> np.ndarray | None:
        """The row of each basis column's one when the basis is a coordinate
        permutation, U = I[:, perm]; None for any other basis.  Found once
        per nest."""
        u = self.basis
        n = u.shape[0]
        perm = u.argmax(axis=0)
        if (np.count_nonzero(u) != n or (u[perm, np.arange(n)] != 1.0).any()
                or np.bincount(perm, minlength=n).max() > 1):
            return None
        return perm

    @cached_property
    def _identity(self) -> bool:
        """Whether the basis is I, the coordinate permutation that moves
        nothing, as on a standard nest."""
        perm = self._perm
        # compared as lists: an int64 `==` maps 128 KB more of numpy's code (CHANGES.md)
        return perm is not None and perm.tolist() == [*range(perm.size)]

    def _times_u(self, a: np.ndarray) -> np.ndarray:
        """A U (for each matrix of a stack A): on a coordinate nest A's
        columns gathered, exactly and C-contiguous like the GEMM it
        replaces; when U is I, A itself, copied only if it is not
        C-contiguous."""
        perm = self._perm
        if perm is None:
            return a @ self.basis
        return np.ascontiguousarray(a) if self._identity else np.take(a, perm, axis=-1)

    def _ut_times(self, b: np.ndarray) -> np.ndarray:
        """U^T B: on a coordinate nest B's rows gathered, C-contiguous; when
        U is I, B itself, copied only if it is not C-contiguous."""
        perm = self._perm
        if perm is None:
            return self.basis.T @ b
        return np.ascontiguousarray(b) if self._identity else np.take(b, perm, axis=0)

    @cached_property
    def _chain(self) -> list:
        """The refinements of :func:`_refinement_chain` computed so far,
        coarsest first, closed by ``None`` once the finest is reached."""
        return [coarsest_partition(self)]


@dataclass(frozen=True)
class Partition:
    """Selected grid indices of a nest, endpoints always included."""

    indices: tuple[int, ...]
    svalues: tuple[float, ...]

    @property
    def range(self) -> float:
        """Largest gap between consecutive selected grid values."""
        s = np.asarray(self.svalues)
        return float(np.diff(s).max())


def partition(nest: Nest, indices) -> Partition:
    """Build a partition of ``nest`` from grid indices (endpoints required)."""
    idx = tuple(int(i) for i in indices)
    m = len(nest.grid) - 1
    if len(idx) < 2 or idx[0] != 0 or idx[-1] != m:
        raise ValueError(f"partition must run from index 0 to {m}, got {idx}")
    if any(b <= a for a, b in zip(idx[:-1], idx[1:])):
        raise ValueError(f"partition indices must be strictly increasing, got {idx}")
    return Partition(idx, tuple(float(nest.grid[i]) for i in idx))


def coarsest_partition(nest: Nest) -> Partition:
    return partition(nest, (0, len(nest.grid) - 1))


def standard_nest(n: int) -> Nest:
    """Coordinate nest on [0, 1]: grid k/n, X at k/n keeps the first k
    coordinates of an n-vector (basis the identity, ranks 0..n)."""
    if n < 1:
        raise ValueError(f"standard nest needs n >= 1, got {n}")
    return Nest(np.linspace(0.0, 1.0, n + 1), np.eye(n), tuple(range(n + 1)))


def refine(part: Partition, nest: Nest) -> Partition:
    """Insert, in every selected interval, the nest grid point closest to the
    interval midpoint.

    Intervals with no interior grid point are left alone, so the finest
    partition is a fixed point.  Midpoint ties break toward the smaller grid
    value.  On uniform grids the range strictly decreases until the finest
    partition is reached.
    """
    grid = nest.grid
    out = []
    for a, b in zip(part.indices[:-1], part.indices[1:]):
        out.append(a)
        if b - a < 2:
            continue
        mid = 0.5 * (grid[a] + grid[b])
        interior = np.arange(a + 1, b)
        out.append(int(interior[np.argmin(np.abs(grid[interior] - mid))]))
    out.append(part.indices[-1])
    return partition(nest, out)


def _refinement_chain(nest: Nest, count: int) -> list[Partition]:
    """The coarsest partition of ``nest`` and up to ``count`` refinements of
    it by :func:`refine`, stopping at the finest partition.  The chain is
    computed once per nest and extended on demand, so every report over one
    nest shares its partitions."""
    chain = nest._chain
    while len(chain) <= count and chain[-1] is not None:
        nxt = refine(chain[-1], nest)
        chain.append(nxt if nxt.indices != chain[-1].indices else None)
    return [part for part in chain[:count + 1] if part is not None]


def _direct_sum(bases, ranks) -> tuple[np.ndarray, tuple[int, ...]]:
    """Basis and ranks of the direct sum of chains of subspaces, one per
    summand, over one grid.  Summand l has the k x r_l basis ``bases[l]``,
    whose leading ``ranks[l][j]`` columns span its subspace at grid index
    j.  The sum's basis interleaves the summands: for each increment, the
    increment columns of every summand in turn, placed at the summand's
    rows.  Its ranks are the summed ranks.  One summand is returned as it
    is."""
    if len(bases) == 1:
        return bases[0], tuple(ranks[0])
    ranks = np.array(ranks)
    steps = np.diff(ranks, axis=1)
    # columns of the earlier summands in each increment, and of all summands before it
    before = np.cumsum(steps, axis=0) - steps
    total = np.concatenate([[0], np.cumsum(steps.sum(axis=0))])
    k = bases[0].shape[0]
    out = np.zeros((len(bases) * k, total[-1]))
    for l, (b, r) in enumerate(zip(bases, ranks)):
        cols = np.arange(r[-1])
        inc = np.searchsorted(r, cols, side="right") - 1
        out[l * k:(l + 1) * k, total[inc] + before[l, inc] + cols - r[inc]] = b
    return out, tuple(int(t) for t in total)


def channel_nest(nest: Nest, channels: int) -> Nest:
    """Direct sum of ``channels`` copies of ``nest``: X_s is the block
    diagonal of the channels' copies of the nest's X_s.

    The basis interleaves the channels: for each increment, the increment
    columns of every channel in turn, placed at the channel's rows (a
    coordinate permutation when ``nest`` is a standard nest;
    :func:`_direct_sum`).  The channel nest remembers ``nest`` and
    ``channels`` (:func:`_summand`), so an operator given as a stack of
    ``channels`` blocks over ``nest`` can be factored over it block by
    block.
    """
    if channels < 1:
        raise ValueError(f"channel nest needs at least one channel, got {channels}")
    basis, ranks = _direct_sum([nest.basis] * channels, [nest.ranks] * channels)
    out = Nest(nest.grid.copy(), basis, ranks)
    object.__setattr__(out, "_summand_of", (nest, channels))
    return out


def _summand(nest: Nest, channels: int) -> Nest:
    """The nest whose ``channels`` copies make up ``nest`` (``nest`` itself
    for one channel).  A nest not built by :func:`channel_nest` with that
    many channels raises ``ValueError``."""
    if channels == 1:
        return nest
    summand, built = getattr(nest, "_summand_of", (None, 0))
    if built != channels:
        raise ValueError(f"a stack of {channels} blocks needs a channel nest of {channels} "
                         f"channels (channel_nest), got a nest of dim {nest.dim}")
    return summand

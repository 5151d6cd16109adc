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


def channel_nest(nest: Nest, channels: int) -> Nest:
    """Direct sum of ``channels`` copies of ``nest``: X_s is the block
    diagonal of the channels' copies of the nest's X_s.

    The basis interleaves the channels: for each increment, the increment
    columns of every channel in turn, placed at the channel's rows (a
    coordinate permutation when ``nest`` is a standard nest).
    """
    if channels < 1:
        raise ValueError(f"channel nest needs at least one channel, got {channels}")
    m = nest.dim
    basis = np.zeros((channels * m, channels * m))
    col = 0
    for lo, hi in zip(nest.ranks[:-1], nest.ranks[1:]):
        for row in range(0, channels * m, m):
            basis[row:row + m, col:col + hi - lo] = nest.basis[:, lo:hi]
            col += hi - lo
    return Nest(nest.grid.copy(), basis, tuple(channels * k for k in nest.ranks))

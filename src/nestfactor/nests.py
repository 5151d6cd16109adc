"""Bordered nests of orthogonal projections over a grid on [0, T].

A nest is a finite monotone family X_s of orthogonal projections indexed by
grid points 0 = s_0 < ... < s_m = T, with X_0 = 0 and X_T = I.  Partitions
select grid points (always keeping both endpoints) and drive the refinement
schedules used by the diagonal and factorization routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag

from .linops import Projection, op_norm, range_basis, zero_projection

__all__ = [
    "Nest",
    "NestDefects",
    "Partition",
    "channel_nest",
    "channel_projections",
    "coarsest_partition",
    "full_partition",
    "partition",
    "refine",
    "standard_nest",
    "truncation_projection",
    "validate",
]

GRID_TOL = 1e-12


@dataclass(frozen=True)
class Nest:
    """Projection family over an ascending grid on [0, horizon].

    ``projections[j]`` is X at ``grid[j]``.  Construction checks only cheap
    structural facts; :func:`validate` measures the matrix identities.
    """

    horizon: float
    grid: np.ndarray
    projections: tuple[Projection, ...]

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least the two endpoints")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly ascending")
        if abs(grid[0]) > GRID_TOL or abs(grid[-1] - self.horizon) > GRID_TOL * max(1.0, self.horizon):
            raise ValueError("grid must start at 0 and end at the horizon")
        if len(self.projections) != grid.size:
            raise ValueError("one projection per grid point required")
        dims = {p.dim for p in self.projections}
        if len(dims) != 1:
            raise ValueError("projections must share a single dimension")

    @property
    def dim(self) -> int:
        return self.projections[0].dim

    def x(self, j: int) -> np.ndarray:
        """Projection matrix at grid index j."""
        return self.projections[j].matrix

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Rank of X at each grid point."""
        return tuple(p.rank for p in self.projections)

    @cached_property
    def basis(self) -> np.ndarray:
        """Nest-adapted orthonormal basis, built once on first use.

        The leading ``ranks[j]`` columns span the range of X_j, so
        X_j = U_j U_j^T with U_j = ``basis[:, :ranks[j]]``.  The columns of
        each increment X_j - X_{j-1} come from :func:`range_basis`:
        coordinate columns on 0/1-diagonal nests (the identity on the
        standard nest, a permutation on a channel nest).  That identity is
        assumed, not checked; :func:`validate` measures it.
        """
        blocks = []
        prev = zero_projection(self.dim)
        for xp in self.projections:
            blocks.append(range_basis(Projection(xp.matrix - prev.matrix, xp.rank - prev.rank)))
            prev = xp
        return np.hstack(blocks)


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

    def __len__(self) -> int:
        return len(self.indices)


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


def full_partition(nest: Nest) -> Partition:
    return partition(nest, range(len(nest.grid)))


def truncation_projection(dim: int, k: int) -> Projection:
    """Projection onto the first k coordinates."""
    d = np.zeros((dim, dim))
    d[np.arange(k), np.arange(k)] = 1.0
    return Projection(d, k)


def standard_nest(n: int) -> Nest:
    """Coordinate nest on [0, 1]: grid k/n, X at k/n keeps the first k
    coordinates of an n-vector."""
    if n < 1:
        raise ValueError(f"standard nest needs n >= 1, got {n}")
    grid = np.linspace(0.0, 1.0, n + 1)
    projections = tuple(truncation_projection(n, k) for k in range(n + 1))
    return Nest(1.0, grid, projections)


@dataclass(frozen=True)
class NestDefects:
    """Measured defects of a projection family; all should vanish."""

    border_start: float     # ||X_0||
    border_end: float       # ||X_T - I||
    symmetry: float         # max_j ||X_j - X_j^T||
    idempotence: float      # max_j ||X_j^2 - X_j||
    monotonicity: float     # max_{i<j} ||X_i X_j - X_i||
    rank_decrease: int      # count of adjacent rank drops

    @property
    def max_defect(self) -> float:
        return max(
            self.border_start,
            self.border_end,
            self.symmetry,
            self.idempotence,
            self.monotonicity,
            float(self.rank_decrease),
        )

    @property
    def ok(self) -> bool:
        return self.max_defect <= 1e-10


# Full pairwise monotonicity is O(m^2) matrix products; past this grid size
# adjacent pairs are checked instead (nested ranges make them sufficient).
_PAIRWISE_LIMIT = 40


def validate(nest: Nest) -> NestDefects:
    """Measure the nest identities.  Report-only: never raises."""
    mats = [p.matrix for p in nest.projections]
    eye = np.eye(nest.dim)
    symmetry = max(op_norm(x - x.T) for x in mats)
    idempotence = max(op_norm(x @ x - x) for x in mats)
    m = len(mats)
    if m <= _PAIRWISE_LIMIT:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    else:
        pairs = [(i, i + 1) for i in range(m - 1)]
    monotonicity = 0.0
    for i, j in pairs:
        monotonicity = max(monotonicity, op_norm(mats[i] @ mats[j] - mats[i]))
    ranks = [p.rank for p in nest.projections]
    rank_decrease = sum(1 for a, b in zip(ranks[:-1], ranks[1:]) if b < a)
    return NestDefects(
        border_start=op_norm(mats[0]),
        border_end=op_norm(mats[-1] - eye),
        symmetry=symmetry,
        idempotence=idempotence,
        monotonicity=monotonicity,
        rank_decrease=rank_decrease,
    )


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


def channel_projections(block_dims: list[int]) -> list[Projection]:
    """Coordinate projections F_l selecting each channel block."""
    total = int(sum(block_dims))
    out = []
    offset = 0
    for d in block_dims:
        m = np.zeros((total, total))
        m[np.arange(offset, offset + d), np.arange(offset, offset + d)] = 1.0
        out.append(Projection(m, int(d)))
        offset += d
    return out


def channel_nest(blocks: list[Nest]) -> Nest:
    """Direct sum of nests sharing one grid: X_s is the block diagonal of the
    channel projections at s."""
    if not blocks:
        raise ValueError("channel nest needs at least one block")
    first = blocks[0]
    for b in blocks[1:]:
        if b.horizon != first.horizon or not np.array_equal(b.grid, first.grid):
            raise ValueError("channel blocks must share the same grid")
    projections = []
    for j in range(len(first.grid)):
        mats = [b.projections[j].matrix for b in blocks]
        rank = sum(b.projections[j].rank for b in blocks)
        projections.append(Projection(block_diag(*mats), rank))
    return Nest(first.horizon, first.grid.copy(), tuple(projections))

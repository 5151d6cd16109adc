"""Canonical triangular factorization of positive operators relative to a nest.

Given a PSD operator C, the factor is V = D^T sqrt(C) where D is the diagonal
of sqrt(C) relative to the nest.  V is upper triangular with respect to the
nest at the partition points, and the factorization residual ||V^T V - C|| is
controlled by how far D is from a coisometry:

    ||V^T V - C|| <= ||sqrt(C)||^2 * ||D D^T - I||.

The coisometry defect is reported, never enforced.  For positive definite C
the factor lines up with the Cholesky triangle, which serves as the
independent oracle here: the canonical route never touches it.  The
diagnostics are a layer of their own (:func:`factor_diagnostics`), measured
only where they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import (
    RANK_TOL,
    as_operator,
    max_op_norm,
    op_norm,
    psd_sqrt,
    require_symmetric,
)
from .amplitude import DiagonalReport, diagonal
from .nests import Nest

__all__ = [
    "FactorizationRow",
    "NotPositiveDefiniteError",
    "admissibility",
    "canonical_factor",
    "cholesky_upper",
    "compare_to_cholesky",
    "factor_diagnostics",
    "triangularity_defect",
]


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot.  ``pivot`` is the 1-based order of
    the first leading minor that does not factor.

    On a numerically singular PSD matrix the pivot is set by round-off: it
    may fall one or two orders away from where another Cholesky routine
    stops.  :func:`factor_diagnostics` reads only the exception type."""

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(
            f"matrix is not positive definite: leading minor of order "
            f"{self.pivot} is not positive"
        )


def triangularity_defect(v, nest: Nest, indices=None) -> float:
    """max ||(I - X_s) V X_s|| over the selected grid points (all by default).

    Zero means V maps each nest subspace into itself, i.e. V is upper
    triangular relative to the nest.  In the nest basis U, with
    k_s = rank X_s, the defect at s is the norm of the block
    (U^T V U)[k_s:, :k_s].
    """
    u = nest.basis
    vt = u.T @ np.asarray(v, dtype=float) @ u
    sel = range(len(nest.grid)) if indices is None else indices
    return max_op_norm(vt[nest.ranks[j]:, :nest.ranks[j]] for j in sel)


def admissibility(spectrum, dim: int) -> tuple[float, int]:
    """Coisometry defect ||D D^T - I|| and rank defect dim - rank(D) of a
    dim x dim matrix D, read off its nonzero-capable singular values.

    ``spectrum`` holds singular values of D (a level's block spectrum,
    :meth:`DiagonalReport.spectrum`); D has ``dim - len(spectrum)`` further
    zero singular values.
    D D^T - I has eigenvalues (1 - s)(1 + s), a form that
    keeps small defects accurate, and -1 for each missing value.  The rank
    counts singular values above ``RANK_TOL`` times the largest.
    """
    sv = np.asarray(spectrum, dtype=float)
    defect = float(np.abs((1.0 - sv) * (1.0 + sv)).max(initial=0.0))
    if sv.size < dim:
        defect = max(defect, 1.0)
    rank = int(np.count_nonzero(sv > RANK_TOL * sv.max(initial=0.0)))
    return defect, dim - rank


def _factors(c: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(c, upper=True)
    except np.linalg.LinAlgError:
        return False
    return True


def cholesky_upper(c) -> np.ndarray:
    """Upper Cholesky triangle with positive diagonal: C = R^T R.

    Raises :class:`NotPositiveDefiniteError` carrying the pivot index when C
    is not positive definite.  The pivot is found by bisection over the
    leading blocks: order k - 1 factors and order k does not.  On a
    numerically singular PSD matrix which order fails first is a matter of
    round-off (see :class:`NotPositiveDefiniteError`).
    """
    c = as_operator(c)
    require_symmetric(c)
    try:
        return np.linalg.cholesky(c, upper=True)
    except np.linalg.LinAlgError:
        pass
    lo, hi = 0, c.shape[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _factors(c[:mid, :mid]):
            lo = mid
        else:
            hi = mid
    raise NotPositiveDefiniteError(hi)


def compare_to_cholesky(v, r) -> float:
    """Distance ||S V - R|| after aligning row signs to the positive diagonal
    of R.  S is the diagonal sign matrix making diag(S V) nonnegative, which
    minimizes the distance over the sign gauge when V is close to +/-R
    row-wise.

    The norm is taken as sqrt(||M^T M||) for M = S V - R: NumPy forms M^T M
    by a symmetric rank-k product, exactly symmetric, so its norm takes
    ``eigvalsh`` in place of an SVD of M.
    """
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    signs = np.where(np.diag(v) < 0.0, -1.0, 1.0)
    m = signs[:, None] * v - r
    return math.sqrt(op_norm(m.T @ m))


@dataclass(frozen=True)
class FactorizationRow:
    """Diagnostics of the factor at one refinement level."""

    range: float
    residual: float
    admissibility_defect: float
    rank_defect: int
    triangularity: float
    cholesky_distance: float


def canonical_factor(
    c,
    nest: Nest,
    schedule: int = 6,
    eps: float | None = None,
    probes: np.ndarray | None = None,
    full_schedule: bool = False,
) -> DiagonalReport:
    """Factor a PSD operator as V^T V with V triangular relative to the nest.

    Runs the diagonal refinement of sqrt(C) and returns its report, which
    describes the whole factorization: ``image.source`` is sqrt(C), and
    over a level ``part`` the factor is V = ``rep.d(part).T @
    rep.image.source``.  V is never formed here.  Nothing is measured or
    rejected on admissibility grounds; :func:`factor_diagnostics` reports
    the defects as numbers.
    Non-PSD input propagates the square-root error.
    """
    return diagonal(psd_sqrt(c), nest, schedule, eps=eps, probes=probes,
                    full_schedule=full_schedule)


def factor_diagnostics(c, rep: DiagonalReport, levels) -> list[FactorizationRow]:
    """Diagnostics of the factor V = D^T sqrt(C) at the given refinement
    levels (partitions) of a factorization ``rep`` of C
    (:func:`canonical_factor`): the residual
    ||V^T V - C||, the coisometry and rank defects of D from one block
    spectrum per level, the triangularity defect at the level's partition
    points, and the distance to the Cholesky triangle (nan when C is not
    positive definite).  One Cholesky per call; each level's dense D and V
    are formed in turn."""
    c = as_operator(c)
    nest = rep.image.base
    try:
        chol = cholesky_upper(c)
    except NotPositiveDefiniteError:
        chol = None
    rows = []
    for part in levels:
        v = rep.d(part).T @ rep.image.source
        defect, rank_defect = admissibility(rep.spectrum(part), c.shape[0])
        rows.append(
            FactorizationRow(
                range=part.range,
                residual=op_norm(v.T @ v - c),
                admissibility_defect=defect,
                rank_defect=rank_defect,
                triangularity=triangularity_defect(v, nest, part.indices),
                cholesky_distance=math.nan if chol is None else compare_to_cholesky(v, chol),
            )
        )
    return rows

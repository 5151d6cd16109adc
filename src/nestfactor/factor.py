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
only where they are read, in nest coordinates: no n x n D or V is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import (
    RANK_TOL,
    as_operator,
    max_op_norm,
    _psd_sqrt_with_norm,
    op_norm,
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
    "factor_diagnostics",
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
    over a level ``part`` the factor V = D^T sqrt(C) is ``rep.factor(part)``
    = U^T V U in nest coordinates.  V is never formed.  Nothing is measured or
    rejected on admissibility grounds; :func:`factor_diagnostics` reports
    the defects as numbers.
    Non-PSD input propagates the square-root error.
    """
    root, norm = _psd_sqrt_with_norm(c)
    return diagonal(root, nest, schedule, eps=eps, probes=probes,
                    full_schedule=full_schedule, _norm=norm)


def _gauge_distance(a: np.ndarray, r: np.ndarray) -> float:
    """||S A - R|| for the row signs S making diag(S A) nonnegative, as the root
    of ``eigvalsh`` of M^T M, M = S A - R exactly symmetric; ``a`` becomes M."""
    a *= np.where(np.diag(a) < 0.0, -1.0, 1.0)[:, None]
    a -= r
    return math.sqrt(op_norm(a.T @ a))


def factor_diagnostics(c, rep: DiagonalReport, levels) -> list[FactorizationRow]:
    """Diagnostics of the factor V = D^T sqrt(C) at the given refinement
    levels (partitions) of a factorization ``rep`` of C
    (:func:`canonical_factor`), read off A = U^T V U (:meth:`DiagonalReport.factor`):
    ||V^T V - C|| = ||A^T A - U^T C U||, the coisometry and rank defects of D
    from one block spectrum per level, the triangularity defect from the
    blocks A[k_s:, :k_s] at the level's partition points, and ||S A - R|| to
    the Cholesky triangle R of U^T C U (nan when C is not positive definite).
    U^T C U and R are formed once per call; A^T A - U^T C U and S A - R in place."""
    c = as_operator(c)
    nest, u = rep.image.base, rep.image.base.basis
    # U == I exactly, with no n x n temporary: n nonzeros and a diagonal of ones
    identity = np.count_nonzero(u) == c.shape[0] and (np.diagonal(u) == 1.0).all()
    gram = c if identity else u.T @ c @ u
    try:
        chol = cholesky_upper(gram)
    except NotPositiveDefiniteError:
        chol = None
    rows = []
    for part in levels:
        a = rep.factor(part)
        triangularity = max_op_norm(a[nest.ranks[j]:, :nest.ranks[j]] for j in part.indices)
        m = a.T @ a
        m -= gram
        residual = op_norm(m)
        del m
        distance = math.nan if chol is None else _gauge_distance(a, chol)
        defect, rank_defect = admissibility(rep.spectrum(part), c.shape[0])
        rows.append(FactorizationRow(part.range, residual, defect, rank_defect, triangularity,
                                     distance))
    return rows

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
from .amplitude import DiagonalReport, _image_nests, _refine, diagonal
from .nests import Nest

__all__ = [
    "FactorizationRow",
    "NotPositiveDefiniteError",
    "admissibility",
    "canonical_factor",
    "cholesky_upper",
    "factor_defects",
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

    C may be given as a stack of L blocks (L x m x m), the block-diagonal
    operator they make up, over ``nest = channel_nest(block_nest, L)``:
    the blocks' roots are taken in one stacked ``eigh`` and their image
    nests in one sweep over the block nest, then assembled
    (:func:`amplitude.image_nest`); the report is that of the direct sum.
    """
    root, norm = _psd_sqrt_with_norm(c)
    return diagonal(root, nest, schedule, eps=eps, probes=probes,
                    full_schedule=full_schedule, _norm=norm)


def _canonical_factors(cs, nest: Nest, schedule: int, probes: np.ndarray | None):
    """Yield ``canonical_factor(c, nest, schedule, probes=probes,
    full_schedule=True)`` for each C drawn from ``cs``, in order, bit for bit.

    Each C, a matrix or a stack of blocks (:func:`canonical_factor`), is
    released once its square root is taken; the roots are swept in the
    lockstep batches of :func:`amplitude._image_nests`, and each report is
    refined only when it is drawn, so a caller that releases it holds one
    at a time.
    """
    for img in _image_nests(map(_psd_sqrt_with_norm, cs), nest):
        yield _refine(img, schedule, None, probes, True)
        del img  # hold no image nest while the next batch is swept


def _gauge_distance(a: np.ndarray, r: np.ndarray) -> float:
    """||S A - R|| for the row signs S making diag(S A) nonnegative, as the root
    of ``eigvalsh`` of M^T M, M = S A - R exactly symmetric; ``a`` becomes M."""
    a *= np.where(np.diag(a) < 0.0, -1.0, 1.0)[:, None]
    a -= r
    return math.sqrt(op_norm(a.T @ a))


def _nest_gram(c, nest: Nest) -> np.ndarray:
    """U^T C U for the nest basis U: C itself when U is I, and on any other
    coordinate nest C's rows and columns gathered in one step, exactly and
    C-contiguous (:attr:`Nest._perm`)."""
    perm = nest._perm
    if perm is None:
        return nest.basis.T @ c @ nest.basis
    if (perm == np.arange(perm.size)).all():
        return c
    return c[np.ix_(perm, perm)]


def _level_row(gram: np.ndarray, rep: DiagonalReport, part, chol) -> FactorizationRow:
    """The diagnostics of one level, read off A = ``rep.factor(part)``; the
    Cholesky distance is nan when ``chol`` is None."""
    a = rep.factor(part)
    ranks = rep.image.base.ranks
    triangularity = max_op_norm(a[ranks[j]:, :ranks[j]] for j in part.indices)
    m = a.T @ a
    m -= gram
    residual = op_norm(m)
    del m
    distance = math.nan if chol is None else _gauge_distance(a, chol)
    defect, rank_defect = admissibility(rep.spectrum(part), gram.shape[0])
    return FactorizationRow(part.range, residual, defect, rank_defect, triangularity, distance)


def factor_diagnostics(c, rep: DiagonalReport, levels) -> list[FactorizationRow]:
    """Diagnostics of the factor V = D^T sqrt(C) at the given refinement
    levels (partitions) of a factorization ``rep`` of C
    (:func:`canonical_factor`), read off A = U^T V U (:meth:`DiagonalReport.factor`):
    ||V^T V - C|| = ||A^T A - U^T C U||, the coisometry and rank defects of D
    from one block spectrum per level, the triangularity defect from the
    blocks A[k_s:, :k_s] at the level's partition points, and ||S A - R|| to
    the Cholesky triangle R of U^T C U (nan when C is not positive definite).
    U^T C U and R are formed once per call; A^T A - U^T C U and S A - R in place."""
    gram = _nest_gram(as_operator(c), rep.image.base)
    try:
        chol = cholesky_upper(gram)
    except NotPositiveDefiniteError:
        chol = None
    return [_level_row(gram, rep, part, chol) for part in levels]


def factor_defects(c, rep: DiagonalReport, part) -> FactorizationRow:
    """The factor's own defects at one level: the row of
    :func:`factor_diagnostics` with no Cholesky triangle formed, so its
    ``cholesky_distance`` reads nan (not measured)."""
    return _level_row(_nest_gram(as_operator(c), rep.image.base), rep, part, None)

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

For positive definite C the image projections of sqrt(C) also have a
closed form, the Gram-block formula (:func:`_posdef_projections`, the route
of ``posdef-check``): one Cholesky factorization of U^T C U yields them at
every grid point, cross-checkable against the SVD route of
:func:`amplitude.image_nest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import (
    RANK_TOL,
    as_operator,
    max_op_norm,
    _clamped_roots,
    _from_eigen,
    _psd_sqrt_with_norm,
    op_norm,
    require_symmetric,
)
from .amplitude import DiagonalReport, _image_nests, _refine, image_nest
from .nests import Nest

__all__ = [
    "FactorizationRow",
    "NotPositiveDefiniteError",
    "SingularGramError",
    "admissibility",
    "canonical_factor",
    "cholesky_upper",
    "factor_defects",
    "factor_diagnostics",
]

GRAM_COND_LIMIT = 1e12   # largest condition number of U^T C U in _posdef_projections


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot: the matrix is not positive
    definite (numerically)."""


class SingularGramError(ValueError):
    """The Gram matrix U^T C U of the operator on the nest basis cannot be
    inverted.  Carries its condition number (inf when it is singular)."""

    def __init__(self, cond: float):
        self.cond = float(cond)
        super().__init__(
            f"Gram matrix U^T C U is numerically singular "
            f"(condition number {self.cond:.3e})"
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


def cholesky_upper(c) -> np.ndarray:
    """Upper Cholesky triangle with positive diagonal: C = R^T R.

    Raises :class:`NotPositiveDefiniteError` when C is not positive
    definite, after the one factorization that finds it.
    """
    c = as_operator(c)
    require_symmetric(c)
    try:
        return np.linalg.cholesky(c, upper=True)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None


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
    return _refine(image_nest(root, nest, norm), schedule, eps, probes, full_schedule)


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
    """||S A - R|| for the row signs S making diag(S A) nonnegative; ``a``
    becomes S A - R."""
    a *= np.where(np.diag(a) < 0.0, -1.0, 1.0)[:, None]
    a -= r
    return op_norm(a)


def _nest_gram(c, nest: Nest) -> np.ndarray:
    """U^T C U for the nest basis U: C itself when U is I, and on any other
    coordinate nest C's rows and columns gathered in one step, exactly and
    C-contiguous (:attr:`Nest._perm`).  For a stack of C, one per matrix
    (gathered ones not C-contiguous)."""
    perm = nest._perm
    if perm is None:
        return nest.basis.T @ c @ nest.basis
    return c if nest._identity else c[..., perm[:, None], perm]


def _posdef_projections(cs, nest: Nest):
    """The image nests of sqrt(C) for positive definite C of ``cs``
    (matrices of one dimension), each from one Cholesky factorization of
    its Gram matrix G = U^T C U on the nest basis U: ``psd_sqrt(c)`` and its
    norm, bit for bit, and the image basis Y, as a stack of roots, a list
    of norms and a stack of bases.

    Every Gram block U_s^T C U_s is a leading block of G, so G = R^T R gives
    all of them at once, and the image projection at each grid point,

        P_s = sqrt(C) U_s (U_s^T C U_s)^{-1} U_s^T sqrt(C) = Y_s Y_s^T,

    is read off Y = sqrt(C) U R^{-1}, the Q factor of sqrt(C) U: Y_s holds
    its leading ``nest.ranks[s]`` columns.  By Cauchy interlacing no leading
    block is conditioned worse than G, so one gate on G, singular or
    conditioned worse than ``GRAM_COND_LIMIT``, covers every grid point.

    The roots come from one stacked ``eigh``, each clamped by its own scale
    (:func:`linops._clamped_roots`), and the bases from one stacked
    :func:`_nest_gram`, ``eigvalsh``, ``cholesky`` and column substitution.
    Input that is not finite and square is refused first; then the cases
    are checked in order, each for symmetry and positivity as ``psd_sqrt``
    checks it and then for its Gram gate, and the first failure raises:
    :class:`SingularGramError` with G's condition number for the gate.
    Each stack is released after its last read: the cases (and ``cs``
    itself, when it is an iterator) once the spectra are taken, the
    eigenvectors once the roots are formed and G once it is factored."""
    cs = np.stack([as_operator(c) for c in cs])
    gram, spectra = _gram(cs, nest)
    w, v = np.linalg.eigh(cs)
    roots = []
    for i in range(len(cs)):
        require_symmetric(cs[i])
        roots.append(_clamped_roots(w[i]))
        _check_gram(spectra[i])
    del cs, w
    root = _from_eigen(v, np.stack(roots))
    del v
    chol = np.linalg.cholesky(gram, upper=True)
    del gram
    return root, [float(r.max(initial=0.0)) for r in roots], _gram_basis(chol, root, nest)


def _gram(c, nest: Nest) -> tuple[np.ndarray, np.ndarray]:
    """G = U^T C U, symmetrized, and its spectrum; one of each per matrix
    for a stack of C."""
    gram = _nest_gram(c, nest)
    gram = gram + gram.mT  # 0.5 (G + G^T) with one temporary, as linops._from_eigen
    gram *= 0.5
    return gram, np.linalg.eigvalsh(gram)


def _check_gram(spectrum: np.ndarray) -> None:
    """Raise :class:`SingularGramError` unless the ascending Gram
    ``spectrum`` is positive and conditioned within ``GRAM_COND_LIMIT``."""
    if spectrum[0] <= 0.0 or spectrum[-1] > GRAM_COND_LIMIT * spectrum[0]:
        raise SingularGramError(math.inf if spectrum[0] <= 0.0
                                else float(spectrum[-1] / spectrum[0]))


def _gram_basis(r: np.ndarray, sqrt_c: np.ndarray, nest: Nest) -> np.ndarray:
    """Y = sqrt(C) U R^{-1} for the upper Cholesky triangle R of G = R^T R,
    by column substitution: column j of Y R = sqrt(C) U reads
    (sqrt(C) U)_j = Y_{<j} R_{<j, j} + Y_j R_jj.  One Y per matrix for
    stacks of R and of sqrt(C), each slice the product of its own."""
    b = nest._times_u(sqrt_c)
    y = np.empty_like(b)
    for j in range(r.shape[-1]):
        y[..., j] = (b[..., j] - (y[..., :j] @ r[..., :j, j, None])[..., 0]) / r[..., j, j, None]
    return y


def _level_row(a: np.ndarray, gram: np.ndarray, rep: DiagonalReport, part,
               chol) -> FactorizationRow:
    """The diagnostics of one level, read off A = ``rep.factor(part)``; the
    Cholesky distance is nan when ``chol`` is None, and A is left as it is
    only then (:func:`_gauge_distance`)."""
    ranks = rep.base.ranks
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
    gram = _nest_gram(as_operator(c), rep.base)
    try:
        chol = cholesky_upper(gram)
    except NotPositiveDefiniteError:
        chol = None
    return [_level_row(rep.factor(part), gram, rep, part, chol) for part in levels]


def factor_defects(c, rep: DiagonalReport, part) -> FactorizationRow:
    """The factor's own defects at one level: the row of
    :func:`factor_diagnostics` with no Cholesky triangle formed, so its
    ``cholesky_distance`` reads nan (not measured)."""
    return _level_row(rep.factor(part), _nest_gram(as_operator(c), rep.base), rep, part, None)

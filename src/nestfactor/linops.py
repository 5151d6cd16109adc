"""Dense real linear algebra: PSD square roots, operator norms, symmetry
checks.

Operators are plain square ``numpy.ndarray`` matrices.  Everything here is
real and finite-dimensional; adjoints are transposes.  Target sizes are a few
hundred rows, with dimensions up to about 1024 considered the design boundary.
No projection is stored as a matrix here: nests and image nests hold theirs
as orthonormal bases (:mod:`nests`, :mod:`amplitude`).
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "NotPositiveError",
    "NotSymmetricError",
    "as_operator",
    "asymmetry",
    "max_op_norm",
    "op_norm",
    "psd_sqrt",
    "require_symmetric",
]

# Relative tolerances shared across the package.
SYM_TOL = 1e-12     # symmetry: max |A_ij - A_ji| <= SYM_TOL * (1 + ||A||)
PSD_TOL = 1e-12     # eigenvalue clamping threshold, relative to ||C||
RANK_TOL = 1e-10    # numerical rank: singular values > RANK_TOL * sigma_max
GRAM_FLOOR = 1e-6   # Gram route: smallest squared singular value it reads, relative to the largest


class NotSymmetricError(ValueError):
    """An operation required a symmetric matrix and got something else.

    ``defect`` is the measured asymmetry max |A_ij - A_ji|, ``bound`` the
    tolerance it exceeded.
    """

    def __init__(self, defect: float, bound: float):
        self.defect = float(defect)
        self.bound = float(bound)
        super().__init__(
            f"matrix is not symmetric: asymmetry {self.defect:.6e} "
            f"exceeds {self.bound:.6e}"
        )


class NotPositiveError(ValueError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue
    beyond round-off.  Carries the offending eigenvalue."""

    def __init__(self, eigenvalue: float, bound: float):
        self.eigenvalue = float(eigenvalue)
        self.bound = float(bound)
        super().__init__(
            f"matrix is not positive semidefinite: eigenvalue "
            f"{self.eigenvalue:.6e} below -{self.bound:.6e}"
        )


def as_operator(a) -> np.ndarray:
    """Coerce to a dense square float matrix and reject non-finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("operator entries must be finite")
    return a


def _as_blocks(a) -> np.ndarray:
    """:func:`as_operator` for an operator given either as a matrix or as a
    stack of L square blocks (L x m x m), their direct sum; the shape is
    kept."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 3 and a.shape[0] >= 1 and a.shape[1] == a.shape[2]:
        if not np.isfinite(a).all():
            raise ValueError("operator entries must be finite")
        return a
    return as_operator(a)


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with the given square blocks down its
    diagonal."""
    dims = [b.shape[0] for b in blocks]
    out = np.zeros((sum(dims), sum(dims)))
    start = 0
    for b, k in zip(blocks, dims):
        out[start:start + k, start:start + k] = b
        start += k
    return out


def op_norm(a) -> float:
    """Operator norm: the largest singular value.  A stack of blocks
    (L x m x m) stands for their direct sum, whose norm is the largest of
    the blocks' (:func:`max_op_norm`).

    An all-zero matrix takes no decomposition.  An exactly symmetric matrix
    takes ``eigvalsh``, whose largest eigenvalue modulus is the norm;
    anything else takes the root of the largest eigenvalue of its smaller
    Gram matrix (:func:`_gram_eigvalsh`), each at about half the cost of an
    SVD.  Input that is not finite raises ``LinAlgError``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 3:
        return max_op_norm(a)
    if a.size == 0 or not a.any():
        return 0.0
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.T):
        w = np.linalg.eigvalsh(a)
        return float(max(-w[0], w[-1]))
    lam, scale = _gram_eigvalsh(a[None])
    return scale[0] * math.sqrt(lam[0, -1])


# Binary exponent of the largest entry magnitude past which a block is
# scaled before its Gram matrix is formed: within 2^-480..2^480 the Gram
# matrix can neither overflow nor lose its largest eigenvalue to underflow.
_GRAM_EXP = 480


def _gram_eigvalsh(b: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Squared singular values of each block of a stack B (L x p x k), from
    one stacked ``eigvalsh`` of the smaller Gram matrices: B B^T when
    p <= k, else B^T B, formed by NumPy's symmetric rank-k product.

    A block whose largest entry magnitude lies outside 2^(+-_GRAM_EXP) is
    first multiplied by the power of two 2^-e that brings it near 1, which
    is exact; inside that range scaling would change no bit, so no copy is
    made.  Returns the eigenvalues, ascending (L x min(p, k)), and the
    scales 2^e: the singular values of block l are
    ``scale[l] * sqrt(lam[l])``.  Each eigenvalue is within about
    (max(p, k) + 1) min(p, k) u sigma_max^2 of the exact square (README),
    so a block's small singular values are read only above ``GRAM_FLOOR``
    (:meth:`amplitude.DiagonalReport.spectrum`).  Input that is not finite
    raises ``LinAlgError``, as the SVD did.
    """
    exps = []
    for hi, lo in zip(b.max(axis=(1, 2)).tolist(), b.min(axis=(1, 2)).tolist()):
        top = max(hi, -lo)  # NaN in a block makes both NaN
        if not math.isfinite(top):
            raise np.linalg.LinAlgError("singular values of a matrix with non-finite entries")
        e = math.frexp(top)[1]
        exps.append(0 if abs(e) <= _GRAM_EXP else min(max(e, -1021), 1023))
    if any(exps):
        b = b * np.array([2.0 ** -e for e in exps])[:, None, None]
    gram = b @ b.mT if b.shape[1] <= b.shape[2] else b.mT @ b
    del b  # release a scaled copy before the decomposition takes its own
    return np.linalg.eigvalsh(gram), [2.0 ** e for e in exps]


# Widening of the Frobenius bound in max_op_norm: relative, for the
# round-off of both computed norms, and absolute, for the squares that
# underflow in the Frobenius sum (at most sqrt(size * 2.2e-308)).
_FRO_RTOL = 1e-10
_FRO_ATOL = 1e-150


def max_op_norm(blocks) -> float:
    """``max(op_norm(b) for b in blocks)``, 0.0 for no blocks, bit for bit,
    with as few decompositions as that allows.

    The Frobenius norm bounds the operator norm from above.  The blocks are
    visited in descending Frobenius norm, and the visit stops at the first
    block whose bound, widened for round-off, cannot exceed the best norm so
    far: neither it nor any later block can raise the maximum.  This is the
    one-list case of :func:`_max_op_norms`, with the widened Frobenius
    norms as the bounds.
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    bounds = [float(np.linalg.norm(b)) * (1.0 + _FRO_RTOL) + _FRO_ATOL for b in blocks]
    return _max_op_norms([bounds], lambda _, i: blocks[i])[0]


def _max_op_norms(bounds, form) -> list[float]:
    """:func:`max_op_norm` of several lists of blocks, visited in lockstep.

    List c holds one block per entry of ``bounds[c]``, an upper bound on its
    ``op_norm`` that already allows for round-off; ``form(c, i)`` forms
    block i of list c only when it is visited, so no list is held.  Round t
    visits the block of the t-th largest bound of each list whose bound can
    still raise its maximum; the exactly symmetric, nonzero square blocks of
    one shape among them share one stacked ``eigvalsh`` (the LAPACK call of
    each one's :func:`op_norm`)."""
    order = [sorted(range(len(b)), key=b.__getitem__, reverse=True) for b in bounds]
    best = [0.0] * len(bounds)
    live = range(len(bounds))
    for t in range(max(map(len, bounds), default=0)):
        # a list stops at its first block whose bound cannot raise its maximum
        live = [c for c in live if t < len(bounds[c]) and bounds[c][order[c][t]] > best[c]]
        if not live:
            break
        blocks = [form(c, order[c][t]) for c in live]
        stack = [i for i, b in enumerate(blocks) if len(live) > 1 and b.ndim == 2
                 and b.shape == blocks[0].shape and b.shape[0] == b.shape[1]
                 and b.any() and np.array_equal(b, b.T)]
        norms = [0.0 if i in stack else op_norm(b) for i, b in enumerate(blocks)]
        if stack:
            for i, w in zip(stack, np.linalg.eigvalsh(np.stack([blocks[i] for i in stack]))):
                norms[i] = float(max(-w[0], w[-1]))
        for c, v in zip(live, norms):
            best[c] = max(best[c], v)
    return best


def _symmetric_norm_bounds(g: np.ndarray) -> list[float]:
    """Upper bounds on the ``op_norm`` of each exactly symmetric block of a
    stack ``g`` (L x m x m), from two stacked GEMMs and no decomposition,
    widened as in :func:`max_op_norm`.  Each is the smaller of

    * the Frobenius norm f = ||g||_F and
    * f ||h^4||_F^(1/4) for h = g / f: ||g||^4 = ||g^4|| <= ||g^4||_F for
      symmetric g.  The computed ||h^4||_F is within (m + 2)^2 eps of the
      exact one (README), so it is raised by that much first.

    A block whose Frobenius square overflows is first multiplied by the
    power of two 2^-e that brings its largest entry magnitude near 1, as in
    :func:`_gram_eigvalsh`, and its f is scaled back by 2^e; every other
    block is read as it is.
    """
    flat = g.reshape(len(g), 1, -1)
    with np.errstate(over="ignore"):  # an overflowed square reads inf and is redone below
        squares = (flat @ flat.mT).ravel()
    exps = [0] * len(g)
    if math.inf in squares.tolist():
        exps = [0 if s < math.inf else math.frexp(np.abs(b).max())[1]
                for s, b in zip(squares.tolist(), g)]
        g = g * np.array([2.0 ** -e for e in exps])[:, None, None]
        flat = g.reshape(flat.shape)
        squares = (flat @ flat.mT).ravel()
    fro = np.sqrt(squares)
    h = g / np.where(fro > 0.0, fro, 1.0)[:, None, None]  # a zero block stays zero
    h2 = h @ h
    h4 = (h2 @ h2).reshape(flat.shape)
    slack = (g.shape[-1] + 2) ** 2 * sys.float_info.epsilon
    fourth = np.sqrt(np.sqrt(np.sqrt((h4 @ h4.mT).ravel()) + slack))
    return [min(f, f * r) * 2.0 ** e * (1.0 + _FRO_RTOL) + _FRO_ATOL
            for f, r, e in zip(fro.tolist(), fourth.tolist(), exps)]


def _idempotence_defect(y: np.ndarray):
    """||P^2 - P|| for P = Y Y^T: max |lam (lam - 1)| over the eigenvalues of Y^T Y;
    for a stack of Y's (or a list of one shape), the list of theirs from one
    stacked ``eigvalsh``, as ``posdef-check`` reads the stacked bases of
    :func:`factor._posdef_projections`.

    On a nest basis Y this is also the largest over the leading blocks of Y
    when lam_min(Y^T Y) >= 1/2 (Cauchy interlacing, README), which the Gram
    gate of that route (GRAM_COND_LIMIT = 1e12) keeps, with ||Y^T Y - I||
    near 2e-4 at worst."""
    y = np.asarray(y)
    lam = np.linalg.eigvalsh(y.mT @ y)
    return np.abs(lam * (lam - 1.0)).max(axis=-1, initial=0.0).tolist()


def asymmetry(a) -> float:
    """Entrywise asymmetry max |A_ij - A_ji|; over all blocks for a stack
    of blocks (L x m x m)."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.abs(a - a.mT).max())


def require_symmetric(a: np.ndarray) -> None:
    """Raise :class:`NotSymmetricError` unless A is symmetric within
    ``SYM_TOL * (1 + ||A||)``; for a stack of blocks, A is their direct sum.

    The bound is never below ``SYM_TOL``, so a defect within ``SYM_TOL``
    passes without the decomposition that ``||A||`` costs.
    """
    defect = asymmetry(a)
    if defect <= SYM_TOL:
        return
    bound = SYM_TOL * (1.0 + op_norm(a))
    if defect > bound:
        raise NotSymmetricError(defect, bound)


def psd_sqrt(c) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Non-symmetric input raises :class:`NotSymmetricError`.  Eigenvalues in
    ``[-PSD_TOL * ||C||, PSD_TOL * ||C||]`` are treated as round-off and
    clamped to zero, so a singular C keeps its null space; anything below
    that band raises :class:`NotPositiveError` with the offending eigenvalue.

    C may be given as a stack of L blocks (L x m x m), their direct sum:
    the roots of the blocks are taken in one stacked ``eigh`` and returned
    as a stack, and every tolerance reads the direct sum's scale (the
    largest |eigenvalue| and the smallest eigenvalue over all blocks).
    """
    return _psd_sqrt_with_norm(c)[0]


def _psd_sqrt_with_norm(c) -> tuple[np.ndarray, float]:
    """:func:`psd_sqrt` and ||sqrt(C)||, its largest root, from one ``eigh``."""
    c = _as_blocks(c)
    require_symmetric(c)
    w, v = np.linalg.eigh(c)
    root = _clamped_roots(w)
    return _from_eigen(v, root), float(root.max(initial=0.0))


def _clamped_roots(w: np.ndarray) -> np.ndarray:
    """The roots of the eigenvalues ``w`` of a PSD C (of the direct sum,
    for the eigenvalues of a stack of blocks), with the clamp and the
    :class:`NotPositiveError` of :func:`psd_sqrt`."""
    lowest, highest = (float(w.min()), float(w.max())) if w.size else (0.0, 0.0)
    bound = PSD_TOL * max(-lowest, highest)
    if lowest < -bound:
        raise NotPositiveError(lowest, bound)
    return np.sqrt(np.where(w > bound, w, 0.0))


def _from_eigen(v: np.ndarray, root: np.ndarray) -> np.ndarray:
    """V diag(root) V^T, symmetrized as 0.5 (S + S^T) with one temporary;
    one per matrix for stacks of V and of roots."""
    s = (v * root[..., None, :]) @ v.mT
    s = s + s.mT  # the product is released once the sum is formed
    s *= 0.5
    return s

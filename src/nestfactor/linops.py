"""Dense real linear algebra kernel for the coordinate model of L2(0, 1).

Operators are plain square ``numpy.ndarray`` matrices.  Everything here is
real and finite-dimensional; adjoints are transposes.  Target sizes are a few
hundred rows, with dimensions up to about 1024 considered the design boundary.
No projection is stored as a matrix here: nests and image nests hold theirs
as orthonormal bases (:mod:`nests`, :mod:`amplitude`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveError",
    "NotSymmetricError",
    "as_operator",
    "asymmetry",
    "grid_embed",
    "grid_points",
    "max_op_norm",
    "op_norm",
    "psd_sqrt",
    "require_symmetric",
]

# Relative tolerances shared across the package.
SYM_TOL = 1e-12     # symmetry: max |A_ij - A_ji| <= SYM_TOL * (1 + ||A||)
PSD_TOL = 1e-12     # eigenvalue clamping threshold, relative to ||C||
RANK_TOL = 1e-10    # numerical rank: singular values > RANK_TOL * sigma_max


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


def op_norm(a) -> float:
    """Operator norm: the largest singular value.

    An all-zero matrix takes no decomposition.  An exactly symmetric matrix
    takes ``eigvalsh``, whose largest eigenvalue modulus is the norm, at
    about half the cost of an SVD; anything else (NaN included, since
    NaN != NaN) takes the SVD.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not a.any():
        return 0.0
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.T):
        w = np.linalg.eigvalsh(a)
        return float(max(-w[0], w[-1]))
    return float(np.linalg.norm(a, 2))


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
    far: neither it nor any later block can raise the maximum.
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    fro = [float(np.linalg.norm(b)) for b in blocks]
    best = 0.0
    for i in sorted(range(len(blocks)), key=fro.__getitem__, reverse=True):
        if fro[i] * (1.0 + _FRO_RTOL) + _FRO_ATOL <= best:
            break
        best = max(best, op_norm(blocks[i]))
    return best


def asymmetry(a) -> float:
    """Entrywise asymmetry max |A_ij - A_ji|."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.abs(a - a.T).max())


def require_symmetric(a: np.ndarray) -> None:
    """Raise :class:`NotSymmetricError` unless A is symmetric within
    ``SYM_TOL * (1 + ||A||)``.

    The bound is never below ``SYM_TOL``, so a defect within ``SYM_TOL``
    passes without the SVD that ``||A||`` costs.
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
    ``[-PSD_TOL * ||C||, 0)`` are treated as round-off and clamped to zero;
    anything further below raises :class:`NotPositiveError` with the
    offending eigenvalue.
    """
    return _psd_sqrt_with_norm(c)[0]


def _psd_sqrt_with_norm(c) -> tuple[np.ndarray, float]:
    """:func:`psd_sqrt` and ||sqrt(C)||, its largest root, from one ``eigh``."""
    c = as_operator(c)
    require_symmetric(c)
    w, v = np.linalg.eigh(c)
    scale = float(np.abs(w).max()) if w.size else 0.0
    bound = PSD_TOL * scale
    if w.size and w[0] < -bound:
        raise NotPositiveError(w[0], bound)
    root = np.sqrt(np.clip(w, 0.0, None))
    s = (v * root) @ v.T
    return 0.5 * (s + s.T), float(root.max(initial=0.0))


def grid_points(n: int) -> np.ndarray:
    """Midpoints of the uniform n-cell grid on [0, 1]."""
    h = 1.0 / n
    return (np.arange(n) + 0.5) * h


def grid_embed(kernel, n: int) -> np.ndarray:
    """Discretize an integral operator with the given kernel on [0, 1].

    Returns the matrix ``A_ij = h * kernel(t_i, t_j)`` over the midpoint grid
    with cell width ``h = 1 / n``.  Coordinates carry the sqrt(h)
    scaling of sampled functions, so this matrix acts on coordinate vectors
    exactly as the integral operator acts on samples and the transpose is the
    adjoint.

    The kernel may be vectorized or scalar; non-finite values raise a
    ``ValueError`` naming the offending grid point.
    """
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got {n}")
    t = grid_points(n)
    rows = t[:, None]
    cols = t[None, :]
    try:
        values = np.asarray(kernel(rows, cols), dtype=float)
        if values.shape != (n, n):
            raise ValueError
    except (ValueError, TypeError):
        values = np.vectorize(kernel, otypes=[float])(rows, cols)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(
            f"kernel value not finite at t={t[i]!r}, tau={t[j]!r} "
            f"(grid indices {i}, {j})"
        )
    return (1.0 / n) * values

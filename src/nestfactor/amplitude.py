"""Operator diagonals relative to a nest.

For an operator W and a nest X_s, each grid point gets the image projection
P_s onto the range of W X_s.  The diagonal of W relative to a partition is
the Riemann-type sum

    D = sum_k  (P_{s_k} - P_{s_{k-1}}) W (X_{s_k} - X_{s_{k-1}})

over consecutive partition points.  Under refinement these sums settle, in
the weak sense probed here, toward a limit intertwining the two nests:
D X_s = P_s D and D^T P_s = X_s D^T.  The refinement driver detects that
settling with a Cauchy criterion on a fixed probe set.

In the adapted bases, Q of the image nest and U of the nest, every such sum
is a block mask of one matrix G = Q^T W U (Davidson, *Nest Algebras*, 1988,
ch. 1), so one G per operator holds the diagonal at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linops import RANK_TOL, as_operator, max_op_norm, op_norm
from .nests import Nest, Partition, coarsest_partition, refine

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "EXHAUSTED",
    "DiagonalReport",
    "ImageNest",
    "check_intertwining",
    "default_probes",
    "diagonal",
    "image_nest",
]

CONVERGED = "converged"
DIVERGED = "diverged"
EXHAUSTED = "exhausted"

# Refinements on which the Cauchy defect may fail to decrease before the
# verdict flips to diverged.
_STALL_LIMIT = 3


@dataclass(frozen=True)
class ImageNest:
    """Image nest of W over a nest, held as one orthonormal basis.

    The leading ``ranks[j]`` columns of ``basis`` span the range of W X_j,
    so the image projection at grid index j is P_j = Q_j Q_j^T with
    Q_j = ``basis[:, :ranks[j]]``; no projection matrix is stored.  ``norm``
    is ||W||, which set the rank cut-off.
    """

    source: np.ndarray
    base: Nest
    basis: np.ndarray
    ranks: tuple[int, ...]
    norm: float

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def completed(self) -> np.ndarray:
        """n x n orthonormal basis: ``basis`` followed by an orthonormal
        basis of the complement of the range of W, built once on first use."""
        n, r = self.basis.shape
        if r == n:
            return self.basis
        full, _ = np.linalg.qr(self.basis, mode="complete")
        return np.hstack([self.basis, full[:, r:]])


# Columns per panel of the image-nest sweep: whole increments are grouped
# until a panel holds at least this many.
PANEL = 64

# Bytes of one stacked n x n array of a lockstep sweep (:func:`_image_nests`):
# callers batch at most this many bytes of operators, and at least one.  A
# batch's image nests are held until each is read, so this also bounds what
# a family run holds beyond one operator.  At n = 64 a batch holds four
# operators and a family run peaks no higher than one at a time did
# (tracemalloc); six at once peaked 0.16 MB higher.  From n = 128 on a
# batch holds one.
STACK_BYTES = 1 << 17


def _panels(ranks):
    """Grid index ranges [lo, hi) of the panels: consecutive increments
    (k_{j-1}, k_j] grouped until a panel holds at least ``PANEL`` columns;
    the last panel may hold fewer."""
    lo, first = 0, 0
    for j, k in enumerate(ranks):
        if k - first >= PANEL or j == len(ranks) - 1:
            yield lo, j + 1
            lo, first = j + 1, k


def image_nest(w, nest: Nest, _norm: float | None = None) -> ImageNest:
    """Compute the image nest of W in one sweep over the nest increments,
    by block classical Gram-Schmidt with reorthogonalisation (BCGS2,
    Barlow & Smoktunowicz, *Numer. Math.* 2013).

    Each increment X_j - X_{j-1} contributes W B for its block B of the
    nest basis (:attr:`Nest.basis`).  Increments are grouped into panels of
    at least ``PANEL`` columns (:func:`_panels`).  A panel's W B is
    orthogonalised twice against the basis of the earlier panels, by two
    GEMM pairs.  Inside the panel each increment is then orthogonalised
    twice against the panel's own accepted columns (classical Gram-Schmidt
    with reorthogonalisation), and a rank-revealing SVD of the residual
    keeps the directions whose singular values exceed ``RANK_TOL * ||W||``.
    Cost: one norm of W (none when :func:`canonical_factor` passes ||sqrt(C)||
    as the private ``_norm``) plus O(n^3), O(n^2) storage.
    """
    return _image_nests([w], nest, [_norm])[0]


def _image_nests(ws, nest: Nest, norms) -> list[ImageNest]:
    """``[image_nest(w, nest, norm) for w, norm in zip(ws, norms)]``, bit for
    bit, with the operators swept in lockstep (:func:`_sweep`): each GEMM
    pair and each rank-revealing SVD is one stacked call over the batch, so
    the per-call cost is paid once per batch, not once per operator.  When
    the operators keep different numbers of columns at some increment, each
    is swept again on its own."""
    ws = [as_operator(w) for w in ws]
    n = nest.dim
    for w in ws:
        if w.shape[0] != n:
            raise ValueError(f"operator dim {w.shape[0]} does not match nest dim {n}")
    norms = [op_norm(w) if norm is None else norm for w, norm in zip(ws, norms)]
    # A lone operator is swept on 2-D arrays, a batch on stacks.
    lead = (len(ws),) if len(ws) > 1 else ()
    cut = RANK_TOL * np.array(norms).reshape(lead + (1,))
    swept = _sweep(ws, nest.basis, nest.ranks, cut)
    if swept is None:
        swept = [_sweep([w], nest.basis, nest.ranks, wcut)[0] for w, wcut in zip(ws, cut)]
    return [ImageNest(w, nest, basis, ranks, norm)
            for w, (basis, ranks), norm in zip(ws, swept, norms)]


def _sweep(ws, u, k, cut):
    """The BCGS2 sweep of :func:`image_nest` over a stack of operators that
    share the nest basis ``u`` and the ranks ``k``; returns each operator's
    (basis, ranks), or ``None`` when the operators keep different numbers of
    columns at some increment.

    ``cut`` (stack x 1, or 1 for a lone operator) holds the rank cut-offs.
    The accepted columns of the stack are held in one stack x n x n array
    (n x n for a lone operator).  Each slice of every stacked array has the
    strides of the single operator's array, so the stacked ``matmul`` and
    ``svd`` make for each operator the BLAS and LAPACK calls of its solo
    sweep.
    """
    q = np.empty(cut.shape[:-1] + u.shape)
    ranks, r = [], 0
    for lo, hi in _panels(k):
        first = k[lo - 1] if lo else 0
        block = u[:, first:k[hi - 1]]
        panel = np.empty(q.shape[:-2] + block.shape)
        for w, out in zip(ws, panel.reshape((-1,) + block.shape)):
            np.matmul(w, block, out=out)
        r0 = r
        if r0:
            done = q[..., :r0]
            panel -= done @ (done.mT @ panel)
            panel -= done @ (done.mT @ panel)
        for j in range(lo, hi):
            y = np.ascontiguousarray(panel[..., (k[j - 1] if j else 0) - first:k[j] - first])
            if r > r0:
                own = q[..., r0:r]
                y -= own @ (own.mT @ y)
                y -= own @ (own.mT @ y)
            uy, sv, _ = np.linalg.svd(y, full_matrices=False)
            above = sv > cut
            if above.ndim == 1:
                kept = int(np.count_nonzero(above))
            else:
                counts = above.sum(axis=-1).tolist()
                kept = counts[0]
                if counts.count(kept) < len(counts):
                    return None
            q[..., r:r + kept] = uy[..., :kept]
            r += kept
            ranks.append(r)
    panel = y = uy = None  # release the working arrays before the bases are copied out
    return [(qi[:, :r].copy(), tuple(ranks)) for qi in q.reshape((-1,) + q.shape[-2:])]


# Seeded random probes in the default probe set, and at most as many
# standard basis probes.
_PROBES = 8


def default_probes(dim: int, seed: int = 0) -> np.ndarray:
    """Fixed probe set: ``_PROBES`` seeded unit vectors plus standard basis
    vectors at ``_PROBES`` evenly spaced coordinates.  Rows are probes."""
    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((_PROBES, dim))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    idx = np.unique(np.round(np.linspace(0, dim - 1, min(_PROBES, dim))).astype(int))
    basis = np.zeros((idx.size, dim))
    basis[np.arange(idx.size), idx] = 1.0
    return np.vstack([vs, basis])


def check_intertwining(g, img: ImageNest, part: Partition) -> float:
    """Worst intertwining defect of an operator D at the partition points:
    max over s of ||D X_s - P_s D|| and ||D^T P_s - X_s D^T||, with X_s the
    nest and P_s the image projections of ``img``.

    The two are transposes of each other up to sign, so one is measured.
    In adapted coordinates, given as ``g`` = G = Qhat^T D U (U the nest
    basis, Qhat the completed image basis), D X_s - P_s D is block
    anti-diagonal with the blocks G[r_s:, :k_s] and -G[:r_s, k_s:], where
    k_s = rank X_s and r_s = rank P_s; its norm is the larger of theirs.
    """
    nest = img.base
    blocks = []
    for j in part.indices:
        k, r = nest.ranks[j], img.ranks[j]
        blocks += [g[r:, :k], g[:r, k:]]
    return max_op_norm(blocks)


@dataclass
class DiagonalReport:
    """Outcome of a refinement schedule for one operator.

    ``image`` is the image nest the sums were taken over; it carries the
    operator W and the nest.  ``g`` is G = Q^T W U (r x n; Q, U the image
    and nest bases).  Over a partition D = sum_k Q_k G_k U_k^T = Q mask(G) U^T
    for the diagonal blocks G_k of G that the increments select; with
    orthonormal, mutually orthogonal Q_k and U_k, D has the singular values
    of the G_k (:meth:`spectrum`).  ``levels`` holds the visited partitions,
    coarsest first, ``cauchy[k]`` the Cauchy defect between levels k and
    k + 1.  When the verdict is ``converged`` the last level's sum is the
    settled diagonal.
    """

    image: ImageNest
    g: np.ndarray
    levels: list[Partition]
    cauchy: list[float]
    verdict: str
    eps: float

    def _blocks(self, part: Partition) -> list[tuple[slice, slice]]:
        """Row and column slices of G's diagonal blocks over a partition."""
        r, k = self.image.ranks, self.image.base.ranks
        return [(slice(r[a], r[b]), slice(k[a], k[b]))
                for a, b in zip(part.indices[:-1], part.indices[1:])]

    def _masked(self, part: Partition) -> np.ndarray:
        out = np.zeros_like(self.g)
        for block in self._blocks(part):
            out[block] = self.g[block]
        return out

    def spectrum(self, part: Partition) -> np.ndarray:
        """Singular values of G's diagonal blocks over a partition, block by
        block in partition order: those of the diagonal sum D, computed on
        each call.  Blocks of one shape share one stacked SVD."""
        blocks = [self.g[blk] for blk in self._blocks(part)]
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, b in enumerate(blocks):
            if b.size:
                by_shape.setdefault(b.shape, []).append(i)
        values = [np.zeros(0)] * len(blocks)
        for members in by_shape.values():
            stacked = np.linalg.svd(np.stack([blocks[i] for i in members]), compute_uv=False)
            for i, sv in zip(members, stacked):
                values[i] = sv
        return np.concatenate(values)

    def factor(self, part: Partition) -> np.ndarray:
        """U^T D^T W U = mask(G)^T G over a partition (Q^T W = G U^T), block
        row by block row: for W = sqrt(C), the factor V in nest coordinates."""
        out = np.zeros((self.g.shape[1],) * 2)
        for rows, cols in self._blocks(part):
            out[cols] = self.g[rows, cols].T @ self.g[rows]
        return out

    def adapted(self, part: Partition) -> np.ndarray:
        """D in adapted coordinates, Qhat^T D U = (Qhat^T Q) mask(G)."""
        return (self.image.completed.T @ self.image.basis) @ self._masked(part)


def diagonal(
    w,
    nest: Nest,
    schedule: int = 6,
    eps: float | None = None,
    probes: np.ndarray | None = None,
    full_schedule: bool = False,
    _norm: float | None = None,
) -> DiagonalReport:
    """Refine the diagonal of W from the coarsest partition and watch the
    probe pairings settle.

    Builds the image nest of W (``_norm`` as for :func:`image_nest`) and
    G = Q^T W U once, then, starting from
    {0, T}, each of up to ``schedule`` refinements inserts midpoint grid
    points.  No block spectrum is taken here (:meth:`DiagonalReport.spectrum`
    computes one on request).  The Cauchy defect is max |((D' - D) f, h)|
    over ordered probe pairs, taken in adapted coordinates as the largest
    entry of (P Q) (mask'(G) - mask(G)) (P U)^T for the probe rows P.
    Verdicts:

    * ``converged`` -- the last defect is at most ``eps`` (default
      1e-8 * (1 + ||W||), with ||W|| read off the image nest);
    * ``diverged`` -- otherwise, when the defect failed to decrease on the
      last three refinements;
    * ``exhausted`` -- schedule spent, or finest partition reached, without
      either of the above.

    The loop only decides when to stop: at the first defect within ``eps``
    or the third stall.  The verdict is read once, after the loop, from the
    last defect and the stall count.  With ``full_schedule`` the driver
    never stops early, so the verdict is judged on the completed history.
    That keeps partition depths aligned when several operators must be
    compared refinement by refinement.
    """
    return _refine(image_nest(w, nest, _norm), schedule, eps, probes, full_schedule)


def _refine(img: ImageNest, schedule: int, eps: float | None, probes: np.ndarray | None,
            full_schedule: bool) -> DiagonalReport:
    """The refinement loop of :func:`diagonal`, over a built image nest."""
    if schedule < 2:
        raise ValueError(f"schedule must be at least 2, got {schedule}")
    nest = img.base
    if eps is None:
        eps = 1e-8 * (1.0 + img.norm)
    if probes is None:
        probes = default_probes(nest.dim)

    rep = DiagonalReport(img, (img.basis.T @ img.source) @ nest.basis, [], [],
                         EXHAUSTED, float(eps))
    pq, pu = probes @ img.basis, probes @ nest.basis
    part = coarsest_partition(nest)
    rep.levels.append(part)
    masked = rep._masked(part)
    stall = 0
    for _ in range(schedule):
        nxt = refine(part, nest)
        if nxt.indices == part.indices:
            break
        rep.levels.append(nxt)
        prev, masked = masked, rep._masked(nxt)
        defect = float(np.abs(pq @ (masked - prev) @ pu.T).max())
        if rep.cauchy and defect >= rep.cauchy[-1]:
            stall += 1
        else:
            stall = 0
        rep.cauchy.append(defect)
        part = nxt
        if not full_schedule and (defect <= eps or stall >= _STALL_LIMIT):
            break
    if rep.cauchy and rep.cauchy[-1] <= eps:
        rep.verdict = CONVERGED
    elif stall >= _STALL_LIMIT:
        rep.verdict = DIVERGED
    return rep

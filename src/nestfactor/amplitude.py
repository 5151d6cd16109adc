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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator

import numpy as np

from .linops import (GRAM_FLOOR, RANK_TOL, _as_blocks, _block_diag, _gram_eigvalsh, _max_op_norms,
                     _symmetric_norm_bounds, max_op_norm, op_norm)
from .nests import Nest, Partition, _direct_sum, _refinement_chain, _summand

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
    is ||W||, which set the rank cut-off.  ``source`` is W, block-diagonal
    when W was given as a stack of blocks (:func:`image_nest`).
    """

    source: np.ndarray
    base: Nest
    basis: np.ndarray
    ranks: tuple[int, ...]
    norm: float

    @property
    def dim(self) -> int:
        return self.base.dim


# Columns per panel of the image-nest sweep: whole increments are grouped
# until a panel holds at least this many.
PANEL = 64

# Bytes of one stacked array of blocks of a lockstep sweep: :func:`_image_nests`,
# the one place that batches, sweeps at most this many bytes of operator
# blocks at once (8 L m^2 for L blocks of size m), and at least one
# operator.  A batch's blocks and their swept bases are held until each
# operator's image nest is drawn, so this also bounds what a family run
# holds beyond one operator.  A batch holds eight matrices at n = 64, two
# at n = 128 and one from n = 129 on; fourteen members of 4 blocks of 24,
# and 32 posdef-check cases at d = 32.  A six-alpha family run (schedule 5)
# peaks at 0.95 MB at n = 64 and 1.85 MB at n = 128 (tracemalloc), against
# 0.82 and 1.58 MB with 128 KiB batches; the peak does not grow with the
# number of batches.
STACK_BYTES = 1 << 18


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

    W may be given as a stack of L blocks (L x m x m), their direct sum,
    over ``nest = channel_nest(block_nest, L)``.  The image nest of a direct
    sum over a channel nest is the direct sum of the channels' image nests
    (Davidson, *Nest Algebras*, 1988), so the blocks are swept over the
    block nest, with the rank cut-off of the sum, ``RANK_TOL * ||W||``, and
    their bases are interleaved as :func:`channel_nest` interleaves the
    nest's; ``source`` is the block-diagonal W.  The cost is that of L
    sweeps at dimension m.
    """
    return next(_image_nests([(w, _norm)], nest))


def _image_nests(pairs, nest: Nest) -> Iterator[ImageNest]:
    """Yield ``image_nest(w, nest, norm)`` for each ``(w, norm)`` drawn from
    ``pairs``, bit for bit, with the operators swept in lockstep batches
    (:func:`_sweep`): each GEMM pair and each rank-revealing SVD is one
    stacked call over the blocks of a batch's operators, so the per-call
    cost is paid once per batch, not once per block.  This is the one place
    that batches: a batch is drawn when its first image nest is, and closes
    before one more operator would pass ``STACK_BYTES``, so it holds
    max(1, STACK_BYTES // w.nbytes) operators.  A matrix is one block over
    ``nest`` itself.  When the blocks keep different numbers of columns at
    some increment, each is swept again on its own.  Each image nest is
    assembled when it is drawn, and the generator holds nothing of an
    operator once it is yielded."""
    pairs = iter(pairs)
    for w, norm in pairs:
        ws, norms = [_as_blocks(w)], [norm]
        for w, norm in islice(pairs, max(1, STACK_BYTES // ws[0].nbytes) - 1):
            ws.append(_as_blocks(w))
            norms.append(norm)
        del w  # hold no operator past its own image nest
        shape = ws[0].shape
        count = shape[0] if len(shape) == 3 else 1
        if count * shape[-1] != nest.dim:
            raise ValueError(f"operator dim {count * shape[-1]} does not match nest dim {nest.dim}")
        if any(w.shape != shape for w in ws):
            raise ValueError("the operators of one sweep must share one shape")
        block_nest = _summand(nest, count)
        norms = [op_norm(w) if norm is None else norm for w, norm in zip(ws, norms)]
        blocks = [b for w in ws for b in (w if w.ndim == 3 else [w])]
        # A lone block is swept on 2-D arrays, a batch on stacks.
        lead = (len(blocks),) if len(blocks) > 1 else ()
        cut = RANK_TOL * np.array(norms).repeat(count).reshape(lead + (1,))
        u = block_nest.basis if block_nest._perm is None else block_nest._perm
        swept = _sweep(blocks, u, block_nest.ranks, cut)
        if swept is None:
            swept = [_sweep([b], u, block_nest.ranks, bcut)[0] for b, bcut in zip(blocks, cut)]
        own = [swept[i:i + count] for i in range(0, len(swept), count)]
        del blocks, swept
        for pending in (ws, own, norms):
            pending.reverse()
        while ws:
            yield _assemble(ws.pop(), own.pop(), norms.pop(), nest)


def _assemble(w: np.ndarray, swept, norm: float, nest: Nest) -> ImageNest:
    """The image nest of W over ``nest`` from its blocks' sweeps: one block's
    as swept, several interleaved (:func:`nests._direct_sum`) with the
    block-diagonal W as source."""
    basis, ranks = _direct_sum([b for b, _ in swept], [r for _, r in swept])
    return ImageNest(_block_diag(*w) if w.ndim == 3 else w, nest, basis, ranks, norm)


def _sweep(ws, u, k, cut):
    """The BCGS2 sweep of :func:`image_nest` over a stack of operators that
    share the nest basis ``u`` and the ranks ``k``; returns each operator's
    (basis, ranks), or ``None`` when the operators keep different numbers of
    columns at some increment.

    ``u`` is the n x n nest basis U, or for a coordinate nest the row of
    each column's one (:attr:`Nest._perm`), whose W U is W's columns
    gathered, exactly.  ``cut`` (stack x 1, or 1 for a lone operator) holds
    the rank cut-offs.  The accepted columns of the stack are held in one
    stack x n x n array (n x n for a lone operator).  Each slice of every
    stacked array has the strides of the single operator's array, so the
    stacked ``matmul`` and ``svd`` make for each operator the BLAS and
    LAPACK calls of its solo sweep.  A full-rank basis of a stack is handed
    out as its slice of that array, not copied.
    """
    n = u.shape[0]
    q = np.empty(cut.shape[:-1] + (n, n))
    ranks, r = [], 0
    for lo, hi in _panels(k):
        first = k[lo - 1] if lo else 0
        cols = u[..., first:k[hi - 1]]
        panel = np.empty(q.shape[:-2] + (n, k[hi - 1] - first))
        for w, out in zip(ws, panel.reshape((-1,) + panel.shape[-2:])):
            if u.ndim == 2:
                np.matmul(w, cols, out=out)
            else:
                np.take(w, cols, axis=1, out=out, mode="clip")
                out += 0.0  # a GEMM sums from +0, so a gathered -0 reads +0 as there
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
                kept = int(np.count_nonzero(above[0]))
                if (above ^ above[0]).any():  # rows of sorted values: ranks part
                    return None
            q[..., r:r + kept] = uy[..., :kept]
            r += kept
            ranks.append(r)
    panel = y = uy = None  # release the working arrays before the bases are copied out
    ranks = tuple(ranks)
    # A batch's full-rank bases are slices of its stack, so only its pending
    # members grow with it.  A lone basis is copied out: kept in place, its
    # early allocation raised the peak RSS of `diagonal` at n = 1024 from
    # 99.2 to 105.6 MB under glibc malloc, with no more bytes live.
    return [(qi if r == n and q.ndim == 3 else qi[:, :r].copy(), ranks)
            for qi in q.reshape((-1, n, n))]


def _nest_distances(ys: np.ndarray, ranks, imgs) -> list[float]:
    """max_j ||Y_j Y_j^T - P_j|| for each basis Y of the stack ``ys`` and
    image nest P of ``imgs``, with Y_j the leading ``ranks[j]`` columns of
    Y: ``max_op_norm`` of the gaps, bit for bit.

    Each grid point's gaps are formed once as one product stacked over the
    cases whose image ranks agree, each slice the product of its own, for
    their bounds (:func:`linops._symmetric_norm_bounds`; every gap is
    exactly symmetric).  The cases are then visited in lockstep in
    descending bound (:func:`linops._max_op_norms`), each visited gap formed
    again alone, so no case's gaps are held."""
    imgs = list(imgs)
    bounds = [[0.0] * len(ranks) for _ in imgs]
    groups: dict[tuple[int, ...], list[int]] = {}
    for b, img in enumerate(imgs):
        groups.setdefault(img.ranks, []).append(b)
    for img_ranks, members in groups.items():
        y, q = ys[members], np.stack([imgs[b].basis for b in members])
        for j, (k, r) in enumerate(zip(ranks, img_ranks)):
            yj, qj = y[..., :k], q[..., :r]
            for b, bound in zip(members, _symmetric_norm_bounds(yj @ yj.mT - qj @ qj.mT)):
                bounds[b][j] = bound

    def gap(b, j):
        y, q = ys[b, :, :ranks[j]], imgs[b].basis[:, :imgs[b].ranks[j]]
        return y @ y.T - q @ q.T

    return _max_op_norms(bounds, gap)


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


def check_intertwining(g, img: ImageNest | DiagonalReport, part: Partition) -> float:
    """Worst intertwining defect of an operator D at the partition points:
    max over s of ||D X_s - P_s D|| and ||D^T P_s - X_s D^T||, with X_s the
    nest and P_s the image projections of ``img``, an image nest or a
    report over one: only its nest ``base`` and its ``ranks`` are read.

    The two are transposes of each other up to sign, so one is measured.
    In adapted coordinates, given as ``g`` = G = B^T D U (U the nest basis,
    B any orthonormal basis whose leading r columns are the image basis Q),
    D X_s - P_s D is block anti-diagonal with the blocks G[r_s:, :k_s] and
    -G[:r_s, k_s:], where k_s = rank X_s and r_s = rank P_s; its norm is the
    larger of theirs.  For D with range in range(Q), as every partition sum
    has, the rows of B^T D past r vanish, so B = Q (G r x n) is enough.
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
    operator W and the image basis Q.  The report keeps the image nest's
    shape of its own: ``base`` is the nest, ``ranks`` the image ranks and
    ``norm`` ||W||.  It reads W and Q while it is refined (G and the probe
    products) and, for :meth:`adapted`, once more to form Q^T Q; every
    other method reads G and the shape alone.  So a caller that reads no
    more of W and Q sets ``image`` to ``None``, and they are released while
    the report is still read.  ``g`` is G = Q^T W U (r x n; Q, U the image
    and nest bases).  Over a partition D = sum_k Q_k G_k U_k^T = Q mask(G) U^T
    for the diagonal blocks G_k of G that the increments select; with
    orthonormal, mutually orthogonal Q_k and U_k, D has the singular values
    of the G_k (:meth:`spectrum`).  ``levels`` holds the visited partitions,
    coarsest first, ``cauchy[k]`` the Cauchy defect between levels k and
    k + 1.  ``probed[k]`` is mask_k(G) U^T F (r x p) for the probe columns
    F, so D F = Q ``probed[k]`` at level k: the one read of each level on
    the probes.  When the verdict is ``converged`` the last level's sum is
    the settled diagonal.
    """

    image: ImageNest | None
    g: np.ndarray
    levels: list[Partition]
    cauchy: list[float]
    verdict: str
    eps: float
    probed: list[np.ndarray]
    base: Nest = field(init=False)
    ranks: tuple[int, ...] = field(init=False)
    norm: float = field(init=False)

    def __post_init__(self):
        self.base, self.ranks, self.norm = self.image.base, self.image.ranks, self.image.norm

    def _blocks(self, part: Partition) -> list[tuple[slice, slice]]:
        """Row and column slices of G's diagonal blocks over a partition."""
        r, k = self.ranks, self.base.ranks
        return [(slice(r[a], r[b]), slice(k[a], k[b]))
                for a, b in zip(part.indices[:-1], part.indices[1:])]

    def _masked(self, part: Partition) -> np.ndarray:
        out = np.zeros_like(self.g)
        for block in self._blocks(part):
            out[block] = self.g[block]
        return out

    def spectrum(self, part: Partition) -> np.ndarray:
        """Singular values of G's diagonal blocks over a partition, block by
        block in partition order, each block's descending: those of the
        diagonal sum D, computed on each call.  Blocks of one shape share one
        stacked ``eigvalsh`` of their smaller Gram matrices
        (:func:`linops._gram_eigvalsh`).  A block whose smallest Gram
        eigenvalue falls below ``GRAM_FLOOR`` times its largest has values
        the Gram matrix cannot resolve against the rank cut, and takes the
        SVD instead (README)."""
        blocks = [self.g[blk] for blk in self._blocks(part)]
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, b in enumerate(blocks):
            if b.size:
                by_shape.setdefault(b.shape, []).append(i)
        values = [np.zeros(0)] * len(blocks)
        for members in by_shape.values():
            stack = (blocks[members[0]][None] if len(members) == 1
                     else np.stack([blocks[i] for i in members]))
            lams, scales = _gram_eigvalsh(stack)
            del stack
            read = lams[:, 0] >= GRAM_FLOOR * lams[:, -1]
            roots = np.sqrt(np.where(read[:, None], lams[:, ::-1], 0.0)) * np.array(scales)[:, None]
            for i, gram, sv in zip(members, read.tolist(), roots):
                values[i] = sv if gram else np.linalg.svd(blocks[i], compute_uv=False)
        return np.concatenate(values)

    def factor(self, part: Partition) -> np.ndarray:
        """U^T D^T W U = mask(G)^T G over a partition (Q^T W = G U^T), block
        row by block row: for W = sqrt(C), the factor V in nest coordinates."""
        out = np.zeros((self.g.shape[1],) * 2)
        for rows, cols in self._blocks(part):
            out[cols] = self.g[rows, cols].T @ self.g[rows]
        return out

    @cached_property
    def _qq(self) -> np.ndarray:
        """Q^T Q, formed on first use and held for every level."""
        return self.image.basis.T @ self.image.basis

    def adapted(self, part: Partition) -> np.ndarray:
        """D in adapted coordinates, Q^T D U = (Q^T Q) mask(G), r x n: D has
        its range in range(Q), so this is all of D (:func:`check_intertwining`)."""
        return self._qq @ self._masked(part)


def diagonal(
    w,
    nest: Nest,
    schedule: int = 6,
    eps: float | None = None,
    probes: np.ndarray | None = None,
    full_schedule: bool = False,
) -> DiagonalReport:
    """Refine the diagonal of W from the coarsest partition and watch the
    probe pairings settle.

    Builds the image nest of W and G = Q^T W U once, then, starting from
    {0, T}, each of up to ``schedule`` refinements inserts midpoint grid
    points.  No block spectrum is taken here (:meth:`DiagonalReport.spectrum`
    computes one on request).  Each level is read on the probe columns F
    once, as mask(G) U^T F (``DiagonalReport.probed``).  The Cauchy defect
    is max |((D' - D) f, h)| over ordered probe pairs, the largest entry of
    (P Q) (mask'(G) U^T F - mask(G) U^T F) for the probe rows P = F^T.
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
    return _refine(image_nest(w, nest), schedule, eps, probes, full_schedule)


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

    rep = DiagonalReport(img, nest._times_u(img.basis.T @ img.source), [], [],
                         EXHAUSTED, float(eps), [])
    pq, uf = probes @ img.basis, nest._ut_times(probes.T)
    first, *finer = _refinement_chain(nest, schedule)
    rep.levels.append(first)
    rep.probed.append(rep._masked(first) @ uf)
    stall = 0
    for part in finer:
        rep.levels.append(part)
        rep.probed.append(rep._masked(part) @ uf)
        defect = float(np.abs(pq @ (rep.probed[-1] - rep.probed[-2])).max())
        if rep.cauchy and defect >= rep.cauchy[-1]:
            stall += 1
        else:
            stall = 0
        rep.cauchy.append(defect)
        if not full_schedule and (defect <= eps or stall >= _STALL_LIMIT):
            break
    if rep.cauchy and rep.cauchy[-1] <= eps:
        rep.verdict = CONVERGED
    elif stall >= _STALL_LIMIT:
        rep.verdict = DIVERGED
    return rep

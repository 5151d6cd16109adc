"""Stability experiments for the canonical triangular factorization.

The central question: when a family of positive operators converges to a
limit, do the triangular factors follow?  Plain norm convergence is not
enough; the image projections must converge as well (regular convergence).
V = D^T sqrt(C) takes D over the image nest of sqrt(C), so regular
convergence of C_a is judged on the image nests of sqrt(C_a), read off the
family run's own factorizations.  This module provides

* a regular-convergence checker over a probe set,
* one family run that factors the limit and each member once and reads
  from them the weak comparison of the factors and its regular-convergence
  verdict, a four-term bound certifying each weak pairing defect at every
  refinement level, and a uniformity table across partitions and members,
* an explicit family where the operators converge in norm but the image
  projections escape, so the factors cannot follow, and
* block-diagonal channel assemblies whose factorizations reduce to the
  channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .linops import (
    _as_blocks,
    _block_diag,
    max_op_norm,
    op_norm,
)
from .nests import Nest, _summand, channel_nest, standard_nest
from .amplitude import DiagonalReport, default_probes
from .factor import (FactorizationRow, _canonical_factors, _level_row, _nest_gram,
                     canonical_factor)

__all__ = [
    "ChannelAssembly",
    "ConvergenceReport",
    "ConvergenceRow",
    "FamilyRun",
    "OperatorFamily",
    "channel_assembly",
    "channel_volterra_family",
    "counterexample_family",
    "escape_projection",
    "exp_volterra_matrix",
    "exp_volterra_operator",
    "regular_convergence_check",
    "run_family",
    "volterra_family",
]

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class OperatorFamily:
    """A parametrized family of operators with its limit.

    ``alphas`` ascend; ``member(alpha)`` builds the member at ``alpha``.  No
    member is stored: :meth:`members` builds them one at a time, in order.
    The limit and every member are matrices, or all stacks of L square
    blocks (L x m x m) standing for block-diagonal operators, which are
    factored block by block over a channel nest of L channels
    (:func:`canonical_factor`).
    """

    alphas: tuple[float, ...]
    limit: np.ndarray
    member: Callable[[float], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "limit", _as_blocks(self.limit))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.alphas:
            raise ValueError("need at least one alpha")
        if any(b <= a for a, b in zip(self.alphas[:-1], self.alphas[1:])):
            raise ValueError(f"alphas must be strictly ascending, got {self.alphas}")

    def members(self) -> Iterator[np.ndarray]:
        """The members in the order of ``alphas``, each built when drawn and
        not held here once yielded.  A member whose shape is not the
        limit's raises ``ValueError``."""
        for alpha in self.alphas:
            yield self._draw(alpha)

    def _draw(self, alpha: float) -> np.ndarray:
        m = _as_blocks(self.member(alpha))
        if m.shape != self.limit.shape:
            raise ValueError(f"member at alpha={alpha:g} has shape {m.shape}, "
                             f"not the limit's {self.limit.shape}")
        return m


@dataclass(frozen=True)
class ConvergenceRow:
    """Per-member defects.  Fields not measured by a given check are nan.

    ``term1`` .. ``term4`` bound the weak pairing defect: refinement error of
    the limit factor, refinement error of the member factor, partition-sum
    difference, and square-root difference.  ``bound_margin`` is the smallest
    slack of that bound over the probe pairs.
    """

    alpha: float
    op_defect: float
    proj_defect: float
    max_pairing: float = math.nan
    term1: float = math.nan
    term2: float = math.nan
    term3: float = math.nan
    term4: float = math.nan
    bound_margin: float = math.nan


@dataclass
class ConvergenceReport:
    """Rows and the reason the verdict failed, ``None`` on a pass."""

    rows: list[ConvergenceRow]
    failure: str | None = None

    @property
    def verdict(self) -> str:
        return PASS if self.failure is None else FAIL

    @property
    def passed(self) -> bool:
        return self.failure is None


# Grid points whose projection differences are formed at once: one
# (chunk, probes, n) array.
_DEFECT_CHUNK = 16


def _image_defect(image_a: tuple, image: tuple, f_cols: np.ndarray) -> tuple[float, int]:
    """max ||(P_a(s) - P(s)) f|| over grid points and probe columns, with
    the first grid index attaining it, for the image nests given as their
    (basis, ranks) pairs: only those two are read.

    P(s) f = Q_s (Q_s^T f) is a prefix sum over the columns of the image
    basis Q, each column entering at the grid point whose increment brings
    it.  With Q_a^T f and Q^T f taken once, the grid points are visited
    ``_DEFECT_CHUNK`` at a time: one GEMM per basis, over the columns that
    enter inside the chunk, masked by the point each column enters at,
    gives the sums at every point of the chunk, which are added to the
    difference at the last point of the previous chunk.  No projection is
    applied from scratch or formed."""
    n, p = f_cols.shape
    m = len(image[1])
    sides = []
    for (q, ranks), sign in ((image_a, 1.0), (image, -1.0)):
        ranks = np.asarray(ranks)
        enters = np.searchsorted(ranks, np.arange(ranks[-1]), side="right")
        sides.append((q, sign * (f_cols.T @ q), ranks, enters))
    acc = np.zeros((p, n))   # ((P_a(s) - P(s)) f)^T at the last point visited
    worst, worst_j = 0.0, 0
    for start in range(0, m, _DEFECT_CHUNK):
        points = np.arange(start, min(start + _DEFECT_CHUNK, m))
        sums = np.broadcast_to(acc, (points.size, p, n)).copy()
        for q, coef, ranks, enters in sides:
            lo, hi = (ranks[start - 1] if start else 0), ranks[points[-1]]
            if hi > lo:
                mask = enters[lo:hi] <= points[:, None]
                slots = mask[:, None, :] * coef[:, lo:hi]
                sums += (slots.reshape(-1, hi - lo) @ q[:, lo:hi].T).reshape(sums.shape)
        acc = sums[-1].copy()   # so the chunk's sums are released with it
        vals = np.sqrt(np.einsum("kpn,kpn->kp", sums, sums)).max(axis=1)
        k = int(np.argmax(vals))
        if vals[k] > worst:
            worst, worst_j = float(vals[k]), start + k
    return worst, worst_j


def regular_convergence_check(
    alphas,
    images,
    probes: np.ndarray | None = None,
    tol: float | None = None,
) -> ConvergenceReport:
    """Check strong convergence of a family and of its image projections.

    ``images`` yields the image nest of the limit W, then each member's in
    the order of ``alphas``, and is drawn one member at a time.  Per member:
    op defect = max ||W_a f - W f|| over probes, W_a and W the image nests'
    sources, with W F taken once, and projection defect
    = max ||(P_a(s) - P(s)) f|| over grid points and probes.  The verdict
    passes when both defects at the largest alpha are at most ``tol``
    (default 0.01 * (1 + ||W||), ||W|| the limit image's norm) and both fell
    at least twofold from the smallest alpha (or started below ``tol``).  No
    alphas, or ``images`` that run out early, raise ``ValueError``, the
    latter naming both counts.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("need at least one alpha")
    images = iter(images)

    def short(got: int) -> ValueError:
        return ValueError(f"{len(alphas)} alphas need {len(alphas) + 1} image nests "
                          f"(the limit's first), got {got}")

    limit_img = next(images, None)
    if limit_img is None:
        raise short(0)
    if probes is None:
        probes = default_probes(limit_img.dim)
    if tol is None:
        tol = 0.01 * (1.0 + limit_img.norm)
    f_cols = probes.T
    wf = limit_img.source @ f_cols
    grid = limit_img.base.grid
    limit = limit_img.basis, limit_img.ranks
    rows = []
    for alpha in alphas:
        img = next(images, None)
        if img is None:
            raise short(len(rows) + 1)
        proj_defect, worst_j = _image_defect((img.basis, img.ranks), limit, f_cols)
        op_defect = float(np.linalg.norm(img.source @ f_cols - wf, axis=0).max())
        rows.append(ConvergenceRow(alpha, op_defect, proj_defect))
        del img  # release it before the next image nest is built
    return ConvergenceReport(rows, _regular_failure(rows, tol, float(grid[worst_j])))


def _regular_failure(rows: list[ConvergenceRow], tol: float, worst_s: float) -> str | None:
    """Why ``rows`` fail the verdict of :func:`regular_convergence_check`,
    ``None`` on a pass; ``worst_s`` is the last projection defect's point."""

    def decreased(first: float, last: float) -> bool:
        return first >= 2.0 * last or first <= tol

    last = rows[-1]
    if last.op_defect > tol:
        return (
            f"operator defect {last.op_defect:.3e} at alpha={last.alpha:g} "
            f"exceeds tol {tol:.3e}"
        )
    if last.proj_defect > tol:
        return (
            f"projection defect {last.proj_defect:.3e} at alpha={last.alpha:g}, "
            f"s={worst_s:g} exceeds tol {tol:.3e}"
        )
    if not decreased(rows[0].op_defect, last.op_defect):
        return "operator defect did not decrease twofold across the family"
    if not decreased(rows[0].proj_defect, last.proj_defect):
        return "projection defect did not decrease twofold across the family"
    return None


class FamilyRun(NamedTuple):
    """Outcome of :func:`run_family`."""

    harness: ConvergenceReport  # mid-level rows and the pairing verdict
    regular: ConvergenceReport  # the same rows, regular-convergence verdict
    sweep: list[tuple]          # four-term rows, grouped by level
    uniformity: np.ndarray      # Cauchy defects, one row per member


def _probed(rep: DiagonalReport, f_cols: np.ndarray) -> tuple:
    """sqrt(C) F and D_lvl F = Q mask(G) U^T F at every level of the
    factorization ``rep``, read off the products its refinement kept."""
    q = rep.image.basis
    return rep.image.source @ f_cols, [q @ m for m in rep.probed]


def _gap_rows(alpha: float, ranges: list[float], lim: tuple, mem: tuple) -> list[tuple]:
    """The four terms bounding |((V - V_a) f, g)|, split at every level.

    With D the deepest diagonal and D_lvl the sum at the level's partition,

        t1 = |(sqrt(C) f,       (D - D_lvl) g)|          for C,
        t2 = |(sqrt(C_a) f,     (D_a - D_lvl_a) g)|      for C_a,
        t3 = |(sqrt(C) f,       (D_lvl - D_lvl_a) g)|,
        t4 = |((sqrt(C) - sqrt(C_a)) f,  D_lvl_a g)|.

    ``lim`` and ``mem`` hold the probe products of C and C_a: sqrt(C) F and
    D_lvl F = Q ``rep.probed[k]`` at every level, deepest last
    (:func:`_probed`).  V = D^T sqrt(C), so the pairing
    ((V - V_a) f, g) is (sqrt(C) f, D g) - (sqrt(C_a) f, D_a g), and t4
    reads (sqrt(C) - sqrt(C_a)) F as the difference of the two products.
    ``ranges`` holds the levels' partition ranges.
    One row per level: (range, alpha, max pairing defect, t1..t4 read at
    the probe pair attaining that defect, worst slack of the bound over all
    probe pairs).
    """
    (sqf, dfs), (sqf_a, dfs_a) = lim, mem
    df, df_a = dfs[-1], dfs_a[-1]
    dsqf = sqf - sqf_a
    pair0 = np.abs(df.T @ sqf - df_a.T @ sqf_a)
    gi, fi = np.unravel_index(np.argmax(pair0), pair0.shape)
    rows = []
    for part_range, df_lvl, df_lvl_a in zip(ranges, dfs, dfs_a):
        m1 = np.abs((df - df_lvl).T @ sqf)
        m2 = np.abs((df_a - df_lvl_a).T @ sqf_a)
        m3 = np.abs((df_lvl - df_lvl_a).T @ sqf)
        m4 = np.abs(df_lvl_a.T @ dsqf)
        bound = m1 + m2 + m3 + m4
        rows.append((
            part_range,
            alpha,
            float(pair0.max()),
            float(m1[gi, fi]),
            float(m2[gi, fi]),
            float(m3[gi, fi]),
            float(m4[gi, fi]),
            float((bound - pair0).min()),
        ))
    return rows


def run_family(
    fam: OperatorFamily,
    nest: Nest,
    schedule: int = 6,
    eps: float | None = None,
    probes: np.ndarray | None = None,
) -> FamilyRun:
    """Factor the limit and every member once, and compare the factors weakly.

    All runs share the refinement schedule (no early stopping), so partition
    depths line up and the deepest partial sum of each run stands in for its
    diagonal limit.  Members are built and factored one at a time
    (:meth:`OperatorFamily.members`); from each one the run reads

    * its sweep rows: per refinement level, the max weak pairing defect
      max |((V - V_a) f, g)| over probe pairs, the four bounding terms split
      at that level and the worst slack of the bound (``sweep``, grouped by
      level, members ascending within each level);
    * its uniformity row: the Cauchy defects of its diagonal across
      refinements, zero past the finest partition.  The headline statistic
      is the column-wise sup over members; no pass threshold is attached;
    * its strong defects, as :func:`regular_convergence_check` reads them
      on the square roots: the op defect max ||(sqrt(C_a) - sqrt(C)) f||
      off the probe products sqrt(C_a) F and sqrt(C) F the sweep reads,
      and, once the member's G and probe products are released, the
      projection defect off its image nest and the limit's.

    A row holds the member's strong defects and its mid-schedule sweep
    terms (the bound holds for any partition; mid-schedule keeps the
    refinement terms visible).  The harness verdict passes when the pairing
    defect at the largest alpha is at most ``eps`` (default
    1e-3 * (1 + ||C||)) and decreases along the family; ``regular`` carries
    the same rows with the check's regular-convergence verdict, at tol
    ``eps``, or 1e-2 * (1 + ||C||) when ``eps`` is not given.  ||C|| is
    read as ||sqrt(C)||^2 off the limit's image nest.  No per-level factor
    diagnostic is measured.  A family of stacks of blocks over a channel
    nest is factored block by block (:func:`canonical_factor`); every
    comparison reads the assembled reports, as for matrices.
    """
    if probes is None:
        probes = default_probes(nest.dim)
    f_cols = probes.T
    lim = canonical_factor(fam.limit, nest, schedule, probes=probes, full_schedule=True)
    lim_probed = _probed(lim, f_cols)
    ranges = [part.range for part in lim.levels]
    limit, norm = (lim.image.basis, lim.ranks), lim.norm  # the member loop reads Q and ranks
    del lim  # release its sqrt(C) and G
    if eps is None:
        norm = norm ** 2   # ||C|| = ||sqrt(C)||^2
        eps, tol = 1e-3 * (1.0 + norm), 1e-2 * (1.0 + norm)
    else:
        tol = eps
    mid = len(ranges) // 2
    rows = []
    sweep: list[list[tuple]] = [[] for _ in ranges]
    uniformity = np.zeros((len(fam.alphas), schedule))
    reports = _canonical_factors(fam.members(), nest, schedule, probes)
    for i, alpha in enumerate(fam.alphas):
        rep = next(reports)   # not zip: its reused result tuple would hold the report
        uniformity[i, :len(rep.cauchy)] = rep.cauchy
        mem_probed = _probed(rep, f_cols)
        member_rows = _gap_rows(alpha, ranges, lim_probed, mem_probed)
        for level, row in enumerate(member_rows):
            sweep[level].append(row)
        op_defect = float(np.linalg.norm(mem_probed[0] - lim_probed[0], axis=0).max())
        img = rep.image
        del rep, mem_probed  # release its G and probe products before the projections
        proj_defect, worst_j = _image_defect((img.basis, img.ranks), limit, f_cols)
        del img  # hold no member's image nest while the next member is refined
        rows.append(ConvergenceRow(alpha, op_defect, proj_defect, *member_rows[mid][2:]))
    failure = None
    last = rows[-1]
    if last.max_pairing > eps:
        failure = (
            f"pairing defect {last.max_pairing:.3e} at alpha={last.alpha:g} "
            f"exceeds eps {eps:.3e}"
        )
    else:
        for prev, cur in zip(rows[:-1], rows[1:]):
            if cur.max_pairing >= prev.max_pairing and cur.max_pairing > eps:
                failure = (
                    f"pairing defect did not decrease from alpha={prev.alpha:g} "
                    f"to alpha={cur.alpha:g}"
                )
                break
    regular = _regular_failure(rows, tol, float(nest.grid[worst_j]))
    return FamilyRun(ConvergenceReport(rows, failure), ConvergenceReport(rows, regular),
                     [row for level in sweep for row in level], uniformity)


def _escape_index(n: int, trunc: int) -> int:
    """The index of phi_n in the ``trunc``-dimensional truncation; a member
    index below 2, or one the truncation cannot hold, raises ``ValueError``."""
    if n < 2:
        raise ValueError(f"member index must be at least 2, got {n}")
    if trunc < n + 1:
        raise ValueError(f"truncation {trunc} too small for member index {n}")
    return n - 1


def _escape_member(n: int, trunc: int) -> np.ndarray:
    """The member W_n of :func:`counterexample_family`."""
    i1 = _escape_index(n, trunc)
    w_n = np.diag(1.0 / np.arange(1, trunc + 1, dtype=float))
    w_n[0, 0] = 1.0
    w_n[i1, 0] = 1.0 / n
    w_n[0, i1] = 1.0 / n
    w_n[i1, i1] = 2.0 / n**2
    return w_n


def escape_projection(n: int, trunc: int) -> np.ndarray:
    """The closed form of P_n, the projection onto W_n M for the member W_n
    of :func:`counterexample_family`: I - psi psi^T / ||psi||^2 with
    psi = phi_1 - (n/2) phi_n."""
    i1 = _escape_index(n, trunc)
    psi = np.zeros(trunc)
    psi[0], psi[i1] = 1.0, -n / 2.0
    psi /= np.linalg.norm(psi)
    return np.eye(trunc) - np.outer(psi, psi)


def counterexample_family(
    n_values=(2, 4, 8, 16, 32), trunc: int = 64
) -> tuple[OperatorFamily, Nest]:
    """Operators converging in norm whose image projections do not follow,
    over the three-step nest {0, M, full}, M the span of basis vectors
    2..N.  Its adapted basis is the coordinate permutation listing vectors
    2..N, then vector 1.

    In the ``trunc``-dimensional truncation, the limit W sends basis vector
    phi_k to (1/k) phi_k.  The member W_n agrees except on span{phi_1,
    phi_n}:

        W_n phi_1 = phi_1 + (1/n) phi_n
        W_n phi_n = (1/n) phi_1 + (2/n^2) phi_n

    Then ||W_n - W|| <= 2/n, while the projection P onto closure(W M) is
    I - phi_1 phi_1^T and the projection P_n onto W_n M is
    :func:`escape_projection`, so ||(P_n - P) phi_1||^2 = 1 - 1/(1 + n^2/4)
    tends to one.  A drawn member is W_n alone.
    """
    fam = OperatorFamily(
        alphas=tuple(float(int(n)) for n in n_values),
        limit=np.diag(1.0 / np.arange(1, trunc + 1, dtype=float)),
        member=lambda alpha: _escape_member(int(alpha), trunc),
    )
    basis = np.eye(trunc)[:, [*range(1, trunc), 0]]
    return fam, Nest(np.array([0.0, 0.5, 1.0]), basis, (0, trunc - 1, trunc))


@dataclass
class ChannelAssembly:
    """Block-diagonal assembly of per-channel factorizations.

    ``rows`` holds the deepest level's :func:`factor.factor_defects` of each
    block over the nest the blocks share, then of the assembled operator
    over the channel nest.  ``assembly_defect`` measures ||V_global -
    blockdiag(V_l)|| at those levels; the channel projections commute with
    the assembled nest and operator up to ``commutation_defect`` (see
    :func:`_commutation_defect`).  Each block's least eigenvalue is listed.
    """

    rows: list[FactorizationRow]
    assembly_defect: float
    commutation_defect: float
    channel_min_eigenvalues: list[float]


def _commutation_defect(c: np.ndarray, nest: Nest, channels: int) -> float:
    """max over channels of ||F C - C F|| and max_s ||F X_s - X_s F||, F the
    coordinate projection onto the channel's rows (``channels`` equal runs
    of rows), read off index masks:
    the first is the norm of C's off-diagonal blocks C[rows, ~rows] and
    C[~rows, rows], the second is ||(I - X_s) F X_s||, the block
    (U^T F U)[k_s:, :k_s] with U^T F U = U[rows]^T U[rows].
    On a coordinate nest, U = I[:, perm] (:attr:`Nest._perm`), U^T F U is
    the diagonal of the channel's mask read at perm, so no product is
    formed and no block is scanned."""
    labels = np.arange(c.shape[0]) // (c.shape[0] // channels)
    worst = 0.0
    for channel in range(channels):
        rows = labels == channel
        worst = max(worst, op_norm(c[rows][:, ~rows]), op_norm(c[~rows][:, rows]))
        if nest._perm is not None:
            continue
        fu = nest.basis[rows]
        fx = fu.T @ fu
        worst = max(worst, max_op_norm(fx[k:, :k] for k in nest.ranks))
    return worst


def _assembly_defect(a: np.ndarray, channel_factors, nest: Nest) -> float:
    """||V - blockdiag(V_l)|| in nest coordinates, from A = U^T V U over the
    channel nest ``nest`` (overwritten) and each channel's A_l = U_l^T V_l U_l:
    blockdiag(V_l) is A_l at the columns of U supported on block l."""
    start = 0
    for a_l in channel_factors:
        k = len(a_l)
        cols = np.flatnonzero(nest.basis[start:start + k].any(axis=0))
        a[np.ix_(cols, cols)] -= a_l
        start += k
    return op_norm(a)


def channel_assembly(blocks, cnest: Nest, schedule: int = 6) -> ChannelAssembly:
    """Factor a block-diagonal PSD operator, given as a stack of L blocks
    (L x m x m) over ``cnest = channel_nest(nest, L)``, both ways: each
    block on its own over ``nest``, and the assembled matrix over ``cnest``.
    All runs spend the full refinement schedule, so their levels line up.
    The channels are factored as one family (:func:`factor._canonical_factors`),
    so their image nests are swept in the lockstep batches of
    :func:`amplitude._image_nests`.  Each deepest factor is formed once, for
    its row and the assembly defect.  A ``cnest`` not built by
    :func:`channel_nest` with L channels raises ``ValueError``.
    """
    blocks = _as_blocks(blocks)
    channels = len(blocks)
    rows = []

    def deepest(c: np.ndarray, rep: DiagonalReport) -> np.ndarray:
        """A = ``rep.factor`` at the deepest level, its row appended to ``rows``."""
        part = rep.levels[-1]
        a = rep.factor(part)
        rows.append(_level_row(a, _nest_gram(c, rep.base), rep, part, None))
        return a

    reports = _canonical_factors(blocks, _summand(cnest, channels), schedule, None)
    factors = [deepest(b, rep) for b, rep in zip(blocks, reports, strict=True)]
    c = _block_diag(*blocks)
    a = deepest(c, canonical_factor(c, cnest, schedule, full_schedule=True))
    # the spectrum of the assembled C is the union of the blocks' spectra
    mins = [float(e) for e in np.linalg.eigvalsh(blocks)[:, 0]]
    return ChannelAssembly(rows, _assembly_defect(a, factors, cnest),
                           _commutation_defect(c, cnest, channels), mins)


def exp_volterra_matrix(kappa: float, n: int) -> np.ndarray:
    """Upper triangular I + L, invertible with unit diagonal, with L the
    midpoint embedding h * kappa * exp(tau - t) on tau > t of the smooth
    anticausal kernel, cell width h = 1 / n.  Coordinates carry the sqrt(h)
    scaling of sampled functions, so L acts as the integral operator and
    L^T is its adjoint."""
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got {n}")
    if not abs(kappa) < 1.0:
        raise ValueError(f"kernel weight must satisfy |kappa| < 1, got {kappa}")
    t = (np.arange(n) + 0.5) * (1.0 / n)
    t, tau = t[:, None], t[None, :]
    return np.eye(n) + (1.0 / n) * np.where(tau > t, kappa * np.exp(tau - t), 0.0)


def exp_volterra_operator(kappa: float, n: int) -> np.ndarray:
    """Positive definite test operator C = (I + L)^T (I + L)."""
    m = exp_volterra_matrix(kappa, n)
    return m.T @ m


def volterra_family(kappa: float, alphas, n: int) -> OperatorFamily:
    """Norm-convergent family C_a built from kernel weights
    kappa * (1 - 1/alpha) increasing toward kappa."""
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kernel weight must lie in (0, 1), got {kappa}")
    return OperatorFamily(
        alphas=alphas,
        limit=exp_volterra_operator(kappa, n),
        member=lambda alpha: exp_volterra_operator(kappa * (1.0 - 1.0 / alpha), n),
    )


def channel_volterra_family(
    kappa: float,
    alphas,
    n_per_channel: int,
    channels: int,
) -> tuple[OperatorFamily, Nest]:
    """Channel family: block l carries the scaled operator (1/l) C_a, so the
    global minimum eigenvalue decays like 1/channels while every channel
    factors with its own lower bound.  The limit and the members are
    stacks of their ``channels`` blocks, over the returned channel nest,
    so a family run factors them block by block."""
    if channels < 1:
        raise ValueError(f"need at least one channel, got {channels}")
    base = volterra_family(kappa, alphas, n_per_channel)
    scales = 1.0 / np.arange(1, channels + 1, dtype=float)[:, None, None]
    return (OperatorFamily(base.alphas, scales * base.limit,
                           lambda alpha: scales * base.member(alpha)),
            channel_nest(standard_nest(n_per_channel), channels))

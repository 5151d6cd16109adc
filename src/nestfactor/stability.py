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
* the Gram-block projection formula available for positive definite
  operators: one Cholesky factorization of U^T C U yields the image
  projections at every grid point, cross-checkable against the SVD route
  of :func:`amplitude.image_nest`,
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
    as_operator,
    grid_embed,
    max_op_norm,
    op_norm,
    require_symmetric,
)
from .nests import Nest, channel_nest, standard_nest
from .amplitude import DiagonalReport, ImageNest, default_probes
from .factor import _canonical_factors, canonical_factor

__all__ = [
    "ChannelAssembly",
    "ConvergenceReport",
    "ConvergenceRow",
    "CounterexampleInstance",
    "FamilyRun",
    "OperatorFamily",
    "SingularGramError",
    "anticausal_exp_kernel",
    "channel_assembly",
    "channel_volterra_family",
    "counterexample_family",
    "counterexample_instance",
    "exp_volterra_matrix",
    "exp_volterra_operator",
    "posdef_projection",
    "regular_convergence_check",
    "run_family",
    "volterra_family",
]

PASS = "pass"
FAIL = "fail"


class SingularGramError(ValueError):
    """The Gram matrix U^T C U of the operator on the nest basis cannot be
    inverted.  Carries its condition number (inf when it is singular)."""

    def __init__(self, cond: float):
        self.cond = float(cond)
        super().__init__(
            f"Gram matrix U^T C U is numerically singular "
            f"(condition number {self.cond:.3e})"
        )


@dataclass(frozen=True)
class OperatorFamily:
    """A parametrized family of operators with its limit.

    ``alphas`` ascend; ``member(alpha)`` builds the member at ``alpha``.  No
    member is stored: :meth:`members` builds them one at a time, in order.
    """

    alphas: tuple[float, ...]
    limit: np.ndarray
    member: Callable[[float], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "limit", as_operator(self.limit))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.alphas:
            raise ValueError("need at least one alpha")
        if any(b <= a for a, b in zip(self.alphas[:-1], self.alphas[1:])):
            raise ValueError(f"alphas must be strictly ascending, got {self.alphas}")

    @property
    def dim(self) -> int:
        return self.limit.shape[0]

    def members(self) -> Iterator[np.ndarray]:
        """The members in the order of ``alphas``, each built when drawn and
        not held here once yielded.  A member whose dimension is not the
        limit's raises ``ValueError``."""
        for alpha in self.alphas:
            yield self._draw(alpha)

    def _draw(self, alpha: float) -> np.ndarray:
        m = as_operator(self.member(alpha))
        if m.shape[0] != self.dim:
            raise ValueError(f"member at alpha={alpha:g} is not of the limit's dimension")
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
    rows: list[ConvergenceRow]
    verdict: str
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def _strong_defect(delta: np.ndarray, f_cols: np.ndarray) -> float:
    """max ||delta f|| over probe columns."""
    return float(np.linalg.norm(delta @ f_cols, axis=0).max())


# Grid points whose projection differences are formed at once: one
# (chunk, probes, n) array.
_DEFECT_CHUNK = 16


def _image_defect(img_a: ImageNest, img: ImageNest, f_cols: np.ndarray) -> tuple[float, int]:
    """max ||(P_a(s) - P(s)) f|| over grid points and probe columns, with
    the first grid index attaining it.

    P(s) f = Q_s (Q_s^T f) is a prefix sum over the columns of the image
    basis Q, each column entering at the grid point whose increment brings
    it.  With Q_a^T f and Q^T f taken once, the grid points are visited
    ``_DEFECT_CHUNK`` at a time: one GEMM per basis, over the columns that
    enter inside the chunk, masked by the point each column enters at,
    gives the sums at every point of the chunk, which are added to the
    difference at the last point of the previous chunk.  No projection is
    applied from scratch or formed."""
    n, p = f_cols.shape
    m = len(img.ranks)
    sides = []
    for im, sign in ((img_a, 1.0), (img, -1.0)):
        ranks = np.asarray(im.ranks)
        enters = np.searchsorted(ranks, np.arange(ranks[-1]), side="right")
        sides.append((im.basis, sign * (f_cols.T @ im.basis), ranks, enters))
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
    op defect = max ||(W_a - W) f|| over probes, W_a and W the image nests'
    sources, and projection defect = max ||(P_a(s) - P(s)) f|| over grid
    points and probes.  The verdict passes when both defects at the largest
    alpha are at most ``tol`` (default 0.01 * (1 + ||W||), ||W|| the limit
    image's norm) and both fell at least twofold from the smallest alpha (or
    started below ``tol``).  ``images`` that run out early raise
    ``ValueError`` naming both counts.
    """
    alphas = tuple(alphas)
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
    grid = limit_img.base.grid
    rows = []
    for alpha in alphas:
        img = next(images, None)
        if img is None:
            raise short(len(rows) + 1)
        proj_defect, worst_j = _image_defect(img, limit_img, f_cols)
        op_defect = _strong_defect(img.source - limit_img.source, f_cols)
        rows.append(ConvergenceRow(alpha, op_defect, proj_defect))
        worst_s = float(grid[worst_j])
        del img  # release it before the next image nest is built

    def decreased(first: float, last: float) -> bool:
        return first >= 2.0 * last or first <= tol

    last = rows[-1]
    failure = None
    if last.op_defect > tol:
        failure = (
            f"operator defect {last.op_defect:.3e} at alpha={last.alpha:g} "
            f"exceeds tol {tol:.3e}"
        )
    elif last.proj_defect > tol:
        failure = (
            f"projection defect {last.proj_defect:.3e} at alpha={last.alpha:g}, "
            f"s={worst_s:g} exceeds tol {tol:.3e}"
        )
    elif not decreased(rows[0].op_defect, last.op_defect):
        failure = "operator defect did not decrease twofold across the family"
    elif not decreased(rows[0].proj_defect, last.proj_defect):
        failure = "projection defect did not decrease twofold across the family"
    return ConvergenceReport(rows, PASS if failure is None else FAIL, failure)


class FamilyRun(NamedTuple):
    """Outcome of :func:`run_family`."""

    harness: ConvergenceReport  # mid-level rows and the pairing verdict
    regular: ConvergenceReport  # the same rows, regular-convergence verdict
    sweep: list[tuple]          # four-term rows, grouped by level
    uniformity: np.ndarray      # Cauchy defects, one row per member


class _Probed(NamedTuple):
    """One factorization read on the probe columns f: sqrt(C) f, D_lvl f at
    every level (deepest last) and V f = D^T sqrt(C) f at the deepest."""

    sqf: np.ndarray
    df: list[np.ndarray]
    vf: np.ndarray


def _probed(rep: DiagonalReport, f_cols: np.ndarray) -> _Probed:
    """The products of the factorization ``rep`` (the diagonal report of
    sqrt(C)) that :func:`_gap_rows` reads, through G's masks without forming
    D: D_lvl f = Q mask(G) (U^T f) and V f = U mask(G)^T (Q^T sqrt(C) f)."""
    q, u = rep.image.basis, rep.image.base.basis
    sqf = rep.image.source @ f_cols
    uf = u.T @ f_cols
    df = []
    for part in rep.levels:
        masked = rep._masked(part)
        df.append(q @ (masked @ uf))
    return _Probed(sqf, df, u @ (masked.T @ (q.T @ sqf)))


def _gap_rows(alpha: float, ranges: list[float], lim: _Probed, mem: _Probed,
              dsqf: np.ndarray, f_cols: np.ndarray) -> list[tuple]:
    """The four terms bounding |((V - V_a) f, g)|, split at every level.

    With D the deepest diagonal and D_lvl the sum at the level's partition,

        t1 = |(sqrt(C) f,       (D - D_lvl) g)|          for C,
        t2 = |(sqrt(C_a) f,     (D_a - D_lvl_a) g)|      for C_a,
        t3 = |(sqrt(C) f,       (D_lvl - D_lvl_a) g)|,
        t4 = |((sqrt(C) - sqrt(C_a)) f,  D_lvl_a g)|.

    ``lim`` and ``mem`` hold the probe products of C and C_a, ``dsqf`` is
    (sqrt(C) - sqrt(C_a)) f and ``ranges`` the levels' partition ranges.
    One row per level: (range, alpha, max pairing defect, t1..t4 read at
    the probe pair attaining that defect, worst slack of the bound over all
    probe pairs).
    """
    pair0 = np.abs(f_cols.T @ (lim.vf - mem.vf))
    gi, fi = np.unravel_index(np.argmax(pair0), pair0.shape)
    df, df_a = lim.df[-1], mem.df[-1]
    rows = []
    for part_range, df_lvl, df_lvl_a in zip(ranges, lim.df, mem.df):
        m1 = np.abs((df - df_lvl).T @ lim.sqf)
        m2 = np.abs((df_a - df_lvl_a).T @ mem.sqf)
        m3 = np.abs((df_lvl - df_lvl_a).T @ lim.sqf)
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
    * its image nest, which :func:`regular_convergence_check` draws after
      the limit's to give the strong defects of the square roots and of
      their image projections, and the regular-convergence verdict, with
      tol ``eps``, or 1e-2 * (1 + ||C||) when ``eps`` is not given.

    A harness row is the check's row plus the member's mid-schedule sweep
    terms (the bound holds for any partition; mid-schedule keeps the
    refinement terms visible).  The harness verdict passes when the pairing
    defect at the largest alpha is at most ``eps`` (default
    1e-3 * (1 + ||C||)) and decreases along the family; ``regular`` carries
    the same rows with the check's verdict.  ||C|| is read as
    ||sqrt(C)||^2 off the limit's image nest.  No per-level factor
    diagnostic is measured.
    """
    if probes is None:
        probes = default_probes(nest.dim)
    f_cols = probes.T
    lim = canonical_factor(fam.limit, nest, schedule, probes=probes, full_schedule=True)
    lim_probed = _probed(lim, f_cols)
    ranges = [part.range for part in lim.levels]
    lim_img = lim.image
    del lim  # its G is read only by the probe products
    if eps is None:
        norm = lim_img.norm ** 2   # ||C|| = ||sqrt(C)||^2
        eps, tol = 1e-3 * (1.0 + norm), 1e-2 * (1.0 + norm)
    else:
        tol = eps
    levels = len(ranges)
    mid = levels // 2
    terms = []
    sweep: list[list[tuple]] = [[] for _ in range(levels)]
    uniformity = np.zeros((len(fam.alphas), schedule))

    def images():
        """The limit's image nest, then each member's, its sweep and
        uniformity rows read before its report is released."""
        yield lim_img
        reports = _canonical_factors(fam.members(), nest, schedule, probes)
        for i, alpha in enumerate(fam.alphas):
            rep = next(reports)
            uniformity[i, :len(rep.cauchy)] = rep.cauchy
            dsqf = (lim_img.source - rep.image.source) @ f_cols
            member_rows = _gap_rows(alpha, ranges, lim_probed, _probed(rep, f_cols), dsqf,
                                    f_cols)
            for level, row in enumerate(member_rows):
                sweep[level].append(row)
            terms.append(member_rows[mid][2:])
            img = rep.image
            del rep  # its G is read only by the probe products
            yield img
            del img  # hold at most the limit's and one member's image nest

    regular = regular_convergence_check(fam.alphas, images(), probes, tol)
    rows = [ConvergenceRow(r.alpha, r.op_defect, r.proj_defect, *t)
            for r, t in zip(regular.rows, terms)]
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
    harness = ConvergenceReport(rows, PASS if failure is None else FAIL, failure)
    return FamilyRun(harness, ConvergenceReport(rows, regular.verdict, regular.failure),
                     [row for level in sweep for row in level], uniformity)


GRAM_COND_LIMIT = 1e12   # largest condition number of U^T C U in posdef_projection


def posdef_projection(c, nest: Nest, sqrt_c: np.ndarray) -> Nest:
    """Image nest of sqrt(C) for a positive definite C, from one Cholesky
    factorization of the Gram matrix G = U^T C U of the nest basis U.

    Every Gram block U_s^T C U_s is a leading block of G, so G = R^T R gives
    all of them at once, and the image projection at each grid point,

        P_s = sqrt(C) U_s (U_s^T C U_s)^{-1} U_s^T sqrt(C) = Y_s Y_s^T,

    is read off Y = sqrt(C) U R^{-1}, the Q factor of sqrt(C) U, with
    ``sqrt_c`` the caller's sqrt(C) (:func:`psd_sqrt`).  The
    returned nest shares the grid and ranks of ``nest`` and has basis Y, so
    its ``x(j)`` is P_j.  A G that is singular or conditioned worse than
    ``GRAM_COND_LIMIT`` raises :class:`SingularGramError` with its condition
    number.  By Cauchy interlacing no leading block is conditioned worse
    than G, so that one gate covers every grid point.
    """
    c = as_operator(c)
    require_symmetric(c)
    u = nest.basis
    gram = u.T @ c @ u
    gram = 0.5 * (gram + gram.T)
    evals = np.linalg.eigvalsh(gram)
    if evals[0] <= 0.0 or evals[-1] > GRAM_COND_LIMIT * evals[0]:
        cond = math.inf if evals[0] <= 0.0 else float(evals[-1] / evals[0])
        raise SingularGramError(cond)
    r = np.linalg.cholesky(gram, upper=True)
    return Nest(nest.grid, _right_solve_upper(sqrt_c @ u, r), nest.ranks)


def _right_solve_upper(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Y = B R^{-1} for an upper triangular R, by column substitution:
    column j of Y R = B reads B_j = Y_{<j} R_{<j, j} + Y_j R_jj."""
    y = np.empty_like(b)
    for j in range(r.shape[0]):
        y[:, j] = (b[:, j] - y[:, :j] @ r[:j, j]) / r[j, j]
    return y


class CounterexampleInstance(NamedTuple):
    """One member of the projection-escape family, with its closed forms.
    M, the span of basis vectors 2..N, is the middle of the family's nest
    (:func:`counterexample_family`)."""

    w: np.ndarray       # limit: the diagonal operator with entries 1/k
    w_n: np.ndarray     # perturbed member, ||W_n - W|| <= 2/n
    p: np.ndarray       # projection onto closure(W M)
    p_n: np.ndarray     # projection onto W_n M; stays far from p


def counterexample_instance(n: int, trunc: int) -> CounterexampleInstance:
    """Operators converging in norm whose image projections do not follow.

    In the ``trunc``-dimensional truncation, the limit sends basis vector
    phi_k to (1/k) phi_k.  The member W_n agrees except on span{phi_1,
    phi_n}:

        W_n phi_1 = phi_1 + (1/n) phi_n
        W_n phi_n = (1/n) phi_1 + (2/n^2) phi_n

    Then ||W_n - W|| <= 2/n, while the projection onto W_n M is
    I - psi psi^T / ||psi||^2 for psi = phi_1 - (n/2) phi_n, so
    ||(P_n - P) phi_1||^2 = 1 - 1/(1 + n^2/4) tends to one.
    """
    w_n = _escape_member(n, trunc)
    i1 = n - 1
    w = np.diag(1.0 / np.arange(1, trunc + 1, dtype=float))
    eye = np.eye(trunc)
    p = eye - np.outer(eye[0], eye[0])
    psi = eye[0] - (n / 2.0) * eye[i1]
    psi = psi / np.linalg.norm(psi)
    p_n = eye - np.outer(psi, psi)
    return CounterexampleInstance(w=w, w_n=w_n, p=p, p_n=p_n)


def _escape_member(n: int, trunc: int) -> np.ndarray:
    """The member W_n of :func:`counterexample_instance`, built alone."""
    if n < 2:
        raise ValueError(f"member index must be at least 2, got {n}")
    if trunc < n + 1:
        raise ValueError(f"truncation {trunc} too small for member index {n}")
    w_n = np.diag(1.0 / np.arange(1, trunc + 1, dtype=float))
    i1 = n - 1
    w_n[0, 0] = 1.0
    w_n[i1, 0] = 1.0 / n
    w_n[0, i1] = 1.0 / n
    w_n[i1, i1] = 2.0 / n**2
    return w_n


def counterexample_family(
    n_values=(2, 4, 8, 16, 32), trunc: int = 64
) -> tuple[OperatorFamily, Nest]:
    """The projection-escape family over the three-step nest {0, M, full},
    M the span of basis vectors 2..N.  Its adapted basis is the coordinate
    permutation listing vectors 2..N, then vector 1.  A drawn member is W_n
    alone, not the rest of its :func:`counterexample_instance`."""
    fam = OperatorFamily(
        alphas=tuple(float(int(n)) for n in n_values),
        limit=np.diag(1.0 / np.arange(1, trunc + 1, dtype=float)),
        member=lambda alpha: _escape_member(int(alpha), trunc),
    )
    basis = np.eye(trunc)[:, [*range(1, trunc), 0]]
    return fam, Nest(np.array([0.0, 0.5, 1.0]), basis, (0, trunc - 1, trunc))


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


@dataclass
class ChannelAssembly:
    """Block-diagonal assembly of per-channel factorizations.

    ``report`` factors the assembled operator over the assembled nest;
    ``channel_reports`` factor each block over the nest the blocks share
    (each the diagonal report of the square root, :func:`canonical_factor`).
    ``assembly_defect`` measures ||V_global - blockdiag(V_l)|| at the
    deepest levels; the channel projections commute with the assembled nest
    and operator up to ``commutation_defect`` (see
    :func:`_commutation_defect`).
    """

    operator: np.ndarray
    report: DiagonalReport
    channel_reports: list[DiagonalReport]
    assembly_defect: float
    commutation_defect: float
    min_eigenvalue: float
    channel_min_eigenvalues: list[float]


def _commutation_defect(c: np.ndarray, nest: Nest, channels: int) -> float:
    """max over channels of ||F C - C F|| and max_s ||F X_s - X_s F||, F the
    coordinate projection onto the channel's rows (``channels`` equal runs
    of rows), read off index masks:
    the first is the norm of C's off-diagonal blocks C[rows, ~rows] and
    C[~rows, rows], the second is ||(I - X_s) F X_s||, the block
    (U^T F U)[k_s:, :k_s] with U^T F U = U[rows]^T U[rows]."""
    labels = np.arange(c.shape[0]) // (c.shape[0] // channels)
    worst = 0.0
    for channel in range(channels):
        rows = labels == channel
        fu = nest.basis[rows]
        fx = fu.T @ fu
        worst = max(worst, op_norm(c[rows][:, ~rows]), op_norm(c[~rows][:, rows]),
                    max_op_norm(fx[k:, :k] for k in nest.ranks))
    return worst


def _assembly_defect(report: DiagonalReport, channel_reports) -> float:
    """||V - blockdiag(V_l)|| at the deepest levels in nest coordinates, where
    blockdiag(V_l) is U_l^T V_l U_l at the columns of U supported on block l."""
    a = report.factor(report.levels[-1])
    start = 0
    for rep in channel_reports:
        k = rep.image.dim
        cols = np.flatnonzero(report.image.base.basis[start:start + k].any(axis=0))
        a[np.ix_(cols, cols)] -= rep.factor(rep.levels[-1])
        start += k
    return op_norm(a)


def channel_assembly(blocks, nest: Nest, schedule: int = 6) -> ChannelAssembly:
    """Assemble PSD blocks, each an operator over ``nest``, into one
    block-diagonal operator over their channel nest and factor both ways:
    per channel and globally.  All runs spend the full refinement schedule,
    so their levels line up.  The channels are factored as one family
    (:func:`factor._canonical_factors`), so their image nests are swept in
    lockstep while a batch fits ``STACK_BYTES``.
    """
    blocks = [as_operator(b) for b in blocks]
    for b in blocks:
        if b.shape[0] != nest.dim:
            raise ValueError("channel block and nest dimensions disagree")
    channel_reports = list(_canonical_factors(blocks, nest, schedule, None))
    c = _block_diag(*blocks)
    cnest = channel_nest(nest, len(blocks))
    report = canonical_factor(c, cnest, schedule, full_schedule=True)
    return ChannelAssembly(
        operator=c,
        report=report,
        channel_reports=channel_reports,
        assembly_defect=_assembly_defect(report, channel_reports),
        commutation_defect=_commutation_defect(c, cnest, len(blocks)),
        min_eigenvalue=float(np.linalg.eigvalsh(c)[0]),
        channel_min_eigenvalues=[float(np.linalg.eigvalsh(b)[0]) for b in blocks],
    )


def anticausal_exp_kernel(kappa: float):
    """Smooth anticausal kernel kappa * exp(tau - t) supported on tau > t."""

    def kernel(t, tau):
        return np.where(tau > t, kappa * np.exp(tau - t), 0.0)

    return kernel


def exp_volterra_matrix(kappa: float, n: int) -> np.ndarray:
    """Upper triangular I + L with L the midpoint embedding of the smooth
    anticausal kernel; invertible with unit diagonal."""
    if abs(kappa) >= 1.0:
        raise ValueError(f"kernel weight must satisfy |kappa| < 1, got {kappa}")
    return np.eye(n) + grid_embed(anticausal_exp_kernel(kappa), n)


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
    factors with its own lower bound."""
    if channels < 1:
        raise ValueError(f"need at least one channel, got {channels}")
    base = volterra_family(kappa, alphas, n_per_channel)
    scales = [1.0 / l for l in range(1, channels + 1)]

    def member(alpha):
        m = base.member(alpha)
        return _block_diag(*[s * m for s in scales])

    limit = _block_diag(*[s * base.limit for s in scales])
    return (OperatorFamily(base.alphas, limit, member),
            channel_nest(standard_nest(n_per_channel), channels))

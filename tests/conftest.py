import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, cholesky

from nestfactor import (
    Nest,
    SingularGramError,
    canonical_factor,
    channel_assembly,
    channel_volterra_family,
    default_probes,
    exp_volterra_operator,
    max_op_norm,
    op_norm,
    partition,
    psd_sqrt,
    run_family,
    standard_nest,
    volterra_family,
)
from nestfactor.cli import SCHEMA
from nestfactor.linops import RANK_TOL
from nestfactor.stability import GRAM_COND_LIMIT

KAPPA = 0.3
ALPHAS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@pytest.fixture(scope="session")
def volterra128():
    """Canonical factorization of the smooth Volterra operator, n=128,
    five dyadic refinements, no early stopping."""
    c = exp_volterra_operator(KAPPA, 128)
    nest = standard_nest(128)
    return c, nest, canonical_factor(c, nest, schedule=5, full_schedule=True)


@pytest.fixture(scope="session")
def volterra128_family():
    return volterra_family(KAPPA, ALPHAS, 128), standard_nest(128)


@pytest.fixture(scope="session")
def volterra128_run(volterra128_family):
    fam, nest = volterra128_family
    return run_family(fam, nest, schedule=5)


@pytest.fixture(scope="session")
def channels8():
    """Eight Volterra channels scaled by 1/l, n=16 each, their assembly,
    and the matching perturbation family's harness."""
    base = exp_volterra_operator(KAPPA, 16)
    blocks = [base / l for l in range(1, 9)]
    asm = channel_assembly(blocks, standard_nest(16), schedule=4)
    fam, cnest = channel_volterra_family(KAPPA, ALPHAS, 16, 8)
    har = run_family(fam, cnest, schedule=4).harness
    return blocks, asm, har


def full_partition(nest):
    """The partition through every grid point of ``nest``."""
    return partition(nest, range(len(nest.grid)))


def dense_d(rep, part):
    """Dense D = Q mask(G) U^T of a diagonal report over a partition: the
    n x n diagonal sum that the library never forms."""
    return rep.image.basis @ (rep._masked(part) @ rep.image.base.basis.T)


def dense_factor(rep, part=None):
    """Dense V = D^T sqrt(C) of a factorization ``rep`` (the diagonal report
    of sqrt(C) that canonical_factor returns), at its deepest level unless a
    partition is given."""
    part = rep.levels[-1] if part is None else part
    return dense_d(rep, part).T @ rep.image.source


def cholesky_factor(c, nest, part):
    """Oracle for the factor V over a partition of a positive definite C, on
    a route that shares no code with the library's: V = U mask(R)^T R U^T
    with R = chol(U^T C U) (SciPy) and mask(R) its diagonal blocks over the
    partition.  W = R U^T is a square root of C (W^T W = C) whose image nest
    is the coordinate nest, as R is upper triangular, and V = D_W^T W does
    not depend on which square root W is taken."""
    u = nest.basis
    r = cholesky(u.T @ c @ u)
    masked = np.zeros_like(r)
    ranks = [nest.ranks[j] for j in part.indices]
    for lo, hi in zip(ranks[:-1], ranks[1:]):
        masked[lo:hi, lo:hi] = r[lo:hi, lo:hi]
    return u @ masked.T @ r @ u.T


def triangularity_defect(v, nest, indices=None):
    """Oracle for the triangularity column: max ||(I - X_s) V X_s|| over the
    selected grid points (all by default), read as the blocks
    (U^T V U)[k_s:, :k_s] of a dense V, with k_s = rank X_s."""
    u = nest.basis
    vt = u.T @ np.asarray(v, dtype=float) @ u
    sel = range(len(nest.grid)) if indices is None else indices
    return max_op_norm(vt[nest.ranks[j]:, :nest.ranks[j]] for j in sel)


def compare_to_cholesky(v, r):
    """Oracle for the Cholesky distance of a dense V: ||S V - R|| with the
    row signs S that make diag(S V) nonnegative, as sqrt(||M^T M||) for
    M = S V - R."""
    v = np.asarray(v, dtype=float)
    signs = np.where(np.diag(v) < 0.0, -1.0, 1.0)
    m = signs[:, None] * v - np.asarray(r, dtype=float)
    return math.sqrt(op_norm(m.T @ m))


def random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    c = a.T @ a
    return c + (0.05 * np.trace(c) / dim) * np.eye(dim)


def rotated_nest(rng, dim):
    """Nest X_r = Q_r Q_r^T with basis a random orthogonal Q and random
    interior ranks."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    interior = sorted(rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)),
                                 replace=False))
    ranks = [0, *map(int, interior), dim]
    return Nest(np.linspace(0.0, 1.0, len(ranks)), q, ranks)


class Projection(NamedTuple):
    """Orthogonal projection stored as a dense matrix with its rank: the
    format of the dense oracles below."""

    matrix: np.ndarray
    rank: int


def zero_projection(dim):
    return Projection(np.zeros((dim, dim)), 0)


def range_projection(w, x):
    """Dense oracle for the image nest: the orthogonal projection onto the
    column span of W @ X, from one SVD.  The numerical rank keeps singular
    values above ``RANK_TOL`` times the largest one (the image nest cuts
    relative to ||W|| instead); W @ X == 0 yields the zero projection."""
    m = np.asarray(w, dtype=float) @ x.matrix
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return zero_projection(m.shape[0])
    rank = int(np.count_nonzero(sv > RANK_TOL * sv[0]))
    p = u[:, :rank] @ u[:, :rank].T
    return Projection(0.5 * (p + p.T), rank)


def range_basis(proj):
    """Orthonormal basis of the range of a dense projection, as columns:
    the coordinate columns of a 0/1-diagonal projection, the eigenvectors of
    its ``rank`` largest eigenvalues otherwise."""
    m = proj.matrix
    diag = np.diag(m)
    if np.count_nonzero(m - np.diag(diag)) == 0 and np.isin(diag, (0.0, 1.0)).all():
        return np.eye(m.shape[0])[:, diag == 1.0]
    _, v = np.linalg.eigh(m)
    return v[:, m.shape[0] - proj.rank:]


def projection_at(nest, j):
    """X_j of a nest as a Projection, for the dense oracles."""
    return Projection(nest.x(j), nest.ranks[j])


def image_projection(img, j):
    """Dense image projection P_j = Q_j Q_j^T of an image nest."""
    q = img.basis[:, :img.ranks[j]]
    p = q @ q.T
    return 0.5 * (p + p.T)


@dataclass(frozen=True)
class NestDefects:
    """Measured nest identities of a built nest; all should vanish."""

    border_start: float     # ||X_0||
    border_end: float       # ||X_T - I||
    symmetry: float         # max_j ||X_j - X_j^T||
    idempotence: float      # max_j ||X_j^2 - X_j||
    monotonicity: float     # max_{i<j} ||X_i X_j - X_i||

    @property
    def ok(self) -> bool:
        return max(self.border_start, self.border_end, self.symmetry,
                   self.idempotence, self.monotonicity) <= 1e-10


# Full pairwise monotonicity is O(m^2) matrix products; past this grid size
# adjacent pairs are checked instead (nested ranges make them sufficient).
_PAIRWISE_LIMIT = 40


def nest_defects(nest):
    """Oracle for a built nest: the NestDefects of its matrices X_j, formed
    from its basis one or two at a time."""
    m = len(nest.ranks)
    symmetry = idempotence = monotonicity = 0.0
    prev = None
    for i in range(m):
        xi = nest.x(i)
        symmetry = max(symmetry, op_norm(xi - xi.T))
        idempotence = max(idempotence, op_norm(xi @ xi - xi))
        if m <= _PAIRWISE_LIMIT:
            for j in range(i + 1, m):
                monotonicity = max(monotonicity, op_norm(xi @ nest.x(j) - xi))
        elif prev is not None:
            monotonicity = max(monotonicity, op_norm(prev @ xi - prev))
        prev = xi
    return NestDefects(
        border_start=op_norm(nest.x(0)),
        border_end=op_norm(nest.x(m - 1) - np.eye(nest.dim)),
        symmetry=symmetry,
        idempotence=idempotence,
        monotonicity=monotonicity,
    )


def dense_intertwining(d, nest, img, part):
    """Dense oracle for check_intertwining: both commutator terms, formed as
    n x n matrices at every partition point."""
    worst = 0.0
    for j in part.indices:
        x, p = nest.x(j), image_projection(img, j)
        worst = max(worst, op_norm(d @ x - p @ d), op_norm(d.T @ p - x @ d.T))
    return worst


def dense_op_norm(a):
    """Oracle for op_norm: the largest singular value from a full SVD."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def dense_admissibility(d):
    """Dense oracle for admissibility: ||D D^T - I|| and dim - rank(D) from
    full decompositions of the n x n matrices."""
    d = np.asarray(d, dtype=float)
    defect = dense_op_norm(d @ d.T - np.eye(d.shape[0]))
    sv = np.linalg.svd(d, compute_uv=False)
    rank = int(np.count_nonzero(sv > RANK_TOL * sv[0])) if sv[0] > 0.0 else 0
    return defect, d.shape[0] - rank


def dense_cholesky_distance(v, r):
    """Dense oracle for compare_to_cholesky: ||S V - R|| by a full SVD."""
    signs = np.where(np.diag(v) < 0.0, -1.0, 1.0)
    return dense_op_norm(signs[:, None] * v - r)


def gram_projection(c, nest, j, sqrt_c=None):
    """Per-point oracle for posdef_projection: the Gram formula
    P_j = sqrt(C) U_j (U_j^T C U_j)^{-1} U_j^T sqrt(C) at grid index j, with
    its own conditioning gate on the leading block and its own Cholesky
    solve."""
    k = nest.ranks[j]
    if k == 0:
        return np.zeros((nest.dim, nest.dim))
    if sqrt_c is None:
        sqrt_c = psd_sqrt(c)
    u = nest.basis[:, :k]
    gram = u.T @ c @ u
    gram = 0.5 * (gram + gram.T)
    evals = np.linalg.eigvalsh(gram)
    if evals[0] <= 0.0 or evals[-1] > GRAM_COND_LIMIT * evals[0]:
        raise SingularGramError(math.inf if evals[0] <= 0.0 else evals[-1] / evals[0])
    p = (sqrt_c @ u) @ cho_solve(cho_factor(gram, lower=False), u.T @ sqrt_c)
    return 0.5 * (p + p.T)


def partial_diagonal(img, part):
    """Oracle for dense_d and DiagonalReport.spectrum: the diagonal
    sum D over one partition, assembled term by term as Q_k G_k U_k^T with
    G_k = Q_k^T W U_k formed per increment, and the singular values of the
    blocks G_k."""
    w, nest = img.source, img.base
    d = np.zeros_like(w)
    spectrum = []
    for a, b in zip(part.indices[:-1], part.indices[1:]):
        qk = img.basis[:, img.ranks[a]:img.ranks[b]]
        uk = nest.basis[:, nest.ranks[a]:nest.ranks[b]]
        gk = (qk.T @ w) @ uk
        d += qk @ (gk @ uk.T)
        spectrum.append(np.linalg.svd(gk, compute_uv=False))
    return d, np.concatenate(spectrum)


def pairing_defect(delta, probes):
    """Oracle for the Cauchy defect: max |(delta f, h)| over ordered probe
    pairs (f, h) of a dense difference of diagonals."""
    return float(np.abs(probes @ delta @ probes.T).max())


def channel_projections(block_dims):
    """Dense coordinate projections F_l selecting each channel block."""
    total = int(sum(block_dims))
    out = []
    offset = 0
    for d in block_dims:
        m = np.zeros((total, total))
        m[np.arange(offset, offset + d), np.arange(offset, offset + d)] = 1.0
        out.append(Projection(m, int(d)))
        offset += d
    return out


def dense_commutation_defect(c, nest, block_dims):
    """Oracle for the channel commutation defect: max over channels of
    ||F_l C - C F_l|| and ||F_l X_s - X_s F_l|| at every grid point, every
    commutator formed as an n x n matrix."""
    worst = 0.0
    for f in channel_projections(block_dims):
        f = f.matrix
        worst = max(worst, op_norm(f @ c - c @ f))
        for j in range(len(nest.grid)):
            x = nest.x(j)
            worst = max(worst, op_norm(f @ x - x @ f))
    return worst


def projection_defects(p):
    """Dense oracle of the projection laws of a Projection: idempotence
    ||P^2 - P||, symmetry ||P - P^T|| and the trace defect."""
    m = p.matrix
    return {
        "idempotence": op_norm(m @ m - m),
        "symmetry": op_norm(m - m.T),
        "trace": abs(float(np.trace(m)) - float(p.rank)),
    }


def pointwise_image_defect(img_a, img, f_cols):
    """Per-point oracle for the projection defect of the family run:
    max ||(P_a(s) - P(s)) f|| over grid points and probe columns, with the
    first grid index attaining it, each P(s) f applied from scratch through
    the leading columns of the image basis."""
    worst, worst_j = 0.0, 0
    for j in range(len(img.ranks)):
        qa, q = img_a.basis[:, :img_a.ranks[j]], img.basis[:, :img.ranks[j]]
        diff = qa @ (qa.T @ f_cols) - q @ (q.T @ f_cols)
        val = float(np.linalg.norm(diff, axis=0).max())
        if val > worst:
            worst, worst_j = val, j
    return worst, worst_j


def serialize_config(cfg):
    """Render a config as text that parses back to an equal config."""
    return "".join(f"{key} = {show(getattr(cfg, key))}\n"
                   for key, (_, show, _) in SCHEMA.items())

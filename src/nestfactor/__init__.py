"""Nest-relative operator diagonals and triangular factorization.

A nest is an increasing chain of orthogonal projections indexed by a grid on
[0, T].  For a positive operator C the package builds the partition-limit
diagonal of a chosen square root, assembles the triangular factor
V = D^T sqrt(C), and measures how all of it behaves under perturbations of C:
strong convergence of image projections, weak convergence of the factors, a
four-term bound that splits the weak gap into refinement and perturbation
parts, and an explicit family where projection stability fails.
"""

from .linops import (
    NotPositiveError,
    NotSymmetricError,
    as_operator,
    asymmetry,
    grid_embed,
    grid_points,
    max_op_norm,
    op_norm,
    psd_sqrt,
    require_symmetric,
)
from .nests import (
    Nest,
    Partition,
    channel_nest,
    coarsest_partition,
    partition,
    refine,
    standard_nest,
)
from .amplitude import (
    DiagonalReport,
    ImageNest,
    check_intertwining,
    default_probes,
    diagonal,
    image_nest,
)
from .factor import (
    FactorizationRow,
    NotPositiveDefiniteError,
    admissibility,
    canonical_factor,
    cholesky_upper,
    factor_diagnostics,
)
from .stability import (
    ChannelAssembly,
    ConvergenceReport,
    ConvergenceRow,
    CounterexampleInstance,
    FamilyRun,
    OperatorFamily,
    SingularGramError,
    anticausal_exp_kernel,
    channel_assembly,
    channel_volterra_family,
    counterexample_family,
    counterexample_instance,
    exp_volterra_matrix,
    exp_volterra_operator,
    posdef_projection,
    regular_convergence_check,
    run_family,
    volterra_family,
)
from .serialize import (
    read_matrix_csv,
    write_matrix_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelAssembly",
    "ConvergenceReport",
    "ConvergenceRow",
    "CounterexampleInstance",
    "DiagonalReport",
    "FactorizationRow",
    "FamilyRun",
    "ImageNest",
    "Nest",
    "NotPositiveDefiniteError",
    "NotPositiveError",
    "NotSymmetricError",
    "OperatorFamily",
    "Partition",
    "SingularGramError",
    "admissibility",
    "anticausal_exp_kernel",
    "as_operator",
    "asymmetry",
    "canonical_factor",
    "channel_assembly",
    "channel_nest",
    "channel_volterra_family",
    "check_intertwining",
    "cholesky_upper",
    "coarsest_partition",
    "counterexample_family",
    "counterexample_instance",
    "default_probes",
    "diagonal",
    "exp_volterra_matrix",
    "exp_volterra_operator",
    "factor_diagnostics",
    "grid_embed",
    "grid_points",
    "image_nest",
    "max_op_norm",
    "op_norm",
    "partition",
    "posdef_projection",
    "psd_sqrt",
    "read_matrix_csv",
    "refine",
    "regular_convergence_check",
    "run_family",
    "require_symmetric",
    "standard_nest",
    "volterra_family",
    "write_matrix_csv",
]

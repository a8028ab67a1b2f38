"""Finite-dimensional measurement calculus for density operators.

Spectral decomposition with explicit degeneracy handling, Born outcome
weights, the selective and aggregate projection update rules, the
degeneracy-breaking alternative, eigenvalue-repeatable generalized
channels, operational compatibility checks equivalent to commutativity,
and constrained systems (identical-particle exchange rules included).
"""

from .errors import (
    QMeasureError,
    ParseError,
    ValidationError,
    ContractError,
    BadArgument,
    NotHermitian,
    NotPositive,
    NotNormalized,
    NotOrthonormal,
    NotUnitary,
    DimMismatch,
    ZeroVector,
    WeightSum,
    BadRank,
    BadOutcomeIndex,
    BadBasis,
    SubspaceViolation,
    BadDim,
    InvalidState,
    ConstraintViolatedOnInput,
    NoConvergence,
    VerdictDisagreement,
    ImpossibleOutcome,
)
from .config import RunConfig
from .linalg import (
    DEFAULT_TOL,
    DEFAULT_CLUSTER_TOL,
    EigenSystem,
    CommutationResult,
    eig_hermitian,
    cluster_eigenvalues,
    projector_from_basis,
    commutes,
    random_unitary,
)
from .matrixio import (
    parse_matrix,
    format_matrix,
    read_matrix,
    write_matrix,
    parse_observable_text,
    read_observable_file,
)
from .states import (
    DensityOperator,
    SubensembleState,
    from_pure,
    mix,
    random_density,
    validate,
)
from .observables import (
    SpectralPair,
    Observable,
    spectral_decompose,
    observable_from_pairs,
    reconstruct,
    is_function_refinement,
)
from .channels import (
    OutcomeDistribution,
    ThetaFamily,
    born,
    lueders_select,
    lueders_aggregate,
    normalize,
    von_neumann_aggregate,
    make_theta_family,
    rotated_theta_family,
    theta_select,
    theta_aggregate,
)
from .compatibility import (
    Witness,
    ConditionResult,
    CompatReport,
    sequential_select,
    condition1_holds,
    condition2_holds,
    lemma_check,
    heisenberg_observable,
    compat_report,
    theta_condition1,
    theta_condition2,
    curated_pairs,
)
from .constraints import (
    Constraint,
    ConstraintSet,
    SatisfactionResult,
    OutcomePreservation,
    satisfies,
    measurable_under,
    preserves_constraint,
    make_exchange_constraint,
    kernel_projector,
    random_constrained_density,
)

__version__ = "0.1.0"

"""Exception taxonomy.

Three classes of failure, each mapped to a CLI exit code:

* :class:`ParseError` (exit 2) -- a file could not be read as the object it
  is supposed to contain.
* :class:`ValidationError` (exit 3) -- an input object violates a declared
  invariant or precondition.
* :class:`ContractError` (exit 4) -- an operation cannot deliver its
  postcondition even though the inputs looked valid.
"""

__all__ = [
    "QMeasureError",
    "ParseError",
    "ValidationError",
    "ContractError",
    "BadArgument",
    "NotHermitian",
    "NotPositive",
    "NotNormalized",
    "NotOrthonormal",
    "NotUnitary",
    "DimMismatch",
    "ZeroVector",
    "WeightSum",
    "BadRank",
    "BadOutcomeIndex",
    "BadBasis",
    "SubspaceViolation",
    "BadDim",
    "InvalidState",
    "ConstraintViolatedOnInput",
    "NoConvergence",
    "VerdictDisagreement",
    "ImpossibleOutcome",
]


class QMeasureError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ParseError(QMeasureError):
    """A file or text block does not parse as the expected format."""

    exit_code = 2


class ValidationError(QMeasureError):
    """An input fails a declared invariant or precondition."""

    exit_code = 3


class ContractError(QMeasureError):
    """An operation cannot meet its contract on otherwise valid inputs."""

    exit_code = 4


class BadArgument(ValidationError, ValueError):
    """An argument has the wrong shape, order or content for the call.

    Also a ValueError, so callers that catch ValueError keep working.
    """


class NotHermitian(ValidationError):
    """Matrix deviates from its adjoint beyond tolerance."""


class NotPositive(ValidationError):
    """Operator has an eigenvalue below -tol; message carries the worst one."""


class NotNormalized(ValidationError):
    """Trace differs from 1 beyond tolerance; message carries the trace."""


class NotOrthonormal(ValidationError):
    """Vector family is not orthonormal within tolerance."""


class NotUnitary(ValidationError):
    """Matrix is not unitary within tolerance."""


class DimMismatch(ValidationError):
    """Operands act on spaces of different dimension."""


class ZeroVector(ValidationError):
    """A state vector with zero norm cannot represent a pure state."""


class WeightSum(ValidationError):
    """Mixture weights are nonpositive or do not sum to 1."""


class BadRank(ValidationError):
    """Requested rank is outside 1..dim."""


class BadOutcomeIndex(ValidationError):
    """Outcome index is outside the observable's spectrum."""


class BadBasis(ValidationError):
    """Supplied basis is not orthonormal or does not fit its eigenspace."""


class SubspaceViolation(BadBasis):
    """A supplied basis has a vector with a component outside its
    eigenspace: the BadBasis that names the subspace check."""


class BadDim(ValidationError):
    """Dimension argument outside the supported range."""


class InvalidState(ValidationError):
    """State produces out-of-range measurement probabilities."""


class ConstraintViolatedOnInput(ValidationError):
    """Input state does not satisfy the constraint it is checked under."""


class NoConvergence(ContractError):
    """Iterative eigensolver failed to converge."""


class VerdictDisagreement(ContractError):
    """Decisive compatibility verdicts disagree; signals an implementation bug."""


class ImpossibleOutcome(ContractError):
    """Normalization requested for a branch of essentially zero probability."""

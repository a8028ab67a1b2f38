"""Density operators: validated mixed states, pure states, seeded random states."""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRank,
    DimMismatch,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    NotPositive,
    WeightSum,
    ZeroVector,
)
from .linalg import DEFAULT_TOL, _rng, as_matrix, dagger, freeze, max_abs

__all__ = [
    "DensityOperator",
    "SubensembleState",
    "state_matrix",
    "from_pure",
    "mix",
    "random_density",
    "validate",
]


@dataclass(frozen=True)
class DensityOperator:
    """A state of the full ensemble: positive, Hermitian, unit trace.

    Construction does not validate; use ``validate`` for untrusted input.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(np.asarray(self.matrix, dtype=complex)))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        """Tr(Z^2); 1 for pure states, 1/dim for the maximally mixed state."""
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class SubensembleState:
    """Unnormalized post-selection state; its trace is the selection weight.

    The weight is a probability, so it is floored at 0: a branch that
    carries no weight can come out a rounding error below zero.
    """

    matrix: np.ndarray
    weight: float = None  # type: ignore[assignment]  # derived from the trace

    def __post_init__(self):
        m = freeze(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "weight", max(0.0, float(np.trace(m).real)))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def state_matrix(z) -> np.ndarray:
    """Accept a DensityOperator, SubensembleState, or bare array; return the matrix."""
    if isinstance(z, (DensityOperator, SubensembleState)):
        return z.matrix
    return as_matrix(z, "state")


def from_pure(v) -> DensityOperator:
    """Rank-1 state vv*/|v|^2 from a (not necessarily normalized) vector."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    n2 = float(np.vdot(vec, vec).real)
    if n2 <= 0.0:
        raise ZeroVector("cannot build a state from the zero vector")
    return DensityOperator(np.outer(vec, vec.conj()) / n2)


def mix(pairs, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Convex combination of states; weights must be positive and sum to 1."""
    pairs = list(pairs)
    if not pairs:
        raise WeightSum("mixture needs at least one component")
    weights = [float(w) for w, _ in pairs]
    if any(w <= 0 for w in weights):
        raise WeightSum(f"weights must be positive, got {weights}")
    total = sum(weights)
    if abs(total - 1.0) > tol:
        raise WeightSum(f"weights sum to {total!r}, expected 1")
    mats = [state_matrix(z) for _, z in pairs]
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimMismatch(f"mixture components have different dimensions: {sorted(dims)}")
    out = np.zeros_like(mats[0])
    for w, m in zip(weights, mats):
        out += w * m
    return DensityOperator(out)


def random_density(dim: int, rank: int, seed) -> DensityOperator:
    """Seeded random state Z = GG*/Tr(GG*), G a dim x rank complex Gaussian.

    ``seed`` goes through ``linalg._rng``.  The generator family is
    pinned to numpy's default (PCG64) so traces reproduce across machines.
    """
    if not (1 <= rank <= dim):
        raise BadRank(f"rank must be in [1, {dim}], got {rank}")
    rng = _rng(seed)
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2.0)
    z = g @ dagger(g)
    return DensityOperator(z / np.trace(z).real)


def validate(z, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Check the three state invariants and wrap the matrix.

    Raises NotHermitian, NotPositive (with the most negative eigenvalue),
    or NotNormalized (with the trace).  Positivity is judged by the
    eigenvalue floor so the violation magnitude is part of the error.
    """
    # as_matrix also covers wrapped states, which state_matrix passes through unchecked
    m = as_matrix(state_matrix(z), "state")
    dev = max_abs(m - dagger(m))
    if dev > tol:
        raise NotHermitian(f"state deviates from its adjoint by {dev:.3e}")
    try:
        lowest = float(np.linalg.eigvalsh((m + dagger(m)) / 2.0)[0])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    if lowest < -tol:
        raise NotPositive(f"most negative eigenvalue {lowest!r}")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > tol:
        raise NotNormalized(f"trace {tr!r}, expected 1")
    return DensityOperator(m)

"""Constraint operators N with NZ = 0, and which observables respect them.

A constrained system only admits states whose density operator is
annihilated by every constraint operator.  The measurability rule says an
observable may be measured only if it commutes with every constraint;
the payoff, checked here outcome by outcome, is that measuring such an
observable can never kick a state out of the constrained subspace.

The classic instance is a pair of identical particles: the exchange
constraint (1 -+ SWAP)/2 confines states to the symmetric (bosonic) or
antisymmetric (fermionic) sector, and only exchange-symmetric observables
are measurable.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDim,
    ConstraintViolatedOnInput,
    ContractError,
    DimMismatch,
    ValidationError,
)
from .linalg import DEFAULT_TOL, _relative_commutator, _rng, as_matrix, dagger, eig_hermitian, freeze, max_abs
from .channels import lueders_select
from .observables import Observable, reconstruct
from .states import DensityOperator, random_density, state_matrix

__all__ = [
    "Constraint",
    "ConstraintSet",
    "SatisfactionResult",
    "OutcomePreservation",
    "satisfies",
    "measurable_under",
    "preserves_constraint",
    "make_exchange_constraint",
    "kernel_projector",
    "random_constrained_density",
]


@dataclass(frozen=True)
class Constraint:
    """One constraint operator; states must satisfy N Z = 0."""

    operator: np.ndarray
    label: str = "constraint"

    def __post_init__(self):
        object.__setattr__(self, "operator", freeze(as_matrix(self.operator, "constraint operator")))

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


class ConstraintSet:
    """Several constraints imposed together.

    Members must commute pairwise, judged relative to scale,
    max|[A, B]| / (max|A| max|B|); a set whose members disagree about a
    common eigenbasis is rejected outright rather than applied.
    """

    def __init__(self, members, tol: float = DEFAULT_TOL):
        members = tuple(
            m if isinstance(m, Constraint) else Constraint(m) for m in members
        )
        if not members:
            raise ValidationError("constraint set needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise DimMismatch(f"constraint dims differ: {sorted(dims)}")
        for i, a in enumerate(members):
            for j in range(i + 1, len(members)):
                residual = _relative_commutator(a.operator, members[j].operator)
                if residual > tol:
                    raise ValidationError(
                        f"constraints {a.label!r} and {members[j].label!r} do not "
                        f"commute (relative residual {residual:.3e})"
                    )
        self.members = members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim


def _operators(n) -> list:
    if isinstance(n, Constraint):
        return [n.operator]
    if isinstance(n, ConstraintSet):
        return [m.operator for m in n.members]
    if isinstance(n, (list, tuple)):
        return [m.operator for m in ConstraintSet(n).members]
    return [as_matrix(n, "constraint operator")]


class SatisfactionResult(NamedTuple):
    satisfied: bool
    residual: float


class OutcomePreservation(NamedTuple):
    outcome: int
    eigenvalue: float
    preserved: bool
    residual: float


def satisfies(z, n, tol: float = DEFAULT_TOL) -> SatisfactionResult:
    """Is N Z = 0 (for every member, if given a set)?  Residual always reported."""
    zm = state_matrix(z)
    worst = 0.0
    for op in _operators(n):
        if op.shape[0] != zm.shape[0]:
            raise DimMismatch(f"constraint dim {op.shape[0]} vs state dim {zm.shape[0]}")
        worst = max(worst, max_abs(op @ zm))
    return SatisfactionResult(worst <= tol, worst)


def measurable_under(r: Observable, n, tol: float = DEFAULT_TOL) -> bool:
    """May r be measured on the constrained system?

    True iff every projector of r commutes with every constraint N, that
    is iff V* N V is block diagonal in r's eigenbasis V, within tol max|N|.
    The full commutator, max|[R, N]| / (max|R| max|N|), is checked as
    well, and the conjunction of the two routes is returned; neither
    depends on the units of r or of N.
    """
    ops = _operators(n)
    for op in ops:
        if op.shape[0] != r.dim:
            raise DimMismatch(f"constraint dim {op.shape[0]} vs observable dim {r.dim}")
    full = reconstruct(r)
    v = r.full_basis()
    off_block = r.labels[:, None] != r.labels
    verdict = True
    for op in ops:
        op_norm = max_abs(op)
        leak = max_abs((dagger(v) @ op @ v)[off_block])
        verdict = verdict and leak <= tol * op_norm
        verdict = verdict and _relative_commutator(full, op, op_norm) <= tol
    return verdict


def preserves_constraint(r: Observable, n, z, tol: float = DEFAULT_TOL) -> list:
    """Check N Z_k' = 0 for every outcome branch of measuring r on z.

    The input state must already satisfy the constraint; measuring a
    constraint-commuting observable then provably keeps every branch in
    the constrained subspace, and this evaluates the claim instance by
    instance.
    """
    ops = _operators(n)
    status = satisfies(z, n, tol)
    if not status.satisfied:
        raise ConstraintViolatedOnInput(
            f"input state violates the constraint (residual {status.residual:.3e})"
        )
    results = []
    for k, pair in enumerate(r.pairs):
        branch = lueders_select(r, k, z)
        residual = max(max_abs(op @ branch.matrix) for op in ops)
        results.append(
            OutcomePreservation(
                outcome=k,
                eigenvalue=pair.eigenvalue,
                preserved=residual <= tol,
                residual=residual,
            )
        )
    return results


def _swap_matrix(local_dim: int) -> np.ndarray:
    dim = local_dim * local_dim
    s = np.zeros((dim, dim), dtype=complex)
    for i in range(local_dim):
        for j in range(local_dim):
            s[i * local_dim + j, j * local_dim + i] = 1.0
    return s


def make_exchange_constraint(local_dim: int, symmetric: bool) -> Constraint:
    """Exchange constraint for two identical particles of dimension local_dim.

    ``symmetric`` True returns N = (I - SWAP)/2, whose kernel is the
    symmetric sector; False returns N = (I + SWAP)/2, keeping the
    antisymmetric sector.  Both are orthogonal projectors.
    """
    if local_dim < 2:
        raise BadDim(f"local dimension must be at least 2, got {local_dim}")
    swap = _swap_matrix(local_dim)
    eye = np.eye(local_dim * local_dim, dtype=complex)
    if symmetric:
        return Constraint((eye - swap) / 2.0, label="exchange-symmetric")
    return Constraint((eye + swap) / 2.0, label="exchange-antisymmetric")


def kernel_projector(n, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the joint kernel of the constraint(s)."""
    ops = _operators(n)
    dim = ops[0].shape[0]
    # kernel of N equals kernel of N*N, which is Hermitian and positive
    gram = np.zeros((dim, dim), dtype=complex)
    for op in ops:
        gram += dagger(op) @ op
    eigsys = eig_hermitian(gram, tol)
    scale = max(1.0, float(eigsys.values[-1]))
    cols = [i for i, v in enumerate(eigsys.values) if v <= tol * scale]
    if not cols:
        return np.zeros((dim, dim), dtype=complex)
    block = eigsys.vectors[:, cols]
    return block @ dagger(block)


def random_constrained_density(n, seed, rank: int | None = None, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Seeded random state inside the constrained subspace.

    Draws a random state, compresses it into the constraint kernel and
    renormalizes; draws whose kernel component is negligibly small
    (trace below 1e-6) are rejected and redrawn.
    """
    ops = _operators(n)
    dim = ops[0].shape[0]
    kernel = kernel_projector(n, tol)
    if round(float(np.trace(kernel).real)) == 0:
        raise ValidationError("constraint admits no states (kernel is trivial)")
    rng = _rng(seed)
    for _ in range(64):
        z = random_density(dim, rank if rank is not None else dim, rng)
        compressed = kernel @ z.matrix @ kernel
        tr = float(np.trace(compressed).real)
        if tr >= 1e-6:
            return DensityOperator(compressed / tr)
    raise ContractError("could not draw a state overlapping the constraint kernel")

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

N Z = 0 does not change when N is rescaled, so each function reads its
constraint once, every member as the unit operator N^ = N / max|N|, and
judges each verdict against tol at that scale: max|N^ Z| for a state or
a branch, the singular values of N^ for the kernel, V* N^ V for
measurability.  Random constrained states are drawn inside the kernel.
``measurable_under`` keeps two routes, the block leak of V* N^ V and the
full commutator read from the same V* N^ V, and requires both: on
near-commuting pairs the leak alone admits some the commutator rejects.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadDim, ConstraintViolatedOnInput, DimMismatch, ValidationError
from .linalg import DEFAULT_TOL, _relative_commutator, _sealed, _solve, _unit, as_matrix, dagger, freeze, max_abs
from .channels import lueders_select
from .observables import Observable, _commutator_norm
from .states import DensityOperator, _gaussian, state_matrix

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


class SatisfactionResult(NamedTuple):
    satisfied: bool
    residual: float


class OutcomePreservation(NamedTuple):
    outcome: int
    eigenvalue: float
    preserved: bool
    residual: float


def _operators(n, dim: int | None = None) -> tuple:
    """The one reading of a constraint: each member as the unit operator N / max|N| (``_unit``).

    A ``dim`` other than the members' own raises DimMismatch.
    """
    if isinstance(n, (list, tuple)):
        n = ConstraintSet(n)
    members = n.members if isinstance(n, ConstraintSet) else (n if isinstance(n, Constraint) else Constraint(n),)
    if dim is not None and members[0].dim != dim:
        raise DimMismatch(f"constraint dim {members[0].dim} does not match dim {dim}")
    return tuple(_unit(m.operator) for m in members)


def _violation(ops, m: np.ndarray, tol: float) -> SatisfactionResult:
    """The one rule on N M = 0: the worst max|N^ M| over the unit members N^ must be at most tol.

    That is max|N M| / max|N|, so neither a rescaling of N moves it nor
    can N M overflow.
    """
    residual = max(max_abs(op @ m) for op in ops)
    return SatisfactionResult(residual <= tol, residual)


def _kernel_basis(ops, tol: float) -> np.ndarray:
    """Orthonormal columns B (d x k, k may be 0) spanning the joint kernel of the members.

    B holds the right singular vectors of the unit members N^ stacked
    whose singular value is at most tol, the bound ``_violation`` applies:
    every state B Y B* has max|N^ Z| <= tol.
    """
    _, sigma, vh = _solve("svd", np.vstack(ops), full_matrices=False)
    return dagger(vh[sigma <= tol])


def satisfies(z, n, tol: float = DEFAULT_TOL) -> SatisfactionResult:
    """Is N Z = 0 (for every member, if given a set)?  Residual always reported, max|N Z| / max|N|."""
    zm = state_matrix(z)
    return _violation(_operators(n, zm.shape[0]), zm, tol)


def measurable_under(r: Observable, n, tol: float = DEFAULT_TOL) -> bool:
    """May r be measured on the constrained system?

    True iff every projector of r commutes with every constraint N, that
    is iff x = V* N^ V (N^ = N / max|N|, V r's eigenbasis) is block
    diagonal within tol, and the full commutator read from the same x as
    ||[R, N^]||_op / max|r| is within tol; neither route depends on the
    units of r or of N, and the commutator not on the frame either.
    """
    ops = _operators(n, r.dim)
    v = r.full_basis()
    off_block = r.labels[:, None] != r.labels
    verdict = True
    for op in ops:
        x = dagger(v) @ op @ v
        verdict = verdict and max_abs(x[off_block]) <= tol
        verdict = verdict and _commutator_norm(r, x) <= tol
    return verdict


def preserves_constraint(r: Observable, n, z, tol: float = DEFAULT_TOL) -> list:
    """Check N Z_k' = 0 for every outcome branch of measuring r on z.

    The input state must already satisfy the constraint; measuring a
    constraint-commuting observable then provably keeps every branch in
    the constrained subspace, and this evaluates the claim instance by
    instance.  Input and branches are judged by the rule of ``satisfies``.
    """
    zm = state_matrix(z)
    ops = _operators(n, zm.shape[0])
    status = _violation(ops, zm, tol)
    if not status.satisfied:
        raise ConstraintViolatedOnInput(
            f"input state violates the constraint (residual {status.residual:.3e})"
        )
    return [
        OutcomePreservation(k, pair.eigenvalue, *_violation(ops, lueders_select(r, k, z).matrix, tol))
        for k, pair in enumerate(r.pairs)
    ]


def make_exchange_constraint(local_dim: int, symmetric: bool) -> Constraint:
    """Exchange constraint for two identical particles of dimension local_dim.

    ``symmetric`` True returns N = (I - SWAP)/2, whose kernel is the
    symmetric sector; False returns N = (I + SWAP)/2, keeping the
    antisymmetric sector.  Both are orthogonal projectors.
    """
    if local_dim < 2:
        raise BadDim(f"local dimension must be at least 2, got {local_dim}")
    eye = np.eye(local_dim * local_dim, dtype=complex)
    # SWAP |i j> = |j i>: its row i d + j is row j d + i of the identity
    swap = eye[np.arange(local_dim * local_dim).reshape(local_dim, local_dim).T.reshape(-1)]
    if symmetric:
        return Constraint((eye - swap) / 2.0, label="exchange-symmetric")
    return Constraint((eye + swap) / 2.0, label="exchange-antisymmetric")


def kernel_projector(n, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector B B* onto the joint kernel of the constraint(s)."""
    basis = _kernel_basis(_operators(n), tol)
    return basis @ dagger(basis)


def random_constrained_density(n, seed, rank: int | None = None, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Seeded random state inside the constrained subspace.

    The dim x rank complex Gaussian G that ``states`` draws for a random
    state is read in the kernel basis B: with Y = B* G the state is
    B Y Y* B* / Tr, the compression of G G* into the kernel, renormalized.
    Every draw lies in the kernel.
    """
    basis = _kernel_basis(_operators(n), tol)
    dim, k = basis.shape
    if k == 0:
        raise ValidationError("constraint admits no states (kernel is trivial)")
    w = basis @ (dagger(basis) @ _gaussian(dim, dim if rank is None else rank, seed))
    z = w @ dagger(w)
    return DensityOperator(_sealed(z / np.trace(z).real))

"""Measurement state-change rules.

Three update rules act on a density operator Z given an observable in
spectral form (eigenvalues r_k, projectors P_k):

* selective projection: Z -> P_k Z P_k, the subensemble in which outcome
  r_k occurred, left unnormalized so its trace is the outcome weight;
* the aggregate of all branches: Z -> sum_k P_k Z P_k, which preserves
  normalization and is idempotent as a channel;
* the degeneracy-breaking variant: Z -> sum_s |psi_s><psi_s| Z |psi_s><psi_s|
  over a full eigenbasis, which depends on the basis chosen inside each
  degenerate eigenspace and generally mixes more than the projection rule.

A fourth, eigenvalue-repeatable family generalizes the selective rule:
each outcome k gets Theta_k = sum_s |theta_s><psi_s| mapping the
eigenbasis of the k-th eigenspace onto an arbitrary orthonormal target
basis of the same eigenspace.  A second measurement after Theta_k still
gives r_k with certainty, but eigenstates are no longer left invariant.

Every rule is one Kraus operator per branch of the form T B*, with B the
d x m block of stored eigenvectors of the branch and T a d x m target
block: T = B for Lueders, the target basis for theta, and one eigenvector
(m = 1) per branch for von Neumann.  The Lueders and theta branches go
through one kernel, T (B* Z B) T*, computed from the blocks every time:
nothing multiplies a state by a dense projector, and no d x d array is
kept on an observable or a theta family.  Every family of per-outcome
target blocks is a ``ThetaFamily``, whose constructor is the one count,
shape and finiteness check, and its content is judged by one rule,
``_defects``, with one stacked product per multiplicity
(``Observable.groups``): ``make_theta_family`` checks a caller's targets
with it, and a von Neumann basis choice is read as such a family.  The
random families are valid by construction and are not checked.

Cost model: one branch costs O(d^2 m_k), for an outcome of multiplicity
m_k; a Born weight Tr(B* Z B) costs the same and makes no d x d product.
The Lueders and theta aggregates are the in-order sums of their
selective branches, bit for bit, at O(d^3) in all, since the m_k add up
to d.  The von Neumann aggregate, which has no selective form here, is
the dephasing V diag(V* Z V) V* in the chosen eigenbasis V: two d x d x d
products, not d rank-one branches.

Outputs are never silently renormalized; use ``normalize`` explicitly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBasis,
    BadOutcomeIndex,
    DimMismatch,
    ImpossibleOutcome,
    InvalidState,
    SubspaceViolation,
)
from .linalg import DEFAULT_TOL, _as_sealed, _columns, _haar_blocks, _rng, _sealed, dagger
from .observables import Observable
from .states import DensityOperator, SubensembleState, state_matrix

__all__ = [
    "OutcomeDistribution",
    "ThetaFamily",
    "born",
    "lueders_select",
    "lueders_aggregate",
    "normalize",
    "von_neumann_aggregate",
    "make_theta_family",
    "rotated_theta_family",
    "theta_select",
    "theta_aggregate",
]

# Below this outcome weight, normalizing a branch is treated as selecting
# an impossible outcome rather than a division by noise.
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class OutcomeDistribution:
    """Eigenvalues with their outcome probabilities, ascending in eigenvalue."""

    eigenvalues: tuple
    probabilities: tuple

    def items(self) -> list:
        return list(zip(self.eigenvalues, self.probabilities))

    def probability(self, k: int) -> float:
        if not 0 <= k < len(self.probabilities):
            raise BadOutcomeIndex(
                f"outcome index {k} out of range [0, {len(self.probabilities) - 1}]"
            )
        return self.probabilities[k]

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _state_for(obs: Observable, z) -> np.ndarray:
    m = state_matrix(z)
    if m.shape[0] != obs.dim:
        raise DimMismatch(f"state dim {m.shape[0]} does not match observable dim {obs.dim}")
    return m


def _branch(zm: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One branch T (B* Z B) T*, for d x m blocks B = ``src`` and T = ``dst``
    of orthonormal columns.

    Costs O(d^2 m), for every m, and never multiplies Z by a d x d
    operator.  The same inputs always give the same bits, which is what
    makes an aggregate the exact in-order sum of its selective branches.
    The blocks are always the library's own ndarrays, so their adjoints
    are ``conj().T`` without ``dagger``'s coercion.
    """
    src_h = src.conj().T
    dst_h = src_h if dst is src else dst.conj().T
    return dst.dot(src_h.dot(zm.dot(src))).dot(dst_h)


def _aggregate(zm: np.ndarray, sources, targets) -> DensityOperator:
    """The in-order sum of ``_branch`` over paired source and target blocks."""
    out = np.zeros_like(zm)
    for src, dst in zip(sources, targets):
        out += _branch(zm, src, dst)
    return DensityOperator(_sealed(out))


def born(obs: Observable, z, tol: float = DEFAULT_TOL) -> OutcomeDistribution:
    """Outcome distribution w_k = Tr(P_k Z) = Tr(B_k* Z B_k).

    Each weight is read from the outcome's basis block B_k, at O(d^2 m_k).
    Weights are clamped into [0, 1] only when they stray by at most
    ``tol``; larger excursions mean an invalid state and raise.
    """
    zm = _state_for(obs, z)
    raw = [float(np.vdot(b, zm.dot(b)).real) for b in obs.basis]
    clamped = []
    for w in raw:
        if w < -tol or w > 1.0 + tol:
            raise InvalidState(f"outcome weight {w!r} outside [0, 1]")
        clamped.append(min(1.0, max(0.0, w)))
    total = sum(clamped)
    if abs(total - 1.0) > tol:
        raise InvalidState(f"outcome weights sum to {total!r}, expected 1")
    return OutcomeDistribution(
        eigenvalues=tuple(p.eigenvalue for p in obs.pairs),
        probabilities=tuple(clamped),
    )


def lueders_select(obs: Observable, k: int, z) -> SubensembleState:
    """Selective update P_k Z P_k for outcome k, unnormalized.

    The trace of the result is the outcome weight; the state stays
    positive and Hermitian, and a pure input stays pure.
    """
    zm = _state_for(obs, z)
    b = obs.pair(k).basis
    return SubensembleState(_sealed(_branch(zm, b, b)))


def lueders_aggregate(obs: Observable, z) -> DensityOperator:
    """Non-selective update sum_k P_k Z P_k.

    Computed as the in-order sum of the selective branches, so it equals
    that sum exactly, not merely within tolerance.
    """
    return _aggregate(_state_for(obs, z), obs.basis, obs.basis)


def normalize(state, floor: float = WEIGHT_FLOOR) -> DensityOperator:
    """Divide a branch state by its trace.

    Raises ImpossibleOutcome when the trace is below ``floor``: that
    branch had (numerically) zero probability and carries no state.
    """
    m = state_matrix(state)
    # a branch's weight is max(0, trace), read when it was built, so a
    # positive weight is the trace; reading it skips a trace that costs
    # about 3% of a d = 8 measure op.  A zero weight may hide a negative
    # trace, which is read for the message.
    if isinstance(state, SubensembleState) and state.weight > 0.0:
        tr = state.weight
    else:
        tr = float(m.trace().real)
    if tr < floor:
        raise ImpossibleOutcome(f"branch weight {tr!r} is below {floor:g}")
    # the reciprocal once: a complex array divided by a real scalar goes
    # through complex division, which gives these bits at five times the cost
    return DensityOperator(_sealed(m * (1.0 / tr)))


def von_neumann_aggregate(obs: Observable, z, basis_choice=None, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Degeneracy-breaking update sum_s |psi_s><psi_s| Z |psi_s><psi_s|.

    ``basis_choice`` gives one orthonormal basis per eigenvalue subspace
    (default: the observable's stored basis); the choice matters exactly
    when some eigenvalue is degenerate.  The result is diagonal in the
    chosen basis.  A caller-supplied basis is read and checked as the
    targets of a theta family (``make_theta_family``), not projected.

    With the chosen rays side by side as V, the sum is the dephasing
    V diag(V* Z V) V*, computed as two d x d x d products.
    """
    zm = _state_for(obs, z)
    v = (
        obs.full_basis()
        if basis_choice is None
        else np.hstack(make_theta_family(obs, basis_choice, tol).targets)
    )
    weights = np.einsum("ij,ij->j", v.conj(), zm @ v).real
    return DensityOperator(_sealed((v * weights) @ dagger(v)))


@dataclass(frozen=True)
class ThetaFamily:
    """Eigenvalue-repeatable measurement operators Theta_k, one per outcome.

    Theta_k = T_k B_k* maps the stored eigenbasis block B_k of the k-th
    eigenspace onto the target orthonormal block T_k (``targets[k]``) of
    the same eigenspace, so
    Theta_k* Theta_k' = Theta_k' Theta_k* = delta_kk' P_k and
    Theta_k P_k' = delta_kk' Theta_k.  The dense Theta_k are built when
    asked for and not kept; the channels work from the blocks.
    Construction is the one check of the block count, the shapes and
    finite entries (a non-finite target is a BadBasis);
    ``residual()`` and ``make_theta_family`` read their content by one
    rule, ``_defects``.
    """

    observable: Observable
    targets: tuple

    def __post_init__(self):
        targets = tuple(_as_sealed(t) for t in self.targets)
        obs = self.observable
        if len(targets) != obs.outcome_count:
            raise BadBasis(f"need one target block per outcome ({obs.outcome_count}), got {len(targets)}")
        for k, (t, b) in enumerate(zip(targets, obs.basis)):
            if t.shape != b.shape:
                raise BadBasis(f"outcome {k}: target block has shape {t.shape}, expected {b.shape}")
            if np.count_nonzero(np.isfinite(t)) < t.size:  # half the cost of .all() on a small block
                raise BadBasis(f"outcome {k}: target block contains non-finite entries")
        object.__setattr__(self, "targets", targets)

    @property
    def dim(self) -> int:
        return self.observable.dim

    @property
    def outcome_count(self) -> int:
        return len(self.targets)

    @property
    def thetas(self) -> tuple:
        """The dense operators Theta_k = T_k B_k*, in outcome order, built anew."""
        return tuple(self.theta(k) for k in range(self.outcome_count))

    def theta(self, k: int) -> np.ndarray:
        b = self.observable.pair(k).basis
        return _sealed(self.targets[k] @ dagger(b))

    def residual(self) -> float:
        """The worst of ``_defects``: 0 up to rounding iff every target is
        an orthonormal basis of its eigenspace, which is when the family's
        operator identities hold."""
        return float(np.max(_defects(self)))


def _defects(fam: ThetaFamily) -> tuple:
    """(gram, leak): per outcome k, max|T_k* T_k - I| and max|T_k - B_k B_k* T_k|,
    with one stacked product per multiplicity.

    Read with floating-point warnings off, so an overflow reads as inf
    (or NaN), which every check ``not dev <= tol`` rejects."""
    obs = fam.observable
    gram, leak = np.zeros(fam.outcome_count), np.zeros(fam.outcome_count)
    with np.errstate(all="ignore"):
        for m, idx, _ in obs.groups:
            # np.array stacks blocks of one shape at half the call cost of np.stack
            t = np.array([fam.targets[k] for k in idx.tolist()])
            b = np.array([obs.basis[k] for k in idx.tolist()])
            gram[idx] = np.abs(t.conj().swapaxes(1, 2) @ t - np.eye(m)).max(axis=(1, 2))
            leak[idx] = np.abs(t - b @ (b.conj().swapaxes(1, 2) @ t)).max(axis=(1, 2))
    return gram, leak


def make_theta_family(obs: Observable, target_bases, tol: float = DEFAULT_TOL) -> ThetaFamily:
    """Build Theta_k = sum_s |theta_s><psi_s| from per-outcome target bases.

    Each target block (read by ``linalg._columns``) must hold exactly
    multiplicity(k) finite orthonormal vectors lying inside the range of
    P_k, by ``_defects`` within ``tol``; a failed check names its worst
    outcome, and a vector with a component outside its eigenspace raises
    SubspaceViolation, a BadBasis.  Choosing the observable's own basis
    reduces the family to plain projection, Theta_k = P_k.
    """
    fam = ThetaFamily(obs, tuple(_columns(t, BadBasis) for t in target_bases))
    for dev, error, what in zip(
        _defects(fam),
        (BadBasis, SubspaceViolation),
        ("basis not orthonormal, residual", "basis leaves its eigenvalue subspace by"),
    ):
        over = ~(dev <= tol)
        if over.any():
            worst = int(np.argmax(np.where(over, dev, -1.0)))
            raise error(f"outcome {worst}: {what} {dev[worst]:.3e}")
    return fam


def rotated_theta_family(obs: Observable, seed) -> ThetaFamily:
    """Theta family whose target basis is a random rotation of each eigenspace.

    Every degenerate eigenspace gets a Haar-random change of basis inside
    itself, so the family repeats eigenvalues without fixing eigenstates.
    ``seed`` goes through ``linalg._rng``.  The targets B_k U_k are
    orthonormal and inside their eigenspace by construction.
    """
    units = _haar_blocks(obs.multiplicities, _rng(seed))
    return ThetaFamily(obs, tuple(_sealed(b @ u) for b, u in zip(obs.basis, units)))


def theta_select(fam: ThetaFamily, k: int, z) -> SubensembleState:
    """Selective generalized update Theta_k Z Theta_k*, unnormalized.

    Its trace equals the outcome weight Tr(P_k Z): the eigenvalue is
    repeatable even though the state inside the eigenspace is rotated.
    """
    zm = _state_for(fam.observable, z)
    b = fam.observable.pair(k).basis
    return SubensembleState(_sealed(_branch(zm, b, fam.targets[k])))


def theta_aggregate(fam: ThetaFamily, z) -> DensityOperator:
    """Non-selective generalized update sum_k Theta_k Z Theta_k*."""
    return _aggregate(_state_for(fam.observable, z), fam.observable.basis, fam.targets)

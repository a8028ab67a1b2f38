"""Hermitian observables in spectral form: eigenvalues with eigenspace bases.

An Observable is the ascending list of pairs (r_k, B_k) of its distinct
eigenvalues, each with a d x m_k orthonormal block B_k spanning its
eigenspace; the blocks are the only stored form.  Side by side they form
a full eigenbasis V, and V*V = I is all that the projectors P_k = B_k B_k*
(built when asked for, never kept) need for P_j P_k = delta_jk P_k and
sum_k P_k = I.
Every check here works on stacked blocks, at O(d^3) once for any number
of outcomes.
"""

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadOutcomeIndex,
    DimMismatch,
    ValidationError,
)
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    _as_sealed,
    _eig_hermitian_stack,
    _gap_ranges,
    _groups,
    _sealed,
    _solve,
    _unit,
    as_matrix,
    dagger,
    max_abs,
    require_same_dim,
)

__all__ = [
    "SpectralPair",
    "Observable",
    "spectral_decompose",
    "observable_from_pairs",
    "reconstruct",
    "is_function_refinement",
]


@dataclass(frozen=True)
class SpectralPair:
    """One distinct eigenvalue with a d x m orthonormal basis B of its
    eigenspace; the multiplicity m and the projector B B* are derived from
    B each time they are read, and only B is stored."""

    eigenvalue: float
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _as_sealed(self.basis))

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1]

    @property
    def simple(self) -> bool:
        return self.multiplicity == 1

    @property
    def projector(self) -> np.ndarray:
        return _sealed(self.basis @ dagger(self.basis))


@dataclass(frozen=True)
class Observable:
    """Spectral form of a Hermitian operator.

    ``pairs`` is ascending in eigenvalue, and their basis blocks together
    form a full orthonormal eigenbasis; ``basis[i]`` is ``pairs[i].basis``.
    """

    dim: int
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))

    @cached_property
    def basis(self) -> tuple:
        return tuple(p.basis for p in self.pairs)

    @property
    def eigenvalues(self) -> list:
        return [p.eigenvalue for p in self.pairs]

    @property
    def projectors(self) -> list:
        return [p.projector for p in self.pairs]

    @property
    def multiplicities(self) -> list:
        return [p.multiplicity for p in self.pairs]

    @property
    def outcome_count(self) -> int:
        return len(self.pairs)

    def pair(self, k: int) -> SpectralPair:
        if not (0 <= k < len(self.pairs)):
            raise BadOutcomeIndex(
                f"outcome index {k} out of range [0, {len(self.pairs) - 1}]"
            )
        return self.pairs[k]

    def full_basis(self) -> np.ndarray:
        """All eigenvector columns, pair blocks concatenated in order."""
        return np.hstack(self.basis)

    @cached_property
    def offsets(self) -> np.ndarray:
        """The first column of each outcome's block in ``full_basis()``."""
        return _sealed(np.cumsum([0, *self.multiplicities[:-1]]))

    @cached_property
    def labels(self) -> np.ndarray:
        """The outcome of each column of ``full_basis()``."""
        return _sealed(np.repeat(np.arange(self.outcome_count), self.multiplicities))

    @cached_property
    def groups(self) -> tuple:
        """(m, outcomes of multiplicity m, their columns as an (n, m) array), ascending in m."""
        return tuple(
            (m, _sealed(np.array(ks)), _sealed(self.offsets[ks, None] + np.arange(m)))
            for m, ks in _groups(self.multiplicities).items()
        )


def spectral_decompose(m, cluster_tol: float = DEFAULT_CLUSTER_TOL, tol: float = DEFAULT_TOL) -> Observable:
    """Decompose a Hermitian matrix into distinct eigenvalues and eigenspaces.

    Numerically equal eigenvalues (``cluster_eigenvalues``) are merged into
    one pair; the reported eigenvalue is the mean of the merged values,
    which minimizes the reconstruction error.  Clusters are contiguous, so
    each basis block is one copy of a column range of the deterministic
    eigenbasis from ``eig_hermitian``, and outputs are reproducible bit for
    bit.
    """
    vals, vecs = _eig_hermitian_stack(as_matrix(m), tol)
    listed = vals.tolist()
    pairs = tuple(
        SpectralPair(listed[a] if b - a == 1 else _mean(vals[a:b]), _sealed(vecs[:, a:b].copy()))
        for a, b in _gap_ranges(vals, cluster_tol)
    )
    return Observable(dim=len(listed), pairs=pairs)


def _mean(values: np.ndarray) -> float:
    """np.mean of an ascending cluster, in its bits float(sum) / count, or the sum of
    value / count where the sum could overflow."""
    n = len(values)
    if max(-values[0], values[-1]) <= sys.float_info.max / n:
        return float(values.sum()) / n
    return float(np.sum(values / n))


def observable_from_pairs(pairs, tol: float = DEFAULT_TOL) -> Observable:
    """Build an Observable from explicit (eigenvalue, projector) pairs.

    The family is re-validated rather than trusted: each projector must be
    Hermitian with eigenvalues 0 and 1 only and a non-empty range, the
    eigenvalues distinct, and the range bases B_k side by side must form
    a square B with B*B = I, which makes the family orthogonal and complete.
    Each projector is decomposed on its own, so the temporaries are those
    of one d x d eigendecomposition; a failing one is named by its position
    in ascending eigenvalue order.
    """
    items = sorted(((float(v), as_matrix(p, "projector")) for v, p in pairs), key=lambda it: it[0])
    for (a, _), (b, _) in zip(items, items[1:]):
        if not (b > a):
            raise ValidationError(f"eigenvalues must be distinct, got {a!r} twice")
    dim = require_same_dim(*(p for _, p in items))
    spairs = []
    for i, (v, p) in enumerate(items):
        values, vectors = _eig_hermitian_stack(p, tol, f"projector {i}")
        spairs.append(SpectralPair(v, _range_basis(values, vectors, tol)))
    full = np.hstack([pair.basis for pair in spairs])
    if full.shape[1] != dim:
        raise ValidationError("multiplicities do not sum to the dimension")
    ortho = max_abs(dagger(full) @ full - np.eye(dim))
    if ortho > tol:
        raise ValidationError(f"projector family not orthogonal, residual {ortho:.3e}")
    return Observable(dim=dim, pairs=tuple(spairs))


def _range_basis(values: np.ndarray, vectors: np.ndarray, tol: float) -> np.ndarray:
    """The eigenvectors above 1/2 of a projector, once its eigenvalues are checked to be 0 and 1."""
    first = int(np.searchsorted(values, 0.5, side="right"))
    idem = max(max_abs(values[:first]), max_abs(values[first:] - 1.0))
    if idem > tol:
        raise ValidationError(f"projector not idempotent, residual {idem:.3e}")
    if first == len(values):
        raise ValidationError("projector has an empty range")
    return vectors[:, first:]


def reconstruct(obs: Observable) -> np.ndarray:
    """Reassemble the matrix sum_k r_k P_k as one product (V r) V*."""
    v = obs.full_basis()
    return (v * np.take(obs.eigenvalues, obs.labels)) @ dagger(v)


def _unit_spectrum(obs: Observable) -> np.ndarray:
    """The eigenvalue of each column of ``full_basis()`` at unit scale (``_unit``); zeros for R = 0."""
    return _unit(np.take(obs.eigenvalues, obs.labels))


def _commutator_norm(obs: Observable, x: np.ndarray) -> float:
    """||[R, X]||_op / max|r| from X in R's eigenframe V, x = V* X V.

    There the commutator is the matrix (r_a - r_b) x_ab.  The eigenvalues
    are divided by their largest magnitude first, so no entry overflows.
    The largest singular value is the root of the top eigenvalue of C* C.
    Neither it nor max|r| depends on the frame X is written in.
    """
    r = _unit_spectrum(obs)
    c = (r[:, None] - r) * x
    return float(np.sqrt(max(_solve("eigvalsh", dagger(c) @ c)[-1], 0.0)))


def is_function_refinement(fine: Observable, coarse: Observable, tol: float = DEFAULT_TOL) -> bool:
    """True iff every coarse projector is a sum of fine projectors.

    Equivalently: coarse arises from fine by merging eigenvalues, so a
    fine measurement is at the same time a coarse one.  Fine outcome f
    is assigned to coarse outcome c when Tr(P_c P_f), the block sum of
    |V_c* V_f|^2, is at least m_f - 1/2.  Each coarse multiplicity must
    be the sum of its assigned fine ones, and each assigned block must
    lie in its coarse eigenspace: max|B_f - B_c (B_c* B_f)| within
    ``tol * max(1, d)``.
    """
    if fine.dim != coarse.dim:
        raise DimMismatch(f"dimensions differ: {fine.dim} vs {coarse.dim}")
    vc, vf = coarse.full_basis(), fine.full_basis()
    cross = dagger(vc) @ vf
    overlaps = np.add.reduceat(np.abs(cross) ** 2, coarse.offsets, axis=0)
    overlaps = np.add.reduceat(overlaps, fine.offsets, axis=1)
    assigned = overlaps >= np.asarray(fine.multiplicities) - 0.5
    if np.any(assigned @ fine.multiplicities != coarse.multiplicities):
        return False
    inside = cross * assigned[coarse.labels][:, fine.labels]
    return max_abs(vf - vc @ inside) <= tol * max(1, coarse.dim)

"""Dense complex linear algebra with degeneracy-aware Hermitian eigendecomposition.

Everything downstream (states, observables, channels, compatibility,
constraints) is built on the handful of primitives here.  All functions are
pure: they never mutate their arguments and the arrays they return are marked
read-only, so values can be shared freely across threads.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadArgument, DimMismatch, NoConvergence, NotHermitian, NotOrthonormal

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_CLUSTER_TOL",
    "EigenSystem",
    "CommutationResult",
    "as_matrix",
    "dagger",
    "max_abs",
    "freeze",
    "require_hermitian",
    "require_same_dim",
    "eig_hermitian",
    "cluster_eigenvalues",
    "projector_from_basis",
    "commutes",
    "random_unitary",
]

DEFAULT_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-9

# Component-magnitude floor used when fixing eigenvector phases.
_PHASE_FLOOR = 1e-10


def freeze(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a read-only array (copy only if needed)."""
    a = np.asarray(a)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _sealed(a: np.ndarray) -> np.ndarray:
    """Mark a freshly computed array read-only, so that ``freeze`` takes it
    as it is instead of copying it."""
    a.flags.writeable = False
    return a


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex matrix.

    Raises
    ------
    BadArgument
        If the array is not square, is empty, or contains NaN/inf entries.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadArgument(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise BadArgument(f"{name} must have dim >= 1")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise BadArgument(f"{name} contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return np.asarray(m).conj().T


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-abs norm, the norm used by every tolerance check."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def require_hermitian(m, tol: float = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Check max|A - A*| <= tol * max(1, max|A|), relative to scale as in
    ``cluster_eigenvalues``, so rounding passes in any units."""
    a = as_matrix(m, name)
    dev = max_abs(a - dagger(a))
    bound = tol * max(1.0, max_abs(a))
    if dev > bound:
        raise NotHermitian(f"{name} deviates from its adjoint by {dev:.3e} (bound {bound:.1e})")
    return a


def require_same_dim(*mats: np.ndarray) -> int:
    dims = {np.asarray(m).shape[0] for m in mats}
    if len(dims) != 1:
        raise DimMismatch(f"operands have different dimensions: {sorted(dims)}")
    return dims.pop()


@dataclass(frozen=True)
class EigenSystem:
    """Raw eigendecomposition of a Hermitian matrix.

    ``values`` is ascending; column ``vectors[:, i]`` belongs to
    ``values[i]`` and the columns are orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", freeze(self.values))
        object.__setattr__(self, "vectors", freeze(self.vectors))

    @property
    def dim(self) -> int:
        return len(self.values)


class CommutationResult(NamedTuple):
    commute: bool
    residual: float


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above ``_PHASE_FLOOR`` in
    magnitude (its largest one if none is) is real positive, in one pass
    over the whole array; a zero column stays zero."""
    v = np.array(vectors, dtype=complex)
    mag = np.abs(v)
    above = mag > _PHASE_FLOOR
    rows = np.where(above.any(axis=0), above.argmax(axis=0), mag.argmax(axis=0))
    lead = v[rows, np.arange(v.shape[1])]
    size = np.abs(lead)
    v *= lead.conj() / np.where(size > 0, size, 1.0)
    return v


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigendecompose a Hermitian matrix deterministically.

    One LAPACK ``eigh`` of the Hermitian part gives ascending eigenvalues
    and orthonormal eigenvectors (in a degenerate group, the solver's own
    basis of the eigenspace); ``_fix_phases`` then makes each vector's
    first component above ``_PHASE_FLOOR`` real positive.  The solver is
    deterministic, so identical input gives identical output bit for bit.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian within ``tol`` relative to its scale
        (see ``require_hermitian``).
    tol : float
        Hermiticity tolerance.

    Raises
    ------
    NotHermitian
        If ``m`` deviates from its adjoint by more than
        ``tol * max(1, max|m|)``.
    NoConvergence
        If the underlying solver fails to converge.
    """
    values, vectors = _eigh(require_hermitian(m, tol))
    return EigenSystem(values=_sealed(values), vectors=_sealed(_fix_phases(vectors)))


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and raw eigenvectors of the Hermitian part of
    ``a``, a matrix or a stack of them.

    The part is a/2 + a*/2: halving first keeps entries near the largest
    double finite, and on any other input gives the bits of (a + a*)/2.
    """
    half = a / 2.0
    half += half.conj().swapaxes(-1, -2)
    try:
        values, vectors = np.linalg.eigh(half)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return np.asarray(values, dtype=float), vectors


def _eig_hermitian_stack(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``eig_hermitian`` on every matrix of a stack (n, m, m) at once.

    The same checks (finite entries, max|A - A*| <= tol * max(1, max|A|)),
    one ``eigh`` and one ``_fix_phases`` for the whole stack; each matrix
    gets the values and vectors, bit for bit, that it gets alone.
    """
    if not np.isfinite(a).all():
        raise BadArgument("matrix contains non-finite entries")
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bound = tol * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if (dev > bound).any():
        i = int(np.argmax(dev - bound))
        raise NotHermitian(f"matrix {i} deviates from its adjoint by {dev[i]:.3e} (bound {bound[i]:.1e})")
    values, vectors = _eigh(a)
    n, m = vectors.shape[:2]
    # the columns of all the matrices side by side, for one _fix_phases pass
    fixed = _fix_phases(vectors.swapaxes(0, 1).reshape(m, n * m))
    return values, fixed.reshape(m, n, m).swapaxes(0, 1)


def _cluster_ranges(values, cluster_tol: float) -> list:
    """(start, stop) of each group of ``cluster_eigenvalues``."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise BadArgument("values must be one-dimensional")
    # a gap between values of opposite sign near the largest double is
    # inf, which is a gap like any other
    with np.errstate(over="ignore"):
        gaps = np.diff(vals)
    if (gaps < 0).any():
        raise BadArgument("values must be sorted ascending")
    gap_tol = cluster_tol * max(1.0, float(np.abs(vals).max(initial=0.0)))
    # ~(<=) rather than >, so that a NaN gap starts a new group
    bounds = [0, *(np.flatnonzero(~(gaps <= gap_tol)) + 1).tolist(), vals.size]
    return list(zip(bounds, bounds[1:])) if vals.size else []


def cluster_eigenvalues(values, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> list[list[int]]:
    """Group an ascending list of eigenvalues into numerically equal clusters.

    Consecutive values whose gap is at most
    ``cluster_tol * max(1, max|values|)`` land in the same group, one
    threshold for the whole spectrum, so rescaling a spectrum whose
    largest magnitude is at least 1 leaves its clusters as they are.  The
    returned groups are disjoint, cover every index, and preserve order.
    """
    return [list(range(a, b)) for a, b in _cluster_ranges(values, cluster_tol)]


def _columns(vectors, error=BadArgument) -> np.ndarray:
    """Read vectors as the columns of one array, by one rule: a 2-D ndarray
    is its columns, a 1-D array (or list of numbers) is one vector, and any
    other sequence is a list of vectors.  Anything else, or vectors with
    no components, raises ``error``."""
    try:
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            cols = np.asarray(vectors, dtype=complex)
        elif np.ndim(vectors) == 1:
            cols = np.asarray(vectors, dtype=complex).reshape(-1, 1)
        else:
            cols = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    except (TypeError, ValueError):
        raise error("expected a 2-D array of columns, one vector or a sequence of vectors") from None
    if cols.shape[0] == 0:
        raise error("need at least one vector with at least one component")
    return cols


def projector_from_basis(vectors, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of an orthonormal family.

    ``vectors`` is a (dim, k) array of columns, one vector, or a sequence
    of k vectors (read by ``_columns``).  The result is Hermitian,
    idempotent, and has trace k.

    Raises
    ------
    NotOrthonormal
        If the family's Gram matrix deviates from the identity by more
        than ``tol``.
    """
    v = _columns(vectors)
    gram = dagger(v) @ v
    dev = max_abs(gram - np.eye(v.shape[1]))
    if dev > tol:
        raise NotOrthonormal(f"basis Gram matrix deviates from identity by {dev:.3e}")
    return v @ dagger(v)


def commutes(a, b, tol: float = DEFAULT_TOL) -> CommutationResult:
    """Check whether two matrices commute; always report the residual.

    Returns
    -------
    CommutationResult
        ``commute`` is true iff ``max_abs(AB - BA) <= tol``; ``residual``
        is that norm.
    """
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    require_same_dim(am, bm)
    residual = max_abs(am @ bm - bm @ am)
    return CommutationResult(residual <= tol, residual)


def _relative_commutator(a: np.ndarray, b: np.ndarray, b_norm: float | None = None) -> float:
    """max|[A, B]| / (max|A| max|B|), 0 when either operator is zero.

    Rescaling either operator leaves this unchanged, so a verdict judged
    on it does not depend on the units the operators are given in.
    ``b_norm`` is max|B| when the caller already has it.
    """
    scale = max_abs(a) * (max_abs(b) if b_norm is None else b_norm)
    return commutes(a, b).residual / scale if scale > 0 else 0.0


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary drawn from ``rng`` (a numpy Generator or seed)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return _haar_unitaries(rng.standard_normal((2, dim, dim)))


def _haar_unitaries(draws: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normal draws of shape (..., 2, m, m),
    the real then the imaginary parts of one complex Gaussian per m x m
    matrix; a stack gives, bit for bit, what each matrix gives alone."""
    g = (draws[..., 0, :, :] + 1j * draws[..., 1, :, :]) / np.sqrt(2.0)
    if g.shape[-1] == 1:
        # a Haar phase without a QR, from the same draws
        return g / np.abs(g)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]

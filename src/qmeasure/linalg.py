"""Dense complex linear algebra with degeneracy-aware Hermitian eigendecomposition.

Everything downstream (states, observables, channels, compatibility,
constraints) is built on the handful of primitives here.  All functions are
pure: they never mutate their arguments and the arrays they return are marked
read-only, so values can be shared freely across threads.
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadArgument, ContractError, DimMismatch, NoConvergence, NotHermitian, NotOrthonormal

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
    """Coerce to a finite square complex matrix: BadArgument if it is not
    square, is empty, or has an entry that is NaN or inf or whose modulus
    overflows to inf."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadArgument(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise BadArgument(f"{name} must have dim >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.abs(a)).all():
            raise BadArgument(f"{name} contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return np.asarray(m).conj().T


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-abs norm, the norm used by every tolerance check."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def require_hermitian(m, tol: float = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` by ``as_matrix`` and check max|A - A*| <= tol * max(1, max|A|),
    relative to scale as in ``cluster_eigenvalues``, so rounding passes in any units."""
    return _require_hermitian(as_matrix(m, name), tol, name)


def _require_hermitian(a: np.ndarray, tol: float, name: str) -> np.ndarray:
    """``require_hermitian`` on a coerced matrix, or on a library-built stack (n, d, d) whose
    matrices are each judged on their own scale; a failure names the worst by its position."""
    if a.ndim == 3 and not np.isfinite(a).all():
        raise BadArgument(f"{name} contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf deviation fails, as it should
        dev = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        bound = tol * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
        i = int(np.argmax(dev - bound))
    if dev.flat[i] > bound.flat[i]:
        name += f" {i}" if a.ndim == 3 else ""
        raise NotHermitian(f"{name} deviates from its adjoint by {dev.flat[i]:.3e} (bound {bound.flat[i]:.1e})")
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
    """Eigendecompose a Hermitian matrix deterministically: ascending
    eigenvalues and orthonormal eigenvectors, in a degenerate group the
    solver's own basis, each vector's first component above
    ``_PHASE_FLOOR`` real positive.  Identical input gives identical bits.

    Raises NotHermitian beyond ``tol * max(1, max|m|)`` (see
    ``require_hermitian``), NoConvergence if the solver fails and
    ContractError if an eigenvalue overflows.
    """
    values, vectors = _eig_hermitian_stack(as_matrix(m), tol)
    return EigenSystem(values=_sealed(values), vectors=_sealed(vectors))


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """a/2 + a*/2 of a matrix or a stack of them: halving first keeps
    entries near the largest double finite, and on any other input gives
    the bits of (a + a*)/2."""
    half = a / 2.0
    half += half.conj().swapaxes(-1, -2)
    return half


def _solve(solver: str, *args, **kwargs):
    """``numpy.linalg.<solver>(*args, **kwargs)``, the one way the library calls a
    numpy solver: its LinAlgError is a NoConvergence."""
    try:
        return getattr(np.linalg, solver)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"{'eigensolver' if solver.startswith('eig') else solver} failed: {exc}") from exc


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and raw eigenvectors of the Hermitian part of
    ``a``, a matrix or a stack of them."""
    values, vectors = _solve("eigh", _hermitian_part(a))
    if not np.isfinite(values).all():
        raise ContractError("eigenvalues overflow double precision")
    return np.asarray(values, dtype=float), vectors


def _eig_hermitian_stack(a: np.ndarray, tol: float = DEFAULT_TOL, name: str = "matrix"):
    """The one checked eigen path, (values, vectors) of a coerced matrix or a library-built
    stack (n, m, m): one ``_require_hermitian``, one ``eigh`` and one ``_fix_phases``
    for the whole stack, each matrix getting the bits it gets alone."""
    values, vectors = _eigh(_require_hermitian(a, tol, name))
    m = vectors.shape[-1]
    # the columns of all the matrices side by side, for one _fix_phases pass
    fixed = _fix_phases(vectors.swapaxes(0, -2).reshape(m, -1))
    return values, fixed.reshape(m, *vectors.shape[:-2], m).swapaxes(0, -2)


def _gap_ranges(vals: np.ndarray, cluster_tol: float) -> list:
    """(start, stop) of each group of ``cluster_eigenvalues`` in a 1-D float array
    read as ascending, such as ``eigh``'s values: the gap rule alone, no input checks."""
    # a gap between values of opposite sign near the largest double is
    # inf, which is a gap like any other
    with np.errstate(over="ignore"):
        gaps = np.diff(vals)
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
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise BadArgument("values must be one-dimensional")
    # values[1:] < values[:-1] rather than a gap below 0, which overflows near the largest double
    if (vals[1:] < vals[:-1]).any():
        raise BadArgument("values must be sorted ascending")
    return [list(range(a, b)) for a, b in _gap_ranges(vals, cluster_tol)]


def _columns(vectors, error=BadArgument) -> np.ndarray:
    """Read vectors as the columns of one array, by one rule: a 2-D ndarray
    is its columns, a 1-D array (or list of numbers) is one vector, and any
    other sequence is a list of vectors.  Anything else, vectors with no
    components, or an entry that is NaN or inf raises ``error``."""
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
    if np.count_nonzero(np.isfinite(cols)) < cols.size:  # half the cost of .all() on a short vector
        raise error("vectors contain non-finite entries")
    return cols


def projector_from_basis(vectors, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of an orthonormal family.

    ``vectors`` is a (dim, k) array of columns, one vector, or a sequence
    of k vectors (read by ``_columns``).  The result is Hermitian,
    idempotent, and has trace k.  Raises NotOrthonormal if the family's
    Gram matrix deviates from the identity by more than ``tol``.
    """
    v = _columns(vectors)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed Gram reads inf and fails
        dev = max_abs(dagger(v) @ v - np.eye(v.shape[1]))
    if not dev <= tol:
        raise NotOrthonormal(f"basis Gram matrix deviates from identity by {dev:.3e}")
    return v @ dagger(v)


def commutes(a, b, tol: float = DEFAULT_TOL) -> CommutationResult:
    """Check whether two matrices commute; always report the residual:
    ``commute`` is true iff ``max_abs(AB - BA) <= tol``, ``residual`` is that norm."""
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    require_same_dim(am, bm)
    residual = max_abs(am @ bm - bm @ am)
    return CommutationResult(residual <= tol, residual)


def _unit(x: np.ndarray) -> np.ndarray:
    """x / max|x|, the one reading of an operator or a spectrum at unit scale; a zero x stays zero.

    The real and imaginary parts are divided by the float max|x| on their
    own: a complex division by a subnormal max would overflow."""
    x = np.ascontiguousarray(x)
    return (x.view(x.real.dtype) / (max_abs(x) or 1.0)).view(x.dtype)


def _relative_commutator(a: np.ndarray, b: np.ndarray) -> float:
    """max|[A, B]| / (max|A| max|B|), 0 when either is zero, read as the commutator of the
    unit operators: no product overflows and no verdict on it depends on the units."""
    return commutes(_unit(a), _unit(b)).residual


# np.random in strings: evaluated, it would import numpy.random at every CLI start
def _rng(seed) -> "np.random.Generator":
    """The one seed rule: a numpy Generator passes through, anything else goes
    to ``np.random.default_rng``, and a seed numpy rejects is a BadArgument."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise BadArgument(f"bad seed {seed!r}: {exc}") from None


def _groups(sizes) -> dict:
    """{m: ascending positions i with sizes[i] == m}, ascending in m."""
    groups = {}
    for i, m in enumerate(sizes):
        groups.setdefault(m, []).append(i)
    return dict(sorted(groups.items()))


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary drawn from ``rng`` (a seed under ``_rng``'s rule)."""
    return _haar_blocks([dim], _rng(rng))[0]


def _haar_blocks(sizes, rng: "np.random.Generator") -> list:
    """One Haar unitary of each size in ``sizes``, in order.

    One normal draw for all, 2 m^2 normals a unitary (the real then the
    imaginary parts of an m x m complex Gaussian), then one stacked Haar
    step per size: the same bits, and generator state after, as one
    ``random_unitary(m, rng)`` size by size.
    """
    start = [0, *accumulate(2 * m * m for m in sizes)]
    draws = rng.standard_normal(start[-1])
    out = [None] * (len(start) - 1)
    for m, idx in _groups(sizes).items():
        x = np.stack([draws[start[i] : start[i + 1]] for i in idx]).reshape(-1, 2, m, m)
        g = (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)
        if m == 1:
            # a Haar phase without a QR, from the same draws
            units = g / np.abs(g)
        else:
            q, r = _solve("qr", g)
            d = np.diagonal(r, axis1=-2, axis2=-1)
            units = q * (d / np.abs(d))[..., None, :]
        for i, u in zip(idx, units):
            out[i] = u
    return out

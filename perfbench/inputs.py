"""Seeded benchmark inputs built with plain numpy.

Nothing here calls qmeasure: the program under test receives only the
matrices, states and text files produced by these functions.
"""

import numpy as np


def rng_for(seed: int, *slot: int) -> np.random.Generator:
    """Independent generator per (workload seed, input slot)."""
    return np.random.default_rng([seed, *slot])


def unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian(basis: np.ndarray, spectrum) -> np.ndarray:
    """basis diag(spectrum) basis*, symmetrized so it is Hermitian to the bit."""
    m = (basis * np.asarray(spectrum, dtype=float)) @ basis.conj().T
    return (m + m.conj().T) / 2.0


def distinct_spectrum(dim: int, rng: np.random.Generator) -> np.ndarray:
    """dim eigenvalues with gaps of at least 0.5, so no two ever cluster."""
    return np.arange(dim, dtype=float) - dim / 2.0 + rng.uniform(0.0, 0.5, dim)


def integer_spectrum(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalues from {-2, ..., 2}, each used about dim/5 times, in random
    order: at most five distinct outcomes, with multiplicities that do not
    change from seed to seed, so neither does the cost of an op."""
    return rng.permutation(np.resize(np.arange(-2.0, 3.0), dim))


def density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``rank`` density matrix GG*/Tr(GG*), exactly Hermitian."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    z = g @ g.conj().T
    z = (z + z.conj().T) / 2.0
    return z / np.trace(z).real


def max_commutator(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a @ b - b @ a)))


def noncommuting_pair(dim: int, rng, r_spectrum, s_spectrum):
    """Two observables in independent random bases, redrawn until
    their commutator is far above any tolerance the library uses."""
    while True:
        r = hermitian(unitary(dim, rng), r_spectrum(dim, rng))
        s = hermitian(unitary(dim, rng), s_spectrum(dim, rng))
        if max_commutator(r, s) > 1e-3:
            return r, s


def commuting_pair(dim: int, rng, r_spectrum, s_spectrum):
    """Two observables diagonal in one shared random basis."""
    u = unitary(dim, rng)
    return hermitian(u, r_spectrum(dim, rng)), hermitian(u, s_spectrum(dim, rng))


def swap(local_dim: int) -> np.ndarray:
    """Exchange operator on two particles of dimension ``local_dim``."""
    dim = local_dim * local_dim
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(local_dim):
        for j in range(local_dim):
            out[i * local_dim + j, j * local_dim + i] = 1.0
    return out


def _entry(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


def _rows(m: np.ndarray) -> str:
    return "".join(" ".join(_entry(z) for z in row) + "\n" for row in m)


def matrix_text(m: np.ndarray) -> str:
    """The plain-text matrix exchange format: ``dim n`` then n rows."""
    return f"dim {m.shape[0]}\n" + _rows(m)


def spectral_text(basis: np.ndarray, spectrum) -> str:
    """An explicit ``spectral`` observable block: one projector per
    distinct eigenvalue, built from the eigenvector columns that share it."""
    values = np.unique(spectrum)
    parts = [f"spectral\ndim {basis.shape[0]}\npairs {len(values)}\n"]
    for v in values:
        block = basis[:, np.asarray(spectrum) == v]
        parts.append(f"eigenvalue {float(v)!r}\n" + _rows(block @ block.conj().T))
    return "".join(parts)

"""Whole-array eigendecomposition helpers against their loop references.

``eig_hermitian`` is one ``eigh`` plus a few whole-array passes.  The
loops it replaced are kept here as references: modified Gram-Schmidt
inside each degenerate cluster followed by phase fixing one column at a
time (``settle_reference``), and clustering one gap at a time
(``cluster_reference``).  The array forms must give the same clusters,
the same phases up to rounding, and the same eigenspaces.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from qmeasure.linalg import (
    _PHASE_FLOOR,
    _eigh,
    _fix_phases,
    cluster_eigenvalues,
    dagger,
    eig_hermitian,
    max_abs,
    random_unitary,
)
from qmeasure.observables import spectral_decompose

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
TOL = 1e-9


# ------------------------------------------------------------ references


def cluster_reference(values, cluster_tol):
    """One gap at a time: a gap at most the threshold joins the group."""
    vals = np.asarray(values, dtype=float)
    if not vals.size:
        return []
    gap_tol = cluster_tol * max(1.0, float(np.max(np.abs(vals))))
    groups = [[0]]
    for i, gap in enumerate(np.diff(vals), start=1):
        if gap <= gap_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def mgs_reference(columns):
    """Modified Gram-Schmidt over the columns, in ascending column order."""
    v = np.array(columns, dtype=complex)
    for i in range(v.shape[1]):
        for j in range(i):
            v[:, i] -= v[:, j] * (v[:, j].conj() @ v[:, i])
        v[:, i] /= np.linalg.norm(v[:, i])
    return v


def fix_phases_reference(vectors):
    """One column at a time: the first component above the floor (the
    largest one if none is) is made real positive."""
    v = np.array(vectors, dtype=complex)
    for i in range(v.shape[1]):
        col = v[:, i]
        idx = np.flatnonzero(np.abs(col) > _PHASE_FLOOR)
        lead = col[idx[0]] if idx.size else col[np.argmax(np.abs(col))]
        if lead != 0:
            v[:, i] = col * (lead.conjugate() / abs(lead))
    return v


def settle_reference(values, vectors, tol):
    """Gram-Schmidt within each cluster, then fixed phases."""
    vectors = np.array(vectors, dtype=complex)
    for group in cluster_reference(values, tol):
        if len(group) > 1:
            vectors[:, group] = mgs_reference(vectors[:, group])
    return fix_phases_reference(vectors)


# ------------------------------------------------------------ strategies

# steps between neighbours, in units of the clustering threshold: ties,
# a few ulps either side of the threshold, and clear gaps
_STEPS = [0.0, 0.5, 1.0 - 2e-16, 1.0, 1.0 + 2e-16, 1.0 + 1e-9, 2.0, None]


@st.composite
def boundary_spectra(draw):
    """(ascending values, cluster_tol): chains of steps at the clustering
    threshold.  The first value is -top and none exceeds top in size, so
    the threshold is cluster_tol * max(1, top) by construction; the
    rounding of each sum puts a step on either side of it.  A chain that
    starts at 0 makes its first step exactly the threshold."""
    cluster_tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    top = draw(st.floats(0.25, 1e6))
    gap = cluster_tol * max(1.0, top)
    steps = draw(st.lists(st.sampled_from(_STEPS), max_size=16))
    values = [-top, 0.0] if draw(st.booleans()) else [-top]
    for step in steps:
        values.append(values[-1] + (0.1 * top if step is None else step * gap))
    return np.array(values), cluster_tol


@st.composite
def unit_columns(draw):
    """Unit columns whose leading entries sit just below or just above the
    phase floor, plus, at times, a column wholly below the floor and a
    zero column."""
    dim, count = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    cols /= np.linalg.norm(cols, axis=0)
    factor = st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0))
    for i in range(count):
        lead = draw(st.lists(factor, max_size=dim - 1))
        cols[: len(lead), i] = np.array(lead) * _PHASE_FLOOR * np.exp(2j * np.pi * rng.uniform(size=len(lead)))
    if draw(st.booleans()):
        cols[:, 0] *= 0.5 * _PHASE_FLOOR
    if count > 1 and draw(st.booleans()):
        cols[:, -1] = 0.0
    return cols


@st.composite
def hermitian_matrices(draw):
    """U diag(values) U* with a simple, an integer, a d-fold or a chained
    spectrum; a chain's steps are each below the clustering threshold,
    so the whole chain is one cluster."""
    dim = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["simple", "integer", "d-fold", "chained"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e4]))
    if kind == "simple":
        values = rng.standard_normal(dim)
    elif kind == "integer":
        values = rng.integers(-2, 3, size=dim).astype(float)
    elif kind == "d-fold":
        values = np.full(dim, rng.standard_normal())
    else:
        values = np.concatenate([[3.0], 1.0 + 0.4 * TOL * np.arange(dim - 1)])
    u = random_unitary(dim, rng)
    m = (u * (scale * values)) @ dagger(u)
    return (m + dagger(m)) / 2.0


# ------------------------------------------------------------ properties


@PROPERTY
@given(boundary_spectra())
def test_clusters_match_the_gap_loop(spectrum):
    values, cluster_tol = spectrum
    assert cluster_eigenvalues(values, cluster_tol) == cluster_reference(values, cluster_tol)


def test_boundary_spectra_cut_on_both_sides_of_the_threshold():
    # the strategy is only a boundary test if rounding lands steps of one
    # threshold on both sides of it
    values = np.array([-1.0, *(-1.0 + 1e-9 * np.arange(1, 200))])
    gaps = np.diff(values)
    assert np.any(gaps > 1e-9) and np.any(gaps <= 1e-9)
    assert cluster_eigenvalues(values, 1e-9) == cluster_reference(values, 1e-9)
    # a gap of exactly the threshold joins the group
    assert cluster_eigenvalues([-1.0, 0.0, 1e-9], 1e-9) == [[0], [1, 2]]


@PROPERTY
@given(unit_columns())
def test_fixed_phases_match_the_column_loop(cols):
    fixed = _fix_phases(cols)
    assert max_abs(fixed - fix_phases_reference(cols)) <= 1e-15
    assert max_abs(np.abs(fixed) - np.abs(cols)) <= 1e-15


@PROPERTY
@given(hermitian_matrices())
def test_clusters_are_orthonormal_and_span_the_reference_eigenspaces(m):
    dim = m.shape[0]
    eig = eig_hermitian(m, TOL)
    raw_values, raw_vectors = _eigh(m)
    reference = settle_reference(raw_values, raw_vectors, TOL)
    assert np.array_equal(eig.values, raw_values)
    for group in cluster_eigenvalues(eig.values, TOL):
        block, ref = eig.vectors[:, group], reference[:, group]
        assert max_abs(dagger(block) @ block - np.eye(len(group))) <= 1e-12 * dim
        assert max_abs(block @ dagger(block) - ref @ dagger(ref)) <= 1e-12


@PROPERTY
@given(hermitian_matrices())
def test_pairs_are_column_ranges_with_the_mean_eigenvalue(m):
    eig = eig_hermitian(m, TOL)
    obs = spectral_decompose(m, TOL, TOL)
    groups = cluster_eigenvalues(eig.values, TOL)
    assert obs.multiplicities == [len(g) for g in groups]
    for pair, group in zip(obs.pairs, groups):
        assert pair.eigenvalue == float(np.mean(eig.values[group]))
        assert np.array_equal(pair.basis, eig.vectors[:, group])
        assert pair.basis.flags.c_contiguous and not pair.basis.flags.writeable


@PROPERTY
@given(hermitian_matrices())
def test_repeated_calls_are_bitwise_identical(m):
    a, b = eig_hermitian(m), eig_hermitian(np.array(m))
    assert np.array_equal(a.values, b.values) and np.array_equal(a.vectors, b.vectors)
    first, again = spectral_decompose(m), spectral_decompose(m)
    assert first.eigenvalues == again.eigenvalues
    assert all(np.array_equal(x, y) for x, y in zip(first.basis, again.basis))

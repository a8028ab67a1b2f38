"""Spectral decomposition and the projector-family invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmeasure.errors import BadOutcomeIndex, DimMismatch, NotHermitian, ValidationError
from qmeasure.linalg import dagger, eig_hermitian, max_abs, random_unitary
from qmeasure.observables import (
    Observable,
    SpectralPair,
    is_function_refinement,
    observable_from_pairs,
    reconstruct,
    spectral_decompose,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2.0


def degenerate_hermitian(spectrum, seed):
    u = random_unitary(len(spectrum), seed)
    return u @ np.diag(np.asarray(spectrum, dtype=float)) @ dagger(u)


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_reconstructs(dim, seed):
    m = random_hermitian(dim, seed)
    obs = spectral_decompose(m)
    np.testing.assert_allclose(reconstruct(obs), m, atol=1e-10)


@pytest.mark.parametrize("spectrum", [
    [2.0, 2.0, 5.0],
    [1.0, 1.0, 1.0, -1.0],
    [0.0, 0.0, 0.0, 0.0],
    [-2.0, -1.0, -1.0, 3.0, 3.0, 3.0],
])
def test_family_invariants(spectrum):
    obs = spectral_decompose(degenerate_hermitian(spectrum, 3))
    dim = len(spectrum)
    projs = obs.projectors
    # orthogonality, completeness, multiplicity bookkeeping
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            want = p if i == j else np.zeros((dim, dim))
            np.testing.assert_allclose(p @ q, want, atol=1e-10)
    np.testing.assert_allclose(sum(projs), np.eye(dim), atol=1e-10)
    assert sum(obs.multiplicities) == dim
    assert obs.eigenvalues == sorted(obs.eigenvalues)
    for pair in obs.pairs:
        assert pair.multiplicity == pytest.approx(np.trace(pair.projector).real)


@pytest.mark.parametrize("diagonal, eigenvalues, multiplicities", [
    ([1.0, 1.0, 1.0], [1.0], [3]),
    ([1.0, -1.0], [-1.0, 1.0], [1, 1]),
    ([2.0, 2.0, 5.0], [2.0, 5.0], [2, 1]),
])
def test_diagonal_read_off(diagonal, eigenvalues, multiplicities):
    # each projector of a diagonal observable is the indicator of its value
    obs = spectral_decompose(np.diag(diagonal))
    assert obs.eigenvalues == pytest.approx(eigenvalues)
    assert obs.multiplicities == multiplicities
    for pair in obs.pairs:
        want = np.diag([1.0 if v == pair.eigenvalue else 0.0 for v in diagonal])
        np.testing.assert_allclose(pair.projector, want, atol=1e-12)


def test_degenerate_projector_matches_subspace():
    u = random_unitary(4, 11)
    m = u @ np.diag([2.0, 2.0, 5.0, 6.0]) @ dagger(u)
    obs = spectral_decompose(m)
    expected = u[:, :2] @ dagger(u[:, :2])
    np.testing.assert_allclose(obs.pairs[0].projector, expected, atol=1e-10)
    assert obs.pairs[0].multiplicity == 2
    assert not obs.pairs[0].simple
    assert obs.pairs[1].simple


def test_cluster_tol_merges_and_averages():
    m = np.diag([1.0, 1.0 + 4e-10, 5.0])
    obs = spectral_decompose(m, cluster_tol=1e-9)
    assert obs.outcome_count == 2
    # the merged eigenvalue is the mean of the clustered values
    assert obs.pairs[0].eigenvalue == pytest.approx(1.0 + 2e-10, abs=1e-12)

    split = spectral_decompose(m, cluster_tol=1e-12)
    assert split.outcome_count == 3


def test_decompose_deterministic():
    m = degenerate_hermitian([1.0, 1.0, 4.0], 9)
    a = spectral_decompose(m)
    b = spectral_decompose(m)
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.array_equal(pa.projector, pb.projector)
    assert np.array_equal(a.full_basis(), b.full_basis())


def test_decompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
def test_rounding_asymmetry_is_hermitian_at_any_scale(scale):
    # the unsymmetrized product u diag(v) u* is Hermitian only up to
    # rounding, about 1.5e-8 absolute at 1e8, far above tol but tiny
    # against the matrix's own scale
    u = random_unitary(16, 5)
    values = scale * np.arange(1.0, 17.0)
    m = (u * values) @ dagger(u)
    obs = spectral_decompose(m)
    assert obs.outcome_count == 16
    np.testing.assert_allclose(obs.eigenvalues, values, rtol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e8])
def test_relative_anti_hermitian_part_is_rejected_at_any_scale(scale):
    h = random_hermitian(16, 6)
    g = random_hermitian(16, 7)
    anti = 1j * g * (max_abs(h) / max_abs(g))
    with pytest.raises(NotHermitian):
        spectral_decompose(scale * (h + 1e-6 * anti))


def test_basis_blocks_span_projectors():
    obs = spectral_decompose(degenerate_hermitian([1.0, 1.0, 3.0], 2))
    for block, pair in zip(obs.basis, obs.pairs):
        np.testing.assert_allclose(block @ dagger(block), pair.projector, atol=1e-12)
        np.testing.assert_allclose(
            dagger(block) @ block, np.eye(pair.multiplicity), atol=1e-12
        )


def test_pair_index_bounds():
    obs = spectral_decompose(np.diag([1.0, 2.0]))
    assert obs.pair(0).eigenvalue == pytest.approx(1.0)
    with pytest.raises(BadOutcomeIndex):
        obs.pair(2)
    with pytest.raises(BadOutcomeIndex):
        obs.pair(-1)


class TestObservableFromPairs:
    def test_accepts_and_sorts(self):
        obs = observable_from_pairs(
            [(5.0, np.diag([0.0, 0.0, 1.0])), (2.0, np.diag([1.0, 1.0, 0.0]))]
        )
        assert obs.eigenvalues == [2.0, 5.0]
        np.testing.assert_allclose(reconstruct(obs), np.diag([2.0, 2.0, 5.0]), atol=1e-12)
        ident = observable_from_pairs([(1.0, np.eye(2))])
        np.testing.assert_allclose(reconstruct(ident), np.eye(2), atol=1e-12)

    def test_rejects_duplicate_eigenvalues(self):
        with pytest.raises(ValidationError):
            observable_from_pairs(
                [(1.0, np.diag([1.0, 0.0])), (1.0, np.diag([0.0, 1.0]))]
            )

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            observable_from_pairs([(1.0, np.diag([0.5, 0.5]))])

    def test_rejects_incomplete_family(self):
        with pytest.raises(ValidationError):
            observable_from_pairs([(1.0, np.diag([1.0, 0.0]))])

    def test_rejects_overlapping(self):
        p = np.full((2, 2), 0.5)
        with pytest.raises(ValidationError):
            observable_from_pairs([(1.0, p), (2.0, np.diag([1.0, 0.0]))])

    def test_stack_chunks_keep_bits_and_names(self):
        # d=64 with one projector decomposed at a time
        u = random_unitary(64, 3)
        projectors = [np.outer(u[:, k], u[:, k].conj()) for k in range(64)]
        tracemalloc.start()
        obs = observable_from_pairs([(float(k), p) for k, p in enumerate(projectors)])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4e6  # one stack of all 64 projectors alone takes 4.2 MB
        for k, pair in enumerate(obs.pairs):
            alone = eig_hermitian(projectors[k]).vectors[:, -1:]
            assert pair.basis.tobytes() == alone.tobytes()
        projectors[9] = projectors[9] + np.triu(np.full((64, 64), 1e-6), 1)
        with pytest.raises(NotHermitian, match="projector 9 "):
            observable_from_pairs([(float(k), p) for k, p in enumerate(projectors)])


class TestRefinement:
    def test_finer_function_of_coarser(self):
        fine = spectral_decompose(np.diag([1.0, 2.0, 3.0]))
        coarse = spectral_decompose(np.diag([1.0, 1.0, 3.0]))
        assert is_function_refinement(fine, coarse)

    def test_not_reversed(self):
        fine = spectral_decompose(np.diag([1.0, 1.0, 3.0]))
        coarse = spectral_decompose(np.diag([1.0, 2.0, 3.0]))
        assert not is_function_refinement(fine, coarse)

    def test_identity_is_coarsest(self):
        obs = spectral_decompose(degenerate_hermitian([1.0, 2.0, 2.0], 4))
        assert is_function_refinement(obs, spectral_decompose(np.eye(3)))

    def test_incompatible_bases(self):
        fine = spectral_decompose(np.diag([1.0, -1.0]))
        coarse = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not is_function_refinement(fine, coarse)

    def test_tied_overlaps_do_not_double_count(self):
        # sqrt(1/2)^2 rounds to 0.5000000000000001, so both X outcomes
        # reach the m_f - 1/2 overlap threshold with both Z outcomes;
        # X is still no refinement of Z
        h = np.sqrt(0.5)
        x = Observable(2, (SpectralPair(-1.0, [[h], [-h]]), SpectralPair(1.0, [[h], [h]])))
        assert not is_function_refinement(x, spectral_decompose(np.diag([1.0, -1.0])))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            is_function_refinement(
                spectral_decompose(np.eye(2)), spectral_decompose(np.eye(3))
            )


@st.composite
def refinements(draw):
    """(fine, coarse): a rotated integer spectrum with repeats allowed, and
    its image under a random map that merges some of its distinct values."""
    dim = draw(st.integers(2, 8))
    values = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)), float)
    merge = {v: draw(st.integers(0, 3)) for v in np.unique(values)}
    u = random_unitary(dim, draw(st.integers(0, 2**32 - 1)))
    fine = spectral_decompose(u @ np.diag(values) @ dagger(u))
    coarse = spectral_decompose(u @ np.diag([float(merge[v]) for v in values]) @ dagger(u))
    return fine, coarse


@settings(max_examples=200, deadline=None, derandomize=True)
@given(refinements())
def test_merged_spectrum_is_a_refinement(pair):
    # the multiplicity - 0.5 overlap rule picks exactly the fine projectors
    # inside each coarse one; a merged projector is never inside a fine one
    fine, coarse = pair
    assert is_function_refinement(fine, coarse)
    if coarse.outcome_count < fine.outcome_count:
        assert not is_function_refinement(coarse, fine)


def test_rebuilt_observable_roundtrip():
    m = degenerate_hermitian([0.0, 0.0, 1.0, 1.0], 8)
    obs = spectral_decompose(m)
    again = observable_from_pairs([(p.eigenvalue, p.projector) for p in obs.pairs])
    assert max_abs(reconstruct(again) - m) < 1e-10

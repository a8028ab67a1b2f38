"""Eigendecomposition, clustering, and the small operator helpers."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmeasure.errors import BadArgument, DimMismatch, NotHermitian, NotOrthonormal, QMeasureError
from qmeasure.linalg import (
    _PHASE_FLOOR,
    _eig_hermitian_stack,
    _eigh,
    _fix_phases,
    _rng,
    as_matrix,
    cluster_eigenvalues,
    commutes,
    dagger,
    eig_hermitian,
    max_abs,
    projector_from_basis,
    random_unitary,
    require_hermitian,
    require_same_dim,
)
from qmeasure.matrixio import format_matrix
from qmeasure.observables import spectral_decompose

RNG_SEEDS = [0, 1, 2, 7, 11]


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2.0


class TestEigHermitian:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_reconstructs_input(self, dim, seed):
        m = random_hermitian(dim, seed)
        sys = eig_hermitian(m)
        rebuilt = sys.vectors @ np.diag(sys.values) @ dagger(sys.vectors)
        np.testing.assert_allclose(rebuilt, m, atol=1e-10)

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_vectors_orthonormal(self, seed):
        sys = eig_hermitian(random_hermitian(6, seed))
        np.testing.assert_allclose(
            dagger(sys.vectors) @ sys.vectors, np.eye(6), atol=1e-12
        )

    def test_values_ascending(self):
        sys = eig_hermitian(random_hermitian(7, 3))
        assert all(a <= b for a, b in zip(sys.values, sys.values[1:]))

    def test_deterministic(self):
        # the solver, re-orthonormalization, and phase fix must be
        # reproducible bit for bit, since CLI output is compared bytewise
        m = random_hermitian(5, 12)
        a = eig_hermitian(m)
        b = eig_hermitian(m)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_phase_convention(self):
        # first component above the floor is made real and positive
        sys = eig_hermitian(random_hermitian(4, 5))
        for col in sys.vectors.T:
            lead = col[np.abs(col) > 1e-10][0]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0

    def test_degenerate_block_still_orthonormal(self):
        u = random_unitary(4, 9)
        m = u @ np.diag([2.0, 2.0, 2.0, 5.0]) @ dagger(u)
        sys = eig_hermitian(m)
        np.testing.assert_allclose(
            dagger(sys.vectors) @ sys.vectors, np.eye(4), atol=1e-12
        )

    def test_known_flip(self):
        sys = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sys.values, [-1.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            sys.vectors, np.array([[s, s], [-s, s]]), atol=1e-12
        )

    def test_known_diagonal_spectra(self):
        ident = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(ident.values, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(ident.vectors, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(
            eig_hermitian(np.diag([5.0, 2.0, 2.0])).values, [2.0, 2.0, 5.0], atol=1e-12
        )

    def test_symmetrizes_tiny_skew(self):
        m = np.array([[1.0, 0.1 + 1e-12j], [0.1 - 3e-12j, 2.0]])
        sys = eig_hermitian(m)
        assert np.all(np.isreal(sys.values))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestCluster:
    def test_distinct(self):
        assert cluster_eigenvalues([1.0, 2.0, 3.0], 1e-9) == [[0], [1], [2]]

    def test_merges_below_gap(self):
        assert cluster_eigenvalues([1.0, 1.0 + 1e-12, 3.0], 1e-9) == [[0, 1], [2]]

    def test_chain_merging(self):
        # gaps are tested pairwise, so a chain of small steps is one cluster
        vals = [1.0, 1.0 + 4e-10, 1.0 + 8e-10]
        assert cluster_eigenvalues(vals, 1e-9) == [[0, 1, 2]]

    def test_gap_scales_with_magnitude(self):
        vals = [1e6, 1e6 + 1e-4, 2e6]
        assert cluster_eigenvalues(vals, 1e-9) == [[0, 1], [2]]

    def test_singleton(self):
        assert cluster_eigenvalues([7.0], 1e-9) == [[0]]

    def test_empty(self):
        assert cluster_eigenvalues([], 1e-9) == []

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            cluster_eigenvalues([2.0, 1.0], 1e-9)


@st.composite
def spectra(draw):
    """(ascending values with max|v| >= 1, cluster_tol): clusters of small
    steps around centres spread over [-top, top], one of them at an end,
    with every gap at most half the threshold or at least twice it."""
    cluster_tol = draw(st.sampled_from([1e-9, 1e-6]))
    top = draw(st.floats(1.0, 1e6))
    centres = [draw(st.sampled_from([-1.0, 1.0])), *draw(st.lists(st.floats(-1.0, 1.0), max_size=4))]
    values = []
    for centre in centres:
        steps = draw(st.lists(st.floats(0.0, 0.5), max_size=3))
        values.extend(centre * top + np.cumsum([0.0, *steps]) * cluster_tol * top)
    values = np.sort(values)
    threshold = cluster_tol * np.max(np.abs(values))
    gaps = np.diff(values)
    assume(np.all((gaps <= threshold / 2) | (gaps >= 2 * threshold)))
    return values, cluster_tol


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spectra(), st.floats(1.0, 1e6))
def test_clusters_survive_rescaling(spectrum, factor):
    values, cluster_tol = spectrum
    assert cluster_eigenvalues(factor * values, cluster_tol) == cluster_eigenvalues(values, cluster_tol)


@st.composite
def near_floor_columns(draw):
    """(columns, per-column phase angles): leading components just below or
    just above the phase floor, then entries of order one."""
    dim, count = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    factor = st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0))
    for i in range(count):
        lead = draw(st.lists(factor, max_size=dim - 1))
        cols[: len(lead), i] = np.array(lead) * _PHASE_FLOOR * np.exp(2j * np.pi * rng.uniform(size=len(lead)))
    return cols, rng.uniform(0.0, 2 * np.pi, count)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(near_floor_columns())
def test_fixed_phases_ignore_the_input_phase(drawn):
    cols, angles = drawn
    fixed = _fix_phases(cols)
    np.testing.assert_allclose(_fix_phases(cols * np.exp(1j * angles)), fixed, rtol=0, atol=1e-12)
    for col in fixed.T:
        lead = col[np.flatnonzero(np.abs(col) > _PHASE_FLOOR)[0]]
        assert lead.real > 0 and abs(lead.imag) <= 1e-12 * abs(lead)


class TestExtremeScale:
    """Hermitian parts near the largest double stay finite."""

    BIG = np.array([[1e308, 1e308], [1e308, -1e308]])

    def test_hermitian_part_does_not_overflow(self):
        values, vectors = _eigh(self.BIG)
        assert np.isfinite(values).all() and np.isfinite(vectors).all()
        np.testing.assert_allclose(values, [-np.sqrt(2) * 1e308, np.sqrt(2) * 1e308], rtol=1e-15)

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_hermitian_part_keeps_the_bits_of_the_mean(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for m in (a, random_hermitian(6, seed)):
            want = np.linalg.eigh((m + dagger(m)) / 2.0)
            got = _eigh(m)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_clustering_an_infinite_gap_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cluster_eigenvalues([-1.5e308, 1.5e308], 1e-9) == [[0], [1]]

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e300])
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_decomposition_scales_with_the_matrix(self, scale, seed):
        a = random_hermitian(5, seed)
        base, scaled = spectral_decompose(a), spectral_decompose(scale * a)
        np.testing.assert_allclose(scaled.eigenvalues, scale * np.array(base.eigenvalues), rtol=1e-12)
        for p, q in zip(base.projectors, scaled.projectors):
            np.testing.assert_allclose(q, p, atol=1e-12)


class TestEigStack:
    def test_each_matrix_as_alone(self):
        stack = np.stack([random_hermitian(4, seed) for seed in RNG_SEEDS])
        values, vectors = _eig_hermitian_stack(stack)
        for m, vals, vecs in zip(stack, values, vectors):
            alone = eig_hermitian(m)
            assert vals.tobytes() == alone.values.tobytes()
            assert vecs.tobytes() == alone.vectors.tobytes()

    def test_checks_each_matrix(self):
        stack = np.stack([random_hermitian(3, 0), random_hermitian(3, 1)])
        skew = stack.copy()
        skew[1, 0, 1] += 1e-3
        with pytest.raises(NotHermitian, match="matrix 1"):
            _eig_hermitian_stack(skew)
        stack[0, 2, 2] = np.nan
        with pytest.raises(BadArgument, match="non-finite"):
            _eig_hermitian_stack(stack)


class TestProjector:
    def test_single_vector(self):
        p = projector_from_basis(np.eye(2)[:, :1])
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-15)
        plus = projector_from_basis(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
        np.testing.assert_allclose(plus, np.full((2, 2), 0.5), atol=1e-15)

    def test_plane(self):
        p = projector_from_basis(np.eye(3)[:, :2])
        np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-15)

    def test_idempotent_hermitian(self):
        u = random_unitary(5, 4)
        p = projector_from_basis(u[:, :3])
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, dagger(p), atol=1e-12)
        assert abs(np.trace(p).real - 3.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(NotOrthonormal):
            projector_from_basis(np.array([[2.0], [0.0]]))

    def test_rejects_non_orthogonal(self):
        v = np.array([[1.0, 1.0], [0.0, 1e-3]])
        with pytest.raises(NotOrthonormal):
            projector_from_basis(v)

    def test_one_dimensional_array_is_one_vector(self):
        # a 1-D array is one vector, not a list of 1-component vectors
        np.testing.assert_array_equal(projector_from_basis(np.array([1.0, 0.0])), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [3.0, [[1.0, 0.0], [1.0]], [[]]])
    def test_unreadable_input_is_bad_argument(self, bad):
        # a scalar and vectors of unequal or no length are library errors
        with pytest.raises(BadArgument):
            projector_from_basis(bad)


class TestCommutes:
    def test_diagonals_commute(self):
        res = commutes(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert res.commute
        assert res.residual == 0.0

    def test_pauli_residual(self):
        res = commutes(np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0]))
        assert not res.commute
        assert res.residual == pytest.approx(2.0)

    def test_anything_commutes_with_identity(self):
        m = np.array([[1.0, 2.0j], [5.0, 0.5]])
        assert commutes(m, np.eye(2)).commute

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            commutes(np.eye(2), np.eye(3))


class TestHelpers:
    def test_max_abs(self):
        assert max_abs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0

    def test_require_hermitian_passes(self):
        require_hermitian(np.diag([1.0, 2.0]), 1e-9)

    def test_require_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-9)

    def test_require_same_dim(self):
        with pytest.raises(DimMismatch):
            require_same_dim(np.eye(2), np.eye(4))


class TestRandomUnitary:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_unitary(self, dim):
        u = random_unitary(dim, 0)
        np.testing.assert_allclose(dagger(u) @ u, np.eye(dim), atol=1e-12)

    def test_seed_reproducible(self):
        assert np.array_equal(random_unitary(4, 3), random_unitary(4, 3))

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_dim_one_keeps_the_stream(self, seed):
        # dim 1 is the phase g/|g| with no QR, drawn from the same two
        # normals, so the generator and every later draw are unchanged
        def qr_unitary(dim, rng):
            g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
            q, r = np.linalg.qr(g)
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        phase, ref_phase = random_unitary(1, rng), qr_unitary(1, ref)
        assert phase.shape == (1, 1) and abs(abs(phase[0, 0]) - 1.0) <= 1e-15
        assert abs(phase[0, 0] - ref_phase[0, 0]) <= 1e-15
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(random_unitary(3, rng), qr_unitary(3, ref))

    def test_generator_advances(self):
        rng = np.random.default_rng(0)
        a = random_unitary(3, rng)
        b = random_unitary(3, rng)
        assert max_abs(a - b) > 1e-3


@pytest.mark.parametrize(
    "call",
    [
        lambda: as_matrix(np.ones((2, 3))),
        lambda: as_matrix(np.array([[np.nan]])),
        lambda: cluster_eigenvalues([2.0, 1.0]),
        lambda: cluster_eigenvalues(np.eye(2)),
        lambda: projector_from_basis([]),
        lambda: format_matrix(np.ones((2, 3))),
    ],
)
def test_bad_arguments_are_library_errors(call):
    # a library caller sees the same taxonomy (exit 3) as the CLI does
    with pytest.raises(QMeasureError) as info:
        call()
    assert isinstance(info.value, BadArgument) and isinstance(info.value, ValueError)
    assert info.value.exit_code == 3


def _seeded_entry_points():
    """Every public draw that takes a seed, each as a function of the seed."""
    from qmeasure.channels import rotated_theta_family
    from qmeasure.compatibility import condition1_holds, sector_rotated_family
    from qmeasure.constraints import make_exchange_constraint, random_constrained_density
    from qmeasure.states import random_density

    obs = spectral_decompose(np.diag([1.0, 1.0, 2.0]))
    partner = spectral_decompose(np.diag([3.0, 4.0, 4.0]))
    return {
        "random_unitary": lambda seed: random_unitary(2, seed),
        "random_density": lambda seed: random_density(2, 1, seed),
        "rotated_theta_family": lambda seed: rotated_theta_family(obs, seed),
        "sector_rotated_family": lambda seed: sector_rotated_family(obs, partner, seed),
        "random_constrained_density": lambda seed: random_constrained_density(
            make_exchange_constraint(2, symmetric=True), seed
        ),
        "condition1_holds": lambda seed: condition1_holds(obs, partner, mode="sampled", seed=seed),
    }


class TestSeedRule:
    """One rule for every seed: a Generator passes through, anything else
    goes to numpy's default_rng, and a seed numpy rejects is BadArgument."""

    @pytest.mark.parametrize("name", sorted(_seeded_entry_points()))
    @pytest.mark.parametrize("seed", [-1, "x", 1.5])
    def test_rejected_seed_is_bad_argument(self, name, seed):
        with pytest.raises(BadArgument, match="bad seed"):
            _seeded_entry_points()[name](seed)

    @pytest.mark.parametrize("name", sorted(_seeded_entry_points()))
    def test_generator_and_fresh_entropy_are_seeds(self, name):
        call = _seeded_entry_points()[name]
        call(np.random.default_rng(0))
        call(None)

    def test_generator_passes_through(self):
        rng = np.random.default_rng(3)
        assert _rng(rng) is rng

"""Density operators: construction, mixing, validation."""

import warnings

import numpy as np
import pytest

from qmeasure import states
from qmeasure.errors import (
    BadArgument,
    DimMismatch,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    NotPositive,
    WeightSum,
    ZeroVector,
)
from qmeasure.linalg import as_matrix
from qmeasure.states import (
    DensityOperator,
    SubensembleState,
    from_pure,
    mix,
    random_density,
    state_matrix,
    validate,
)


def test_from_pure_basis_vector():
    z = from_pure([1.0, 0.0])
    np.testing.assert_array_equal(z.matrix, np.diag([1.0, 0.0]))
    assert z.purity() == pytest.approx(1.0)


def test_from_pure_normalizes():
    np.testing.assert_allclose(
        from_pure([3.0, 0.0]).matrix, np.diag([1.0, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(from_pure([1.0, 1.0]).matrix, np.full((2, 2), 0.5), atol=1e-15)


def test_from_pure_complex_phase():
    z = from_pure([1.0, 1.0j])
    np.testing.assert_allclose(z.matrix, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)


def test_from_pure_rejects_zero():
    with pytest.raises(ZeroVector):
        from_pure([0.0, 0.0])


def test_from_pure_does_not_overflow():
    # |v|^2 = 2e400 is inf in double; the power-of-two scale keeps it finite
    np.testing.assert_array_equal(from_pure([1e200, 1e200]).matrix, np.full((2, 2), 0.5))


def test_from_pure_does_not_underflow():
    # |v|^2 = 2e-400 is 0 in double, but the vector is not zero
    np.testing.assert_array_equal(from_pure([1e-200, 1e-200]).matrix, np.full((2, 2), 0.5))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_from_pure_refuses_non_finite_entries(entry):
    with pytest.raises(BadArgument, match="non-finite"):
        from_pure([entry, 1.0])


def test_mix_convex():
    z = mix([(0.25, from_pure([1.0, 1.0])), (0.75, from_pure([1.0, 0.0]))])
    np.testing.assert_allclose(
        z.matrix, [[0.875, 0.125], [0.125, 0.125]], atol=1e-15
    )
    assert z.trace == pytest.approx(1.0)
    coin = mix([(0.5, from_pure([1.0, 0.0])), (0.5, from_pure([0.0, 1.0]))])
    np.testing.assert_allclose(coin.matrix, np.eye(2) / 2.0, atol=1e-15)
    single = random_density(3, 2, seed=0)
    np.testing.assert_allclose(mix([(1.0, single)]).matrix, single.matrix, atol=1e-15)


def test_mix_rejects_bad_weights():
    z = from_pure([1.0, 0.0])
    with pytest.raises(WeightSum):
        mix([(0.5, z), (0.4, z)])
    with pytest.raises(WeightSum):
        mix([(-0.1, z), (1.1, z)])


def test_mix_rejects_dim_mismatch():
    with pytest.raises(DimMismatch):
        mix([(0.5, from_pure([1.0, 0.0])), (0.5, from_pure([1.0, 0.0, 0.0]))])


class TestRandomDensity:
    def test_valid_state(self):
        for dim in (1, 2, 4, 8):
            z = random_density(dim, dim, seed=0)
            validate(z)
        np.testing.assert_allclose(random_density(1, 1, seed=0).matrix, [[1.0]], atol=1e-15)

    def test_seed_deterministic(self):
        a = random_density(5, 3, seed=42)
        b = random_density(5, 3, seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_controls_purity(self):
        pure = random_density(4, 1, seed=7)
        mixed = random_density(4, 4, seed=7)
        assert pure.purity() == pytest.approx(1.0, abs=1e-10)
        assert mixed.purity() < 0.95

    def test_rank_bounds(self):
        from qmeasure.errors import BadRank

        with pytest.raises(BadRank):
            random_density(3, 0, seed=0)
        with pytest.raises(BadRank):
            random_density(3, 4, seed=0)


class TestValidate:
    def test_accepts_maximally_mixed(self):
        validate(np.eye(3) / 3.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            validate(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositive):
            validate(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotNormalized):
            validate(np.diag([0.6, 0.6]))

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            validate(np.eye(2) / 2.0)

    def test_raw_array_is_coerced_once(self, monkeypatch):
        calls = []

        def counted(m, name="matrix"):
            calls.append(name)
            return as_matrix(m, name)

        monkeypatch.setattr(states, "as_matrix", counted)
        validate(np.eye(2) / 2.0)
        validate(DensityOperator(np.eye(2) / 2.0))
        assert calls == ["state", "state"]

    def test_off_diagonal_near_the_largest_double_is_not_positive(self):
        # eigenvalues 0.5 -+ 1e308: the Hermitian part must not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositive, match="-1e\\+308"):
                validate(np.array([[0.5, 1e308], [1e308, 0.5]]))

    def test_diagonal_near_the_largest_double_is_silently_not_normalized(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalized, match="trace inf"):
                validate(np.diag([1e308, 1e308]))
            # numpy's trace of this diagonal reads inf + -inf; positivity fails first
            with pytest.raises(NotPositive, match="-1e\\+308"):
                validate(np.diag(np.repeat([1e308, -1e308], 64)))

    def test_tolerance_is_respected(self):
        validate(np.diag([1.0 + 5e-10, -2e-10]), tol=1e-9)


def test_wrappers_expose_matrix():
    z = random_density(3, 2, seed=1)
    assert np.array_equal(state_matrix(z), z.matrix)
    assert np.array_equal(state_matrix(z.matrix), z.matrix)
    assert np.array_equal(np.asarray(z), z.matrix)
    assert z.dim == 3


def test_subensemble_weight_is_trace():
    part = SubensembleState(np.diag([0.25, 0.15, 0.0]))
    assert part.weight == pytest.approx(0.4)
    assert part.dim == 3


def test_sealed_complex_arrays_are_taken_as_they_are():
    # the one trust rule: a sealed complex ndarray is kept without a copy;
    # a caller's writeable array is copied and frozen, anything else coerced
    sealed = np.eye(2, dtype=complex) / 2.0
    sealed.flags.writeable = False
    for wrap in (DensityOperator, SubensembleState):
        assert wrap(sealed).matrix is sealed
        writeable = np.eye(2, dtype=complex) / 2.0
        kept = wrap(writeable).matrix
        assert kept is not writeable and not kept.flags.writeable
        writeable[0, 0] = 9.0
        assert kept[0, 0] == 0.5
        real = wrap(np.eye(2) / 2.0).matrix
        assert real.dtype == complex and not real.flags.writeable


def test_density_operator_is_frozen():
    z = DensityOperator(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        z.matrix[0, 0] = 9.0

"""Constraint operators, measurability, and branch preservation."""

import warnings

import numpy as np
import pytest

from qmeasure.constraints import (
    Constraint,
    ConstraintSet,
    kernel_projector,
    make_exchange_constraint,
    measurable_under,
    preserves_constraint,
    random_constrained_density,
    satisfies,
)
from qmeasure.errors import (
    BadDim,
    ConstraintViolatedOnInput,
    DimMismatch,
    ValidationError,
)
from qmeasure.linalg import commutes, dagger, max_abs
from qmeasure.observables import spectral_decompose
from qmeasure.states import from_pure, random_density, validate

N_SYM = make_exchange_constraint(2, symmetric=True)
N_ANTI = make_exchange_constraint(2, symmetric=False)
R_SYM = spectral_decompose(np.diag([2.0, 0.0, 0.0, -2.0]))
R_ONE = spectral_decompose(np.diag([1.0, 1.0, -1.0, -1.0]))

SINGLET = from_pure(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))
TRIPLET0 = from_pure(np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0))


def _symmetric_qutrit_pair():
    """The two-qutrit exchange constraint and a seeded swap-symmetric observable."""
    n = make_exchange_constraint(3, symmetric=True)
    swap = np.eye(9)[[3 * (i % 3) + i // 3 for i in range(9)]]
    rng = np.random.default_rng(7)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = (g + dagger(g)) / 2.0
    return n, (h + swap @ h @ swap) / 2.0


# sigma_z-like observable on the first qutrit only: not exchange-symmetric
R_ONE_QUTRITS = spectral_decompose(np.kron(np.diag([1.0, 0.0, -1.0]), np.eye(3)))


class TestExchangeConstraint:
    def test_symmetric_is_singlet_projector(self):
        np.testing.assert_allclose(N_SYM.operator, SINGLET.matrix, atol=1e-14)

    def test_antisymmetric_is_triplet_projector(self):
        assert np.trace(N_ANTI.operator).real == pytest.approx(3.0)
        np.testing.assert_allclose(
            N_SYM.operator + N_ANTI.operator, np.eye(4), atol=1e-14
        )

    def test_projector_identities(self):
        for n in (N_SYM, N_ANTI):
            np.testing.assert_allclose(
                n.operator @ n.operator, n.operator, atol=1e-14
            )
            np.testing.assert_allclose(n.operator, dagger(n.operator), atol=1e-14)

    def test_local_dim_three(self):
        n = make_exchange_constraint(3, symmetric=True)
        assert n.dim == 9
        # antisymmetric sector of two qutrits has dimension 3
        assert np.trace(n.operator).real == pytest.approx(3.0)

    def test_rejects_small_dim(self):
        with pytest.raises(BadDim):
            make_exchange_constraint(1, symmetric=True)


class TestSatisfies:
    def test_symmetric_state(self):
        res = satisfies(TRIPLET0, N_SYM)
        assert res.satisfied
        assert res.residual < 1e-14

    def test_product_state_violates(self):
        # max|N Z| = 0.5 over max|N| = 0.5: the residual does not depend on the units of N
        res = satisfies(from_pure([0.0, 1.0, 0.0, 0.0]), N_SYM)
        assert not res.satisfied
        assert res.residual == pytest.approx(1.0)

    def test_zero_constraint(self):
        z = random_density(4, 4, 0)
        res = satisfies(z, Constraint(np.zeros((4, 4))))
        assert res.satisfied and res.residual == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            satisfies(random_density(2, 2, 0), N_SYM)


class TestMeasurable:
    def test_symmetric_observable_allowed(self):
        assert measurable_under(R_SYM, N_SYM)

    def test_single_particle_blocked(self):
        assert not measurable_under(R_ONE, N_SYM)

    def test_zero_constraint_allows_anything(self):
        zero = Constraint(np.zeros((4, 4)))
        assert measurable_under(R_ONE, zero)
        rows = preserves_constraint(R_ONE, zero, random_density(4, 4, 0))
        assert all(row.preserved and row.residual == 0.0 for row in rows)

    def test_second_factor_observable_blocked(self):
        swap_like = np.kron(np.eye(2), np.diag([1.0, -1.0]))
        obs = spectral_decompose(swap_like)
        assert not measurable_under(obs, N_SYM)

    def test_verdict_ignores_units(self):
        # [R, N] is judged relative to max|R| max|N|: at 1e8 its absolute
        # rounding residual (about 9e-8) would otherwise block R
        n, sym_part = _symmetric_qutrit_pair()
        assert measurable_under(spectral_decompose(sym_part), n)
        assert measurable_under(spectral_decompose(1e8 * sym_part), n)

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_verdict_ignores_units_of_the_constraint(self, scale):
        # each [P_k, cN] is judged relative to max|P_k| max|cN|; on an
        # absolute scale its rounding residual (5.5e-9 at 1e6) blocks R
        n, sym_part = _symmetric_qutrit_pair()
        obs = spectral_decompose(sym_part)
        assert measurable_under(obs, Constraint(scale * n.operator))
        assert not measurable_under(R_ONE_QUTRITS, Constraint(scale * n.operator))


class TestPreservation:
    @pytest.mark.parametrize("seed", range(5))
    def test_measurable_preserves_every_branch(self, seed):
        z = random_constrained_density(N_SYM, seed)
        rows = preserves_constraint(R_SYM, N_SYM, z)
        assert all(row.preserved for row in rows)
        assert max(row.residual for row in rows) < 1e-10

    def test_forbidden_observable_breaks_a_branch(self):
        hits = 0
        for seed in range(40):
            z = random_constrained_density(N_SYM, seed)
            rows = preserves_constraint(R_ONE, N_SYM, z)
            if any(row.residual > 1e-3 for row in rows):
                hits += 1
        assert hits > 0

    def test_rejects_violating_input(self):
        with pytest.raises(ConstraintViolatedOnInput):
            preserves_constraint(R_SYM, N_SYM, from_pure([1.0, 0.0, 1.0, 0.0]))

    def test_rows_are_labeled_by_outcome(self):
        z = random_constrained_density(N_SYM, 0)
        rows = preserves_constraint(R_SYM, N_SYM, z)
        assert [row.eigenvalue for row in rows] == [-2.0, 0.0, 2.0]
        assert [row.outcome for row in rows] == [0, 1, 2]


class TestKernel:
    def test_symmetric_kernel_is_triplet_space(self):
        p = kernel_projector(N_SYM)
        assert np.trace(p).real == pytest.approx(3.0)
        np.testing.assert_allclose(p @ N_SYM.operator, np.zeros((4, 4)), atol=1e-12)

    def test_zero_constraint_kernel_is_everything(self):
        np.testing.assert_allclose(
            kernel_projector(Constraint(np.zeros((3, 3)))), np.eye(3), atol=1e-14
        )

    def test_full_rank_constraint_kernel_empty(self):
        p = kernel_projector(Constraint(np.eye(3)))
        assert max_abs(p) < 1e-12

    def test_full_rank_constraint_near_the_largest_double_has_an_empty_kernel(self):
        # N*N would overflow; at unit scale N / max|N| it is full rank
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = kernel_projector(Constraint([[1e308, 1e308], [1e308, -1e308]]))
        assert max_abs(p) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 2.0**-3, 2.0**300, 2.0**700])
    def test_threshold_is_the_unscaled_one(self, scale):
        # N / max|N| has singular values 1 and 6e-5 at every scale, far above
        # tol = 1e-9: no kernel.  A Gram matrix N*N would square 6e-5 * 2^-3 = 7.5e-6
        # to 5.6e-11, below tol, and find a kernel at scale 2^-3.
        n = np.diag([1.0, 6e-5]) * scale
        assert max_abs(kernel_projector(Constraint(n))) == 0.0

    def test_exchange_kernel_keeps_its_bits(self):
        # N / max|N| = 2N is an exact power-of-two scaling, so the singular vectors keep their bits
        _, sigma, vh = np.linalg.svd(N_SYM.operator, full_matrices=False)
        block = dagger(vh[sigma <= 1e-9])
        assert kernel_projector(N_SYM).tobytes() == (block @ dagger(block)).tobytes()


class TestRandomConstrained:
    @pytest.mark.parametrize("seed", range(6))
    def test_satisfies_constraint(self, seed):
        z = random_constrained_density(N_SYM, seed)
        validate(z)
        assert satisfies(z, N_SYM).satisfied

    def test_deterministic(self):
        a = random_constrained_density(N_ANTI, 3)
        b = random_constrained_density(N_ANTI, 3)
        assert np.array_equal(a.matrix, b.matrix)

    def test_trivial_kernel_rejected(self):
        with pytest.raises(ValidationError):
            random_constrained_density(Constraint(np.eye(4)), 0)

    def test_antisymmetric_kernel_is_one_dimensional(self):
        # only the singlet survives, so every draw is that pure state
        z = random_constrained_density(N_ANTI, 9)
        np.testing.assert_allclose(z.matrix, SINGLET.matrix, atol=1e-10)


class TestConstraintSet:
    def test_commuting_members_accepted(self):
        ns = ConstraintSet([N_SYM, Constraint(np.zeros((4, 4)))])
        assert len(ns) == 2
        assert measurable_under(R_SYM, ns)

    def test_non_commuting_members_rejected(self):
        a = Constraint(np.diag([1.0, -1.0]))
        b = Constraint(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValidationError):
            ConstraintSet([a, b])

    def test_set_satisfaction_is_conjunction(self):
        ns = ConstraintSet([N_SYM, Constraint(np.diag([1.0, 0.0, 0.0, 0.0]))])
        res = satisfies(TRIPLET0, ns)
        assert res.satisfied

    def test_set_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            ConstraintSet([N_SYM, Constraint(np.zeros((2, 2)))])

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_commuting_members_accepted_at_any_scale(self, scale):
        # on an absolute scale the members' rounding residual rejects the set
        n, sym_part = _symmetric_qutrit_pair()
        ns = ConstraintSet([Constraint(scale * n.operator), Constraint(scale * sym_part)])
        assert len(ns) == 2

    def test_tiny_non_commuting_members_rejected(self):
        # max|[A, B]| is 2e-12 here, far below tol; relative to scale it is 2
        a = Constraint(1e-6 * np.diag([1.0, -1.0]))
        b = Constraint(1e-6 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValidationError):
            ConstraintSet([a, b])

    def test_measurability_postulate_on_set(self):
        both = ConstraintSet([N_SYM, Constraint(np.eye(4) - 2 * N_SYM.operator)])
        assert measurable_under(R_SYM, both)
        assert not measurable_under(R_ONE, both)


def test_observable_commuting_with_swap_survives_all_branches():
    # any swap-symmetric observable: measurable and branch-preserving
    rng = np.random.default_rng(8)
    swap = np.eye(4)[[0, 2, 1, 3]]
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + dagger(g)) / 2.0
    sym_part = (h + swap @ h @ swap) / 2.0
    obs = spectral_decompose(sym_part)
    assert commutes(sym_part, N_SYM.operator, 1e-9).commute
    assert measurable_under(obs, N_SYM)
    z = random_constrained_density(N_SYM, 2)
    assert all(row.preserved for row in preserves_constraint(obs, N_SYM, z))

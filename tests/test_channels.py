"""Measurement channels: Born weights, both update rules, theta families."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from qmeasure.channels import (
    WEIGHT_FLOOR,
    ThetaFamily,
    born,
    lueders_aggregate,
    lueders_select,
    make_theta_family,
    normalize,
    rotated_theta_family,
    theta_aggregate,
    theta_select,
    von_neumann_aggregate,
)
from qmeasure.errors import (
    BadBasis,
    BadOutcomeIndex,
    DimMismatch,
    ImpossibleOutcome,
    InvalidState,
    QMeasureError,
    SubspaceViolation,
)
from qmeasure.linalg import dagger, max_abs, random_unitary
from qmeasure.observables import spectral_decompose
from qmeasure.states import from_pure, random_density, validate


def degenerate_observable(spectrum, seed):
    u = random_unitary(len(spectrum), seed)
    return spectral_decompose(u @ np.diag(np.asarray(spectrum, float)) @ dagger(u))


OBS225 = spectral_decompose(np.diag([2.0, 2.0, 5.0]))
PSI3 = from_pure(np.ones(3) / np.sqrt(3.0))
Z_OBS = spectral_decompose(np.diag([1.0, -1.0]))
ID2 = spectral_decompose(np.eye(2))
PLUS = from_pure([1.0, 1.0])
# the sigma_y eigenvectors (1, i)/sqrt(2) and (1, -i)/sqrt(2)
Y_PLUS_MINUS = np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0)


class TestBorn:
    def test_weights_are_traces(self):
        dist = born(OBS225, PSI3)
        assert dist.probability(0) == pytest.approx(2 / 3)
        assert dist.probability(1) == pytest.approx(1 / 3)
        assert dist.eigenvalues == (2.0, 5.0)
        assert born(Z_OBS, PLUS).probabilities == pytest.approx((0.5, 0.5))
        # the identity has one outcome, so it reveals nothing about the state
        assert born(ID2, random_density(2, 2, 0)).probabilities == pytest.approx((1.0,))

    @pytest.mark.parametrize("seed", range(6))
    def test_distribution_normalized(self, seed):
        obs = degenerate_observable([1.0, 1.0, 2.0, 4.0], seed)
        z = random_density(4, 4, seed)
        dist = born(obs, z)
        assert sum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for _, p in dist.items())

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            born(OBS225, random_density(2, 2, 0))

    def test_bare_array_out_of_range_is_invalid_state(self):
        # a bare array is not validated first; born itself rejects the weights
        with pytest.raises(InvalidState, match="outside"):
            born(Z_OBS, np.diag([1.5, -0.5]))
        with pytest.raises(InvalidState, match="sum to"):
            born(Z_OBS, np.diag([0.6, 0.6]))

    def test_out_of_range_index(self):
        with pytest.raises(BadOutcomeIndex):
            born(OBS225, PSI3).probability(5)


class TestLueders:
    def test_select_is_projection_sandwich(self):
        sel = lueders_select(OBS225, 0, PSI3)
        want = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]]) / 3.0
        np.testing.assert_allclose(sel.matrix, want, atol=1e-12)
        assert sel.weight == pytest.approx(2 / 3)
        # a simple eigenvalue: the branch is P_k times the weight Tr(P_k Z)
        np.testing.assert_allclose(lueders_select(Z_OBS, 1, PLUS).matrix, np.diag([0.5, 0.0]), atol=1e-12)
        # the identity's one outcome leaves the state undisturbed
        z = random_density(2, 2, 0)
        np.testing.assert_allclose(lueders_select(ID2, 0, z).matrix, z.matrix, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_select_trace_matches_born(self, seed):
        obs = degenerate_observable([0.0, 0.0, 3.0], seed)
        z = random_density(3, 3, seed)
        dist = born(obs, z)
        for k in range(obs.outcome_count):
            assert lueders_select(obs, k, z).weight == pytest.approx(
                dist.probability(k), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_selects_sum_to_aggregate_exactly(self, seed):
        # the aggregate accumulates the same products in the same order,
        # so the equality is bitwise, not just within tolerance
        obs = degenerate_observable([1.0, 1.0, -1.0, 2.0], seed)
        z = random_density(4, 4, seed)
        total = np.zeros((4, 4), dtype=complex)
        for k in range(obs.outcome_count):
            total += lueders_select(obs, k, z).matrix
        assert np.array_equal(total, lueders_aggregate(obs, z).matrix)

    def test_aggregate_worked_values(self):
        # blocks of one eigenspace keep their coherence, cross blocks go
        want = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3.0
        np.testing.assert_allclose(lueders_aggregate(OBS225, PSI3).matrix, want, atol=1e-12)
        np.testing.assert_allclose(lueders_aggregate(Z_OBS, PLUS).matrix, np.eye(2) / 2.0, atol=1e-12)
        z = random_density(2, 2, 0)
        np.testing.assert_allclose(lueders_aggregate(ID2, z).matrix, z.matrix, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_aggregate_is_valid_state(self, seed):
        obs = degenerate_observable([1.0, 2.0, 2.0, 5.0, 5.0], seed)
        z = random_density(5, 5, seed)
        validate(lueders_aggregate(obs, z))

    @pytest.mark.parametrize("seed", range(5))
    def test_aggregate_idempotent(self, seed):
        obs = degenerate_observable([1.0, 1.0, 4.0], seed)
        z = random_density(3, 3, seed)
        once = lueders_aggregate(obs, z)
        twice = lueders_aggregate(obs, once)
        assert max_abs(once.matrix - twice.matrix) < 1e-12

    def test_normalized_selection_of_pure_stays_pure(self):
        sel = normalize(lueders_select(OBS225, 0, PSI3))
        assert sel.purity() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            sel.matrix, from_pure([1.0, 1.0, 0.0]).matrix, atol=1e-12
        )


class TestNormalize:
    def test_divides_by_trace(self):
        sel = lueders_select(OBS225, 1, PSI3)
        z = normalize(sel)
        assert z.trace == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 8, 32, 128])
    def test_equals_division_by_trace_bitwise(self, dim):
        # multiplying by the reciprocal is what complex division by a real
        # scalar reduces to, so the bits are those of m / tr
        obs = degenerate_observable(np.arange(dim) % 3, dim)
        z = random_density(dim, dim, dim)
        for k in range(obs.outcome_count):
            sel = lueders_select(obs, k, z)
            tr = float(np.trace(sel.matrix).real)
            assert np.array_equal(normalize(sel).matrix, sel.matrix / tr)

    def test_zero_branch_raises(self):
        z = from_pure([1.0, 0.0, 0.0])
        with pytest.raises(ImpossibleOutcome):
            normalize(lueders_select(OBS225, 1, z))

    def test_floor_default(self):
        assert WEIGHT_FLOOR == 1e-12


class TestVonNeumann:
    def test_diagonal_in_chosen_basis(self):
        out = von_neumann_aggregate(OBS225, PSI3)
        np.testing.assert_allclose(out.matrix, np.eye(3) / 3.0, atol=1e-12)
        # even the identity, which Lueders leaves alone, dephases |+>
        out = von_neumann_aggregate(ID2, PLUS)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_lueders_without_degeneracy(self, seed):
        obs = degenerate_observable([-1.0, 0.5, 2.0], seed)
        z = random_density(3, 3, seed)
        np.testing.assert_allclose(
            von_neumann_aggregate(obs, z).matrix,
            lueders_aggregate(obs, z).matrix,
            atol=1e-10,
        )

    def test_differs_from_lueders_under_degeneracy(self):
        gap = max_abs(
            von_neumann_aggregate(OBS225, PSI3).matrix
            - lueders_aggregate(OBS225, PSI3).matrix
        )
        assert gap > 0.3

    def test_custom_basis_choice(self):
        s = 1.0 / np.sqrt(2.0)
        rotated = [
            np.array([[s, s], [s, -s], [0.0, 0.0]]),
            np.array([[0.0], [0.0], [1.0]]),
        ]
        out = von_neumann_aggregate(OBS225, PSI3, basis_choice=rotated)
        validate(out)
        # the rotated first block mixes weight differently from the standard one
        default = von_neumann_aggregate(OBS225, PSI3)
        assert max_abs(out.matrix - default.matrix) > 0.1

    def test_basis_choice_list_is_read_as_vectors(self):
        # a block given as a list of as many vectors as the dimension is
        # still a list of vectors, not the rows of a matrix: the state
        # along the first chosen vector is diagonal in the chosen basis
        obs = spectral_decompose(3.0 * np.eye(2))
        v1, v2 = Y_PLUS_MINUS
        z = from_pure(v1)
        out = von_neumann_aggregate(obs, z, basis_choice=[[v1, v2]])
        np.testing.assert_allclose(out.matrix, z.matrix, atol=1e-15)

    def test_rejects_wrong_block_count(self):
        with pytest.raises(BadBasis):
            von_neumann_aggregate(OBS225, PSI3, basis_choice=[np.eye(3)])

    def test_rejects_non_orthonormal_block(self):
        blocks = [np.ones((3, 2)), np.array([[0.0], [0.0], [1.0]])]
        with pytest.raises(BadBasis):
            von_neumann_aggregate(OBS225, PSI3, basis_choice=blocks)

    def test_rejects_basis_outside_eigenspace(self):
        blocks = [
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
            np.array([[0.0], [1.0], [0.0]]),
        ]
        with pytest.raises(BadBasis):
            von_neumann_aggregate(OBS225, PSI3, basis_choice=blocks)

    def test_bad_basis_names_worst_outcome(self):
        # outcomes 0 and 2 (both simple, so checked in one stack) leave
        # their eigenspaces, outcome 2 by more
        obs = spectral_decompose(np.diag([1.0, 2.0, 2.0, 3.0]))
        e = np.eye(4)
        blocks = [
            np.cos(0.1) * e[:, :1] + np.sin(0.1) * e[:, 3:],
            e[:, 1:3],
            np.cos(0.5) * e[:, 3:] + np.sin(0.5) * e[:, :1],
        ]
        with pytest.raises(BadBasis, match=r"^outcome 2: basis leaves its eigenvalue subspace"):
            von_neumann_aggregate(obs, from_pure(e[:, 0]), basis_choice=blocks)
        blocks[1] = e[:, 1:2] @ np.ones((1, 2))
        with pytest.raises(BadBasis, match=r"^outcome 1: basis not orthonormal"):
            von_neumann_aggregate(obs, from_pure(e[:, 0]), basis_choice=blocks)


class TestThetaFamily:
    @pytest.mark.parametrize("seed", range(6))
    def test_rotated_family_invariants(self, seed):
        obs = degenerate_observable([1.0, 1.0, 1.0, 4.0, 4.0], seed)
        fam = rotated_theta_family(obs, seed)
        assert fam.residual() < 1e-12
        for k, th in enumerate(fam.thetas):
            for kp, pair in enumerate(obs.pairs):
                want = th if k == kp else np.zeros_like(th)
                np.testing.assert_allclose(th @ pair.projector, want, atol=1e-12)

    def test_reduction_is_plain_lueders(self):
        fam = make_theta_family(OBS225, OBS225.basis)
        for th, pair in zip(fam.thetas, OBS225.pairs):
            assert np.array_equal(th, pair.projector)
        np.testing.assert_allclose(
            theta_aggregate(fam, PSI3).matrix,
            lueders_aggregate(OBS225, PSI3).matrix,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            theta_select(fam, 0, PSI3).matrix,
            lueders_select(OBS225, 0, PSI3).matrix,
            atol=1e-14,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_select_weight_matches_born(self, seed):
        obs = degenerate_observable([2.0, 2.0, 7.0], seed)
        fam = rotated_theta_family(obs, seed + 100)
        z = random_density(3, 3, seed)
        dist = born(obs, z)
        for k in range(obs.outcome_count):
            assert theta_select(fam, k, z).weight == pytest.approx(
                dist.probability(k), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_eigenvalue_repeats_after_update(self, seed):
        obs = degenerate_observable([1.0, 1.0, 6.0], seed)
        fam = rotated_theta_family(obs, seed)
        z = random_density(3, 3, seed)
        for k in range(obs.outcome_count):
            again = born(obs, normalize(theta_select(fam, k, z)))
            assert again.probability(k) == pytest.approx(1.0, abs=1e-10)

    def test_eigenstates_not_invariant(self):
        s = 1.0 / np.sqrt(2.0)
        targets = [
            np.array([[s, s], [s, -s], [0.0, 0.0]]),
            np.array([[0.0], [0.0], [1.0]]),
        ]
        fam = make_theta_family(OBS225, targets)
        want = np.zeros((3, 3))
        want[:, :2] = targets[0]
        np.testing.assert_allclose(fam.theta(0), want, atol=1e-12)
        np.testing.assert_allclose(
            dagger(fam.theta(0)) @ fam.theta(0), OBS225.pairs[0].projector, atol=1e-12
        )
        z = from_pure([1.0, 0.0, 0.0])
        moved = theta_select(fam, 0, z)
        assert moved.weight == pytest.approx(1.0)
        assert max_abs(moved.matrix - z.matrix) > 0.4
        np.testing.assert_allclose(moved.matrix, from_pure([1.0, 1.0, 0.0]).matrix, atol=1e-12)

    def test_aggregate_valid_state(self):
        fam = rotated_theta_family(OBS225, 5)
        validate(theta_aggregate(fam, PSI3))

    def test_rejects_target_outside_subspace(self):
        s = 1.0 / np.sqrt(2.0)
        bad = [
            np.array([[s, 0.0], [0.0, 1.0], [s, 0.0]]),
            np.array([[0.0], [0.0], [1.0]]),
        ]
        with pytest.raises(SubspaceViolation):
            make_theta_family(OBS225, bad)

    def test_target_list_is_read_as_vectors(self):
        # [[v1, v2]] on a 2-fold eigenvalue of a 2-level system names the
        # targets v1 and v2, the same as with fewer vectors than components
        obs = spectral_decompose(3.0 * np.eye(2))
        v1, v2 = Y_PLUS_MINUS
        fam = make_theta_family(obs, [[v1, v2]])
        np.testing.assert_array_equal(fam.targets[0], np.column_stack([v1, v2]))

    def test_theta_index_bounds(self):
        fam = rotated_theta_family(OBS225, 0)
        with pytest.raises(BadOutcomeIndex):
            fam.theta(2)

    @pytest.mark.parametrize("spectrum", [[1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0], np.arange(9.0)])
    def test_rotated_family_is_per_outcome_random_unitary(self, spectrum):
        # one draw for all outcomes takes the stream that one
        # random_unitary per outcome would, so the targets and the
        # generator's later draws are the same bit for bit
        obs = degenerate_observable(spectrum, 4)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        fam = rotated_theta_family(obs, rng)
        for t, b in zip(fam.targets, obs.basis):
            assert np.array_equal(t, b @ random_unitary(b.shape[1], ref))
        assert rng.standard_normal() == ref.standard_normal()

    def test_rotated_family_deterministic(self):
        a = rotated_theta_family(OBS225, 3)
        b = rotated_theta_family(OBS225, 3)
        for ta, tb in zip(a.thetas, b.thetas):
            assert np.array_equal(ta, tb)

    @pytest.mark.parametrize(
        "targets",
        [
            # one vector for the doubly degenerate eigenvalue 1 of diag(1, 1, 2)
            (np.eye(3)[:, :1], np.eye(3)[:, 2:]),
            # one block short, and one too many
            (np.eye(3)[:, :2],),
            (np.eye(3)[:, :2], np.eye(3)[:, 2:], np.eye(3)[:, 2:]),
            # vectors of the wrong dimension
            (np.eye(4)[:, :2], np.eye(4)[:, 2:3]),
        ],
    )
    def test_direct_construction_checks_block_shapes(self, targets):
        # ThetaFamily built without make_theta_family: a wrong block is a
        # BadBasis (exit 3) at once, not an IndexError in residual() or a
        # ValueError in theta_select
        obs = spectral_decompose(np.diag([1.0, 1.0, 2.0]))
        with pytest.raises(BadBasis) as info:
            ThetaFamily(observable=obs, targets=targets)
        assert info.value.exit_code == 3

    def test_direct_construction_accepts_right_shapes(self):
        fam = ThetaFamily(observable=OBS225, targets=OBS225.basis)
        assert fam.residual() <= 1e-15
        validate(theta_aggregate(fam, PSI3))


def _first_block_with(entry):
    """OBS225's basis choice with ``entry`` in place of the first component."""
    block = np.eye(3)[:, :2].astype(complex)
    block[0, 0] = entry
    return [block, np.eye(3)[:, 2:]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_theta_family(OBS225, _first_block_with(np.nan)),
        lambda: theta_select(make_theta_family(OBS225, _first_block_with(np.nan)), 0, PSI3),
        lambda: von_neumann_aggregate(OBS225, PSI3, basis_choice=_first_block_with(np.inf)),
        # finite, but its Gram overflows
        lambda: make_theta_family(OBS225, _first_block_with(1e200)),
    ],
)
def test_non_finite_targets_are_bad_bases(call):
    # a target block or basis choice is read by linalg._columns, which
    # refuses a non-finite entry, and judged by _defects, where an overflow
    # reads inf: BadBasis (exit 3), never a NaN state or a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QMeasureError) as info:
            call()
    assert isinstance(info.value, BadBasis) and info.value.exit_code == 3


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("outcome", [0, 1])
def test_direct_theta_family_refuses_non_finite_targets(entry, outcome):
    # built directly, not by make_theta_family: the constructor is the one
    # check a family passes, so a NaN target never reaches residual() or a
    # selected state
    targets = [np.array(b) for b in OBS225.basis]
    targets[outcome][0, 0] = entry
    with pytest.raises(BadBasis, match=f"outcome {outcome}: target block contains non-finite entries"):
        ThetaFamily(OBS225, tuple(targets))


def test_channels_keep_no_dense_arrays():
    # the channels work from the basis blocks and keep nothing d x d on
    # the observable or the theta family; reading the projectors builds
    # them for the caller only
    dim = 64
    obs = degenerate_observable(np.arange(1.0, dim + 1.0), 0)
    fam = rotated_theta_family(obs, 1)
    z = random_density(dim, dim, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lueders_aggregate(obs, z)
        theta_aggregate(fam, z)
        von_neumann_aggregate(obs, z)
        obs.projectors
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert obs.outcome_count == dim
    assert retained < 4 * dim * dim * 16, f"{retained} bytes retained"

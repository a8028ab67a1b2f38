"""Compatibility conditions, the lemma, frame changes, and theta variants."""

import gc
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from qmeasure.channels import (
    lueders_aggregate,
    lueders_select,
    make_theta_family,
    normalize,
    rotated_theta_family,
    theta_aggregate,
    theta_select,
)
from qmeasure import compatibility
from qmeasure.compatibility import (
    FAILS,
    HOLDS,
    INDETERMINATE,
    ConditionResult,
    Witness,
    compat_report,
    condition1_holds,
    condition2_holds,
    curated_pairs,
    heisenberg_observable,
    lemma_check,
    sector_rotated_family,
    sequential_select,
    theta_condition1,
    theta_condition2,
    verdict_from_residual,
)
from qmeasure.config import RunConfig
from qmeasure.errors import (
    BadArgument,
    ContractError,
    NoConvergence,
    NotPositive,
    NotUnitary,
    ValidationError,
    VerdictDisagreement,
)
from qmeasure.linalg import _rng, commutes, dagger, max_abs, random_unitary
from qmeasure.observables import Observable, SpectralPair, reconstruct, spectral_decompose
from qmeasure.states import from_pure, random_density

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
Z_OBS = spectral_decompose(np.diag([1.0, -1.0]))
X_OBS = spectral_decompose(SX)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

# sigma_z on the first factor, sigma_x on the second: block structure
# guarantees commutation with plenty of degeneracy on both sides
R4 = spectral_decompose(np.diag([1.0, 1.0, -1.0, -1.0]))
S4 = spectral_decompose(np.kron(np.eye(2), SX))


class TestSequentialSelect:
    def test_worked_two_step_weights(self):
        ground = from_pure([1.0, 0.0])
        assert sequential_select(Z_OBS, 1, X_OBS, 1, ground).weight == pytest.approx(0.5)
        assert sequential_select(
            Z_OBS, 1, X_OBS, 1, np.eye(2) / 2.0
        ).weight == pytest.approx(0.25)

    def test_is_double_sandwich(self):
        z = random_density(4, 4, 0)
        got = sequential_select(R4, 0, S4, 1, z)
        pk = R4.pairs[0].projector
        ptj = S4.pairs[1].projector
        np.testing.assert_allclose(
            got.matrix, ptj @ pk @ z.matrix @ pk @ ptj, atol=1e-14
        )
        # selecting the same outcome twice is one selection
        np.testing.assert_allclose(
            sequential_select(R4, 0, R4, 0, z).matrix, lueders_select(R4, 0, z).matrix, atol=1e-14
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_commuting_order_symmetric(self, seed):
        z = random_density(4, 4, seed)
        for k in range(R4.outcome_count):
            for j in range(S4.outcome_count):
                ab = sequential_select(R4, k, S4, j, z).weight
                ba = sequential_select(S4, j, R4, k, z).weight
                assert ab == pytest.approx(ba, abs=1e-12)


class TestConditions:
    def test_self_always_compatible(self):
        for obs in (Z_OBS, X_OBS, R4, S4, spectral_decompose(np.diag([2.0, 2.0, 5.0]))):
            assert condition1_holds(obs, obs).holds
            assert condition2_holds(obs, obs).holds

    def test_conjugate_pair_fails_both(self):
        c1 = condition1_holds(Z_OBS, X_OBS)
        c2 = condition2_holds(Z_OBS, X_OBS)
        assert not c1.holds and not c2.holds
        assert c1.verdict == FAILS and c2.verdict == FAILS

    def test_lost_certainty_witness(self):
        # after z-selection, an x-selection randomizes the repeat outcome
        ground = from_pure([1.0, 0.0])
        rerun = normalize(sequential_select(Z_OBS, 1, X_OBS, 1, ground))
        from qmeasure.channels import born

        again = born(Z_OBS, rerun)
        assert again.probability(0) == pytest.approx(0.5)
        assert again.probability(1) == pytest.approx(0.5)

    def test_statistics_shift_oracle(self):
        plus = from_pure([1.0, 1.0])
        ptj = X_OBS.pairs[1].projector
        before = float(np.trace(ptj @ plus.matrix).real)
        after = float(np.trace(ptj @ lueders_aggregate(Z_OBS, plus).matrix).real)
        assert before == pytest.approx(1.0)
        assert after == pytest.approx(0.5)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_commuting_blocks_hold(self, mode):
        assert condition1_holds(R4, S4, mode, samples=50, seed=1).holds
        assert condition2_holds(R4, S4, mode, samples=50, seed=1).holds

    def test_sampled_witness_state_recorded(self):
        res = condition1_holds(Z_OBS, X_OBS, "sampled", samples=20, seed=0)
        assert not res.holds
        assert res.witness is not None
        assert res.witness.state is not None
        assert res.witness.l != res.witness.k

    def test_mode_validation(self):
        with pytest.raises(Exception):
            condition1_holds(Z_OBS, X_OBS, "fuzzy")

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_condition1_memory_is_one_s_outcome(self, mode):
        # d = 64, simple S against R with five outcomes of multiplicity
        # 12-13: condition 1 holds the products of one S outcome at a
        # time, N_j and X y_k for every state and outcome k with m_k > 1
        d, samples = 64, 100
        u, w = random_unitary(d, 7), random_unitary(d, 8)
        r = spectral_decompose(u @ np.diag(np.resize(np.arange(-2.0, 3.0), d)) @ dagger(u))
        s = spectral_decompose(w @ np.diag(np.arange(d) + 0.5) @ dagger(w))
        assert s.outcome_count == d and min(r.multiplicities) > 1
        one_outcome = (d * d + sum(d * samples for m in r.multiplicities if m > 1)) * 16
        condition1_holds(r, s, mode, samples, 0)  # warm up numpy's own caches
        tracemalloc.start()
        try:
            condition1_holds(r, s, mode, samples, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # exact reads 0.85 and sampled 2.4 of this unit; batching S outcomes
        # together, up to 2^16 entries a batch, read 4.4 and 3.6
        assert peak < 3 * one_outcome

    def test_exact_condition1_keeps_no_witness_states(self):
        # d = 64, simple R and S: the exact route holds the residual table,
        # 8 K_S K_R^2 bytes, and no table of witness states, which only a
        # sampled probe set has
        d = 64
        u, w = random_unitary(d, 7), random_unitary(d, 8)
        r = spectral_decompose(u @ np.diag(np.arange(d) - 3.0) @ dagger(u))
        s = spectral_decompose(w @ np.diag(np.arange(d) + 0.5) @ dagger(w))
        table = 8 * s.outcome_count * r.outcome_count**2
        condition1_holds(r, s, "exact")  # warm up numpy's own caches
        tracemalloc.start()
        try:
            condition1_holds(r, s, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # reads 1.33 tables; an int64 state table beside it read 2.33
        assert peak < 1.6 * table


class TestVerdictBand:
    def test_bands(self):
        assert verdict_from_residual(1e-12, 1e-9) == HOLDS
        assert verdict_from_residual(1e-5, 1e-9) == FAILS
        assert verdict_from_residual(3e-9, 1e-9) == INDETERMINATE

    def test_indeterminate_reported_not_rounded(self):
        # drive the residual into the guard band by choosing tol near it
        eps = np.zeros((4, 4))
        eps[0, 2] = eps[2, 0] = 1e-8
        r = spectral_decompose(np.diag([1.0, 1.0, -1.0, -1.0]) + eps)
        res = condition2_holds(r, S4, tol=max_abs(\
            sum(p @ S4.pairs[0].projector @ p for p in r.projectors)
            - S4.pairs[0].projector))
        assert res.verdict == INDETERMINATE


class TestLemma:
    def test_identity_weight(self):
        assert lemma_check(np.eye(3), np.arange(9.0).reshape(3, 3))

    def test_kernel_case(self):
        b = np.diag([1.0, 0.0])
        c = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert lemma_check(b, c)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_random_sweep(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(40):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            b = g @ dagger(g)
            c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert lemma_check(b, c)

    def test_rejects_negative_b(self):
        with pytest.raises(NotPositive):
            lemma_check(np.diag([1.0, -1.0]), np.eye(2))


class TestHeisenberg:
    def test_identity_leaves_observable(self):
        moved = heisenberg_observable(Z_OBS, np.eye(2))
        for a, b in zip(moved.pairs, Z_OBS.pairs):
            np.testing.assert_allclose(a.projector, b.projector, atol=1e-12)

    def test_hadamard_swaps_bases(self):
        moved = heisenberg_observable(Z_OBS, HADAMARD)
        np.testing.assert_allclose(
            moved.pairs[0].projector, from_pure([1.0, -1.0]).matrix, atol=1e-12
        )
        np.testing.assert_allclose(
            moved.pairs[1].projector, from_pure([1.0, 1.0]).matrix, atol=1e-12
        )

    def test_eigenvalues_preserved(self):
        u = random_unitary(4, 2)
        moved = heisenberg_observable(R4, u)
        assert moved.eigenvalues == R4.eigenvalues

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            heisenberg_observable(Z_OBS, np.diag([1.0, 2.0]))

    def test_rejects_entries_whose_product_is_nan(self):
        # U*U holds inf - inf = NaN, which no tolerance may pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitary):
                heisenberg_observable(Z_OBS, [[1e308, 1e308], [1e308, -1e308]])


class TestCompatReport:
    def test_commuting_pair(self):
        rep = compat_report(R4, S4)
        assert rep.verdict_condition1 and rep.verdict_condition2 and rep.verdict_commute
        assert rep.commutator_residual < 1e-12

    def test_conjugate_pair(self):
        rep = compat_report(Z_OBS, X_OBS)
        assert not rep.verdict_condition1
        assert not rep.verdict_condition2
        assert not rep.verdict_commute
        assert rep.commutator_residual == pytest.approx(2.0)
        assert rep.witness is not None

    @pytest.mark.parametrize("factor", [1e-3, 1e6])
    def test_commutator_verdict_ignores_units(self, factor):
        # the commutator residual is relative to max|R| max|S|, so a
        # commuting pair stays commuting whatever units R is given in
        r, s = curated_pairs(8, 1, commuting=True, seed=3)[0]
        rep = compat_report(spectral_decompose(factor * reconstruct(r)), s)
        verdicts = (rep.verdict_condition1, rep.verdict_condition2, rep.verdict_commute)
        assert verdicts == (True, True, True)
        assert rep.commutator_residual < 1e-12
        assert rep.indeterminate == ()

    def test_evolved_copy_incompatible(self):
        rep = compat_report(Z_OBS, Z_OBS, u2=HADAMARD)
        assert not rep.verdict_commute
        assert not rep.verdict_condition1 and not rep.verdict_condition2

    def test_decisive_disagreement_raises(self, monkeypatch):
        # a condition 1 route that fails a commuting pair decisively
        # contradicts condition 2 and the commutator
        monkeypatch.setattr(compatibility, "_conditions", _with_condition1(_decisive_failure))
        with pytest.raises(VerdictDisagreement, match="three-way"):
            compat_report(R4, S4)

    def test_evolved_copy_compatible_with_identity(self):
        rep = compat_report(Z_OBS, Z_OBS, u2=np.eye(2))
        assert rep.verdict_commute and rep.verdict_condition1


def _with_condition1(route):
    """The condition kernel with every condition 1 result replaced by
    ``route(zs)`` for its probe set (None on the exact route)."""
    kernel = compatibility._conditions

    def patched(r_basis, r_targets, s_basis, s_targets, probe_sets, tol, conditions=(1, 2)):
        runs = kernel(r_basis, r_targets, s_basis, s_targets, probe_sets, tol, conditions)
        if 1 in runs:
            runs[1] = [route(zs) for zs in probe_sets]
        return runs

    return patched


def _decisive_failure(zs):
    return ConditionResult(False, 0.5, FAILS, None)


def _decisive_failure_at(k, j, l, exact_only=False):
    """A condition 1 route failing decisively at (k, j, l); with
    ``exact_only`` the sampled route holds at (0, 0, 0) instead."""

    def route(zs):
        if exact_only and zs is not None:
            return ConditionResult(True, 0.0, HOLDS, Witness(None, 0, 0, 0))
        return ConditionResult(False, 0.5, FAILS, Witness(None, k, j, l))

    return _with_condition1(route)


class TestNonFiniteResiduals:
    """A residual that is not finite is no verdict: ContractError, exit 4.
    The commutator of operators near the largest double is read from
    eigenvalues over their largest magnitude, so it is finite and gives a verdict."""

    BIG = spectral_decompose(np.array([[1e308, 1e308], [1e308, -1e308]]))

    def test_observable_near_the_largest_double_decomposes(self):
        assert np.isfinite(self.BIG.eigenvalues).all()

    # the name is kept from when an unscaled commutator overflowed here
    @pytest.mark.parametrize("partner", ["z", "same"])
    def test_overflowing_commutator_raises(self, partner):
        s = self.BIG if partner == "same" else Z_OBS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compat_report(self.BIG, s)
        verdict = (report.verdict_condition1, report.verdict_condition2, report.verdict_commute)
        if partner == "same":
            assert verdict == (True, True, True) and report.commutator_residual == 0.0
        else:
            assert verdict == (False, False, False)
            assert report.commutator_residual == 1.4142135623730951

    @pytest.mark.parametrize("check", [condition1_holds, condition2_holds])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_nan_residual_raises(self, check, mode):
        nan = Observable(
            dim=2,
            pairs=(SpectralPair(-1.0, np.array([[np.nan], [0.0]])), SpectralPair(1.0, np.array([[0.0], [1.0]]))),
        )
        with pytest.raises(ContractError, match="residual is not finite"):
            check(nan, X_OBS, mode)


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": -1}, {"tol": np.inf}, {"tol": np.nan}, {"cluster_tol": np.inf}, {"cluster_tol": 0.0}],
    )
    def test_bad_values_are_bad_arguments(self, kwargs):
        with pytest.raises(BadArgument):
            RunConfig(**kwargs)


class TestDisagreementNamesWitnesses:
    def test_three_way_message(self, monkeypatch):
        monkeypatch.setattr(compatibility, "_conditions", _decisive_failure_at(1, 0, 1))
        with pytest.raises(VerdictDisagreement) as info:
            compat_report(R4, S4)
        assert re.search(
            r"three-way .* \(residuals c1=5\.000e-01 at \(k, j, l\) = \(1, 0, 1\), "
            r"c2=\S+ at \(k, j, l\) = \([-\d]+, [-\d]+, [-\d]+\), comm=\S+\)$",
            str(info.value),
        ), str(info.value)

    def test_exact_sampled_message(self, monkeypatch):
        monkeypatch.setattr(compatibility, "_conditions", _decisive_failure_at(1, 0, 1, exact_only=True))
        with pytest.raises(VerdictDisagreement) as info:
            compat_report(R4, S4)
        assert str(info.value) == (
            "condition 1: exact and sampled routes disagree decisively "
            "(exact 5.000e-01 at (k, j, l) = (1, 0, 1), sampled 0.000e+00 at (k, j, l) = (0, 0, 0))"
        )


class TestCurated:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_commuting_actually_commute(self, dim):
        for r, s in curated_pairs(dim, 5, commuting=True, seed=dim):
            from qmeasure.observables import reconstruct

            assert commutes(reconstruct(r), reconstruct(s), 1e-9).commute

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_non_commuting_filtered(self, dim):
        for r, s in curated_pairs(dim, 5, commuting=False, seed=dim):
            from qmeasure.observables import reconstruct

            res = commutes(reconstruct(r), reconstruct(s), 1e-9)
            assert not res.commute
            assert res.residual > 1e-6

    def test_degeneracy_occurs(self):
        pairs = curated_pairs(6, 10, commuting=True, seed=0)
        assert any(
            any(p.multiplicity > 1 for p in obs.pairs)
            for pair in pairs
            for obs in pair
        )

    def test_deterministic(self):
        a = curated_pairs(3, 2, commuting=False, seed=5)
        b = curated_pairs(3, 2, commuting=False, seed=5)
        from qmeasure.observables import reconstruct

        for (r1, s1), (r2, s2) in zip(a, b):
            assert np.array_equal(reconstruct(r1), reconstruct(r2))
            assert np.array_equal(reconstruct(s1), reconstruct(s2))


class TestThetaConditions:
    def test_reduction_matches_plain(self):
        for r, s in [(Z_OBS, X_OBS), (R4, S4), (Z_OBS, Z_OBS)]:
            fam_r = make_theta_family(r, r.basis)
            fam_s = make_theta_family(s, s.basis)
            assert theta_condition1(fam_r, fam_s).holds == condition1_holds(r, s).holds
            assert theta_condition2(fam_r, fam_s).holds == condition2_holds(r, s).holds

    def test_conjugate_pair_fails_any_family(self):
        for seed in range(3):
            fam_z = rotated_theta_family(Z_OBS, seed)
            fam_x = rotated_theta_family(X_OBS, seed + 50)
            assert not theta_condition1(fam_z, fam_x).holds
            assert not theta_condition2(fam_z, fam_x).holds

    @pytest.mark.parametrize("seed", range(4))
    def test_commuting_with_sector_rotations(self, seed):
        r, s = curated_pairs(5, 1, commuting=True, seed=seed)[0]
        fam_r = sector_rotated_family(r, s, seed=seed + 10)
        fam_s = sector_rotated_family(s, r, seed=seed + 20)
        assert theta_condition1(fam_r, fam_s).holds
        assert theta_condition2(fam_r, fam_s).holds
        assert theta_condition1(fam_r, fam_s, "sampled", samples=40, seed=seed).holds
        assert theta_condition2(fam_r, fam_s, "sampled", samples=40, seed=seed).holds

    def test_free_rotation_can_disturb_commuting_pair(self):
        # measuring the identity with rotated targets is a unitary kick:
        # it commutes with everything yet shifts sigma_z statistics,
        # so the per-family condition is strictly stronger than commuting
        id_obs = spectral_decompose(np.eye(2))
        kick = make_theta_family(id_obs, [HADAMARD])
        fam_z = make_theta_family(Z_OBS, Z_OBS.basis)
        res = theta_condition2(kick, fam_z)
        assert not res.holds
        assert res.residual == pytest.approx(1.0)

    def test_sector_family_is_eigenvalue_repeatable(self):
        r, s = curated_pairs(6, 1, commuting=True, seed=3)[0]
        fam = sector_rotated_family(r, s, seed=4)
        assert fam.residual() < 1e-10


class TestSymmetry:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("commuting", [True, False])
    def test_conditions_symmetric_in_arguments(self, dim, commuting):
        for r, s in curated_pairs(dim, 3, commuting=commuting, seed=dim):
            assert condition1_holds(r, s).holds == condition1_holds(s, r).holds
            assert condition2_holds(r, s).holds == condition2_holds(s, r).holds


# Z/X and a non-commuting curated pair at d=6 (with a degenerate outcome),
# each with theta families whose targets are rotated inside every eigenspace
WITNESS_PAIRS = [(Z_OBS, X_OBS), curated_pairs(6, 1, commuting=False, seed=6)[0]]


def _trace(op, state):
    return np.trace(op @ np.asarray(state)).real


class TestSampledWitness:
    """The reported witness reproduces the residual through the public channels."""

    @pytest.mark.parametrize("pair", range(len(WITNESS_PAIRS)))
    def test_condition1_projector(self, pair):
        r, s = WITNESS_PAIRS[pair]
        res = condition1_holds(r, s, "sampled", samples=30, seed=pair)
        w = res.witness
        assert not res.holds and w.l != w.k
        branch = sequential_select(r, w.k, s, w.j, w.state)
        assert abs(_trace(r.projectors[w.l], branch)) == pytest.approx(res.residual, abs=1e-12)

    @pytest.mark.parametrize("pair", range(len(WITNESS_PAIRS)))
    def test_condition1_theta(self, pair):
        r, s = WITNESS_PAIRS[pair]
        fam_r, fam_s = rotated_theta_family(r, 10 + pair), rotated_theta_family(s, 20 + pair)
        res = theta_condition1(fam_r, fam_s, "sampled", samples=30, seed=pair)
        w = res.witness
        assert not res.holds and w.l != w.k
        branch = theta_select(fam_s, w.j, theta_select(fam_r, w.k, w.state))
        assert abs(_trace(r.projectors[w.l], branch)) == pytest.approx(res.residual, abs=1e-12)

    @pytest.mark.parametrize("pair", range(len(WITNESS_PAIRS)))
    def test_condition2_projector(self, pair):
        r, s = WITNESS_PAIRS[pair]
        res = condition2_holds(r, s, "sampled", samples=30, seed=pair)
        w = res.witness
        assert not res.holds and w.k is None and w.l is None
        shift = np.asarray(lueders_aggregate(r, w.state)) - np.asarray(w.state)
        assert abs(_trace(s.projectors[w.j], shift)) == pytest.approx(res.residual, abs=1e-12)

    @pytest.mark.parametrize("pair", range(len(WITNESS_PAIRS)))
    def test_condition2_theta(self, pair):
        r, s = WITNESS_PAIRS[pair]
        fam_r, fam_s = rotated_theta_family(r, 10 + pair), rotated_theta_family(s, 20 + pair)
        res = theta_condition2(fam_r, fam_s, "sampled", samples=30, seed=pair)
        w = res.witness
        assert not res.holds and w.k is None and w.l is None
        shift = np.asarray(theta_aggregate(fam_r, w.state)) - np.asarray(w.state)
        assert abs(_trace(s.projectors[w.j], shift)) == pytest.approx(res.residual, abs=1e-12)

    def test_witness_is_worst_over_every_triple(self):
        r, s = WITNESS_PAIRS[1]
        res = condition1_holds(r, s, "sampled", samples=30, seed=1)
        z = np.asarray(res.witness.state)
        worst = max(
            abs(_trace(r.projectors[l], sequential_select(r, k, s, j, z)))
            for j in range(s.outcome_count)
            for k in range(r.outcome_count)
            for l in range(r.outcome_count)
            if l != k
        )
        assert worst == pytest.approx(res.residual, abs=1e-12)


@pytest.mark.parametrize(
    "check, family",
    [
        (condition1_holds, False),
        (condition2_holds, False),
        (theta_condition1, True),
        (theta_condition2, True),
    ],
)
def test_unknown_mode_rejected(check, family):
    r, s = (make_theta_family(o, o.basis) for o in (Z_OBS, X_OBS)) if family else (Z_OBS, X_OBS)
    with pytest.raises(ValidationError):
        check(r, s, "fuzzy")


@pytest.mark.parametrize("seed", [6, 16])
def test_verdicts_survive_rescaling_by_1e8(seed):
    # R's zero eigenvalues come out as rounding noise of about 1e-8 at this
    # scale; clustered against the whole spectrum they stay one outcome
    r, s = curated_pairs(8, 1, commuting=True, seed=seed)[0]
    big = spectral_decompose(1e8 * reconstruct(r))
    assert big.outcome_count == r.outcome_count
    rep = compat_report(big, s)
    assert (rep.verdict_condition1, rep.verdict_condition2, rep.verdict_commute) == (True, True, True)


class TestKeptDraw:
    """The seeded probe batch is a pure function of (dim, samples, seed):
    the most recent one drawn for an int seed is kept and handed back."""

    @staticmethod
    def fresh(dim, samples, seed):
        rng = _rng(seed)
        g = rng.standard_normal((samples, dim)) + 1j * rng.standard_normal((samples, dim))
        return g / np.linalg.norm(g, axis=1)[:, None]

    def test_kept_batch_is_a_fresh_draw_and_read_only(self):
        first = compatibility._random_state_batch(8, 10, 3)
        again = compatibility._random_state_batch(8, 10, 3)
        assert again is first
        assert np.array_equal(again, self.fresh(8, 10, 3))
        assert not again.flags.writeable

    def test_generator_seed_draws_fresh_and_keeps_nothing(self):
        kept = compatibility._random_state_batch(8, 10, 3)
        a = compatibility._random_state_batch(8, 10, np.random.default_rng(3))
        b = compatibility._random_state_batch(8, 10, np.random.default_rng(3))
        assert a is not b and np.array_equal(a, b) and np.array_equal(a, kept)
        assert compatibility._random_state_batch(8, 10, 3) is kept

    @pytest.mark.parametrize("key", [(8, 10, 4), (8, 11, 3), (9, 10, 3)])
    def test_new_key_draws_fresh(self, key):
        kept = compatibility._random_state_batch(8, 10, 3)
        other = compatibility._random_state_batch(*key)
        assert other is not kept and np.array_equal(other, self.fresh(*key))
        assert compatibility._random_state_batch(*key) is other

    @pytest.mark.parametrize("key", [(8, -1, 3), (8, 10, -1)])
    def test_refused_draw_is_not_kept(self, key):
        kept = compatibility._random_state_batch(8, 10, 3)
        with pytest.raises(BadArgument):
            compatibility._random_state_batch(*key)
        assert compatibility._random_state_batch(8, 10, 3) is kept

    def test_at_most_one_batch_is_held(self):
        first = weakref.ref(compatibility._random_state_batch(8, 10, 5))
        gc.collect()
        assert first() is not None  # kept while it is the most recent
        compatibility._random_state_batch(8, 10, 6)
        gc.collect()
        assert first() is None


class TestSolverFailures:
    """A numpy solver that fails is a NoConvergence (exit 4), never a bare LinAlgError."""

    @staticmethod
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    def test_compat_report(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", self.fail)
        with pytest.raises(NoConvergence, match="eigensolver failed"):
            compat_report(R4, S4)

    def test_seeded_unitary(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "qr", self.fail)
        with pytest.raises(NoConvergence, match="qr failed"):
            random_unitary(3, 0)

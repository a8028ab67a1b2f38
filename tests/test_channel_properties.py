"""Properties of the eigenbasis-block channel kernel.

Every branch is computed from the outcome's basis block; these checks hold
it against the dense textbook formulas P_k Z P_k and Theta_k Z Theta_k*
over random dimensions, simple and degenerate spectra, and pure and
full-rank states.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmeasure.channels import (
    born,
    lueders_aggregate,
    lueders_select,
    normalize,
    rotated_theta_family,
    theta_aggregate,
    theta_select,
    von_neumann_aggregate,
)
from qmeasure.errors import ImpossibleOutcome
from qmeasure.linalg import dagger, max_abs, random_unitary
from qmeasure.observables import spectral_decompose
from qmeasure.states import from_pure, random_density

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def setups(draw):
    """(observable, state, theta family, simple) from a drawn size and seed."""
    dim = draw(st.integers(2, 64))
    simple = draw(st.booleans())
    pure = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if simple:
        # gaps of at least 0.5 keep every eigenvalue its own outcome
        spectrum = np.arange(dim) + rng.uniform(0.0, 0.5, dim)
    else:
        spectrum = rng.integers(-2, 3, dim).astype(float)
    u = random_unitary(dim, rng)
    obs = spectral_decompose(u @ np.diag(spectrum) @ dagger(u))
    z = random_density(dim, 1 if pure else dim, rng)
    return obs, z, rotated_theta_family(obs, rng), simple


def _bound(obs):
    return 1e-12 * obs.dim


@PROPERTY
@given(setups())
def test_born_weights_are_projector_traces(setup):
    obs, z, _, _ = setup
    dist = born(obs, z)
    for k, pair in enumerate(obs.pairs):
        want = np.trace(pair.projector @ z.matrix).real
        assert abs(dist.probability(k) - want) <= _bound(obs)


@PROPERTY
@given(setups())
def test_lueders_branches_match_dense_sandwich(setup):
    obs, z, _, _ = setup
    for k, pair in enumerate(obs.pairs):
        p = pair.projector
        assert max_abs(lueders_select(obs, k, z).matrix - p @ z.matrix @ p) <= _bound(obs)


@PROPERTY
@given(setups())
def test_theta_branches_match_dense_sandwich(setup):
    obs, z, fam, _ = setup
    for k in range(fam.outcome_count):
        t = fam.theta(k)
        want = t @ z.matrix @ dagger(t)
        assert max_abs(theta_select(fam, k, z).matrix - want) <= _bound(obs)


@PROPERTY
@given(setups())
def test_aggregates_are_in_order_branch_sums_bitwise(setup):
    obs, z, fam, _ = setup
    total = np.zeros((obs.dim, obs.dim), dtype=complex)
    for k in range(obs.outcome_count):
        total += lueders_select(obs, k, z).matrix
    assert np.array_equal(total, lueders_aggregate(obs, z).matrix)
    total = np.zeros((obs.dim, obs.dim), dtype=complex)
    for k in range(fam.outcome_count):
        total += theta_select(fam, k, z).matrix
    assert np.array_equal(total, theta_aggregate(fam, z).matrix)


@PROPERTY
@given(setups())
def test_von_neumann_is_lueders_on_simple_spectra(setup):
    obs, z, _, simple = setup
    assume(simple)
    gap = max_abs(von_neumann_aggregate(obs, z).matrix - lueders_aggregate(obs, z).matrix)
    assert gap <= _bound(obs)


@PROPERTY
@given(setups())
def test_zero_weight_branch(setup):
    obs, _, fam, _ = setup
    assume(obs.outcome_count >= 2)
    # an eigenvector of the last outcome gives every other outcome weight 0
    z = from_pure(obs.basis[-1][:, 0])
    for k in range(obs.outcome_count - 1):
        for branch in (lueders_select(obs, k, z), theta_select(fam, k, z)):
            assert 0.0 <= branch.weight <= _bound(obs)
            with pytest.raises(ImpossibleOutcome):
                normalize(branch)


@st.composite
def dephasing_setups(draw):
    """(observable, state, chosen blocks or None) for d 2-32, simple or
    integer spectra, default or random caller-supplied eigenbases."""
    dim = draw(st.integers(2, 32))
    simple = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if simple:
        spectrum = np.arange(dim) + rng.uniform(0.0, 0.5, dim)
    else:
        spectrum = rng.integers(-2, 3, dim).astype(float)
    u = random_unitary(dim, rng)
    obs = spectral_decompose(u @ np.diag(spectrum) @ dagger(u))
    z = random_density(dim, draw(st.sampled_from([1, dim])), rng)
    chosen = None
    if draw(st.booleans()):
        chosen = [b @ random_unitary(b.shape[1], rng) for b in obs.basis]
    return obs, z, chosen


@PROPERTY
@given(dephasing_setups())
def test_von_neumann_is_the_per_ray_sum(setup):
    obs, z, chosen = setup
    zm = z.matrix
    v = np.hstack(obs.basis if chosen is None else chosen)
    want = np.zeros_like(zm)
    for s in range(obs.dim):
        ray = v[:, s]
        want += np.vdot(ray, zm @ ray) * np.outer(ray, ray.conj())
    got = von_neumann_aggregate(obs, z, basis_choice=chosen).matrix
    bound = 1e-13 * max(1.0, max_abs(zm))
    assert max_abs(got - want) <= bound
    assert abs(np.trace(got) - np.trace(zm)) <= 1e-12
    in_basis = dagger(v) @ got @ v
    assert max_abs(in_basis - np.diag(np.diag(in_basis))) <= bound

"""Properties of the multiplicity-group view and of the families built on it.

``Observable.offsets``, ``labels`` and ``groups`` state once which
outcomes have multiplicity m and which columns of the eigenbasis they
own.  ``rotated_theta_family`` and ``sector_rotated_family`` build their
targets from those groups and one ``linalg._haar_blocks`` draw, and skip
the content check of ``make_theta_family``, since their targets are valid
by construction; the properties here keep that check as a test.  The
Haar draw is held against a copy of the one-unitary-at-a-time draw it
replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmeasure.channels import make_theta_family, rotated_theta_family
from qmeasure.compatibility import sector_rotated_family
from qmeasure.linalg import _haar_blocks, dagger, random_unitary
from qmeasure.observables import spectral_decompose

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
KINDS = ("simple", "integer", "dfold")


def random_unitary_reference(dim, rng):
    """One Haar unitary from one (2, dim, dim) normal draw, QR and phase fix."""
    draws = rng.standard_normal((2, dim, dim))
    g = (draws[0] + 1j * draws[1]) / np.sqrt(2.0)
    if dim == 1:
        return g / np.abs(g)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _spectrum(kind, dim, rng):
    if kind == "simple":
        # gaps of at least 0.5 keep every eigenvalue its own outcome
        return np.arange(dim) + rng.uniform(0.0, 0.5, dim)
    if kind == "integer":
        return rng.integers(-2, 3, dim).astype(float)
    return np.full(dim, 1.5)


@st.composite
def observables(draw):
    """(observable, a partner sharing its eigenbasis or not, generator)."""
    dim = draw(st.integers(1, 32))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(dim, rng)
    obs = spectral_decompose(u @ np.diag(_spectrum(kind, dim, rng)) @ dagger(u))
    u_p = u if draw(st.booleans()) else random_unitary(dim, rng)
    partner = spectral_decompose(u_p @ np.diag(_spectrum("integer", dim, rng)) @ dagger(u_p))
    return obs, partner, rng


@PROPERTY
@given(observables())
def test_groups_partition_outcomes_and_columns(case):
    obs, _, _ = case
    ms = [m for m, _, _ in obs.groups]
    assert ms == sorted(set(obs.multiplicities))
    outcomes = np.concatenate([ks for _, ks, _ in obs.groups])
    columns = np.concatenate([cols.reshape(-1) for _, _, cols in obs.groups])
    assert sorted(outcomes) == list(range(obs.outcome_count))
    assert sorted(columns) == list(range(obs.dim))
    for m, ks, cols in obs.groups:
        assert all(obs.multiplicities[k] == m for k in ks)
        assert list(ks) == sorted(ks)
        np.testing.assert_array_equal(cols, obs.offsets[ks][:, None] + np.arange(m))


@PROPERTY
@given(observables())
def test_labels_and_offsets_follow_the_multiplicities(case):
    obs, _, _ = case
    np.testing.assert_array_equal(obs.labels, np.repeat(np.arange(obs.outcome_count), obs.multiplicities))
    np.testing.assert_array_equal(obs.offsets, np.searchsorted(obs.labels, np.arange(obs.outcome_count)))
    for k, b in enumerate(obs.basis):
        np.testing.assert_array_equal(obs.full_basis()[:, obs.offsets[k] : obs.offsets[k] + b.shape[1]], b)


@PROPERTY
@given(observables())
def test_views_are_read_only(case):
    obs, _, _ = case
    arrays = [obs.offsets, obs.labels] + [a for _, ks, cols in obs.groups for a in (ks, cols)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    assert isinstance(obs.groups, tuple)
    assert obs.groups is obs.groups


@PROPERTY
@given(observables())
def test_random_families_pass_the_content_check(case):
    obs, partner, rng = case
    for fam in (rotated_theta_family(obs, rng), sector_rotated_family(obs, partner, rng)):
        checked = make_theta_family(obs, fam.targets)
        assert [t.tobytes() for t in checked.targets] == [t.tobytes() for t in fam.targets]
        assert fam.residual() <= 1e-12 * obs.dim


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=10), st.integers(0, 2**32 - 1))
def test_haar_blocks_match_one_unitary_at_a_time(sizes, seed):
    # every list mixes sizes and has a repeat and a rank-one block
    sizes = sizes + [1, sizes[0]]
    rng, ref, again = (np.random.default_rng(seed) for _ in range(3))
    units = _haar_blocks(sizes, rng)
    assert len(units) == len(sizes)
    for m, u in zip(sizes, units):
        assert u.shape == (m, m)
        assert u.tobytes() == random_unitary_reference(m, ref).tobytes()
        assert u.tobytes() == random_unitary(m, again).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state == again.bit_generator.state


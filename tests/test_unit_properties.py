"""Verdicts in any units: rescaling an operator argument must not change a verdict.

Every operator argument is taken at scales s in {2^-3, 1, 1e6, 1e300}:
the constraint N of ``satisfies``, ``preserves_constraint`` and
``measurable_under``, the partner S of ``compat_report``, both observables
of ``is_function_refinement``, and a spectrum whose largest magnitude is
at least 1 at every scale for the clusters of ``spectral_decompose``.
Each case sits far from its threshold, so a verdict that moves with s
names a rule that reads an operator in its own units.  One state
violates N Z = 0 by 2e-9 relative to max|N|, twice the tolerance: an
absolute rule admits it once max|N| is small.

``lemma_check`` keeps an absolute slack, so its case is expected to fail.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmeasure.compatibility import compat_report, lemma_check
from qmeasure.config import RunConfig
from qmeasure.constraints import measurable_under, preserves_constraint, random_constrained_density, satisfies
from qmeasure.errors import ConstraintViolatedOnInput, QMeasureError
from qmeasure.linalg import DEFAULT_TOL, dagger, max_abs, random_unitary
from qmeasure.observables import is_function_refinement, spectral_decompose

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
SCALES = (2.0**-3, 1.0, 1e6, 1e300)
seeds = st.integers(0, 2**32 - 1)


def _rotated(u, values):
    return u @ np.diag(values) @ dagger(u)


@st.composite
def constrained(draw):
    """(N, U, rng): N = U diag(n) U* with d <= 8, max|n| <= 1 and a kernel of dimension at least 1."""
    dim = draw(st.integers(2, 8))
    rank = draw(st.integers(1, dim - 1))
    rng = np.random.default_rng(draw(seeds))
    u = random_unitary(dim, rng)
    n = np.zeros(dim)
    n[:rank] = rng.uniform(0.1, 1.0, rank) * rng.choice([-1.0, 1.0], rank)
    return _rotated(u, n), u, rng


def _kernel_and_violating(n, u, rng):
    """A state drawn from N's kernel, and one mixed with a range state to violate N Z = 0 by 2e-9 relative."""
    inside = random_constrained_density(n, rng).matrix
    out = np.outer(u[:, 0], u[:, 0].conj())  # the first column spans part of N's range
    weight = 2 * DEFAULT_TOL * max_abs(n) / max_abs(n @ out)
    return inside, (1.0 - weight) * inside + weight * out


@PROPERTY
@given(constrained())
def test_satisfies_does_not_depend_on_the_units_of_n(case):
    n, u, rng = case
    inside, violating = _kernel_and_violating(n, u, rng)
    assert [satisfies(inside, s * n).satisfied for s in SCALES] == [True] * 4
    assert [satisfies(violating, s * n).satisfied for s in SCALES] == [False] * 4


@PROPERTY
@given(constrained(), st.booleans())
def test_preserves_constraint_does_not_depend_on_the_units_of_n(case, commuting):
    n, u, rng = case
    dim = n.shape[0]
    inside, violating = _kernel_and_violating(n, u, rng)
    r = spectral_decompose(_rotated(u if commuting else random_unitary(dim, rng), rng.integers(-2, 3, dim)))
    rows = [[row.preserved for row in preserves_constraint(r, s * n, inside)] for s in SCALES]
    assert rows == [rows[1]] * 4
    if commuting:
        assert all(rows[1])
    for s in SCALES:
        with pytest.raises(ConstraintViolatedOnInput):
            preserves_constraint(r, s * n, violating)


@PROPERTY
@given(constrained())
def test_measurable_under_does_not_depend_on_the_units_of_n(case):
    n, u, rng = case
    dim = n.shape[0]
    commuting = spectral_decompose(_rotated(u, rng.integers(-2, 3, dim)))
    generic = spectral_decompose(_rotated(random_unitary(dim, rng), np.arange(1.0, dim + 1)))
    assert [measurable_under(commuting, s * n) for s in SCALES] == [True] * 4
    assert [measurable_under(generic, s * n) for s in SCALES] == [False] * 4


@pytest.mark.parametrize("leak, measurable", [(5e-10, True), (2e-9, False)])
def test_measurable_under_a_relative_leak_does_not_depend_on_the_units_of_n(leak, measurable):
    # R's eigenbasis is the standard one, so V* N V is N: its leak between the
    # outcomes 1 and 1.5 is ``leak`` times max|N|, and the commutator a quarter of that
    r = spectral_decompose(np.diag([1.0, 1.5, 2.0]))
    n = np.diag([1.0, 0.0, 0.0])
    n[0, 1] = n[1, 0] = leak
    assert [measurable_under(r, s * n) for s in SCALES] == [measurable] * 4


@st.composite
def observable_pairs(draw):
    """(R, S as a matrix): d <= 8, simple or degenerate spectra, commuting or not."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(seeds))
    u = random_unitary(dim, rng)
    u_s = u if draw(st.booleans()) else random_unitary(dim, rng)
    spectra = [np.arange(dim) + rng.uniform(0.0, 0.5, dim), rng.integers(-2, 3, dim).astype(float)]
    r = spectral_decompose(_rotated(u, spectra[draw(st.integers(0, 1))]))
    return r, _rotated(u_s, spectra[draw(st.integers(0, 1))])


@PROPERTY
@given(observable_pairs())
def test_compat_report_does_not_depend_on_the_units_of_s(case):
    r, s_matrix = case
    cfg = RunConfig(samples=20, seed=3)
    verdicts = []
    for s in SCALES:
        report = compat_report(r, spectral_decompose(s * s_matrix), config=cfg, mode="both")
        verdicts.append((report.verdict_condition1, report.verdict_condition2, report.verdict_commute))
    assert verdicts == [verdicts[1]] * 4


@PROPERTY
@given(st.integers(2, 8), seeds, st.booleans())
def test_is_function_refinement_does_not_depend_on_the_units_of_either(dim, seed, refines):
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    fine = rng.integers(1, 6, dim).astype(float)
    coarse = rng.integers(1, 4, 6).astype(float)[fine.astype(int)]  # a function of the fine value
    u_c = u if refines else random_unitary(dim, rng)
    verdicts = [
        is_function_refinement(spectral_decompose(s_f * _rotated(u, fine)), spectral_decompose(s_c * _rotated(u_c, coarse)))
        for s_f in SCALES
        for s_c in SCALES
    ]
    assert verdicts == [verdicts[5]] * 16
    if refines:
        assert verdicts[5]


@PROPERTY
@given(st.lists(st.sampled_from([1e-13, 5e-10, 2e-9, 1e-7, 0.1]), min_size=1, max_size=7), seeds)
def test_spectral_clusters_do_not_depend_on_the_units(gaps, seed):
    # gaps of 1e-13 to 0.1 times max|lambda| = 16, around cluster_tol = 1e-9, with chains
    # of 5e-10 merging into one cluster; 16 s >= 1 at every scale, so the gap rule is relative
    values = 16.0 * (1.0 - np.cumsum([0.0, *gaps]))
    u = random_unitary(len(values), seed)
    clusters = [[p.multiplicity for p in spectral_decompose(s * _rotated(u, values)).pairs] for s in SCALES]
    assert clusters == [clusters[1]] * 4


def _lemma_verdict(b, c):
    try:
        return lemma_check(b, c)
    except (QMeasureError, RuntimeWarning) as exc:  # NotPositive or an overflow is a verdict too, and a different one
        return type(exc).__name__


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="lemma_check compares |BCx|^2 <= |B|_op <x, C*BC x> + tol with an absolute slack and checks "
    "positivity against -tol, so scaling B moves its verdict; a relative slack would change what gate 5 checks",
)
def test_lemma_check_does_not_depend_on_the_units_of_b():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = random_unitary(4, rng)
        p = u[:, :2] @ dagger(u[:, :2])
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert [_lemma_verdict(s * p, c) for s in SCALES] == [True] * 4, seed

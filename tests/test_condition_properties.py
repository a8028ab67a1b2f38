"""Properties of the eigenbasis routes of the two compatibility conditions.

The conditions are computed from basis blocks; these checks hold all four
checks, in both modes, against the dense formulas they replace: the
(j, k, l) loop over dense Kraus products A_k, B_j and projectors P_l.
Pairs run over dimensions 2-16, simple, degenerate and mixed spectra,
commuting and non-commuting.  Sampled mode draws pure states z; the dense
references take them as the density operators z z*.  The witness, the
commutator and ``measurable_under`` must not depend on rounding, on the
frame or on the units of R.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmeasure.channels import (
    ThetaFamily,
    lueders_aggregate,
    make_theta_family,
    rotated_theta_family,
    theta_aggregate,
    theta_select,
)
from qmeasure.compatibility import (
    _random_state_batch,
    compat_report,
    condition1_holds,
    condition2_holds,
    heisenberg_observable,
    sector_rotated_family,
    sequential_select,
    theta_condition1,
    theta_condition2,
    verdict_from_residual,
)
from qmeasure.constraints import measurable_under
from qmeasure.linalg import DEFAULT_TOL, dagger, random_unitary
from qmeasure.observables import Observable, SpectralPair, reconstruct, spectral_decompose

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)
SAMPLES = 20
SEED = 3


def _spectrum(kind, dim, rng):
    if kind == "simple":
        # gaps of at least 0.5 keep every eigenvalue its own outcome
        return np.arange(dim) + rng.uniform(0.0, 0.5, dim)
    span = 2 if kind == "degenerate" else 5
    return rng.integers(-span, span + 1, dim).astype(float)


@st.composite
def pairs(draw, kind_r=None, max_dim=16):
    """(R, S, theta family of R, theta family of S) from drawn sizes up to ``max_dim``.

    ``kind_r`` pins R's spectrum kind; by default it is drawn like S's.
    """
    dim = draw(st.integers(2, max_dim))
    kinds = st.sampled_from(["simple", "degenerate", "mixed"])
    kind_r, kind_s = kind_r or draw(kinds), draw(kinds)
    commuting = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(dim, rng)
    u_s = u if commuting else random_unitary(dim, rng)
    r = spectral_decompose(u @ np.diag(_spectrum(kind_r, dim, rng)) @ dagger(u))
    s = spectral_decompose(u_s @ np.diag(_spectrum(kind_s, dim, rng)) @ dagger(u_s))
    if commuting:
        fam_r, fam_s = sector_rotated_family(r, s, rng), sector_rotated_family(s, r, rng)
    else:
        fam_r, fam_s = rotated_theta_family(r, rng), rotated_theta_family(s, rng)
    return r, s, fam_r, fam_s


def _dense_condition1(r_ops, s_ops, readout, zs):
    """Worst Tr(A_k* B_j* P_l B_j A_k) (exact) or |Tr(P_l B_j A_k Z A_k* B_j*)|."""
    worst = 0.0
    for b in s_ops:
        for k, a in enumerate(r_ops):
            chain = b @ a
            chain_h = dagger(chain)
            if zs is not None:
                after = chain @ zs @ chain_h
            for l, pl in enumerate(readout):
                if l == k:
                    continue
                if zs is None:
                    res = np.trace(chain_h @ pl @ chain).real
                else:
                    res = float(np.max(np.abs(np.einsum("sij,ji->s", after, pl))))
                worst = max(worst, res)
    return worst


def _dense_condition2(r_ops, s_projs, zs):
    """Worst ||sum_k A_k* Pt_j A_k - Pt_j||_F (exact) or |Tr(Pt_j (Z' - Z))|."""
    if zs is not None:
        diff = sum(a @ zs @ dagger(a) for a in r_ops) - zs
    worst = 0.0
    for ptj in s_projs:
        if zs is None:
            res = np.linalg.norm(sum(dagger(a) @ ptj @ a for a in r_ops) - ptj)
        else:
            res = float(np.max(np.abs(np.real(np.einsum("sij,ji->s", diff, ptj)))))
        worst = max(worst, res)
    return worst


def _checks(r, s, fam_r, fam_s):
    """(name, run in a mode, A_k, B_j or None for condition 2) per check."""
    return [
        ("condition1", lambda m: condition1_holds(r, s, m, SAMPLES, SEED), r.projectors, s.projectors),
        ("condition2", lambda m: condition2_holds(r, s, m, SAMPLES, SEED), r.projectors, None),
        ("theta1", lambda m: theta_condition1(fam_r, fam_s, m, SAMPLES, SEED), fam_r.thetas, fam_s.thetas),
        ("theta2", lambda m: theta_condition2(fam_r, fam_s, m, SAMPLES, SEED), fam_r.thetas, None),
    ]


def _dense(r_ops, s_ops, r, s, zs):
    if s_ops is None:
        return _dense_condition2(r_ops, s.projectors, zs)
    return _dense_condition1(r_ops, s_ops, r.projectors, zs)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@PROPERTY
@given(pair=pairs())
def test_residual_and_verdict_match_dense_reference(mode, pair):
    r, s, fam_r, fam_s = pair
    zs = None
    if mode == "sampled":
        z = _random_state_batch(r.dim, SAMPLES, SEED)
        zs = np.einsum("si,sj->sij", z, z.conj())
    for name, check, r_ops, s_ops in _checks(r, s, fam_r, fam_s):
        got = check(mode)
        want = _dense(r_ops, s_ops, r, s, zs)
        assert abs(got.residual - want) <= 1e-12, name
        assert got.verdict == verdict_from_residual(want, DEFAULT_TOL), name


@PROPERTY
@given(pair=pairs())
def test_exact_witness_reproduces_residual(pair):
    r, s, fam_r, fam_s = pair
    for name, check, r_ops, s_ops in _checks(r, s, fam_r, fam_s):
        res = check("exact")
        w = res.witness
        if w is None:
            # a one-outcome R has no pair l != k to disturb
            assert r.outcome_count == 1 and res.residual == 0.0
            continue
        assert w.state is None
        if s_ops is None:
            ptj = s.projectors[w.j]
            at = np.linalg.norm(sum(dagger(a) @ ptj @ a for a in r_ops) - ptj)
        else:
            chain = s_ops[w.j] @ r_ops[w.k]
            at = np.trace(dagger(chain) @ r.projectors[w.l] @ chain).real
            assert w.l != w.k
        assert abs(at - res.residual) <= 1e-12, name


@PROPERTY
@given(pair=pairs())
def test_sampled_witness_reproduces_residual(pair):
    r, s, fam_r, fam_s = pair
    for name, check, r_ops, s_ops in _checks(r, s, fam_r, fam_s):
        res = check("sampled")
        w = res.witness
        if w is None:
            assert r.outcome_count == 1 and res.residual == 0.0
            continue
        z = np.asarray(w.state)
        if s_ops is None:
            shift = sum(a @ z @ dagger(a) for a in r_ops) - z
            at = abs(np.trace(s.projectors[w.j] @ shift).real)
        else:
            chain = s_ops[w.j] @ r_ops[w.k]
            at = abs(np.trace(r.projectors[w.l] @ chain @ z @ dagger(chain)))
        assert abs(at - res.residual) <= 1e-12, name


@pytest.mark.parametrize("kind_r", ["simple", "degenerate"])
@PROPERTY
@given(data=st.data())
def test_sampled_witness_is_pure_and_replays_through_channels(kind_r, data):
    r, s, fam_r, fam_s = data.draw(pairs(kind_r))
    if kind_r == "degenerate":
        assume(r.outcome_count < r.dim)
    replay = {
        "condition1": lambda w: sequential_select(r, w.k, s, w.j, w.state),
        "condition2": lambda w: np.asarray(lueders_aggregate(r, w.state)) - np.asarray(w.state),
        "theta1": lambda w: theta_select(fam_s, w.j, theta_select(fam_r, w.k, w.state)),
        "theta2": lambda w: np.asarray(theta_aggregate(fam_r, w.state)) - np.asarray(w.state),
    }
    for name, check, _, s_ops in _checks(r, s, fam_r, fam_s):
        res = check("sampled")
        w = res.witness
        if w is None:
            assert r.outcome_count == 1 and res.residual == 0.0
            continue
        assert abs(w.state.purity() - 1.0) <= 1e-12, name
        readout = s.projectors[w.j] if s_ops is None else r.projectors[w.l]
        at = abs(np.trace(readout @ np.asarray(replay[name](w))).real)
        assert abs(at - res.residual) <= 1e-12, name


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_tie_goes_to_the_first_triple(mode):
    # diagonal 0/1 projectors make every residual exactly zero, so every
    # triple ties and the scan order (j, then k, then l) decides
    r = spectral_decompose(np.diag([1.0, 2.0, 2.0]))
    s = spectral_decompose(np.diag([5.0, 5.0, 7.0]))
    fam_r, fam_s = (make_theta_family(o, o.basis) for o in (r, s))
    for name, check, _, s_ops in _checks(r, s, fam_r, fam_s):
        res = check(mode)
        assert res.residual == 0.0, name
        want = (None, 0, None) if s_ops is None else (0, 0, 1)
        assert (res.witness.k, res.witness.j, res.witness.l) == want, name


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), ulps=st.integers(-4, 4))
def test_witness_survives_rounding_of_a_symmetric_tie(seed, ulps):
    # Z against X ties every exact residual: condition 1 (0, j, 1) with
    # (1, j, 0), condition 2 j = 0 with j = 1.  A few ulps on one entry of
    # X and a common Haar rotation move the residuals by rounding only.
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    u = random_unitary(2, seed)
    tilted = x + np.diag([ulps * 2.0**-53, 0.0])
    runs = []
    for r, s in ((z, x), (dagger(u) @ z @ u, dagger(u) @ tilted @ u)):
        r, s = spectral_decompose(r), spectral_decompose(s)
        runs.append(_checks(r, s, make_theta_family(r, r.basis), make_theta_family(s, s.basis)))
    for (name, check, _, _), (_, check_moved, _, _) in zip(*runs):
        tie, rounded = check("exact"), check_moved("exact")
        assert abs(tie.residual - rounded.residual) <= 1e-12, name
        assert rounded.witness == tie.witness, (name, tie.witness, rounded.witness)


def _moved(fam, obs, u):
    """The theta family ``fam`` in the frame of ``obs`` = U* R U: every target block T_k becomes U* T_k."""
    return ThetaFamily(observable=obs, targets=tuple(dagger(u) @ t for t in fam.targets))


@PROPERTY
@given(pair=pairs(max_dim=8), seed=st.integers(0, 2**32 - 1))
def test_exact_residuals_do_not_depend_on_the_frame(pair, seed):
    # a trace and a Frobenius norm are unitarily invariant; the residuals are
    # norms of defects of operators of norm at most 1, so near 0 the bound is absolute
    r, s, fam_r, fam_s = pair
    u = random_unitary(r.dim, seed)
    r_u, s_u = heisenberg_observable(r, u), heisenberg_observable(s, u)
    moved = _checks(r_u, s_u, _moved(fam_r, r_u, u), _moved(fam_s, s_u, u))
    for (name, check, _, _), (_, check_u, _, _) in zip(_checks(r, s, fam_r, fam_s), moved):
        a, b = check("exact").residual, check_u("exact").residual
        assert abs(a - b) <= 1e-12 * max(1.0, a, b), (name, a, b)


@PROPERTY
@given(pair=pairs(max_dim=8))
def test_sampled_residual_is_at_most_the_exact_one(pair):
    # |Tr(M Z)| <= ||M||_op, at most Tr M for a positive M and ||M||_F for any
    for name, check, _, _ in _checks(*pair):
        sampled, exact = check("sampled").residual, check("exact").residual
        assert sampled <= exact + 1e-12, (name, sampled, exact)


def _scaled(obs, factor):
    """factor R: the same eigenspaces, every eigenvalue times ``factor``."""
    return Observable(dim=obs.dim, pairs=tuple(SpectralPair(factor * p.eigenvalue, p.basis) for p in obs.pairs))


def _report_verdicts(rep):
    return rep.verdict_condition1, rep.verdict_condition2, rep.verdict_commute, rep.indeterminate


SCALES = (2.0**-3, 1.0, 1e6, 1e300)


@PROPERTY
@given(pair=pairs(max_dim=8), seed=st.integers(0, 2**32 - 1), factor=st.sampled_from(SCALES))
def test_commutator_does_not_depend_on_the_frame_or_the_units(pair, seed, factor):
    # ||[R, S]||_op / (max|r| max|s|) is an O(1) norm, so near 0 the bound is absolute
    r, s, _, _ = pair
    u = random_unitary(r.dim, seed)
    base = compat_report(r, s, mode="exact")
    for moved in (
        compat_report(heisenberg_observable(r, u), heisenberg_observable(s, u), mode="exact"),
        compat_report(_scaled(r, factor), s, mode="exact"),
    ):
        a, b = base.commutator_residual, moved.commutator_residual
        assert abs(a - b) <= 1e-12 * max(1.0, a, b), (a, b)
        assert _report_verdicts(moved) == _report_verdicts(base)


@PROPERTY
@given(pair=pairs(max_dim=8), seed=st.integers(0, 2**32 - 1), factor=st.sampled_from(SCALES))
def test_measurable_under_does_not_depend_on_the_frame_or_the_units(pair, seed, factor):
    # S as the constraint: R may be measured iff the two commute
    r, s, _, _ = pair
    u = random_unitary(r.dim, seed)
    n = reconstruct(s)
    verdict = measurable_under(r, n)
    assert measurable_under(heisenberg_observable(r, u), dagger(u) @ n @ u) == verdict
    assert measurable_under(_scaled(r, factor), n) == verdict

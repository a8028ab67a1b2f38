"""The one-pass condition kernel against the per-route routines it replaced.

``compatibility._conditions`` forms the overlaps (V*, V* U, W* T, every
N_j and |N_j|^2) once and reads every route from them.  Before it, each
route of each condition was its own routine that rebuilt those products;
copies of the two routines are kept here as references
(``condition1_reference``, ``condition2_reference``).  The references
read the exact residuals the long way: condition 1 as the trace of
A_k* B_j* P_l B_j A_k summed over the standard basis, condition 2 as the
Frobenius norm of the defect conjugated back out of R's frame.  Both
take the witness the kernel's way: the first in scan order within a
relative 1e-12 of the maximum.  The report's commutator is read densely,
||RS - SR||_op / (max|r| max|s|) on the reconstructed matrices, and must
agree within a relative 1e-12 in every mode.

Sampled results must be bit for bit what the references give: residuals,
verdicts, ``indeterminate``, witness (k, j, l) and witness state.  Where
an exact route runs, the residuals must agree within a relative 1e-12,
verdicts and ``indeterminate`` must be equal, and the witness must be
equal wherever the reference's maximum is unique beyond a relative 1e-12.
"""

import numpy as np
import pytest

from qmeasure.compatibility import (
    INDETERMINATE,
    CompatReport,
    _MODES,
    _cross_check,
    _result,
    _states,
    compat_report,
    condition1_holds,
    condition2_holds,
    curated_pairs,
    sector_rotated_family,
    theta_condition1,
    theta_condition2,
    verdict_from_residual,
)
from qmeasure.config import RunConfig
from qmeasure.errors import VerdictDisagreement
from qmeasure.linalg import dagger, random_unitary
from qmeasure.observables import reconstruct, spectral_decompose

DIMS = (2, 3, 4, 6, 8, 16, 32, 64)
SAMPLES = (1, 100)
CHUNK = 1 << 16


# ------------------------------------------------------------ references


def _offsets(basis) -> np.ndarray:
    """First column of each basis block in the blocks laid side by side."""
    return np.cumsum([0] + [b.shape[1] for b in basis[:-1]])


def _multiplicity_groups(basis) -> list:
    """(m, outcomes of multiplicity m, their columns as an (n, m) array) per m."""
    groups = {}
    for k, (lo, b) in enumerate(zip(_offsets(basis), basis)):
        ks, cols = groups.setdefault(b.shape[1], ([], []))
        ks.append(k)
        cols.append(range(lo, lo + b.shape[1]))
    return [(m, np.array(ks), np.array(cols)) for m, (ks, cols) in sorted(groups.items())]


def first_max_reference(res):
    """The first entry in scan order within a relative 1e-12 of the maximum."""
    top = res.max()
    flat = np.flatnonzero(res >= top - 1e-12 * abs(top))[0]
    return tuple(int(i) for i in np.unravel_index(flat, res.shape))


def _near(a, b):
    """Within a relative 1e-12; the residuals are O(1) norms, so near 0 the rounding is absolute."""
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _unique_max(res):
    """Is the maximum of ``res`` the only entry within a relative 1e-12 of it?"""
    top = res.max()
    return np.count_nonzero(res >= top - 1e-12 * max(1.0, abs(top))) == 1


def condition1_reference(r_basis, r_targets, s_basis, s_targets, zs, tol):
    """One route of condition 1, forming its own overlaps N_j; (result, unique maximum).

    The exact route sums ||X_lk y_k||^2 over the standard basis vectors
    z = e_a, the trace of V_k X* X V_k*; the sampled route takes the max
    over the states.
    """
    d, kr = len(r_basis[0]), len(r_basis)
    vh = dagger(np.hstack(r_basis))
    starts = _offsets(r_basis)
    vu = vh @ np.hstack(s_targets)
    wt = dagger(np.hstack(s_basis)) @ np.hstack(r_targets)
    ys = vh if zs is None else vh @ zs.T
    weights = np.abs(ys) ** 2
    peak, best = weights.sum(axis=1) if zs is None else weights.max(axis=1), weights.argmax(axis=1)
    groups = _multiplicity_groups(r_basis)
    per_j = d * d + sum(len(ks) * d * ys.shape[1] for m, ks, _ in groups if m > 1)
    res = np.empty((len(s_basis), kr, kr))
    state = np.zeros(res.shape, dtype=int)
    for _, js, s_cols in _multiplicity_groups(s_basis):
        parts = min(len(js), -(-len(js) * per_j // CHUNK))
        for part in np.array_split(np.arange(len(js)), parts):
            n = np.moveaxis(vu[:, s_cols[part]], 1, 0) @ wt[s_cols[part]]
            rows = np.abs(n) ** 2
            if kr < d:
                rows = np.add.reduceat(rows, starts, axis=1)
            for m, ks, cols in groups:
                at = np.ix_(js[part], ks)
                if m == 1:
                    c = cols[:, 0]
                    res[at] = np.swapaxes(rows[:, :, c] * peak[c], 1, 2)
                    state[at] = best[c, None]
                    continue
                x = np.moveaxis(n[:, :, cols], 2, 1)
                norms = np.add.reduceat(np.abs(x @ ys[cols]) ** 2, starts, axis=2)
                res[at] = norms.sum(axis=3) if zs is None else norms.max(axis=3)
                state[at] = norms.argmax(axis=3)
    if kr < 2:
        return _result(0.0, None, zs, tol), True
    res[:, np.arange(kr), np.arange(kr)] = -1.0
    j, k, l = first_max_reference(res)
    i = None if zs is None else int(state[j, k, l])
    return _result(float(res[j, k, l]), (i, k, j, l), zs, tol), _unique_max(res)


def condition2_reference(r_basis, r_targets, s_basis, zs, tol):
    """One route of condition 2, forming its own overlap W* T; (result, unique maximum)."""
    v, t = np.hstack(r_basis), np.hstack(r_targets)
    wh = dagger(np.hstack(s_basis))
    wt = wh @ t
    s_starts = _offsets(s_basis)
    if zs is None:
        mask = np.zeros((len(v),) * 2, dtype=bool)
        for lo, b in zip(_offsets(r_basis), r_basis):
            mask[lo : lo + b.shape[1], lo : lo + b.shape[1]] = True
        res = []
        for lo, w in zip(s_starts, s_basis):
            c = wt[lo : lo + w.shape[1]]
            res.append(np.linalg.norm(v @ ((dagger(c) @ c) * mask) @ dagger(v) - w @ dagger(w)))
        res, state = np.array(res), None
    else:
        ys = dagger(v) @ zs.T
        shift = -np.abs(wh @ zs.T) ** 2
        for m, _, cols in _multiplicity_groups(r_basis):
            if m == 1:
                c = cols[:, 0]
                shift += np.abs(wt[:, c]) ** 2 @ np.abs(ys[c]) ** 2
            else:
                shift += np.sum(np.abs(np.moveaxis(wt[:, cols], 1, 0) @ ys[cols]) ** 2, axis=0)
        traces = np.abs(np.add.reduceat(shift, s_starts, axis=0))
        res, state = traces.max(axis=1), traces.argmax(axis=1)
    (j,) = first_max_reference(res)
    i = None if zs is None else int(state[j])
    return _result(float(res[j]), (i, None, j, None), zs, tol), _unique_max(res)


def dense_commutator_reference(r, s):
    """||RS - SR||_op / (max|r| max|s|) on the dense matrices, 0 when either is zero."""
    rm, sm = reconstruct(r), reconstruct(s)
    scale = max(map(abs, r.eigenvalues)) * max(map(abs, s.eigenvalues))
    return np.linalg.norm(rm @ sm - sm @ rm, 2) / scale if scale > 0 else 0.0


def compat_report_reference(r, s, cfg, mode):
    """``compat_report`` with every route run by its own reference routine; (report, unique witness)."""
    runs = []
    for m in _MODES if mode == "both" else (mode,):
        zs = _states(m, r.dim, cfg.samples, cfg.seed)
        runs.append((1, *condition1_reference(r.basis, r.basis, s.basis, s.basis, zs, cfg.tol)))
        runs.append((2, *condition2_reference(r.basis, r.basis, s.basis, zs, cfg.tol)))
    c1_runs = [res for c, res, _ in runs if c == 1]
    c2_runs = [res for c, res, _ in runs if c == 2]
    # the report's witness is unique when one route's residual leads every
    # other beyond a relative 1e-12 and its own maximum is unique
    top = max(res.residual for _, res, _ in runs)
    near = [unique for _, res, unique in runs if _near(res.residual, top)]
    _cross_check("condition 1", c1_runs, cfg.tol)
    _cross_check("condition 2", c2_runs, cfg.tol)
    c1 = max(c1_runs, key=lambda res: res.residual)
    c2 = max(c2_runs, key=lambda res: res.residual)
    comm = dense_commutator_reference(r, s)
    labeled = {
        "condition1": verdict_from_residual(c1.residual, cfg.tol),
        "condition2": verdict_from_residual(c2.residual, cfg.tol),
        "commutator": verdict_from_residual(comm, cfg.tol),
    }
    if len({v for v in labeled.values() if v != INDETERMINATE}) > 1:
        raise VerdictDisagreement("three-way")
    return CompatReport(
        verdict_condition1=c1.holds,
        verdict_condition2=c2.holds,
        verdict_commute=comm <= cfg.tol,
        max_residual_c1=c1.residual,
        max_residual_c2=c2.residual,
        commutator_residual=comm,
        witness=max((c1, c2), key=lambda res: res.residual).witness,
        indeterminate=tuple(name for name, v in labeled.items() if v == INDETERMINATE),
    ), near == [True]


# ------------------------------------------------------------ helpers


def _bits(x):
    return np.float64(x).tobytes()


def _witness_bits(w):
    if w is None:
        return None
    return (w.k, w.j, w.l, None if w.state is None else w.state.matrix.tobytes())


def _result_bits(res):
    return (res.holds, _bits(res.residual), res.verdict, _witness_bits(res.witness))


def _report_bits(rep):
    """Every field of a report but the commutator residual, which the reference reads densely."""
    return (
        rep.verdict_condition1,
        rep.verdict_condition2,
        rep.verdict_commute,
        _bits(rep.max_residual_c1),
        _bits(rep.max_residual_c2),
        _witness_bits(rep.witness),
        rep.indeterminate,
    )


def _simple_pair(dim, commuting, rng):
    """Observables with distinct eigenvalues: every outcome rank 1."""
    u = random_unitary(dim, rng)
    u_s = u if commuting else random_unitary(dim, rng)
    r = u @ np.diag(np.arange(dim) + rng.uniform(0.0, 0.5, dim)) @ dagger(u)
    s = u_s @ np.diag(np.arange(dim) + rng.uniform(0.0, 0.5, dim)) @ dagger(u_s)
    return spectral_decompose((r + dagger(r)) / 2.0), spectral_decompose((s + dagger(s)) / 2.0)


def _pairs(dim):
    """Degenerate curated pairs and simple pairs, commuting and not.

    At d=64 a simple S has more overlaps N_j than fit one ``CHUNK`` of
    the reference, so the reference's split path runs; the kernel reads
    one S outcome at a time at every d.  Twelve pairs a dimension make 576
    reports: enough that joining two routes' probe products into one
    product moves a residual somewhere on the grid.
    """
    rng = np.random.default_rng(dim)
    out = []
    for commuting in (True, False):
        out += curated_pairs(dim, 5, commuting, seed=dim)
        out.append(_simple_pair(dim, commuting, rng))
    return out


# ------------------------------------------------------------ tests


def _report_matches(got, want, unique):
    """A report with an exact route: residuals near, the rest equal, the witness where unique."""
    assert _near(got.max_residual_c1, want.max_residual_c1)
    assert _near(got.max_residual_c2, want.max_residual_c2)
    assert _near(got.commutator_residual, want.commutator_residual)
    assert (got.verdict_condition1, got.verdict_condition2, got.verdict_commute, got.indeterminate) == (
        want.verdict_condition1, want.verdict_condition2, want.verdict_commute, want.indeterminate
    )
    assert not unique or _witness_bits(got.witness) == _witness_bits(want.witness)


def _result_matches(got, want, unique):
    """An exact result: residual near, verdict equal, the witness where unique."""
    assert _near(got.residual, want.residual)
    assert (got.holds, got.verdict) == (want.holds, want.verdict)
    assert not unique or _witness_bits(got.witness) == _witness_bits(want.witness)


@pytest.mark.parametrize("dim", DIMS)
def test_compat_report_matches_per_route_references(dim):
    for r, s in _pairs(dim):
        for samples in SAMPLES:
            cfg = RunConfig(samples=samples, seed=dim)
            for mode in ("exact", "sampled", "both"):
                try:
                    want, unique = compat_report_reference(r, s, cfg, mode)
                except VerdictDisagreement:
                    want = unique = VerdictDisagreement
                try:
                    got = compat_report(r, s, config=cfg, mode=mode)
                except VerdictDisagreement:
                    got = VerdictDisagreement
                if VerdictDisagreement in (got, want):
                    assert got is want, (dim, samples, mode)
                elif mode == "sampled":
                    assert _report_bits(got) == _report_bits(want), (dim, samples, mode)
                    assert _near(got.commutator_residual, want.commutator_residual), (dim, samples, mode)
                else:
                    _report_matches(got, want, unique)


@pytest.mark.parametrize("dim", DIMS)
def test_single_conditions_match_per_route_references(dim):
    for i, (r, s) in enumerate(_pairs(dim)):
        fam_r = sector_rotated_family(r, s, seed=i)
        fam_s = sector_rotated_family(s, r, seed=i + 1)
        r_targets, s_targets = fam_r.targets, fam_s.targets
        for mode in _MODES:
            for samples in SAMPLES:
                zs = _states(mode, dim, samples, i)
                checks = [
                    (condition1_holds(r, s, mode, samples, i),
                     condition1_reference(r.basis, r.basis, s.basis, s.basis, zs, 1e-9)),
                    (condition2_holds(r, s, mode, samples, i),
                     condition2_reference(r.basis, r.basis, s.basis, zs, 1e-9)),
                    (theta_condition1(fam_r, fam_s, mode, samples, i),
                     condition1_reference(r.basis, r_targets, s.basis, s_targets, zs, 1e-9)),
                    (theta_condition2(fam_r, fam_s, mode, samples, i),
                     condition2_reference(r.basis, r_targets, s.basis, zs, 1e-9)),
                ]
                for n, (got, (want, unique)) in enumerate(checks):
                    if mode == "sampled":
                        assert _result_bits(got) == _result_bits(want), (dim, i, mode, samples, n)
                    else:
                        _result_matches(got, want, unique)

"""Compatibility of two observables: when measuring one cannot disturb the other.

Each of the two operational conditions is checked on per-outcome
Kraus operators, A_k for the R-measurement and B_j for the S-measurement,
with an exact route (the norm of an operator identity's defect) and a
sampled route (traces over seeded random pure states).  The operators
come as basis blocks, A_k = T_k V_k* with V_k R's eigenbasis block and
T_k its target block, and B_j = U_j W_j* alike.  The projector checks
are the instance T_k = V_k (A_k = P_k, B_j = Pt_j); the theta checks
pass the target blocks of Theta_k and Phi_j.

Condition 1: after selecting outcome r_k of R, an interposed S-selection
never destroys the certainty that an immediate second R-measurement
repeats r_k.  Exactly: A_k* B_j* P_l B_j A_k = 0 for every j and l != k,
read as the trace of that positive operator; statistically:
Tr(P_l B_j A_k Z A_k* B_j*) = 0 over random states Z.

Condition 2: a non-selective R-measurement leaves every S outcome
probability unchanged.  Exactly: sum_k A_k* Pt_j A_k = Pt_j for every j,
read as the Frobenius norm of the difference; statistically:
Tr(Pt_j Z') = Tr(Pt_j Z) over random Z, where Z' = sum_k A_k Z A_k* is
the aggregate R-update of Z.

The sampled route draws Haar-random pure states Z = z z*.  Every sampled
residual is linear in the state, Tr(M Z), so its largest magnitude over
all states is reached at a pure state.  It is at most ||M||_op, so at
most Tr M for a positive M and ||M||_F for any: sampled <= exact, up to
rounding.  Both exact residuals are unitarily invariant, so they do not
depend on the basis the operators are written in.

Both projector conditions hold iff the two operators commute, so
``compat_report`` runs both routes, checks them against the commutator,
and raises VerdictDisagreement on a decisive disagreement (it would mean
an implementation bug, not physics).  A condition residual that is not
finite raises ContractError: no verdict can be read from it.  The
commutator, ||[R, S]||_op / (max|r| max|s|), is read in R's eigenframe V
as (r_a - r_b) x_ab, x = (V* W) diag(s) (V* W)*, with both spectra over
their largest magnitude: no entry overflows, and no frame or unit moves it.

Cost.  One kernel, ``_conditions``, runs both conditions on every
requested route in R's eigenbasis V, and no dense Kraus product is
formed.  V*, W* T and V* U are formed once, and targets that are an
observable's own blocks are its full basis, concatenated once.
Condition 1 then reads one S outcome j at a time: its overlap
N_j = (V* U_j)(W_j* T), a d x d product of inner size m_j, and
|N_j|^2, O(d^2 m_j) each and O(d^3) over all j, so no more than one
outcome's products are held at once.  Exact condition 1 is a block sum
of |N_j|^2.  Exact condition 2 is one d x d product per S outcome for
projector families, the off-block part of C_j C_j*, and two for theta
targets.  The sampled traces cost O(samples d^2) for condition 2 and
O(samples K_S d m_k) for condition 1 per outcome of R of multiplicity
m_k > 1, and the state batch is drawn once per (dim, samples, seed):
the most recent batch for an int seed is kept.  The commutator costs
three d x d products (V* W, x and C* C) and one Hermitian eigenvalue
solve, O(d^3).

Verdicts use a guard band: residual below tol/10 counts as a clean hold,
above 10*tol a clean failure, and anything between is reported as
indeterminate rather than silently rounded to a side.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .config import RunConfig
from .errors import (
    BadArgument,
    ContractError,
    DimMismatch,
    NotPositive,
    NotUnitary,
    ValidationError,
    VerdictDisagreement,
)
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    _eig_hermitian_stack,
    _gap_ranges,
    _haar_blocks,
    _rng,
    _sealed,
    as_matrix,
    commutes,
    dagger,
    max_abs,
    random_unitary,
)
from .channels import ThetaFamily, lueders_select
from .observables import Observable, SpectralPair, _commutator_norm, _unit_spectrum, spectral_decompose
from .states import DensityOperator, SubensembleState

__all__ = [
    "HOLDS",
    "FAILS",
    "INDETERMINATE",
    "Witness",
    "ConditionResult",
    "CompatReport",
    "verdict_from_residual",
    "sequential_select",
    "condition1_holds",
    "condition2_holds",
    "lemma_check",
    "heisenberg_observable",
    "compat_report",
    "theta_condition1",
    "theta_condition2",
    "sector_rotated_family",
    "curated_pairs",
]

HOLDS = "holds"
FAILS = "fails"
INDETERMINATE = "indeterminate"

_MODES = ("exact", "sampled")


def verdict_from_residual(residual: float, tol: float) -> str:
    if residual < tol / 10.0:
        return HOLDS
    if residual > 10.0 * tol:
        return FAILS
    return INDETERMINATE


class Witness(NamedTuple):
    """Where the worst residual occurred; ``state`` is None in exact mode."""

    state: Optional[DensityOperator]
    k: Optional[int]
    j: Optional[int]
    l: Optional[int]


class ConditionResult(NamedTuple):
    holds: bool
    residual: float
    verdict: str
    witness: Optional[Witness]


def _check_same_dim(r, s) -> None:
    """Both operands (observables or theta families) act on one space."""
    if r.dim != s.dim:
        raise DimMismatch(f"dims differ: {r.dim} vs {s.dim}")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")


def sequential_select(r: Observable, k: int, s: Observable, j: int, z) -> SubensembleState:
    """Two-step selection Pt_j P_k Z P_k Pt_j: first outcome k of R, then j of S."""
    _check_same_dim(r, s)
    return lueders_select(s, j, lueders_select(r, k, z))


# the most recent batch drawn for an int seed and sample count, ((dim, samples, seed), batch), or None
_kept = None


def _random_state_batch(dim: int, samples: int, seed: int) -> np.ndarray:
    """Seeded batch of Haar-random pure states z, one unit vector per row (samples, dim), read-only.

    Every sampled residual is linear in the state, Tr(M Z), so its
    maximum over all states is reached at a pure state: mixed states
    would add cost and no detection power.  A draw numpy refuses is a BadArgument.
    The batch is a pure function of (dim, samples, seed), so the most
    recent one drawn for an int seed is kept, one batch and no more, and
    a call with the same key gets it back; a Generator seed draws fresh.
    """
    global _kept
    key = (dim, samples, seed) if type(seed) is int and type(samples) is int else None
    kept = _kept
    if key is not None and kept is not None and kept[0] == key:
        return kept[1]
    rng = _rng(seed)
    try:
        g = rng.standard_normal((samples, dim)) + 1j * rng.standard_normal((samples, dim))
    except (MemoryError, ValueError):
        raise BadArgument(f"cannot draw {samples} random states of dim {dim}") from None
    batch = _sealed(g / np.linalg.norm(g, axis=1)[:, None])
    if key is not None:
        _kept = (key, batch)
    return batch


def _states(mode: str, dim: int, samples: int, seed: int) -> Optional[np.ndarray]:
    """The seeded pure-state batch of sampled mode; None in exact mode."""
    _check_mode(mode)
    return _random_state_batch(dim, samples, seed) if mode == "sampled" else None


def _result(worst: float, at, zs, tol: float) -> ConditionResult:
    """Wrap the worst residual and its (state index, k, j, l) location.

    The witness state is the rank-1 z z* of the batch vector z it names.
    """
    state = None
    if at is not None and at[0] is not None:
        z = zs[at[0]]
        state = DensityOperator(np.outer(z, z.conj()))
    witness = None if at is None else Witness(state, *at[1:])
    return ConditionResult(worst <= tol, worst, verdict_from_residual(worst, tol), witness)


def _first_max(res: np.ndarray, name: str) -> tuple:
    """Index of the first entry in C order (the scan order) within a relative 1e-12 of the maximum.

    The residuals are read from orthonormal blocks, so a non-finite one
    comes from a non-finite entry in a block, and no verdict can be read
    from it: ContractError.
    """
    if not np.isfinite(res).all():
        raise ContractError(f"{name} residual is not finite; a basis or target block has a non-finite entry")
    top = res.max()
    flat = np.argmax(res >= top - 1e-12 * abs(top))
    return tuple(int(i) for i in np.unravel_index(flat, res.shape))


def _conditions(r, r_targets, s, s_targets, probe_sets, tol, conditions=(1, 2)) -> dict:
    """Conditions 1 and 2 on A_k = T_k V_k* and B_j = U_j W_j*, every probe set from one overlap pass.

    V_k, T_k are ``r.basis[k]``, ``r_targets[k]`` and W_j, U_j are
    ``s.basis[j]``, ``s_targets[j]``; the readout projectors are
    P_l = V_l V_l* and Pt_j = W_j W_j*.  A probe set is None for the
    exact route (the norms of the identities' defects) or a batch ``zs``
    of pure states, one per row, for the sampled route.  Returns
    ``{c: [ConditionResult per probe set]}`` for each c in ``conditions``.

    The products every route reads are formed once: V*, W* T, and for
    condition 1 V* U, the overlaps N_j = (V* U_j)(W_j* T) and |N_j|^2.
    Targets that are the observable's own blocks (``r.basis`` or
    ``s.basis`` itself) side by side are its full basis, not stacked again.
    Each state batch is read with its own products (y = V* z, W* z,
    X y_k), never joined with another, so a route gives the same bits
    whichever routes run beside it.
    """
    v, w = r.full_basis(), s.full_basis()
    vh, wh = dagger(v), dagger(w)
    # an observable's own blocks side by side are its full basis, already formed
    own = r_targets is r.basis
    wt = wh @ (v if own else np.hstack(r_targets))
    # the states y = V* z of each sampled set as columns (d, samples)
    ys = [None if zs is None else vh @ zs.T for zs in probe_sets]
    out = {}
    if 1 in conditions:
        vu = vh @ (w if s_targets is s.basis else np.hstack(s_targets))
        out[1] = _read_condition1(vu, wt, r, s, probe_sets, ys, tol)
    if 2 in conditions:
        out[2] = _read_condition2(v, wh, wt, own, r, s, probe_sets, ys, tol)
    return out


def _read_condition1(vu, wt, r, s, probe_sets, ys, tol) -> list:
    """Condition 1 per probe set, one S outcome j at a time, each overlap N_j formed once.

    The (l, k) block X of N_j = (V* U_j)(W_j* T) is V_l* B_j T_k, so
    A_k* B_j* P_l B_j A_k = V_k X* X V_k*.  Exact mode takes the worst
    trace ||X||_F^2 over l != k, a block sum of |N_j|^2; sampled mode
    the worst Tr(P_l B_j A_k Z A_k* B_j*) = ||X y_k||^2, y_k the k block
    of y = V* z.  For a rank-1 outcome k that is |X|^2 |y_k|^2, so the
    max over states comes before the product; outcomes of multiplicity
    m > 1 form N_j[:, cols_k] @ y_k, O(d m) a state, outcomes of one
    multiplicity in one stacked product.  What a state batch contributes
    apart from N_j (the peak of |y_k|^2 and where it is, or the blocks
    y_k) is read once, before the loop over j.  So the temporaries are
    those of one S outcome: N_j and, for m > 1, X y_k per state and
    outcome k.  The witness is the first triple in scan order (j, then
    k, then l) whose residual is within a relative 1e-12 of the worst, so
    rounding alone does not move it; condition 2 scans j.
    """
    d, kr = r.dim, r.outcome_count
    if kr < 2:
        return [_result(0.0, None, zs, tol) for zs in probe_sets]
    exact = [i for i, y in enumerate(ys) if y is None]
    weights = [(i, y, np.abs(y) ** 2) for i, y in enumerate(ys) if y is not None]
    sampled = [(i, y, w.max(axis=1), w.argmax(axis=1)) for i, y, w in weights]
    # per multiplicity group of R, its columns and what each sampled set reads there
    # for every j: (i, peak, state) at the rank-1 columns c, (i, y_k) of each block
    groups = [
        (m, ks, cols[:, 0], [(i, peak[cols[:, 0]], best[cols[:, 0], None]) for i, _, peak, best in sampled])
        if m == 1
        else (m, ks, cols, [(i, y[cols]) for i, y, _, _ in sampled])
        for m, ks, cols in (r.groups if sampled else ())
    ]
    res = np.empty((len(ys), s.outcome_count, kr, kr))
    state = np.zeros(res.shape, dtype=int) if sampled else None  # exact sets have no witness state
    for j, (lo, w) in enumerate(zip(s.offsets, s.basis)):
        n = vu[:, lo : lo + w.shape[1]] @ wt[lo : lo + w.shape[1]]
        # |N_j|^2 summed over the rows of each l block (one row each when R is simple)
        rows = np.abs(n) ** 2
        if kr < d:
            rows = np.add.reduceat(rows, r.offsets, axis=0)
        if exact:
            # and over the columns of each k block: ||X_lk||_F^2 at [l, k]
            traces = np.add.reduceat(rows, r.offsets, axis=1) if kr < d else rows
            for i in exact:
                res[i, j] = traces.T
        for m, ks, cols, reads in groups:
            if m == 1:
                for i, peak, best in reads:
                    res[i, j, ks] = (rows[:, cols] * peak).T
                    state[i, j, ks] = best
                continue
            x = np.moveaxis(n[:, cols], 1, 0)
            for i, yk in reads:
                norms = np.add.reduceat(np.abs(x @ yk) ** 2, r.offsets, axis=1)
                res[i, j, ks], state[i, j, ks] = norms.max(axis=2), norms.argmax(axis=2)
    res[:, :, np.arange(kr), np.arange(kr)] = -1.0
    out = []
    for p, (zs, worst) in enumerate(zip(probe_sets, res)):
        j, k, l = _first_max(worst, "condition 1")
        i = None if zs is None else int(state[p, j, k, l])
        out.append(_result(float(worst[j, k, l]), (i, k, j, l), zs, tol))
    return out


def _read_condition2(v, wh, wt, own, r, s, probe_sets, ys, tol) -> list:
    """Condition 2 per probe set, from the overlap W* T formed once.

    In R's frame the defect M_j = sum_k A_k* Pt_j A_k - Pt_j is
    V* M_j V = blockmask(c_j* c_j) - C_j C_j*, with c_j and C_j* the
    j rows of W* T and of W* V.  When ``own`` (the targets are R's own
    blocks) W* T is W* V, c_j = C_j*, and V* M_j V is minus the part of
    C_j C_j* off R's diagonal blocks, one d x d product per j.  Exact
    mode takes the worst ||M_j||_F over j, which the frame leaves
    unchanged; sampled mode the worst |Tr(M_j Z)| over the pure states
    Z = z z*.  With y = V* z that trace is
    sum_k ||W_j* T_k y_k||^2 - ||W_j* z||^2, O(samples d^2) past the
    overlap W* T; for rank-1 outcomes k the sum is one product
    |W* T|^2 @ |y|^2.
    """
    out = []
    for zs, y in zip(probe_sets, ys):
        if zs is None:
            mask = r.labels[:, None] == r.labels
            off, wv = (~mask, None) if own else (None, wh @ v)
            res = []
            for lo, w in zip(s.offsets, s.basis):
                c = wt[lo : lo + w.shape[1]]
                if own:
                    # c_j = C_j*: the block-diagonal part cancels to the bit, so the
                    # defect is minus the off-block part of c_j* c_j, one product
                    res.append(np.linalg.norm((dagger(c) @ c) * off))
                else:
                    cv = wv[lo : lo + w.shape[1]]
                    res.append(np.linalg.norm((dagger(c) @ c) * mask - dagger(cv) @ cv))
            res, state = np.array(res), None
        else:
            # per row of W* and per state: sum_k |W* T_k y_k|^2 - |W* z|^2
            shift = -np.abs(wh @ zs.T) ** 2
            for m, _, cols in r.groups:
                if m == 1:
                    c = cols[:, 0]
                    shift += np.abs(wt[:, c]) ** 2 @ np.abs(y[c]) ** 2
                else:
                    shift += np.sum(np.abs(np.moveaxis(wt[:, cols], 1, 0) @ y[cols]) ** 2, axis=0)
            traces = np.abs(np.add.reduceat(shift, s.offsets, axis=0))
            res, state = traces.max(axis=1), traces.argmax(axis=1)
        (j,) = _first_max(res, "condition 2")
        i = None if zs is None else int(state[j])
        out.append(_result(float(res[j]), (i, None, j, None), zs, tol))
    return out


def _route(condition, r, r_targets, s, s_targets, mode, samples, seed, tol) -> ConditionResult:
    """One condition on one route: the kernel with one probe set."""
    zs = _states(mode, r.dim, samples, seed)
    return _conditions(r, r_targets, s, s_targets, [zs], tol, (condition,))[condition][0]


def condition1_holds(
    r: Observable,
    s: Observable,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ConditionResult:
    """Does an interposed S-selection preserve certainty of repeating any R outcome?

    Exact mode reads the identity P_k Pt_j P_l Pt_j P_k = 0 (l != k) as
    the trace of its left side; sampled mode measures Tr(Z_kj'' P_l) on
    seeded random pure states.  The worst residual and where it occurred
    are returned.
    """
    _check_same_dim(r, s)
    return _route(1, r, r.basis, s, s.basis, mode, samples, seed, tol)


def condition2_holds(
    r: Observable,
    s: Observable,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ConditionResult:
    """Does a non-selective R-measurement leave every S outcome probability alone?

    Exact mode reads sum_k P_k Pt_j P_k = Pt_j as the Frobenius norm of
    the difference; sampled mode compares Tr(Pt_j Z') against Tr(Pt_j Z)
    on seeded random pure states.
    """
    _check_same_dim(r, s)
    return _route(2, r, r.basis, s, s.basis, mode, samples, seed, tol)


def lemma_check(b, c, tol: float = DEFAULT_TOL) -> bool:
    """Verify the Cauchy-Schwarz step used by the condition-1 proof.

    For positive Hermitian B and arbitrary C, every standard basis vector
    x must satisfy |BCx|^2 <= |B|_op * <x, C*BC x> + tol.  In particular
    C*BC = 0 forces BC = 0.
    """
    bm = as_matrix(b, "B")
    values, _ = _eig_hermitian_stack(bm, tol, "B")
    cm = as_matrix(c, "C")
    if bm.shape != cm.shape:
        raise DimMismatch(f"B and C shapes differ: {bm.shape} vs {cm.shape}")
    if values[0] < -tol:
        raise NotPositive(f"B has negative eigenvalue {values[0]!r}")
    opnorm = float(max(values[-1], 0.0))
    bc = bm @ cm
    lhs = np.sum(np.abs(bc) ** 2, axis=0)
    rhs = np.real(np.einsum("mi,mi->i", cm.conj(), bc))
    return bool(np.all(lhs <= opnorm * rhs + tol))


def heisenberg_observable(r: Observable, u, tol: float = DEFAULT_TOL) -> Observable:
    """Conjugate an observable into the frame after evolution U: P_k -> U* P_k U.

    Eigenvalues are untouched; each basis block B_k rotates to U* B_k,
    which is all of P_k -> U* P_k U, at O(d^2 m_k) per outcome.
    """
    um = as_matrix(u, "U")
    if um.shape[0] != r.dim:
        raise DimMismatch(f"unitary dim {um.shape[0]} does not match observable dim {r.dim}")
    with np.errstate(all="ignore"):  # entries near the largest double give inf or NaN, and fail
        dev = max_abs(dagger(um) @ um - np.eye(r.dim))
    if not dev <= tol:
        raise NotUnitary(f"U deviates from unitarity by {dev:.3e}")
    ud = dagger(um)
    pairs = tuple(SpectralPair(p.eigenvalue, _sealed(ud @ p.basis)) for p in r.pairs)
    return Observable(dim=r.dim, pairs=pairs)


@dataclass(frozen=True)
class CompatReport:
    """Joint verdict of both conditions and the commutator, with residuals.

    ``commutator_residual`` is ||[R, S]||_op / (max|r| max|s|), r and s
    the eigenvalues, so it does not change when R or S is rescaled or
    when both are written in another frame; the two condition residuals
    are scale-free already, and the exact ones frame-free.
    """

    verdict_condition1: bool
    verdict_condition2: bool
    verdict_commute: bool
    max_residual_c1: float
    max_residual_c2: float
    commutator_residual: float
    witness: Optional[Witness]
    indeterminate: tuple


def _at(res: ConditionResult) -> str:
    """A route's residual with its witness (k, j, l), for error messages."""
    at = res.witness or (None,) * 4
    return f"{res.residual:.3e} at (k, j, l) = ({', '.join('-' if i is None else str(i) for i in at[1:])})"


def _cross_check(name: str, results, tol: float) -> None:
    verdicts = {verdict_from_residual(res.residual, tol) for res in results}
    verdicts.discard(INDETERMINATE)
    if len(verdicts) > 1:
        raise VerdictDisagreement(
            f"{name}: exact and sampled routes disagree decisively ("
            + ", ".join(f"{m} {_at(res)}" for m, res in zip(_MODES, results))
            + ")"
        )


def compat_report(
    r: Observable,
    s: Observable,
    u1=None,
    u2=None,
    config: Optional[RunConfig] = None,
    mode: str = "both",
) -> CompatReport:
    """Run both conditions plus the commutator check and enforce agreement.

    ``u1``/``u2`` optionally move R and S to measurement times t1 and t2
    first.  ``mode`` selects the exact identity route, the sampled route,
    or both (the default, which also cross-checks the two routes against
    each other).  A decisive three-way disagreement raises
    VerdictDisagreement, since the underlying theorem makes the three
    checks equivalent.
    """
    cfg = config if config is not None else RunConfig()
    if mode not in ("exact", "sampled", "both"):
        raise ValidationError(f"mode must be exact, sampled or both, got {mode!r}")
    if u1 is not None:
        r = heisenberg_observable(r, u1, cfg.tol)
    if u2 is not None:
        s = heisenberg_observable(s, u2, cfg.tol)
    _check_same_dim(r, s)
    # one probe set per mode, and one kernel pass for both conditions on all of them
    probe_sets = [_states(m, r.dim, cfg.samples, cfg.seed) for m in (_MODES if mode == "both" else (mode,))]
    runs = _conditions(r, r.basis, s, s.basis, probe_sets, cfg.tol)
    _cross_check("condition 1", runs[1], cfg.tol)
    _cross_check("condition 2", runs[2], cfg.tol)
    c1 = max(runs[1], key=lambda res: res.residual)
    c2 = max(runs[2], key=lambda res: res.residual)
    # S / max|s| in R's eigenframe, (V* W) diag(s / max|s|) (V* W)*, from one product V* W
    vw = dagger(r.full_basis()) @ s.full_basis()
    comm = _commutator_norm(r, (vw * _unit_spectrum(s)) @ dagger(vw))

    labeled = {
        "condition1": verdict_from_residual(c1.residual, cfg.tol),
        "condition2": verdict_from_residual(c2.residual, cfg.tol),
        "commutator": verdict_from_residual(comm, cfg.tol),
    }
    decisive = {v for v in labeled.values() if v != INDETERMINATE}
    if len(decisive) > 1:
        raise VerdictDisagreement(
            "three-way disagreement: "
            + ", ".join(f"{name}={verdict}" for name, verdict in labeled.items())
            + f" (residuals c1={_at(c1)}, c2={_at(c2)}, comm={comm:.3e})"
        )
    witness = max((c1, c2), key=lambda res: res.residual).witness
    return CompatReport(
        verdict_condition1=c1.holds,
        verdict_condition2=c2.holds,
        verdict_commute=comm <= cfg.tol,
        max_residual_c1=c1.residual,
        max_residual_c2=c2.residual,
        commutator_residual=comm,
        witness=witness,
        indeterminate=tuple(name for name, v in labeled.items() if v == INDETERMINATE),
    )


def theta_condition1(
    fam_r: ThetaFamily,
    fam_s: ThetaFamily,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ConditionResult:
    """Condition 1 with both measurements replaced by eigenvalue-repeatable channels.

    The second R outcome is still read through the projectors P_l, but the
    state passed through Phi_j Theta_k instead of Pt_j P_k.  The exact
    route reads the trace of Theta_k* Phi_j* P_l Phi_j Theta_k, l != k.
    """
    _check_same_dim(fam_r, fam_s)
    return _route(
        1, fam_r.observable, fam_r.targets, fam_s.observable, fam_s.targets,
        mode, samples, seed, tol,
    )


def theta_condition2(
    fam_r: ThetaFamily,
    fam_s: ThetaFamily,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ConditionResult:
    """Condition 2 with the non-selective measurement run through Theta channels.

    The exact route reads ||sum_k Theta_k* Pt_j Theta_k - Pt_j||_F for
    every S projector Pt_j.
    """
    _check_same_dim(fam_r, fam_s)
    return _route(
        2, fam_r.observable, fam_r.targets, fam_s.observable, fam_s.targets,
        mode, samples, seed, tol,
    )


def sector_rotated_family(
    obs: Observable,
    partner: Observable,
    seed=0,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> ThetaFamily:
    """Random eigenvalue-repeatable family for ``obs`` that also respects ``partner``.

    Within each degeneracy subspace of obs the target basis is rotated by
    a random unitary chosen block diagonal with respect to partner, so
    when the two operators commute the channel never moves weight between
    partner outcomes.  This is the general form of an obs-measurement
    compatible with partner: a rotation that ignores partner can disturb
    its statistics even for commuting operators (rotating the targets of
    an identity measurement is nothing but a unitary kick).
    """
    _check_same_dim(obs, partner)
    rng = _rng(seed)
    # the partner's sectors inside each eigenspace: B_k* S B_k = (B_k* W) diag(s) (B_k* W)*
    # of every block of one multiplicity as one stack, one stacked eigendecomposition
    vw = dagger(obs.full_basis()) @ partner.full_basis()
    s_values = np.take(partner.eigenvalues, partner.labels)
    sectors = [None] * obs.outcome_count
    for _, ks, cols in obs.groups:
        bw = vw[cols]
        inside = (bw * s_values) @ bw.conj().swapaxes(1, 2)
        values, vectors = _eig_hermitian_stack(inside, tol)
        for k, vals, vecs in zip(ks, values, vectors):
            sectors[k] = [vecs[:, a:b] for a, b in _gap_ranges(vals, cluster_tol)]
    # one random_unitary per sector, outcome by outcome, bit for bit
    units = iter(_haar_blocks([sub.shape[1] for subs in sectors for sub in subs], rng))
    targets = []
    for block, subs in zip(obs.basis, sectors):
        rotation = np.zeros((block.shape[1], block.shape[1]), dtype=complex)
        for sub in subs:
            rotation += sub @ next(units) @ dagger(sub)
        targets.append(block @ rotation)
    return ThetaFamily(observable=obs, targets=tuple(targets))


def curated_pairs(
    dim: int,
    count: int,
    commuting: bool,
    seed: int = 0,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
):
    """Seeded list of observable pairs that commute (or provably do not).

    Commuting pairs share one random eigenbasis over two small-integer
    spectra, which also makes degenerate eigenvalues common.
    Non-commuting pairs use independent bases, and draws whose commutator
    residual falls below 1e-6 are rejected as accidental commuters.
    """
    rng = _rng(seed)
    out = []
    while len(out) < count:
        spec_a = rng.integers(-2, 3, size=dim).astype(float)
        spec_b = rng.integers(-2, 3, size=dim).astype(float)
        u1 = random_unitary(dim, rng)
        u2 = u1 if commuting else random_unitary(dim, rng)
        ma = u1 @ np.diag(spec_a) @ dagger(u1)
        mb = u2 @ np.diag(spec_b) @ dagger(u2)
        if not commuting and commutes(ma, mb, 1e-6).commute:
            continue
        out.append((spectral_decompose(ma, cluster_tol), spectral_decompose(mb, cluster_tol)))
    return out

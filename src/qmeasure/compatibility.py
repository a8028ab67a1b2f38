"""Compatibility of two observables: when measuring one cannot disturb the other.

Each of the two operational conditions is one routine on per-outcome
Kraus operators, A_k for the R-measurement and B_j for the S-measurement,
with an exact route (an operator identity) and a sampled route (traces
over seeded random states).  The projector checks are the instance
A_k = P_k, B_j = Pt_j; the theta checks pass Theta_k and Phi_j.

Condition 1: after selecting outcome r_k of R, an interposed S-selection
never destroys the certainty that an immediate second R-measurement
repeats r_k.  Exactly, this is the operator identity
A_k* B_j* P_l B_j A_k = 0 for every j and every l != k; statistically it
is Tr(P_l B_j A_k Z A_k* B_j*) = 0 over random states Z.

Condition 2: a non-selective R-measurement leaves every S outcome
probability unchanged.  Exactly: sum_k A_k* Pt_j A_k = Pt_j for every j;
statistically: Tr(Pt_j Z') = Tr(Pt_j Z) over random Z, where
Z' = sum_k A_k Z A_k* is the aggregate R-update of Z.

Both projector conditions hold iff the two operators commute, so
``compat_report`` runs both routes, checks them against the commutator,
and raises VerdictDisagreement on a decisive disagreement (it would mean
an implementation bug, not physics).

Verdicts use a guard band: residual below tol/10 counts as a clean hold,
above 10*tol a clean failure, and anything between is reported as
indeterminate rather than silently rounded to a side.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .config import RunConfig
from .errors import (
    DimMismatch,
    NotPositive,
    NotUnitary,
    ValidationError,
    VerdictDisagreement,
)
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    _relative_commutator,
    as_matrix,
    commutes,
    dagger,
    eig_hermitian,
    max_abs,
    random_unitary,
    require_hermitian,
)
from .channels import ThetaFamily, lueders_select, make_theta_family
from .observables import Observable, SpectralPair, reconstruct, spectral_decompose
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


def _random_state_batch(dim: int, samples: int, seed: int) -> np.ndarray:
    """Seeded batch of full-rank random states, stacked (samples, dim, dim)."""
    rng = np.random.default_rng(seed)
    g = (
        rng.standard_normal((samples, dim, dim))
        + 1j * rng.standard_normal((samples, dim, dim))
    ) / np.sqrt(2.0)
    zs = g @ np.conj(np.swapaxes(g, 1, 2))
    traces = np.trace(zs, axis1=1, axis2=2).real
    return zs / traces[:, None, None]


def _batch_traces(batch: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Tr(batch[i] @ op) for every state in the batch."""
    return np.einsum("sij,ji->s", batch, op)


def _result(worst: float, at, zs, tol: float) -> ConditionResult:
    """Wrap the worst residual and its (state index, k, j, l) location."""
    state = None if at is None or at[0] is None else DensityOperator(zs[at[0]])
    witness = None if at is None else Witness(state, *at[1:])
    return ConditionResult(worst <= tol, worst, verdict_from_residual(worst, tol), witness)


def _condition1(r_ops, s_ops, readout, mode, samples, seed, tol) -> ConditionResult:
    """Condition 1 on Kraus operators A_k (``r_ops``) and B_j (``s_ops``).

    Exact mode takes the worst |A_k* B_j* P_l B_j A_k| over l != k, with
    P_l the R projectors in ``readout``; sampled mode takes the worst
    |Tr(P_l B_j A_k Z A_k* B_j*)| over seeded random states Z.  Triples
    run j, then k, then l, and a later tie takes over the witness.
    """
    _check_mode(mode)
    zs = _random_state_batch(len(readout[0]), samples, seed) if mode == "sampled" else None
    worst, at = 0.0, None
    for j, b in enumerate(s_ops):
        for k, a in enumerate(r_ops):
            chain = b @ a
            chain_h = dagger(chain)
            if zs is not None:
                after = chain @ zs @ chain_h
            for l, pl in enumerate(readout):
                if l == k:
                    continue
                if zs is None:
                    res, i = max_abs(chain_h @ pl @ chain), None
                else:
                    vals = np.abs(_batch_traces(after, pl))
                    i = int(np.argmax(vals))
                    res = float(vals[i])
                if res >= worst:
                    worst, at = res, (i, k, j, l)
    return _result(worst, at, zs, tol)


def _condition2(r_ops, s_projs, mode, samples, seed, tol) -> ConditionResult:
    """Condition 2 on R's Kraus operators A_k (``r_ops``) and S's projectors.

    Exact mode takes the worst |sum_k A_k* Pt_j A_k - Pt_j| over j; sampled
    mode the worst |Tr(Pt_j (Z' - Z))| with Z' = sum_k A_k Z A_k* over
    seeded random states Z.
    """
    _check_mode(mode)
    zs = _random_state_batch(len(s_projs[0]), samples, seed) if mode == "sampled" else None
    if zs is not None:
        diff = sum(a @ zs @ dagger(a) for a in r_ops) - zs
    worst, at = 0.0, None
    for j, ptj in enumerate(s_projs):
        if zs is None:
            acc = sum(dagger(a) @ ptj @ a for a in r_ops)
            res, i = max_abs(acc - ptj), None
        else:
            vals = np.abs(np.real(_batch_traces(diff, ptj)))
            i = int(np.argmax(vals))
            res = float(vals[i])
        if res >= worst:
            worst, at = res, (i, None, j, None)
    return _result(worst, at, zs, tol)


def condition1_holds(
    r: Observable,
    s: Observable,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ConditionResult:
    """Does an interposed S-selection preserve certainty of repeating any R outcome?

    Exact mode evaluates the operator identity P_k Pt_j P_l Pt_j P_k = 0
    (l != k); sampled mode measures Tr(Z_kj'' P_l) on seeded random
    states.  The worst residual and where it occurred are returned.
    """
    _check_same_dim(r, s)
    return _condition1(r.projectors, s.projectors, r.projectors, mode, samples, seed, tol)


def condition2_holds(
    r: Observable,
    s: Observable,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ConditionResult:
    """Does a non-selective R-measurement leave every S outcome probability alone?

    Exact mode evaluates sum_k P_k Pt_j P_k = Pt_j; sampled mode compares
    Tr(Pt_j Z') against Tr(Pt_j Z) on seeded random states.
    """
    _check_same_dim(r, s)
    return _condition2(r.projectors, s.projectors, mode, samples, seed, tol)


def lemma_check(b, c, tol: float = DEFAULT_TOL) -> bool:
    """Verify the Cauchy-Schwarz step used by the condition-1 proof.

    For positive Hermitian B and arbitrary C, every standard basis vector
    x must satisfy |BCx|^2 <= |B|_op * <x, C*BC x> + tol.  In particular
    C*BC = 0 forces BC = 0.
    """
    bm = require_hermitian(b, tol, "B")
    cm = as_matrix(c, "C")
    if bm.shape != cm.shape:
        raise DimMismatch(f"B and C shapes differ: {bm.shape} vs {cm.shape}")
    values = eig_hermitian(bm, tol).values
    if values[0] < -tol:
        raise NotPositive(f"B has negative eigenvalue {values[0]!r}")
    opnorm = float(max(values[-1], 0.0))
    bc = bm @ cm
    lhs = np.sum(np.abs(bc) ** 2, axis=0)
    rhs = np.real(np.einsum("mi,mi->i", cm.conj(), bc))
    return bool(np.all(lhs <= opnorm * rhs + tol))


def heisenberg_observable(r: Observable, u, tol: float = DEFAULT_TOL) -> Observable:
    """Conjugate an observable into the frame after evolution U: P_k -> U* P_k U.

    Eigenvalues are untouched; only the projectors and basis rotate.
    """
    um = as_matrix(u, "U")
    if um.shape[0] != r.dim:
        raise DimMismatch(f"unitary dim {um.shape[0]} does not match observable dim {r.dim}")
    dev = max_abs(dagger(um) @ um - np.eye(r.dim))
    if dev > tol:
        raise NotUnitary(f"U deviates from unitarity by {dev:.3e}")
    ud = dagger(um)
    pairs = tuple(
        SpectralPair(
            eigenvalue=p.eigenvalue,
            projector=ud @ p.projector @ um,
            multiplicity=p.multiplicity,
        )
        for p in r.pairs
    )
    basis = tuple(ud @ block for block in r.basis)
    return Observable(dim=r.dim, pairs=pairs, basis=basis)


@dataclass(frozen=True)
class CompatReport:
    """Joint verdict of both conditions and the commutator, with residuals.

    ``commutator_residual`` is relative to scale,
    max|[R, S]| / (max|R| max|S|), so it does not change when R or S is
    rescaled; the two condition residuals are scale-free already.
    """

    verdict_condition1: bool
    verdict_condition2: bool
    verdict_commute: bool
    max_residual_c1: float
    max_residual_c2: float
    commutator_residual: float
    witness: Optional[Witness]
    indeterminate: tuple


def _cross_check(name: str, results, tol: float) -> None:
    verdicts = {verdict_from_residual(res.residual, tol) for res in results}
    verdicts.discard(INDETERMINATE)
    if len(verdicts) > 1:
        raise VerdictDisagreement(
            f"{name}: exact and sampled routes disagree decisively "
            f"(residuals {[res.residual for res in results]})"
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
    modes = _MODES if mode == "both" else (mode,)
    c1_runs = [
        condition1_holds(r, s, m, samples=cfg.samples, seed=cfg.seed, tol=cfg.tol)
        for m in modes
    ]
    c2_runs = [
        condition2_holds(r, s, m, samples=cfg.samples, seed=cfg.seed, tol=cfg.tol)
        for m in modes
    ]
    _cross_check("condition 1", c1_runs, cfg.tol)
    _cross_check("condition 2", c2_runs, cfg.tol)
    c1 = max(c1_runs, key=lambda res: res.residual)
    c2 = max(c2_runs, key=lambda res: res.residual)
    comm = _relative_commutator(reconstruct(r), reconstruct(s))

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
            + f" (residuals c1={c1.residual:.3e}, c2={c2.residual:.3e}, comm={comm:.3e})"
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
    state passed through Phi_j Theta_k instead of Pt_j P_k.  The identity
    route checks Theta_k* Phi_j* P_l Phi_j Theta_k = 0 for l != k.
    """
    _check_same_dim(fam_r, fam_s)
    return _condition1(
        fam_r.thetas, fam_s.thetas, fam_r.observable.projectors, mode, samples, seed, tol
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

    The identity route checks sum_k Theta_k* Pt_j Theta_k = Pt_j for
    every S projector Pt_j.
    """
    _check_same_dim(fam_r, fam_s)
    return _condition2(fam_r.thetas, fam_s.observable.projectors, mode, samples, seed, tol)


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
    if obs.dim != partner.dim:
        raise DimMismatch(f"dimensions differ: {obs.dim} vs {partner.dim}")
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
    partner_matrix = reconstruct(partner)
    targets = []
    for block in obs.basis:
        inside = dagger(block) @ partner_matrix @ block
        inside = (inside + dagger(inside)) / 2.0
        sectors = spectral_decompose(inside, cluster_tol, tol)
        rotation = np.zeros((block.shape[1], block.shape[1]), dtype=complex)
        for sub in sectors.basis:
            rotation += sub @ random_unitary(sub.shape[1], rng) @ dagger(sub)
        targets.append(block @ rotation)
    return make_theta_family(obs, targets, tol)


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
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        spec_a = rng.integers(-2, 3, size=dim).astype(float)
        spec_b = rng.integers(-2, 3, size=dim).astype(float)
        if commuting:
            u = random_unitary(dim, rng)
            ma = u @ np.diag(spec_a) @ dagger(u)
            mb = u @ np.diag(spec_b) @ dagger(u)
        else:
            u1 = random_unitary(dim, rng)
            u2 = random_unitary(dim, rng)
            ma = u1 @ np.diag(spec_a) @ dagger(u1)
            mb = u2 @ np.diag(spec_b) @ dagger(u2)
        ma = (ma + dagger(ma)) / 2.0
        mb = (mb + dagger(mb)) / 2.0
        if not commuting and commutes(ma, mb, 1e-6).commute:
            continue
        out.append((spectral_decompose(ma, cluster_tol), spectral_decompose(mb, cluster_tol)))
    return out

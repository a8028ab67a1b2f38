"""Install smoke test: replay the paper's worked examples, one PASS/FAIL line each.

Every row of ``_ROWS`` recomputes one worked example and returns
``(got, want)``, with ``want`` worked out by hand.  Either side is a
number, a boolean, an array or a tuple of them; both are flattened to
one complex vector and compared with a single max-abs check at the run
tolerance, so verdicts count as 0/1.  The regression suite is
``tests/``; the demo only shows that an installed copy reproduces the
paper's numbers.  Output is deterministic for a fixed configuration, so
two runs can be compared byte for byte.
"""

import numpy as np

from .channels import (
    born,
    lueders_aggregate,
    lueders_select,
    make_theta_family,
    normalize,
    theta_select,
    von_neumann_aggregate,
)
from .compatibility import (
    compat_report,
    curated_pairs,
    sector_rotated_family,
    theta_condition1,
    theta_condition2,
)
from .config import RunConfig
from .constraints import (
    make_exchange_constraint,
    measurable_under,
    preserves_constraint,
    random_constrained_density,
)
from .errors import QMeasureError
from .linalg import max_abs
from .matrixio import format_matrix, parse_matrix
from .observables import spectral_decompose
from .states import from_pure, random_density

__all__ = ["run_demo"]

_S = 1 / np.sqrt(2.0)
_D225 = np.diag([2.0, 2.0, 5.0])
_Z = np.diag([1.0, -1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_HADAMARD = np.array([[_S, _S], [_S, -_S]])
# the uniform superposition of three levels, and (e1 + e2)/sqrt2 as a state
_PSI3 = from_pure(np.ones(3))
_PLUS_PLANE = from_pure([1.0, 1.0, 0.0]).matrix


def _observable(m, cfg: RunConfig):
    return spectral_decompose(m, cfg.cluster_tol, cfg.tol)


def _verdicts(report) -> tuple:
    return report.verdict_condition1, report.verdict_condition2, report.verdict_commute


def _decompose_degenerate(cfg):
    obs = _observable(_D225, cfg)
    got = (obs.eigenvalues, obs.multiplicities, obs.projectors)
    return got, ([2.0, 5.0], [2, 1], [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])


def _born_weights(cfg):
    return born(_observable(_D225, cfg), _PSI3, cfg.tol).probabilities, (2 / 3, 1 / 3)


def _lueders_select(cfg):
    # the branch keeps the coherent e1/e2 part of psi, so normalized it is pure
    sel = lueders_select(_observable(_D225, cfg), 0, _PSI3)
    return (sel.matrix, normalize(sel).purity()), (2 / 3 * _PLUS_PLANE, 1.0)


def _lueders_aggregate(cfg):
    agg = lueders_aggregate(_observable(_D225, cfg), _PSI3)
    return agg.matrix, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3


def _von_neumann_overmixes(cfg):
    # one ray per basis vector dephases inside the degenerate block as well
    vn = von_neumann_aggregate(_observable(_D225, cfg), _PSI3, tol=cfg.tol)
    return (vn.matrix, vn.purity()), (np.eye(3) / 3, 1 / 3)


def _von_neumann_simple(cfg):
    # on a simple spectrum every eigenspace is one ray, so the rules agree
    obs = _observable(_X, cfg)
    z = random_density(2, 2, cfg.seed)
    return von_neumann_aggregate(obs, z, tol=cfg.tol).matrix, lueders_aggregate(obs, z).matrix


def _theta_repeats_eigenvalue(cfg):
    # Theta_0 sends e1 to (e1 + e2)/sqrt2 inside the eigenspace of 2: the
    # eigenvalue repeats with certainty, but the eigenstate e1 moves
    obs = _observable(_D225, cfg)
    targets = [np.array([[_S, _S], [_S, -_S], [0.0, 0.0]]), np.eye(3)[:, 2:]]
    fam = make_theta_family(obs, targets, cfg.tol)
    moved = theta_select(fam, 0, from_pure([1.0, 0.0, 0.0]))
    again = born(obs, normalize(theta_select(fam, 0, _PSI3)), cfg.tol)
    return (moved.matrix, again.probabilities), (_PLUS_PLANE, (1.0, 0.0))


def _conjugate_pair(cfg):
    rep = compat_report(_observable(_Z, cfg), _observable(_X, cfg), config=cfg)
    return _verdicts(rep) + (rep.commutator_residual,), (False, False, False, 2.0)


def _commuting_pair(cfg):
    # sigma_z on the first qubit against sigma_x on the second
    r = _observable(np.kron(_Z, np.eye(2)), cfg)
    s = _observable(np.kron(np.eye(2), _X), cfg)
    return _verdicts(compat_report(r, s, config=cfg)), (True, True, True)


def _evolved_copy(cfg):
    # Z measured again after a Hadamard evolution is X in disguise
    z = _observable(_Z, cfg)
    return _verdicts(compat_report(z, z, u2=_HADAMARD, config=cfg)), (False, False, False)


def _theta_sector_rotations(cfg):
    # targets rotated only inside joint eigenspaces keep both conditions
    r, s = curated_pairs(4, 1, commuting=True, seed=cfg.seed)[0]
    rng = np.random.default_rng(cfg.seed + 1)
    fam_r = sector_rotated_family(r, s, rng, cfg.tol)
    fam_s = sector_rotated_family(s, r, rng, cfg.tol)
    got = tuple(
        check(fam_r, fam_s, mode, cfg.samples, cfg.seed, cfg.tol).holds
        for check in (theta_condition1, theta_condition2)
        for mode in ("exact", "sampled")
    )
    return got, (True,) * 4


def _exchange_symmetric(cfg):
    # total sigma_z of two qubits commutes with SWAP: it is measurable,
    # and no outcome branch leaves the symmetric sector
    n = make_exchange_constraint(2, symmetric=True)
    r = _observable(np.diag([2.0, 0.0, 0.0, -2.0]), cfg)
    z = random_constrained_density(n, cfg.seed, tol=cfg.tol)
    rows = preserves_constraint(r, n, z, cfg.tol)
    return (measurable_under(r, n, cfg.tol), [row.preserved for row in rows]), (True, [True] * 3)


def _exchange_single_particle(cfg):
    n = make_exchange_constraint(2, symmetric=True)
    return measurable_under(_observable(np.kron(_Z, np.eye(2)), cfg), n, cfg.tol), False


def _matrix_roundtrip(cfg):
    m = random_density(3, 3, cfg.seed).matrix
    return parse_matrix(format_matrix(m)), m


_ROWS = [
    ("observables/decompose-degenerate-diagonal", _decompose_degenerate),
    ("channels/born-degenerate-weights", _born_weights),
    ("channels/select-degenerate-stays-pure", _lueders_select),
    ("channels/aggregate-degenerate-blocks", _lueders_aggregate),
    ("channels/basis-rule-overmixes", _von_neumann_overmixes),
    ("channels/degeneracy-free-rules-agree", _von_neumann_simple),
    ("channels/theta-repeats-eigenvalue", _theta_repeats_eigenvalue),
    ("compat/report-conjugate-pair", _conjugate_pair),
    ("compat/report-commuting-pair", _commuting_pair),
    ("compat/report-evolved-copy", _evolved_copy),
    ("compat/theta-commuting-rotated-bases", _theta_sector_rotations),
    ("constraints/measurable-preserves-all-branches", _exchange_symmetric),
    ("constraints/single-particle-not-measurable", _exchange_single_particle),
    ("matrixio/format-parse-roundtrip", _matrix_roundtrip),
]


def _flat(side) -> np.ndarray:
    """Every number on one side of a row (a value or a tuple of values) as one vector."""
    parts = side if isinstance(side, tuple) else (side,)
    return np.concatenate([np.ravel(np.asarray(p, dtype=complex)) for p in parts])


def run_demo(cfg: RunConfig, out) -> int:
    """Run every row; print one PASS/FAIL line each; 0 iff everything passed."""
    failed = 0
    for label, fn in _ROWS:
        try:
            got, want = (_flat(side) for side in fn(cfg))
        except QMeasureError as exc:
            ok, detail = False, f"unexpected {type(exc).__name__}: {exc}"
        else:
            if got.shape != want.shape:
                ok, detail = False, f"{got.size} values, expected {want.size}"
            else:
                residual = max_abs(got - want)
                ok, detail = residual <= cfg.tol, f"residual {residual!r}"
        if ok:
            print(f"PASS {label}", file=out)
        else:
            failed += 1
            print(f"FAIL {label}: {detail}", file=out)
    print(f"demo: {len(_ROWS)} checks, {len(_ROWS) - failed} passed, {failed} failed", file=out)
    return 0 if failed == 0 else 1

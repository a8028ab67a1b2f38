"""Block-form checks against their dense per-projector references.

An Observable stores only its eigenbasis blocks, and every check that
used to multiply dense projectors now works on the stacked blocks.  The
dense loops those checks replaced are kept here as references, and each
block-form check must give the same verdict on random simple and
degenerate spectra.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmeasure.channels import ThetaFamily, make_theta_family, rotated_theta_family
from qmeasure.compatibility import heisenberg_observable
from qmeasure.errors import ValidationError
from qmeasure.linalg import dagger, eig_hermitian, max_abs, random_unitary
from qmeasure.constraints import measurable_under
from qmeasure.observables import (
    is_function_refinement,
    observable_from_pairs,
    spectral_decompose,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
TOL = 1e-9


# ------------------------------------------------------------ references


def dense_family_valid(pairs, tol=TOL):
    """Per-projector validation with K^2 dense products: each projector
    Hermitian, idempotent and of integer trace, the family orthogonal
    and complete."""
    projs = [np.asarray(p, dtype=complex) for _, p in pairs]
    dim = projs[0].shape[0]
    for p in projs:
        tr = np.trace(p).real
        if max_abs(p - dagger(p)) > tol or max_abs(p @ p - p) > tol:
            return False
        if round(tr) < 1 or abs(tr - round(tr)) > tol * dim:
            return False
    for j, pj in enumerate(projs):
        for k, pk in enumerate(projs):
            if max_abs(pj @ pk - (pk if j == k else 0.0)) > tol:
                return False
    return max_abs(sum(projs) - np.eye(dim)) <= tol


def dense_theta_residual(fam):
    """Worst deviation from Theta_k* Theta_k' = delta P_k,
    Theta_k' Theta_k* = delta P_k and Theta_k P_k' = delta Theta_k."""
    worst = 0.0
    projs = fam.observable.projectors
    for k, tk in enumerate(fam.thetas):
        for kp, tkp in enumerate(fam.thetas):
            expect = projs[k] if k == kp else 0.0
            worst = max(worst, max_abs(dagger(tk) @ tkp - expect))
            worst = max(worst, max_abs(tkp @ dagger(tk) - expect))
        for kp, p in enumerate(projs):
            worst = max(worst, max_abs(tk @ p - (tk if k == kp else 0.0)))
    return worst


def _relative_commutator(a, b):
    scale = max_abs(a) * max_abs(b)
    return max_abs(a @ b - b @ a) / scale if scale > 0 else 0.0


def dense_measurable(r, n, tol=TOL):
    """Every projector of r, and r itself, commutes with N relative to scale."""
    full = sum(p.eigenvalue * p.projector for p in r.pairs)
    return all(_relative_commutator(p, n) <= tol for p in r.projectors + [full])


def dense_refinement(fine, coarse, tol=TOL):
    """Each coarse projector equals the sum of the fine projectors whose
    overlap Tr(P_c P_f) is at least m_f - 1/2."""
    for cp in coarse.projectors:
        total = np.zeros_like(cp)
        for fp, m in zip(fine.projectors, fine.multiplicities):
            if np.trace(cp @ fp).real >= m - 0.5:
                total = total + fp
        if max_abs(total - cp) > tol * max(1, coarse.dim):
            return False
    return True


# ------------------------------------------------------------ strategies


@st.composite
def spectra(draw, max_dim=12):
    """(u, values): a Haar unitary and an integer spectrum with at least
    two distinct values, repeats allowed."""
    dim = draw(st.integers(2, max_dim))
    values = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    if len(set(values)) < 2:
        values[0] = values[1] + 1
    u = random_unitary(dim, draw(st.integers(0, 2**32 - 1)))
    return u, np.array(values, dtype=float)


def _observable(u, values):
    return spectral_decompose(u @ np.diag(values) @ dagger(u))


# ------------------------------------------------------------ properties


@PROPERTY
@given(spectra(), st.sampled_from(["none", "tilted", "dropped", "scaled"]))
def test_from_pairs_matches_the_dense_family_check(spec, kind):
    # tilting one eigenvector of the first eigenspace towards the second
    # keeps every projector valid but breaks orthogonality; dropping a
    # pair breaks completeness; scaling breaks idempotency
    u, values = spec
    distinct = np.unique(values)
    blocks = [u[:, values == v] for v in distinct]
    if kind == "tilted":
        a, b = blocks[0][:, 0], blocks[1][:, 0]
        blocks[0] = blocks[0].copy()
        blocks[0][:, 0] = np.cos(1e-4) * a + np.sin(1e-4) * b
    family = [(float(v), b @ dagger(b)) for v, b in zip(distinct, blocks)]
    if kind == "dropped":
        family = family[:-1]
    if kind == "scaled":
        family[0] = (family[0][0], (1.0 + 1e-6) * family[0][1])
    want = dense_family_valid(family)
    assert want == (kind == "none")
    try:
        obs = observable_from_pairs(family)
    except ValidationError:
        assert not want
        return
    assert want
    assert obs.eigenvalues == sorted(v for v, _ in family)
    for (_, p), got in zip(sorted(family, key=lambda it: it[0]), obs.projectors):
        assert max_abs(got - p) <= 1e-12 * len(values)


@pytest.mark.parametrize("values", [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 0.0, 1.0, 1.0, 2.0]])
def test_range_basis_is_the_eig_hermitian_columns(values):
    # the basis built from a projector is bit for bit the eigenvectors
    # eig_hermitian finds for it, eigenvalue above 1/2
    values = np.array(values)
    u = random_unitary(len(values), 31)
    blocks = [u[:, values == v] for v in np.unique(values)]
    family = [(v, b @ dagger(b)) for v, b in zip(np.unique(values), blocks)]
    obs = observable_from_pairs(family)
    for (_, p), block in zip(family, obs.basis):
        eigsys = eig_hermitian(p)
        assert np.array_equal(block, eigsys.vectors[:, eigsys.values > 0.5])


@PROPERTY
@given(spectra(), st.booleans(), st.floats(0.01, 0.5))
def test_theta_residual_flags_targets_leaving_their_eigenspace(spec, leak, angle):
    # a rotation by `angle` between two eigenspaces applied to every
    # target keeps the targets orthonormal but moves them out of their
    # eigenspaces, so the family identities fail by sin(angle)
    u, values = spec
    obs = _observable(u, values)
    if not leak:
        fam = rotated_theta_family(obs, 5)
        assert fam.residual() <= 1e-12 * obs.dim
        assert dense_theta_residual(fam) <= 1e-12 * obs.dim
        return
    a, b = obs.basis[0][:, :1], obs.basis[1][:, :1]
    c, s = np.cos(angle), np.sin(angle)
    g = np.eye(obs.dim) + (c - 1) * (a @ dagger(a) + b @ dagger(b))
    g = g + s * (b @ dagger(a) - a @ dagger(b))
    fam = ThetaFamily(observable=obs, targets=tuple(g @ t for t in obs.basis))
    assert fam.residual() > 1e-3
    assert dense_theta_residual(fam) > 1e-3


@PROPERTY
@given(spectra(max_dim=8), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.sampled_from(["noise", "inside"]))
def test_make_theta_family_admits_what_residual_admits(spec, seed, exponent, kind):
    # every target of a valid family moved by eps = tol 10^x, |x| <= 2, in
    # a random direction or one inside its eigenspace: make_theta_family
    # admits the family exactly when its residual is within tol
    u, values = spec
    obs = _observable(u, values)
    rng = np.random.default_rng(seed)
    eps = TOL * 10.0**exponent
    targets = []
    for t, b in zip(rotated_theta_family(obs, rng).targets, obs.basis):
        g = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        if kind == "inside":
            g = b @ (dagger(b) @ g)
        targets.append(t + eps * g / max_abs(g))
    fam = ThetaFamily(observable=obs, targets=tuple(targets))
    try:
        make_theta_family(obs, fam.targets, TOL)
    except ValidationError:
        assert not fam.residual() <= TOL
    else:
        assert fam.residual() <= TOL


@st.composite
def constrained(draw):
    """(observable, N): N is either block diagonal in the observable's
    eigenspaces (commuting) or a generic Hermitian matrix, in either case
    at a drawn scale."""
    u, values = draw(spectra())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = len(values)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = (g + dagger(g)) / 2.0
    if draw(st.booleans()):
        x = np.where(values[:, None] == values[None, :], x, 0.0)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    return _observable(u, values), scale * (u @ x @ dagger(u))


@PROPERTY
@given(constrained())
def test_measurable_under_matches_the_dense_commutators(case):
    obs, n = case
    assert measurable_under(obs, n) == dense_measurable(obs, n)


@st.composite
def refinement_pairs(draw):
    """(fine, coarse): coarse merges some values of fine, or is diagonal
    in an unrelated basis, or the two roles are swapped."""
    u, values = draw(spectra())
    merge = {v: draw(st.integers(0, 3)) for v in np.unique(values)}
    fine = _observable(u, values)
    kind = draw(st.sampled_from(["merged", "swapped", "unrelated"]))
    if kind == "unrelated":
        u = random_unitary(len(values), draw(st.integers(0, 2**32 - 1)))
    coarse = _observable(u, np.array([float(merge[v]) for v in values]))
    return (coarse, fine) if kind == "swapped" else (fine, coarse)


@PROPERTY
@given(refinement_pairs())
def test_refinement_matches_the_dense_projector_sums(pair):
    fine, coarse = pair
    assert is_function_refinement(fine, coarse) == dense_refinement(fine, coarse)


@PROPERTY
@given(spectra(max_dim=32), st.integers(0, 2**32 - 1))
def test_heisenberg_projectors_are_conjugated_projectors(spec, seed):
    obs = _observable(*spec)
    um = random_unitary(obs.dim, seed)
    moved = heisenberg_observable(obs, um)
    assert moved.eigenvalues == obs.eigenvalues
    assert moved.multiplicities == obs.multiplicities
    for p, q in zip(obs.projectors, moved.projectors):
        assert max_abs(q - dagger(um) @ p @ um) <= 1e-12

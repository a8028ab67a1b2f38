"""Constraints in any units, and draws inside the kernel against the loop they replaced.

A constraint N = s U diag(spectrum) U*, whose spectrum has zeros, is
taken at scales s from 2^-3 to 1e300.  Every state drawn from its kernel
must be a state that satisfies N, and measuring an observable that
commutes with N must keep every branch inside the kernel: each verdict
on N Z is read at the unit scale N / max|N|, so none depends on s.

``random_constrained_density`` reads its Gaussian in the kernel basis.
The rejection loop it replaced, which compressed ``random_density`` into
the kernel projector, is kept here as the reference: draws agree within
1e-14 and leave a shared generator in the same state.  The bound is set
by the reference, whose error grows as a draw barely overlaps the kernel
(4.9e-15 for one rank-1 draw whose kernel weight is 1e-3).
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmeasure import cli
from qmeasure.constraints import (
    Constraint,
    kernel_projector,
    make_exchange_constraint,
    preserves_constraint,
    random_constrained_density,
    satisfies,
)
from qmeasure.errors import ContractError, ValidationError
from qmeasure.linalg import DEFAULT_TOL, _rng, dagger, random_unitary
from qmeasure.matrixio import format_matrix
from qmeasure.observables import spectral_decompose
from qmeasure.states import DensityOperator, random_density

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
SCALES = (2.0**-3, 1.0, 1e6, 1e8, 1e300)
NONZERO = (-3.0, -1.0, 0.5, 1.0, 2.0, 3.0)


def random_constrained_density_reference(n, seed, rank=None, tol=DEFAULT_TOL):
    kernel = kernel_projector(n, tol)
    dim = kernel.shape[0]
    if round(float(np.trace(kernel).real)) == 0:
        raise ValidationError("constraint admits no states (kernel is trivial)")
    rng = _rng(seed)
    for _ in range(64):
        z = random_density(dim, rank if rank is not None else dim, rng)
        compressed = kernel @ z.matrix @ kernel
        tr = float(np.trace(compressed).real)
        if tr >= 1e-6:
            return DensityOperator(compressed / tr)
    raise ContractError("could not draw a state overlapping the constraint kernel")


@st.composite
def constrained_pairs(draw):
    """(N, R): N = s U diag(spectrum) U* with at least one zero, R = U diag(values) U*."""
    dim = draw(st.integers(2, 6))
    zeros = draw(st.integers(1, dim))
    spectrum = [0.0] * zeros + draw(st.lists(st.sampled_from(NONZERO), min_size=dim - zeros, max_size=dim - zeros))
    u = random_unitary(dim, draw(st.integers(0, 2**16)))
    u = u[:, draw(st.permutations(range(dim)))]
    n = draw(st.sampled_from(SCALES)) * (u @ np.diag(spectrum) @ dagger(u))
    # integer eigenvalues of R are equal or a unit apart, so its eigenspaces are well conditioned
    values = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    return n, u @ np.diag(np.array(values, dtype=float)) @ dagger(u)


@PROPERTY
@given(constrained_pairs(), st.integers(0, 2**16), st.sampled_from([None, 1, 2]))
def test_kernel_draws_are_states_that_satisfy_the_constraint_in_any_units(pair, seed, rank):
    n, r = pair
    rank = None if rank is None else min(rank, n.shape[0])
    z = random_constrained_density(n, seed, rank).matrix
    assert np.abs(z - dagger(z)).max() <= 1e-12
    assert abs(np.trace(z).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(z)[0] >= -1e-12
    assert satisfies(z, n).satisfied
    rows = preserves_constraint(spectral_decompose(r), n, z)
    assert all(row.preserved for row in rows), rows


def _constraints():
    """Exchange constraints for local dims 2-4 and rotated ones with max|N| <= 1, kernels of rank 1 to 3."""
    out = [make_exchange_constraint(d, sym) for d in (2, 3, 4) for sym in (True, False)]
    for dim, zeros in ((3, 1), (4, 2), (6, 3)):
        u = random_unitary(dim, dim)
        m = u @ np.diag([0.0] * zeros + list(np.linspace(0.3, 0.9, dim - zeros))) @ dagger(u)
        out.append(Constraint((m + dagger(m)) / 2.0))
    return out


@pytest.mark.parametrize("n", _constraints(), ids=lambda n: f"{n.label}-{n.dim}")
def test_draws_match_the_rejection_loop(n):
    for seed in range(8):
        for rank in (None, 1, 2):
            got = random_constrained_density(n, seed, rank).matrix
            want = random_constrained_density_reference(n, seed, rank).matrix
            assert np.abs(got - want).max() <= 1e-14, (seed, rank)
    shared = [np.random.default_rng(11), np.random.default_rng(11)]
    for rank in (None, 1, 2, None, 1):
        got = random_constrained_density(n, shared[0], rank).matrix
        want = random_constrained_density_reference(n, shared[1], rank).matrix
        assert np.abs(got - want).max() <= 1e-14
    assert shared[0].bit_generator.state == shared[1].bit_generator.state


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e8, 1e300])
def test_cli_random_states_of_a_large_unit_constraint_keep_every_branch(scale, tmp_path):
    # at scales 1e8 and above an absolute residual rejected states drawn from N's own kernel
    u = random_unitary(3, 4)
    (tmp_path / "n.txt").write_text(format_matrix(scale * (u @ np.diag([1.0, 0.0, 2.0]) @ dagger(u))))
    (tmp_path / "r.txt").write_text(format_matrix(u @ np.diag([3.0, -1.0, 0.5]) @ dagger(u)))
    out, err = io.StringIO(), io.StringIO()
    argv = ["constraint", "--n", str(tmp_path / "n.txt"), "--r", str(tmp_path / "r.txt"), "--random", "3"]
    code = cli.run([*argv, "--format", "machine"], out=out, err=err)
    assert (code, err.getvalue()) == (0, "")
    preserved = [line for line in out.getvalue().splitlines() if ".preserved=" in line]
    assert len(preserved) == 3 and all(line.endswith("=true") for line in preserved)


@pytest.mark.parametrize("sigma", [1e-5, 1e-8, 1e-12])
def test_cli_random_never_rejects_its_own_draw(sigma, tmp_path):
    # N = diag(1, sigma): the kernel keeps the singular values of N / max|N|
    # up to tol, the bound the N Z rule applies, so sigma = 1e-5 and 1e-8 leave no
    # kernel at all, and sigma = 1e-12 leaves one whose draws keep every branch
    (tmp_path / "n.txt").write_text(format_matrix(np.diag([1.0, sigma])))
    (tmp_path / "r.txt").write_text(format_matrix(np.diag([1.0, -1.0])))
    out, err = io.StringIO(), io.StringIO()
    argv = ["constraint", "--n", str(tmp_path / "n.txt"), "--r", str(tmp_path / "r.txt"), "--random", "3"]
    code = cli.run([*argv, "--format", "machine"], out=out, err=err)
    if sigma > DEFAULT_TOL:
        assert (code, err.getvalue()) == (3, "error: ValidationError: constraint admits no states (kernel is trivial)\n")
        return
    assert (code, err.getvalue()) == (0, "")
    preserved = [line for line in out.getvalue().splitlines() if ".preserved=" in line]
    assert len(preserved) == 2 and all(line.endswith("=true") for line in preserved)

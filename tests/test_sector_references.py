"""``sector_rotated_family`` against the per-outcome loop it replaced.

The family splits each eigenspace of ``obs`` into the sectors of
``partner`` and rotates every sector by a Haar unitary.  It now reads each
B_k* S B_k from the partner's blocks, (B_k* W) diag(s) (B_k* W)*, stacks
the eigenspace blocks of one multiplicity for one eigendecomposition, and
takes one normal draw for all sectors and one Haar step per sector size.
The loop it replaced, B_k* S B_k from the dense partner, one
``spectral_decompose`` per eigenspace and one ``random_unitary`` per
sector, is kept here as the reference.  The generator state afterwards
must be equal bit for bit.  Where every sector of a block is
one-dimensional the sector projectors fix the target, which must agree
within 1e-12.  Inside a degenerate sector the eigensolver may pick any
basis, so there the rotation B_k* T_k must be unitary and commute with
the reference's B_k* S B_k within 1e-12.
"""

import numpy as np
import pytest

from qmeasure.channels import make_theta_family
from qmeasure.compatibility import curated_pairs, sector_rotated_family
from qmeasure.linalg import DEFAULT_CLUSTER_TOL, DEFAULT_TOL, dagger, max_abs, random_unitary
from qmeasure.observables import reconstruct, spectral_decompose

DIMS = (2, 3, 4, 6, 8, 16, 32)


def sector_rotated_family_reference(obs, partner, seed=0, tol=DEFAULT_TOL, cluster_tol=DEFAULT_CLUSTER_TOL):
    """The loop's family, with (B_k* S B_k, every sector one-dimensional) per block."""
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
    partner_matrix = reconstruct(partner)
    targets, insides = [], []
    for block in obs.basis:
        inside = dagger(block) @ partner_matrix @ block
        inside = (inside + dagger(inside)) / 2.0
        sectors = spectral_decompose(inside, cluster_tol, tol)
        rotation = np.zeros((block.shape[1], block.shape[1]), dtype=complex)
        for sub in sectors.basis:
            rotation += sub @ random_unitary(sub.shape[1], rng) @ dagger(sub)
        targets.append(block @ rotation)
        insides.append((inside, max(sectors.multiplicities) == 1))
    return make_theta_family(obs, targets, tol), insides


def _simple(dim, rng):
    u = random_unitary(dim, rng)
    m = u @ np.diag(np.arange(dim) + rng.uniform(0.0, 0.5, dim)) @ dagger(u)
    return spectral_decompose((m + dagger(m)) / 2.0)


def _cases(dim):
    """(obs, partner) both ways round for degenerate curated pairs, commuting
    and not, and for simple spectra against a degenerate partner."""
    rng = np.random.default_rng(dim)
    pairs = curated_pairs(dim, 2, True, seed=dim) + curated_pairs(dim, 2, False, seed=dim)
    pairs.append((_simple(dim, rng), pairs[0][0]))
    return pairs + [(s, r) for r, s in pairs]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("generator", [False, True])
def test_targets_and_generator_state_match_the_loop(dim, generator):
    for i, (obs, partner) in enumerate(_cases(dim)):
        seeds = [np.random.default_rng(i), np.random.default_rng(i)] if generator else [i, i]
        got = sector_rotated_family(obs, partner, seeds[0])
        want, insides = sector_rotated_family_reference(obs, partner, seeds[1])
        for block, t, t_ref, (inside, simple) in zip(obs.basis, got.targets, want.targets, insides):
            if simple:
                assert max_abs(t - t_ref) <= 1e-12, (dim, i)
                continue
            rotation = dagger(block) @ t
            assert max_abs(dagger(rotation) @ rotation - np.eye(len(rotation))) <= 1e-12, (dim, i)
            assert max_abs(rotation @ inside - inside @ rotation) <= 1e-12, (dim, i)
        if generator:
            assert seeds[0].bit_generator.state == seeds[1].bit_generator.state, (dim, i)
            # the streams go on in step
            assert seeds[0].standard_normal() == seeds[1].standard_normal()

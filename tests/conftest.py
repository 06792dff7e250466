"""Shared fixtures and the dense kron-product oracle.

The oracle builds Hamiltonians in the full 2^n space by explicit Kronecker
products, independently of the bit-twiddling sector machinery under test.
"""

from __future__ import annotations

from functools import reduce
from math import comb

import numpy as np
import pytest
import scipy.sparse.linalg

import spinchannel.worker

from spinchannel.chain import ChainSpec, _rank, chain_bonds, enumerate_sector

# single-site operators in basis order {down, up} so that bit i of the
# composite index (site 0 least significant) encodes the state of site i
S_Z = np.diag([-0.5, 0.5])
S_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])
S_MINUS = S_PLUS.T
IDENT = np.eye(2)


def site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    ops = [IDENT] * n_sites
    ops[site] = op
    return reduce(np.kron, ops[::-1])


def dense_bond_hamiltonian(n_sites: int, bonds) -> np.ndarray:
    """Full-space Heisenberg Hamiltonian via Kronecker products."""
    dim = 2**n_sites
    h = np.zeros((dim, dim))
    for i, j, coupling in bonds:
        zz = site_operator(S_Z, i, n_sites) @ site_operator(S_Z, j, n_sites)
        pm = site_operator(S_PLUS, i, n_sites) @ site_operator(S_MINUS, j, n_sites)
        h += coupling * (zz + 0.5 * (pm + pm.T))
    return h


def dense_chain_hamiltonian(spec: ChainSpec) -> np.ndarray:
    return dense_bond_hamiltonian(spec.L, chain_bonds(spec))


def dense_transfer_hamiltonian(spec: ChainSpec, gamma: float) -> np.ndarray:
    bonds = [(0, 1, gamma)] + chain_bonds(spec, offset=1)
    return dense_bond_hamiltonian(spec.L + 1, bonds)


def chain_length(spectral) -> int:
    """Length L of the chain whose m = 0 sector, of dim C(L, L/2), holds spectral's vectors."""
    return next(L for L in range(2, 64, 2) if comb(L, L // 2) == spectral.ground.size)


def rank(sector, patterns):
    """Positions of patterns in a plain sector's sorted basis, by the package's one rule."""
    return _rank(patterns, sector.n_sites, (sector.n_sites + sector.twice_sz) // 2)


def z_signs(sector, site: int) -> np.ndarray:
    """+-1.0 of sigma_z(site) on each basis pattern, as 2 * float(bit) - 1."""
    return 2.0 * ((sector.basis >> np.uint64(site)) & np.uint64(1)).astype(np.float64) - 1.0


def total_spin_ladder(sector, vec: np.ndarray, raising: bool):
    """Total S+ (raising) or S- of a sector vector: (adjacent sector, image), each
    flipped pattern found by binary search in the target basis."""
    target = enumerate_sector(sector.n_sites, sector.twice_sz + (2 if raising else -2))
    image = np.zeros(target.dim)
    for site in range(sector.n_sites):
        bit = np.uint64(1 << site)
        src = np.nonzero(((sector.basis & bit) == 0) == raising)[0]
        image[np.searchsorted(target.basis, sector.basis[src] ^ bit)] += vec[src]
    return target, image


def random_pure_qubit(rng) -> np.ndarray:
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return psi / np.linalg.norm(psi)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def arpack_dims(monkeypatch):
    """Dims of the operators handed to ARPACK's eigsh while the test runs.

    Sectors up to the dense cut-off bypass ARPACK, and k = 1 solves never reach
    it; a Lanczos oracle checks this list so that it cannot silently become a
    dense-vs-dense comparison.  The solver imports eigsh at call time, so the
    patch is on scipy's module.
    """
    true_eigsh = scipy.sparse.linalg.eigsh
    dims = []

    def counted(mat, *args, **kwargs):
        dims.append(mat.shape[0])
        return true_eigsh(mat, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return dims


def in_process_call_both(fn, own_args, worker_args):
    """Stand-in for worker.call_both: both calls run in this process, the worker's second."""
    return fn(*own_args), fn(*worker_args)


@pytest.fixture
def in_process_worker(monkeypatch):
    """Run the worker's call in-process, where monkeypatches and counters see it."""
    monkeypatch.setattr(spinchannel.worker, "call_both", in_process_call_both)

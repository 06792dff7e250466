"""Shared fixtures and the dense kron-product oracle.

The oracle builds Hamiltonians in the full 2^n space by explicit Kronecker
products, independently of the bit-twiddling sector machinery under test.
"""

from __future__ import annotations

import concurrent.futures
from functools import reduce
from math import comb

import numpy as np
import pytest

import spinchannel.eigensolve
from spinchannel.chain import ChainSpec, chain_bonds

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


def dense_transfer_hamiltonian(spec: ChainSpec) -> np.ndarray:
    bonds = [(0, 1, spec.gamma)] + chain_bonds(spec, offset=1)
    return dense_bond_hamiltonian(spec.L + 1, bonds)


def chain_length(spectral) -> int:
    """Length L of the chain whose m = 0 sector, of dim C(L, L/2), holds spectral's vectors."""
    return next(L for L in range(2, 64, 2) if comb(L, L // 2) == spectral.ground.size)


def random_pure_qubit(rng) -> np.ndarray:
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return psi / np.linalg.norm(psi)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def arpack_dims(monkeypatch):
    """Dims of the operators handed to ARPACK's eigsh while the test runs.

    Sectors up to the dense cut-off bypass ARPACK; a Lanczos oracle checks
    this list so that it cannot silently become a dense-vs-dense comparison.
    """
    true_eigsh = spinchannel.eigensolve.eigsh
    dims = []

    def counted(mat, *args, **kwargs):
        dims.append(mat.shape[0])
        return true_eigsh(mat, *args, **kwargs)

    monkeypatch.setattr(spinchannel.eigensolve, "eigsh", counted)
    return dims


class InProcessPool:
    """Stand-in for ProcessPoolExecutor: each submitted call runs at once, in this process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def in_process_pool(monkeypatch):
    """Run full_chain_transfer's worker calls in-process, where monkeypatches see them."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)

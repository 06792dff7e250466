"""Sector bases and sparse Hamiltonians for probed spin-1/2 Heisenberg chains.

Geometry: an open chain of ``L`` spin-1/2 sites, indexed 0..L-1.  The probe
spins A and B are the end sites (0 and L-1); they couple to the interior with
``Jp`` while all interior bonds carry the bulk coupling ``J``:

    A --Jp-- o --J-- o ... o --J-- o --Jp-- B

For state transfer a sender spin S is prepended as site 0 of an (L+1)-site
system and coupled to A by ``gamma``.

Every bond contributes the isotropic antiferromagnetic exchange

    S_i . S_j = Sz_i Sz_j + (S+_i S-_j + S-_i S+_j) / 2

with spin-1/2 operators (Sz eigenvalues +-1/2).  Pauli correlators are four
times the corresponding spin correlators; the helpers at the bottom of this
module return Pauli-normalized expectation values directly.

Basis states are bit patterns: bit ``i`` set means site ``i`` points up.
Total magnetization is conserved, so operators are assembled inside
fixed-magnetization sectors.  Sector bases are sorted ascending by pattern
value and index lookup is a binary search, which keeps assembly and matvec
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ConfigError, DimensionError, SectorError

__all__ = [
    "ChainSpec",
    "Sector",
    "SparseOperator",
    "enumerate_sector",
    "chain_bonds",
    "build_bond_hamiltonian",
    "build_chain_hamiltonian",
    "build_transfer_hamiltonian",
    "pauli_z_expectation",
    "pauli_zz_expectation",
    "pauli_xx_expectation",
    "apply_total_spin_ladder",
]


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and couplings of a probed chain.

    L      -- number of chain sites including the probes (even, >= 4)
    J      -- bulk exchange coupling; sets the energy unit
    Jp     -- probe coupling on the two end bonds
    gamma  -- sender coupling, present only for transfer setups.  gamma = 0
              is allowed and means "sender attached but switched off".
    """

    L: int
    J: float = 1.0
    Jp: float = 1.0
    gamma: float | None = None

    def __post_init__(self):
        if self.L < 4 or self.L % 2 != 0:
            raise ValueError(f"L must be even and >= 4 for a singlet ground state, got {self.L}")
        if self.J <= 0.0:
            raise ValueError(f"J must be positive (antiferromagnetic), got {self.J}")
        if self.Jp <= 0.0:
            raise ValueError(f"Jp must be positive (antiferromagnetic), got {self.Jp}")
        if self.gamma is not None and self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0 when present, got {self.gamma}")

    @property
    def site_a(self) -> int:
        return 0

    @property
    def site_b(self) -> int:
        return self.L - 1


@dataclass(frozen=True)
class Sector:
    """Fixed-magnetization basis: all n_sites-bit patterns with 2*Sz = twice_sz."""

    n_sites: int
    twice_sz: int
    basis: np.ndarray  # sorted uint64 patterns, bit i <-> site i

    @property
    def dim(self) -> int:
        return int(self.basis.size)

    def index_of(self, patterns):
        """Positions of configuration(s) in the sorted basis (binary search)."""
        return np.searchsorted(self.basis, patterns)


def _patterns(n_sites: int, n_up: int) -> np.ndarray:
    """All n_sites-bit patterns with n_up set bits, ascending.

    Iterative merge over sites: appending site ``s`` either leaves a pattern
    unchanged or sets bit ``s``; since bit ``s`` dominates all lower bits the
    concatenation of the two branches stays sorted.
    """
    lists = {0: np.zeros(1, dtype=np.uint64)}
    for site in range(n_sites):
        remaining = n_sites - site - 1
        bit = np.uint64(1 << site)
        new: dict[int, np.ndarray] = {}
        for k in range(max(0, n_up - remaining), min(site + 1, n_up) + 1):
            parts = []
            if k in lists:
                parts.append(lists[k])
            if k - 1 in lists:
                parts.append(lists[k - 1] | bit)
            if parts:
                new[k] = parts[0] if len(parts) == 1 else np.concatenate(parts)
        lists = new
    return lists[n_up]


def enumerate_sector(n_sites: int, twice_sz: int) -> Sector:
    """Basis of all configurations with total magnetization 2*Sz = twice_sz."""
    if n_sites < 1:
        raise SectorError(f"n_sites must be >= 1, got {n_sites}")
    if abs(twice_sz) > n_sites:
        raise SectorError(f"|twice_sz| = {abs(twice_sz)} exceeds n_sites = {n_sites}")
    if (n_sites + twice_sz) % 2 != 0:
        raise SectorError(f"parity violation: n_sites = {n_sites}, twice_sz = {twice_sz}")
    n_up = (n_sites + twice_sz) // 2
    basis = _patterns(n_sites, n_up)
    basis.setflags(write=False)
    sector = Sector(n_sites=n_sites, twice_sz=twice_sz, basis=basis)
    assert sector.dim == comb(n_sites, n_up)
    return sector


class SparseOperator:
    """Hermitian operator with real-valued entries, in compressed-row form.

    Values are float64, or complex128 with zero imaginary parts when the
    operator multiplies complex vectors (``build_transfer_hamiltonian``).

    Immutable after construction; safe to share across threads.  ``apply``
    is a plain CSR matvec and therefore deterministic for a fixed entry
    order.
    """

    def __init__(self, matrix: csr_matrix):
        matrix = matrix.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"operator must be square, got shape {matrix.shape}")
        matrix.data.setflags(write=False)
        matrix.indices.setflags(write=False)
        matrix.indptr.setflags(write=False)
        self.matrix = matrix
        self.dim = matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise DimensionError(f"vector of length {v.shape} incompatible with dim {self.dim}")
        return self.matrix @ v


def chain_bonds(spec: ChainSpec, offset: int = 0) -> list[tuple[int, int, float]]:
    """Bond list (i, j, coupling) of the probed chain, site indices shifted by offset."""
    L = spec.L
    bonds = [(offset, offset + 1, spec.Jp)]
    bonds += [(offset + i, offset + i + 1, spec.J) for i in range(1, L - 2)]
    bonds += [(offset + L - 2, offset + L - 1, spec.Jp)]
    return bonds


def build_bond_hamiltonian(
    n_sites: int, bonds: list[tuple[int, int, float]], sector: Sector
) -> SparseOperator:
    """Assemble sum of Heisenberg bond terms in the given sector basis.

    Each bond (i, j, c) adds c * S_i . S_j: a diagonal SzSz part of +-c/4
    and a spin-flip part of c/2 connecting anti-aligned configurations.
    Both (row, col) orderings of each flip are generated, so the matrix is
    symmetric entry for entry.
    """
    if sector.n_sites != n_sites:
        raise DimensionError(
            f"sector has {sector.n_sites} sites, expected {n_sites}"
        )
    basis = sector.basis
    dim = basis.size
    diag = np.zeros(dim)
    row_parts = [np.arange(dim, dtype=np.int64)]
    col_parts = [np.arange(dim, dtype=np.int64)]
    val_parts = [diag]  # filled in place below, inserted once
    for i, j, c in bonds:
        if i == j or not (0 <= i < n_sites) or not (0 <= j < n_sites):
            raise ValueError(f"invalid bond ({i}, {j}) for {n_sites} sites")
        bi = (basis >> np.uint64(i)) & np.uint64(1)
        bj = (basis >> np.uint64(j)) & np.uint64(1)
        aligned = bi == bj
        diag += np.where(aligned, 0.25 * c, -0.25 * c)
        if c == 0.0:
            continue
        anti = np.nonzero(~aligned)[0]
        mask = np.uint64((1 << i) | (1 << j))
        partners = np.searchsorted(basis, basis[anti] ^ mask)
        row_parts.append(anti)
        col_parts.append(partners.astype(np.int64))
        val_parts.append(np.full(anti.size, 0.5 * c))
    rows = np.concatenate(row_parts)
    cols = np.concatenate(col_parts)
    vals = np.concatenate(val_parts)
    matrix = csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return SparseOperator(matrix)


def build_chain_hamiltonian(spec: ChainSpec, sector: Sector) -> SparseOperator:
    """Chain Hamiltonian (no sender): Jp on the two end bonds, J inside."""
    if spec.gamma is not None:
        raise ConfigError("spec carries a sender coupling; use build_transfer_hamiltonian")
    if sector.n_sites != spec.L:
        raise DimensionError(f"sector has {sector.n_sites} sites, chain has {spec.L}")
    return build_bond_hamiltonian(spec.L, chain_bonds(spec), sector)


def build_transfer_hamiltonian(spec: ChainSpec, sector: Sector) -> SparseOperator:
    """Transfer Hamiltonian: chain on sites 1..L plus gamma bond (0, 1) to the sender.

    Assembled as real, stored as complex128 (imaginary parts exactly zero):
    its only consumer, the Krylov propagator, multiplies complex states, and
    a real CSR matrix is upcast to complex on every such product.
    """
    if spec.gamma is None:
        raise ConfigError("transfer Hamiltonian needs a sender coupling gamma")
    if sector.n_sites != spec.L + 1:
        raise DimensionError(
            f"sector has {sector.n_sites} sites, transfer system has {spec.L + 1}"
        )
    bonds = [(0, 1, spec.gamma)] + chain_bonds(spec, offset=1)
    real = build_bond_hamiltonian(spec.L + 1, bonds, sector).matrix
    return SparseOperator(real.astype(np.complex128))


def _pauli_z_signs(sector: Sector, site: int) -> np.ndarray:
    bits = (sector.basis >> np.uint64(site)) & np.uint64(1)
    return 2.0 * bits.astype(np.float64) - 1.0


def pauli_z_expectation(sector: Sector, vec: np.ndarray, site: int) -> float:
    """<sigma_z(site)> of a sector-basis state vector."""
    return float(np.dot(np.abs(vec) ** 2, _pauli_z_signs(sector, site)))


def pauli_zz_expectation(sector: Sector, vec: np.ndarray, site_i: int, site_j: int) -> float:
    """<sigma_z(i) sigma_z(j)>: +1 per aligned configuration, -1 per anti-aligned."""
    signs = _pauli_z_signs(sector, site_i) * _pauli_z_signs(sector, site_j)
    return float(np.dot(np.abs(vec) ** 2, signs))


def pauli_xx_expectation(sector: Sector, vec: np.ndarray, site_i: int, site_j: int) -> float:
    """<sigma_x(i) sigma_x(j)> evaluated inside a fixed-magnetization sector.

    Only the flip-flop part sigma+_i sigma-_j + sigma-_i sigma+_j conserves
    magnetization; the double-raising/lowering parts leave the sector and
    contribute zero to the expectation value.
    """
    basis = sector.basis
    bi = (basis >> np.uint64(site_i)) & np.uint64(1)
    bj = (basis >> np.uint64(site_j)) & np.uint64(1)
    anti = np.nonzero(bi != bj)[0]
    if anti.size == 0:
        return 0.0
    mask = np.uint64((1 << site_i) | (1 << site_j))
    partners = np.searchsorted(basis, basis[anti] ^ mask)
    return float(np.real(np.dot(np.conj(vec[anti]), vec[partners])))


def apply_total_spin_ladder(
    sector: Sector, vec: np.ndarray, raising: bool
) -> tuple[Sector, np.ndarray]:
    """Total S+ (raising) or S- of a sector vector: (adjacent sector, image).

    One pass per site; the targets of one site's flips are distinct, so
    each pass is a plain scatter-add of matrix elements 1.
    """
    target = enumerate_sector(sector.n_sites, sector.twice_sz + (2 if raising else -2))
    image = np.zeros(target.dim, dtype=np.result_type(vec, np.float64))
    for site in range(sector.n_sites):
        bit = np.uint64(1 << site)
        src = np.nonzero(((sector.basis & bit) == 0) == raising)[0]
        image[target.index_of(sector.basis[src] ^ bit)] += vec[src]
    return target, image

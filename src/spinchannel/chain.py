"""Sector bases and sparse Hamiltonians for probed spin-1/2 Heisenberg chains.

Geometry: an open chain of ``L`` spin-1/2 sites, indexed 0..L-1.  The probe
spins A and B are the end sites (0 and L-1); they couple to the interior with
``Jp`` while all interior bonds carry the bulk coupling J = 1, the energy unit:

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
value, which keeps assembly and matvec deterministic, and a pattern's index
is its combinatorial rank (H. Q. Lin, Phys. Rev. B 42, 6561 (1990)): two
small-table gathers and an add, no search.

The 2Sz = 0 sector splits under spin inversion F (p -> ~p) and reflection R
(i -> L-1-i) into blocks of characters chi(e, F, R, FR) = (1, F, R, F*R)
(Sandvik, arXiv:1101.3281, sec. 4).  The orbit {p, ~p, Rp, ~Rp}, of size |O|
= 4 or 2 (Rp = p or ~p), is held by its minimum r: sum_p chi(g_p) |p>/sqrt|O|
with g_p r = p, absent if an element fixing p has chi = -1.  A flip partner q
of r folds onto rep(q) times chi(g_q) sqrt(|O_r| / |O_q|).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf

import numpy as np
from scipy.sparse import csr_matrix, get_index_dtype

from .errors import DimensionError, SectorError

__all__ = [
    "ChainSpec",
    "Sector",
    "SparseOperator",
    "enumerate_sector",
    "chain_bonds",
    "build_bond_hamiltonian",
    "build_chain_hamiltonian",
    "build_transfer_hamiltonian",
    "symmetry_block",
    "expand_to_sector",
    "grow_into_block",
    "pauli_z_expectation",
    "pauli_zz_expectation",
    "pauli_xx_expectation",
]


@dataclass(frozen=True, kw_only=True)
class ChainSpec:
    """Geometry and probe coupling of a probed chain, without the transfer's sender.

    L      -- number of chain sites including the probes A = 0, B = L - 1 (even, >= 4)
    Jp     -- probe coupling on the two end bonds, in units of the bulk J = 1
    """

    L: int
    Jp: float = 1.0

    def __post_init__(self):
        if self.L < 4 or self.L % 2 != 0:
            raise ValueError(f"L must be even and >= 4 for a singlet ground state, got {self.L}")
        if not 0.0 < self.Jp < inf:
            raise ValueError(f"Jp must be positive (antiferromagnetic) and finite, got {self.Jp}")


@dataclass(frozen=True)
class Sector:
    """Fixed-magnetization basis: all n_sites-bit patterns with 2*Sz = twice_sz.

    signs = (F, R) makes it a symmetry block of 2*Sz = 0 (``symmetry_block``):
    the basis then holds orbit representatives (module docstring).  A
    pattern's position in a plain sector is its rank, ``_rank``.
    """

    n_sites: int
    twice_sz: int
    basis: np.ndarray  # sorted uint64 patterns, bit i <-> site i
    signs: tuple[int, int] | None = None

    @property
    def dim(self) -> int:
        return int(self.basis.size)


@lru_cache(maxsize=64)
def _rank_tables(n_sites: int, n_up: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(h, hi_off, lo_rank): the rank tables of the n_sites-bit patterns with n_up set bits.

    Split a pattern into its h = n_sites // 2 low bits l and the high part
    u above them.  lo_rank[l] is l's rank among the h-bit patterns of its
    popcount; hi_off[u] counts the sector's patterns with a smaller high
    part.  Sorted order is (u, l), so the position is hi_off[u] + lo_rank[l].
    """
    low = n_sites // 2
    lo_rank = np.empty(1 << low, dtype=np.int64)
    for count in range(low + 1):
        lo_rank[_patterns(low, count)] = np.arange(comb(low, count))
    widths = np.array([comb(low, n_up - c) if c <= n_up else 0 for c in range(n_sites - low + 1)])
    hi_off = np.zeros(1 << (n_sites - low), dtype=np.int64)
    np.cumsum(widths[np.bitwise_count(np.arange(1 << (n_sites - low)))][:-1], out=hi_off[1:])
    hi_off.setflags(write=False)
    lo_rank.setflags(write=False)
    return low, hi_off, lo_rank


def _rank(patterns, n_sites: int, n_up: int):
    """Positions of patterns in the sorted basis of n_sites sites with n_up up spins."""
    low, hi_off, lo_rank = _rank_tables(n_sites, n_up)
    patterns = np.asarray(patterns, dtype=np.uint64).view(np.int64)  # no pattern reaches bit 63
    index = hi_off[patterns >> low]
    index += lo_rank[patterns & (lo_rank.size - 1)]
    return index


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


_REVERSED_16 = sum(((np.arange(1 << 16, dtype=np.uint16) >> b) & 1) << (15 - b) for b in range(16))


def _reverse_bits(patterns: np.ndarray, n_sites: int) -> np.ndarray:
    """The n_sites low bits of each pattern in reverse order, 16 bits per table lookup."""
    out = np.zeros_like(patterns)
    for shift in range(0, n_sites, 16):
        chunk = (patterns >> np.uint64(shift)) & np.uint64(0xFFFF)
        out = (out << np.uint64(16)) | _REVERSED_16[chunk]
    return out >> np.uint64(-n_sites % 16)


def _survives(diff: np.ndarray, full: np.uint64, signs: tuple[int, int]) -> np.ndarray:
    """Whether the orbit of a pattern p with p ^ Rp = diff survives in the block."""
    return ~(((diff == 0) & (signs[1] < 0)) | ((diff == full) & (signs[0] * signs[1] < 0)))


def _orbit_rep(patterns: np.ndarray, mirrored: np.ndarray, full: np.uint64) -> np.ndarray:
    """min(p, ~p, Rp, ~Rp) of each pattern p, given its mirror image Rp."""
    return np.minimum(np.minimum(patterns, patterns ^ full), np.minimum(mirrored, mirrored ^ full))


def _orbits(patterns: np.ndarray, n_sites: int, signs: tuple[int, int], mirrored: np.ndarray):
    """Representative, chi(g_p), orbit size and survival of each orbit; mirrored holds the Rp."""
    full = np.uint64((1 << n_sites) - 1)
    rep = _orbit_rep(patterns, mirrored, full)
    f, r = signs
    chi = np.select([rep == patterns, rep == patterns ^ full, rep == mirrored], [1.0, f, r], f * r)
    size = _orbit_sizes(patterns, mirrored, n_sites)
    return rep, chi, size, _survives(patterns ^ mirrored, full, signs)


def symmetry_block(n_sites: int, flip: int, reflect: int) -> Sector:
    """The (F, R) = (flip, reflect) block of the n_sites-site 2*Sz = 0 sector."""
    if n_sites < 2 or n_sites % 2 or {flip, reflect} - {1, -1}:
        raise SectorError("symmetry blocks need an even n_sites >= 2 and signs +-1")
    half = _patterns(n_sites - 1, n_sites // 2)  # site n_sites - 1 down: p < ~p
    full, mirrored = np.uint64((1 << n_sites) - 1), _reverse_bits(half, n_sites)
    alive = _survives(half ^ mirrored, full, (flip, reflect))
    basis = half[(_orbit_rep(half, mirrored, full) == half) & alive]
    basis.setflags(write=False)
    return Sector(n_sites, 0, basis, (flip, reflect))


def _orbit_sizes(patterns: np.ndarray, mirrored: np.ndarray, n_sites: int) -> np.ndarray:
    full = np.uint64((1 << n_sites) - 1)  # |O| = 2 when Rp = p or Rp = ~p
    return np.where((mirrored == patterns) | (mirrored == patterns ^ full), 2.0, 4.0)


def expand_to_sector(block: Sector, vec: np.ndarray) -> np.ndarray:
    """Plain-sector image chi(g_p) vec[rep(p)] / sqrt(|O_p|): an isometry commuting with H.

    A scatter with no orbit search: a = vec[r] / sqrt|O_r| goes to r and R a to
    Rr, and F a and F R a to their complements, at dim - 1 - position since F
    reverses the sorted basis; positions are m = 0 ranks.  Dead orbits stay 0.
    """
    if block.signs is None:
        raise SectorError("expand_to_sector maps a symmetry block into its plain 2Sz = 0 sector")
    if len(vec) != block.dim:
        raise DimensionError(f"vector has length {len(vec)}, block has dim {block.dim}")
    n_sites, (flip, reflect) = block.n_sites, block.signs
    last = comb(n_sites, n_sites // 2) - 1
    mirrored = _reverse_bits(block.basis, n_sites)
    a = vec / np.sqrt(_orbit_sizes(block.basis, mirrored, n_sites))
    pos, pos_r = _rank(block.basis, n_sites, n_sites // 2), _rank(mirrored, n_sites, n_sites // 2)
    out = np.zeros(last + 1)
    out[pos], out[last - pos] = a, flip * a
    out[pos_r], out[last - pos_r] = reflect * a, flip * reflect * a
    return out


def grow_into_block(block: Sector, vec: np.ndarray) -> np.ndarray:
    """Block vector at L of a plain m = 0 vector at L - 2 with a singlet on sites L/2 - 1, L/2.

    The singlet keeps total spin and flips F and R: (s, s) at L - 2 grows into
    (-s, -s).  A gather: r gets +-sqrt(|O_r| / 2) vec[r'], r' = r less the two
    middle bits, + if site L/2 - 1 is up, and 0 if they are aligned.  The
    blocks are real, so a complex vec raises ValueError naming its dtype.
    """
    if block.signs is None:
        raise SectorError("grow_into_block maps a plain 2Sz = 0 sector into a symmetry block")
    if np.iscomplexobj(vec):
        raise ValueError(f"grown vector must be real, got dtype {np.asarray(vec).dtype}")
    n_short, n_up = block.n_sites - 2, block.n_sites // 2 - 1
    if len(vec) != comb(n_short, n_up):
        raise DimensionError(f"need a vector of the {n_short}-site m = 0 sector")
    one, low = np.uint64(1), np.uint64(n_up)
    up = (block.basis >> low) & one
    anti = np.nonzero(up != (block.basis >> (low + one)) & one)[0]
    reps, up = block.basis[anti], up[anti]
    kept = (reps & ((one << low) - one)) | ((reps >> (low + one + one)) << low)
    size = _orbit_sizes(reps, _reverse_bits(reps, block.n_sites), block.n_sites)
    out = np.zeros(block.dim)
    sign = np.where(up == one, 1.0, -1.0)
    out[anti] = sign * np.sqrt(size / 2.0) * vec[_rank(kept, n_short, n_up)]
    return out


class SparseOperator:
    """Hermitian operator with real-valued entries, in compressed-row form.

    Values are float64, or complex128 with zero imaginary parts when the
    operator multiplies complex vectors (``build_transfer_hamiltonian``).

    Immutable after construction; safe to share across threads.  ``matrix @ v``
    is a plain CSR matvec, deterministic for a fixed entry order.
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


def chain_bonds(spec: ChainSpec, offset: int = 0) -> list[tuple[int, int, float]]:
    """Bond list (i, j, coupling) of the probed chain, site indices shifted by offset."""
    couplings = [spec.Jp] + [1.0] * (spec.L - 3) + [spec.Jp]
    return [(offset + i, offset + i + 1, c) for i, c in enumerate(couplings)]


def _anti_aligned(patterns: np.ndarray, mask: np.uint64) -> np.ndarray:
    """Whether the two spins under a two-bit mask are anti-aligned in each pattern."""
    both = patterns & mask
    return (both != 0) & (both != mask)


# Rows per assembly chunk.  Both passes' per-row temporaries (mirror images,
# partners, orbits, ranks: ~60 bytes a row) span one chunk, ~0.25 MB here, so
# from L = 18 on a block's assembly peaks below the solve that follows it.
# 1 << 14 rows saved ~0.1 s per L = 22 block pair, but not that memory.
_ASSEMBLY_CHUNK = 1 << 12


def _bond_multiset(bonds) -> Counter:
    return Counter((min(i, j), max(i, j), c) for i, j, c in bonds)


def build_bond_hamiltonian(bonds: list[tuple[int, int, float]], sector: Sector) -> SparseOperator:
    """Assemble sum of Heisenberg bond terms in the basis of sector, on its n_sites sites.

    A bond (i, j, c) with i = j or a site outside 0..n_sites-1 raises ValueError;
    each other adds c * S_i . S_j: a diagonal SzSz part of +-c/4
    and a spin-flip part of c/2 connecting anti-aligned configurations.
    Both (row, col) orderings of each flip are generated, so the matrix is
    symmetric entry for entry.  In a symmetry block a partner folds onto its
    orbit's representative or is dropped with it; the bond multiset must be
    mirror symmetric (i -> n_sites-1-i, same coupling), else ValueError.

    Two passes over the bonds, in chunks of ``_ASSEMBLY_CHUNK`` rows, fill
    the CSR arrays; only the diagonal, the row counts (then indptr), the fill
    pointers and a block's index table span the sector.  Pass 1 sums the
    diagonal and counts each row's entries, dropping by bit operations on
    Rq = Rp ^ R(mask) each partner q = p ^ mask whose orbit dies.  Pass 2
    writes each row's diagonal, then the bonds' entries in bond order, so no
    array depends on the chunk size; ``sum_duplicates`` sorts each row and
    sums partners folded onto one representative.  A partner's column is its
    rank in the plain sector, which a block maps to its own index by one
    int32 table: a representative has site n_sites - 1 down, so its m = 0
    rank is below half that sector's dim.  Index dtype: scipy's
    ``get_index_dtype``.
    """
    n_sites = sector.n_sites
    for i, j, _ in bonds:
        if i == j or not (0 <= i < n_sites) or not (0 <= j < n_sites):
            raise ValueError(f"invalid bond ({i}, {j}) for {n_sites} sites")
    if sector.signs is not None and _bond_multiset(bonds) != _bond_multiset(
        [(n_sites - 1 - i, n_sites - 1 - j, c) for i, j, c in bonds]
    ):
        raise ValueError("a symmetry block needs mirror-symmetric bonds (i -> n_sites-1-i)")
    basis, signs = sector.basis, sector.signs
    dim, last, n_up = basis.size, n_sites - 1, (n_sites + sector.twice_sz) // 2
    # each bond's coupling, flip mask and the mask's mirror image R(mask)
    flips = [
        (c, np.uint64((1 << i) | (1 << j)), np.uint64((1 << (last - i)) | (1 << (last - j))))
        for i, j, c in bonds
    ]
    chunks = [slice(lo, lo + _ASSEMBLY_CHUNK) for lo in range(0, dim, _ASSEMBLY_CHUNK)]
    if signs is not None:
        full = np.uint64((1 << n_sites) - 1)
        block_index = np.empty(comb(n_sites, n_up) // 2, dtype=np.int32)  # read at reps only
        block_index[_rank(basis, n_sites, n_up)] = np.arange(dim, dtype=np.int32)

    diag = np.zeros(dim)
    counts = np.ones(dim, dtype=np.int32)
    for rows in chunks:
        patterns = basis[rows]
        if signs is not None:
            diff = patterns ^ _reverse_bits(patterns, n_sites)
        for c, mask, rmask in flips:
            anti = _anti_aligned(patterns, mask)
            diag[rows] += np.where(anti, -0.25 * c, 0.25 * c)
            if c == 0.0:
                continue
            if signs is not None:  # q ^ Rq = (p ^ Rp) ^ (mask ^ R(mask))
                anti &= _survives(diff ^ (mask ^ rmask), full, signs)
            counts[rows] += anti  # a row is anti-aligned at most once per bond
    index_dtype = get_index_dtype(maxval=int(counts.sum()))
    indptr = np.zeros(dim + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    del counts
    indices = np.empty(indptr[-1], dtype=index_dtype)
    data = np.empty(indptr[-1])
    fill = indptr[:-1].copy()  # next free slot of each row
    indices[fill], data[fill] = np.arange(dim, dtype=index_dtype), diag
    del diag
    fill += 1
    for rows in chunks:
        patterns = basis[rows]
        if signs is not None:
            mirrored = _reverse_bits(patterns, n_sites)
            row_size = _orbit_sizes(patterns, mirrored, n_sites)
        for c, mask, rmask in flips:
            if c == 0.0:
                continue
            anti = np.nonzero(_anti_aligned(patterns, mask))[0]
            partners = patterns[anti] ^ mask
            vals = np.full(anti.size, 0.5 * c)
            if signs is not None:
                reps, chi, size, alive = _orbits(partners, n_sites, signs, mirrored[anti] ^ rmask)
                anti, partners = anti[alive], reps[alive]
                vals = 0.5 * c * chi[alive] * np.sqrt(row_size[anti] / size[alive])
            columns = _rank(partners, n_sites, n_up)
            anti += rows.start
            slots = fill[anti]
            indices[slots], data[slots] = columns if signs is None else block_index[columns], vals
            fill[anti] += 1
    matrix = csr_matrix((data, indices, indptr), shape=(dim, dim))
    matrix.sum_duplicates()
    return SparseOperator(matrix)


def build_chain_hamiltonian(spec: ChainSpec, sector: Sector) -> SparseOperator:
    """Chain Hamiltonian (no sender): Jp on the two end bonds, J inside."""
    if sector.n_sites != spec.L:
        raise DimensionError(f"sector has {sector.n_sites} sites, chain has {spec.L}")
    return build_bond_hamiltonian(chain_bonds(spec), sector)


def build_transfer_hamiltonian(spec: ChainSpec, sector: Sector, gamma: float) -> SparseOperator:
    """Transfer Hamiltonian: chain on sites 1..L plus gamma bond (0, 1) to the sender.

    gamma = 0 leaves the sender attached but switched off; gamma < 0 or not
    finite raises ValueError.  Assembled as real, stored as complex128 (zero
    imaginary parts): the Krylov propagator, its only consumer, multiplies
    complex states, and a real CSR matrix is upcast on every such product.
    """
    if not 0.0 <= gamma < inf:
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    if sector.n_sites != spec.L + 1:
        raise DimensionError(
            f"sector has {sector.n_sites} sites, transfer system has {spec.L + 1}"
        )
    bonds = [(0, 1, gamma)] + chain_bonds(spec, offset=1)
    real = build_bond_hamiltonian(bonds, sector).matrix
    return SparseOperator(real.astype(np.complex128))


def pauli_z_expectation(sector: Sector, vec: np.ndarray, site: int) -> float:
    """<sigma_z(site)> of a plain-sector state.  A site outside 0..n_sites-1 raises ValueError;
    a symmetry block, on whose orbits F flips sigma_z(site), raises SectorError."""
    if not 0 <= site < sector.n_sites:
        raise ValueError(f"site {site} outside 0..{sector.n_sites - 1}")
    if sector.signs is not None:
        raise SectorError("sigma_z of one site is not constant on a symmetry block's orbits")
    up = (sector.basis & np.uint64(1 << site)) != 0
    return float(np.dot(np.abs(vec) ** 2, np.where(up, 1.0, -1.0)))


def pauli_zz_expectation(sector: Sector, vec: np.ndarray, site_i: int, site_j: int) -> float:
    """<sigma_z(i) sigma_z(j)>: +1 per aligned configuration, -1 per anti-aligned.

    A site outside 0..n_sites-1 raises ValueError.  In a symmetry block only a
    mirror pair, i + j = n_sites - 1, is constant on each orbit; another pair
    raises SectorError.
    """
    n_sites = sector.n_sites
    if not (0 <= site_i < n_sites and 0 <= site_j < n_sites):
        raise ValueError(f"sites ({site_i}, {site_j}) outside 0..{n_sites - 1}")
    if sector.signs is not None and site_i + site_j != n_sites - 1:
        raise SectorError(f"a symmetry block needs a mirror pair, got ({site_i}, {site_j})")
    anti = _anti_aligned(sector.basis, np.uint64((1 << site_i) | (1 << site_j)))
    return float(np.dot(np.abs(vec) ** 2, np.where(anti, -1.0, 1.0)))


def pauli_xx_expectation(sector: Sector, vec: np.ndarray, site_i: int, site_j: int) -> float:
    """<sigma_x(i) sigma_x(j)> of a sector state, read on the bond S_i . S_j.

    Magnetization is conserved, so <sigma_x sigma_x> = <sigma_y sigma_y> and
    4 <S_i . S_j> = zz + 2 xx, with the bond from ``build_bond_hamiltonian``:
    in a symmetry block it folds the flip partners onto their orbits, for a
    mirror pair only.  i = j, a site outside 0..n_sites-1 or, in a block, a
    pair with i + j != n_sites - 1 raises ValueError.
    """
    bond = build_bond_hamiltonian([(site_i, site_j, 1.0)], sector).matrix
    zz = pauli_zz_expectation(sector, vec, site_i, site_j)
    return 2.0 * float(np.vdot(vec, bond @ vec).real) - 0.5 * zz

"""Sector enumeration and Hamiltonian assembly against the kron oracle."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity

import spinchannel.chain

from spinchannel.chain import (
    ChainSpec,
    SparseOperator,
    apply_total_spin_ladder,
    build_bond_hamiltonian,
    build_chain_hamiltonian,
    build_transfer_hamiltonian,
    chain_bonds,
    enumerate_sector,
    expand_to_sector,
    grow_into_block,
    pauli_xx_expectation,
    pauli_z_expectation,
    pauli_zz_expectation,
    symmetry_block,
)
from spinchannel.eigensolve import dense_spectrum
from spinchannel.errors import ConfigError, DimensionError, SectorError

from conftest import (
    S_MINUS,
    S_PLUS,
    S_Z,
    dense_chain_hamiltonian,
    dense_transfer_hamiltonian,
    site_operator,
)


class TestEnumerateSector:
    def test_four_sites_balanced(self):
        sector = enumerate_sector(4, 0)
        assert sector.dim == 6

    def test_fully_polarized(self):
        sector = enumerate_sector(2, 2)
        assert sector.dim == 1
        assert sector.basis[0] == 0b11

    def test_ten_sites_balanced(self):
        assert enumerate_sector(10, 0).dim == 252

    def test_sorted_unique_and_correct_weight(self):
        sector = enumerate_sector(9, 3)
        basis = sector.basis
        assert np.all(np.diff(basis.astype(np.int64)) > 0)
        n_up = (9 + 3) // 2
        assert all(bin(int(p)).count("1") == n_up for p in basis)

    def test_parity_violation(self):
        with pytest.raises(SectorError):
            enumerate_sector(4, 1)

    def test_out_of_range(self):
        with pytest.raises(SectorError):
            enumerate_sector(4, 6)

    def test_index_of_roundtrip(self):
        sector = enumerate_sector(8, 2)
        idx = sector.index_of(sector.basis[17])
        assert idx == 17


class TestRank:
    """Sector.index_of, a combinatorial rank, against the binary search of the sorted basis."""

    @staticmethod
    def assert_is_the_binary_search(sector):
        ranks = sector.index_of(sector.basis)
        assert ranks.tobytes() == np.searchsorted(sector.basis, sector.basis).tobytes()

    @pytest.mark.parametrize("n_sites", range(1, 17))
    def test_every_small_sector(self, n_sites):
        for twice_sz in range(-n_sites, n_sites + 1, 2):
            self.assert_is_the_binary_search(enumerate_sector(n_sites, twice_sz))

    @pytest.mark.parametrize("length", [18, 20, 22, 24])
    def test_full_m0_sectors(self, length):
        self.assert_is_the_binary_search(enumerate_sector(length, 0))

    @pytest.mark.parametrize("n_sites", range(9, 20, 2))
    def test_transfer_sectors(self, n_sites):
        for twice_sz in (1, -1):
            self.assert_is_the_binary_search(enumerate_sector(n_sites, twice_sz))

    def test_scalar_gives_an_integer(self):
        sector = enumerate_sector(9, 1)
        for pattern in (sector.basis[41], int(sector.basis[41])):
            idx = sector.index_of(pattern)
            assert isinstance(idx, np.integer) and idx == 41

    def test_block_refuses(self):
        block = symmetry_block(8, 1, 1)
        with pytest.raises(SectorError, match="plain sector"):
            block.index_of(block.basis)


class TestChainSpec:
    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(L=5)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(L=2)

    def test_nonpositive_couplings_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(L=4, J=-1.0)
        with pytest.raises(ValueError):
            ChainSpec(L=4, Jp=0.0)
        with pytest.raises(ValueError):
            ChainSpec(L=4, gamma=-0.1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
                ChainSpec(L=4, gamma=value)
            for field in ("J", "Jp"):
                with pytest.raises(ValueError, match=f"{field} must be positive"):
                    ChainSpec(L=4, **{field: value})

    def test_gamma_zero_allowed(self):
        assert ChainSpec(L=4, gamma=0.0).gamma == 0.0


class TestTwoSpinBond:
    """Single Heisenberg bond, the exactly solvable reference."""

    def test_m0_spectrum(self):
        sector = enumerate_sector(2, 0)
        op = build_bond_hamiltonian(2, [(0, 1, 1.0)], sector)
        np.testing.assert_allclose(dense_spectrum(op), [-0.75, 0.25], atol=1e-14)

    def test_polarized_spectrum(self):
        for twice_sz in (2, -2):
            sector = enumerate_sector(2, twice_sz)
            op = build_bond_hamiltonian(2, [(0, 1, 1.0)], sector)
            np.testing.assert_allclose(dense_spectrum(op), [0.25], atol=1e-14)

    def test_scales_with_coupling(self):
        sector = enumerate_sector(2, 0)
        op = build_bond_hamiltonian(2, [(0, 1, 2.5)], sector)
        np.testing.assert_allclose(dense_spectrum(op), [-1.875, 0.625], atol=1e-14)

    def test_singlet_correlators(self):
        sector = enumerate_sector(2, 0)
        op = build_bond_hamiltonian(2, [(0, 1, 1.0)], sector)
        energies, vectors = np.linalg.eigh(op.matrix.toarray())
        singlet = vectors[:, 0]
        assert pauli_zz_expectation(sector, singlet, 0, 1) == pytest.approx(-1.0)
        assert pauli_xx_expectation(sector, singlet, 0, 1) == pytest.approx(-1.0)
        polarized = enumerate_sector(2, 2)
        up_up = np.array([1.0])
        assert pauli_zz_expectation(polarized, up_up, 0, 1) == pytest.approx(1.0)
        assert pauli_xx_expectation(polarized, up_up, 0, 1) == 0.0


class TestAssemblyAgainstKronOracle:
    @pytest.mark.parametrize("L,jp", [(4, 1.0), (4, 0.3), (6, 0.5), (8, 0.2)])
    def test_sector_blocks_match_dense(self, L, jp):
        spec = ChainSpec(L=L, J=1.0, Jp=jp)
        full = dense_chain_hamiltonian(spec)
        for twice_sz in range(-L, L + 1, 2):
            sector = enumerate_sector(L, twice_sz)
            block = build_chain_hamiltonian(spec, sector).matrix.toarray()
            idx = sector.basis.astype(np.int64)
            np.testing.assert_allclose(block, full[np.ix_(idx, idx)], atol=1e-14)

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_sector_union_equals_full_spectrum(self, L):
        spec = ChainSpec(L=L, J=1.0, Jp=0.4)
        sector_eigs = []
        for twice_sz in range(-L, L + 1, 2):
            sector = enumerate_sector(L, twice_sz)
            op = build_chain_hamiltonian(spec, sector)
            sector_eigs.append(dense_spectrum(op))
        pooled = np.sort(np.concatenate(sector_eigs))
        full = np.linalg.eigvalsh(dense_chain_hamiltonian(spec))
        np.testing.assert_allclose(pooled, full, atol=1e-12)

    def test_transfer_lowest_matches_dense(self):
        spec = ChainSpec(L=4, J=1.0, Jp=0.5, gamma=0.1)
        full = np.linalg.eigvalsh(dense_transfer_hamiltonian(spec))
        lows = []
        for twice_sz in range(-5, 6, 2):
            sector = enumerate_sector(5, twice_sz)
            op = build_transfer_hamiltonian(spec, sector)
            lows.append(dense_spectrum(op)[0])
        assert min(lows) == pytest.approx(full[0], abs=1e-12)

    def test_transfer_gamma_zero_decouples_sender(self):
        spec = ChainSpec(L=4, J=1.0, Jp=0.7, gamma=0.0)
        eigs = []
        for twice_sz in range(-5, 6, 2):
            sector = enumerate_sector(5, twice_sz)
            eigs.append(dense_spectrum(build_transfer_hamiltonian(spec, sector)))
        pooled = np.sort(np.concatenate(eigs))
        chain = np.linalg.eigvalsh(dense_chain_hamiltonian(ChainSpec(L=4, J=1.0, Jp=0.7)))
        doubled = np.sort(np.concatenate([chain, chain]))  # free spin doubles everything
        np.testing.assert_allclose(pooled, doubled, atol=1e-12)

    def test_spin_inversion_symmetry(self):
        spec = ChainSpec(L=6, J=1.0, Jp=0.3)
        for m in (1, 2, 3):
            up = dense_spectrum(build_chain_hamiltonian(spec, enumerate_sector(6, 2 * m)))
            down = dense_spectrum(build_chain_hamiltonian(spec, enumerate_sector(6, -2 * m)))
            np.testing.assert_allclose(up, down, atol=1e-12)

    def test_exact_hermiticity(self):
        spec = ChainSpec(L=8, J=1.0, Jp=0.2)
        op = build_chain_hamiltonian(spec, enumerate_sector(8, 0))
        asymmetry = op.matrix - op.matrix.T
        assert asymmetry.nnz == 0 or np.all(asymmetry.data == 0.0)

    @pytest.mark.parametrize("kind", ["plain", "block", "transfer"])
    @pytest.mark.parametrize("length", [4, 8, 12])
    def test_csr_structure(self, kind, length):
        # rows sorted and duplicate-free, int32 column indices, symmetric bit for bit
        spec = ChainSpec(L=length, J=1.0, Jp=0.3)
        sector0 = enumerate_sector(length, 0)
        if kind == "plain":
            op = build_chain_hamiltonian(spec, sector0)
        elif kind == "block":
            op = build_chain_hamiltonian(spec, symmetry_block(length, -1, 1))
        else:
            spec = ChainSpec(L=length, J=1.0, Jp=0.3, gamma=0.05)
            op = build_transfer_hamiltonian(spec, enumerate_sector(length + 1, 1))
        matrix = op.matrix
        assert matrix.has_canonical_format
        assert matrix.indices.dtype == np.int32 and matrix.indptr.dtype == np.int32
        assert (matrix != matrix.T).nnz == 0

    def test_int64_index_path_gives_the_same_matrix(self, monkeypatch):
        # nnz >= 2**31 takes int64 indptr and indices; force that path at L = 10
        spec = ChainSpec(L=10, J=1.0, Jp=0.3)
        block = symmetry_block(10, 1, -1)
        small = build_chain_hamiltonian(spec, block).matrix
        monkeypatch.setattr(spinchannel.chain, "get_index_dtype", lambda maxval: np.int64)
        wide = build_chain_hamiltonian(spec, block).matrix
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(wide, name), getattr(small, name))

    def test_offdiagonal_row_sums_bounded(self):
        spec = ChainSpec(L=6, J=1.0, Jp=1.0)
        op = build_chain_hamiltonian(spec, enumerate_sector(6, 0))
        mat = op.matrix.toarray()
        off = np.abs(mat - np.diag(np.diag(mat))).sum(axis=1)
        n_bonds = 5
        assert np.all(off <= n_bonds * 0.5 * 1.0 + 1e-12)


class TestAssemblyAgainstBinarySearch:
    """Rank-based assembly against the binary-search assembly it replaced, bit for bit."""

    @staticmethod
    def searchsorted_assembly(n_sites, bonds, sector):
        """build_bond_hamiltonian with each partner's column found by np.searchsorted."""
        basis, signs = sector.basis, sector.signs
        dim, last = basis.size, n_sites - 1
        flips = [
            (c, np.uint64((1 << i) | (1 << j)), np.uint64((1 << (last - i)) | (1 << (last - j))))
            for i, j, c in bonds
        ]
        if signs is not None:
            full = np.uint64((1 << n_sites) - 1)
            mirrored = spinchannel.chain._reverse_bits(basis, n_sites)
            row_size = spinchannel.chain._orbits(basis, n_sites, signs, mirrored)[2]

        def flipped_rows(mask):
            both = basis & mask
            return (both != 0) & (both != mask)

        diag = np.zeros(dim)
        counts = np.ones(dim, dtype=np.int32)
        for c, mask, rmask in flips:
            anti = flipped_rows(mask)
            diag += np.where(anti, -0.25 * c, 0.25 * c)
            if c == 0.0:
                continue
            if signs is not None:
                anti &= spinchannel.chain._survives(basis ^ mirrored ^ (mask ^ rmask), full, signs)
            counts += anti
        indptr = np.zeros(dim + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1])
        fill = indptr[:-1].copy()
        indices[fill], data[fill] = np.arange(dim), diag
        fill += 1
        for c, mask, rmask in flips:
            if c == 0.0:
                continue
            anti = np.nonzero(flipped_rows(mask))[0]
            partners = basis[anti] ^ mask
            vals = np.full(anti.size, 0.5 * c)
            if signs is not None:
                orbits = spinchannel.chain._orbits(partners, n_sites, signs, mirrored[anti] ^ rmask)
                reps, chi, size, alive = orbits
                anti, partners = anti[alive], reps[alive]
                vals = 0.5 * c * chi[alive] * np.sqrt(row_size[anti] / size[alive])
            slots = fill[anti]
            indices[slots], data[slots] = np.searchsorted(basis, partners), vals
            fill[anti] += 1
        matrix = csr_matrix((data, indices, indptr), shape=(dim, dim))
        matrix.sum_duplicates()
        return matrix

    @staticmethod
    def assert_bitwise_equal(matrix, expected):
        for name in ("indptr", "indices", "data"):
            got, want = getattr(matrix, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("length", [4, 6, 8, 10, 12, 14, 16])
    def test_blocks_and_plain_chain(self, length):
        spec = ChainSpec(L=length, J=1.0, Jp=0.3)
        sector0 = enumerate_sector(length, 0)
        bonds = chain_bonds(spec)
        sectors = [sector0] + [symmetry_block(length, f, r) for f in (1, -1) for r in (1, -1)]
        for sector in sectors:
            matrix = build_chain_hamiltonian(spec, sector).matrix
            self.assert_bitwise_equal(matrix, self.searchsorted_assembly(length, bonds, sector))

    @pytest.mark.parametrize("length", [4, 6, 8, 10, 12, 14, 16])
    def test_transfer(self, length):
        spec = ChainSpec(L=length, J=1.0, Jp=0.3, gamma=0.05)
        bonds = [(0, 1, spec.gamma)] + chain_bonds(spec, offset=1)
        for twice_sz in (1, -1):
            sector = enumerate_sector(length + 1, twice_sz)
            real = self.searchsorted_assembly(length + 1, bonds, sector)
            matrix = build_transfer_hamiltonian(spec, sector).matrix
            self.assert_bitwise_equal(matrix, real.astype(np.complex128))


class TestAssemblyMemory:
    def test_block_assembly_peak_per_stored_entry(self):
        # the finished int32 CSR holds 12 bytes per entry; the two-pass fill
        # adds per-row arrays and one bond's temporaries at a time, never all
        # bonds' entries at once (another 16 bytes per entry)
        spec = ChainSpec(L=18, J=1.0, Jp=0.1)
        block = symmetry_block(18, -1, -1)  # (s, s), s = (-1)^9
        tracemalloc.start()
        try:
            op = build_chain_hamiltonian(spec, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 26 * op.matrix.nnz


class TestTotalSpinLadder:
    """Total S+- against the kron-product total spin and the binary-search form."""

    @staticmethod
    def total_spin(n_sites):
        def total(op):
            return sum(site_operator(op, i, n_sites) for i in range(n_sites))

        s_plus, s_minus, s_z = total(S_PLUS), total(S_MINUS), total(S_Z)
        return s_plus, s_minus, s_minus @ s_plus + s_z @ s_z + s_z

    @pytest.mark.parametrize("length", [4, 6])
    def test_matches_kron_oracle(self, length):
        spec = ChainSpec(L=length, J=1.0, Jp=0.5)
        sector = enumerate_sector(length, 0)
        _, modes = np.linalg.eigh(build_chain_hamiltonian(spec, sector).matrix.toarray())
        s_plus, s_minus, s_squared = self.total_spin(length)
        for v in modes.T:
            full = np.zeros(2**length)
            full[sector.basis] = v
            s2 = full @ s_squared @ full
            for raising, dense_op in ((True, s_plus), (False, s_minus)):
                target, image = apply_total_spin_ladder(sector, v, raising)
                dense_image = dense_op @ full
                assert target.twice_sz == (2 if raising else -2)
                # every entry is a sum of at most L unit-vector entries and
                # |S+- v|^2 = <S^2> <= 12 here, so rounding stays near 1e-14;
                # 1e-12 separates that from any wrong index or sign
                assert image @ image == pytest.approx(s2, abs=1e-12)
                np.testing.assert_allclose(image, dense_image[target.basis], rtol=0, atol=1e-12)
                assert dense_image @ dense_image == pytest.approx(image @ image, abs=1e-12)

    @pytest.mark.parametrize("length", [6, 8])
    @pytest.mark.parametrize("raising", [True, False])
    def test_every_sector_matches_kron_oracle(self, length, raising):
        s_plus, s_minus, _ = self.total_spin(length)
        dense_op = s_plus if raising else s_minus
        rng = np.random.default_rng(length)
        step = 2 if raising else -2
        for twice_sz in range(-length, length + 1, 2):
            if abs(twice_sz + step) > length:
                continue
            sector = enumerate_sector(length, twice_sz)
            vec = rng.standard_normal(sector.dim)
            full = np.zeros(2**length)
            full[sector.basis] = vec
            target, image = apply_total_spin_ladder(sector, vec, raising)
            dense_image = dense_op @ full
            assert target.twice_sz == twice_sz + step
            # the image lies inside the target sector and matches it there
            assert dense_image @ dense_image == pytest.approx(image @ image, rel=1e-13)
            np.testing.assert_allclose(image, dense_image[target.basis], rtol=0, atol=1e-12)

    @staticmethod
    def searchsorted_ladder(sector, vec, raising):
        """The ladder by binary search of each flipped pattern in the target basis."""
        target = enumerate_sector(sector.n_sites, sector.twice_sz + (2 if raising else -2))
        image = np.zeros(target.dim)
        for site in range(sector.n_sites):
            bit = np.uint64(1 << site)
            src = np.nonzero(((sector.basis & bit) == 0) == raising)[0]
            image[np.searchsorted(target.basis, sector.basis[src] ^ bit)] += vec[src]
        return image

    @pytest.mark.parametrize("length", [12, 14])
    def test_bit_identical_to_searchsorted_form(self, length):
        rng = np.random.default_rng(length)
        for twice_sz in range(-length, length + 1, 2):
            sector = enumerate_sector(length, twice_sz)
            vec = rng.standard_normal(sector.dim)
            for raising in (True, False):
                if abs(twice_sz + (2 if raising else -2)) > length:
                    continue
                _, image = apply_total_spin_ladder(sector, vec, raising)
                expected = self.searchsorted_ladder(sector, vec, raising)
                assert image.tobytes() == expected.tobytes()


class TestBlockMaps:
    """expand_to_sector and grow_into_block against the orbit formulas, written out here."""

    @staticmethod
    def orbit_oracle(block, sector, vec):
        """chi(g_p) vec[rep(p)] / sqrt|O_p| over the plain sector, orbit by orbit."""
        n, (flip, reflect) = sector.n_sites, block.signs
        full = np.uint64((1 << n) - 1)
        p = sector.basis
        mirrored = np.zeros_like(p)
        for site in range(n):
            mirrored |= ((p >> np.uint64(site)) & np.uint64(1)) << np.uint64(n - 1 - site)
        members = [(p, 1.0), (p ^ full, flip), (mirrored, reflect), (mirrored ^ full, flip * reflect)]
        rep = np.minimum.reduce([m for m, _ in members])
        chi = np.select([rep == m for m, _ in members[:3]], [c for _, c in members[:3]], flip * reflect)
        size = np.where((mirrored == p) | (mirrored == p ^ full), 2.0, 4.0)
        index = np.searchsorted(block.basis, rep)
        found = index < block.dim
        found[found] = block.basis[index[found]] == rep[found]
        out = np.zeros(sector.dim)
        out[found] = chi[found] * vec[index[found]] / np.sqrt(size[found])
        return out

    @pytest.mark.parametrize("length", [4, 6, 8, 10, 12, 14, 16])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_expansion_is_the_orbit_formula_bitwise(self, length, signs):
        sector = enumerate_sector(length, 0)
        block = symmetry_block(length, *signs)
        vec = np.random.default_rng(length).standard_normal(block.dim)
        expected = self.orbit_oracle(block, sector, vec)
        assert expand_to_sector(block, vec).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("length", [6, 8, 10, 12])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_growth_is_the_restricted_singlet_product(self, length, sign):
        # E^T (x (x) singlet on sites L/2 - 1, L/2), E the block's expansion,
        # with x a random vector of block (sign, sign) at L - 2 expanded
        short = enumerate_sector(length - 2, 0)
        small = symmetry_block(length - 2, sign, sign)
        x = expand_to_sector(small, np.random.default_rng(length).standard_normal(small.dim))
        x /= np.linalg.norm(x)
        sector = enumerate_sector(length, 0)
        low, high = length // 2 - 1, length // 2 + 1
        grown = np.zeros(sector.dim)
        for up_left in (True, False):
            kept = (short.basis & np.uint64((1 << low) - 1)) | ((short.basis >> np.uint64(low)) << np.uint64(high))
            pattern = kept | np.uint64(1 << (low if up_left else low + 1))
            grown[sector.index_of(pattern)] = (1.0 if up_left else -1.0) * x / np.sqrt(2.0)
        for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            block = symmetry_block(length, *signs)
            images = np.array([expand_to_sector(block, e) for e in np.eye(block.dim)])
            restricted = images @ grown if block.dim else np.zeros(0)
            if signs == (-sign, -sign):  # the singlet flips both parities
                np.testing.assert_allclose(grow_into_block(block, x), restricted, rtol=0, atol=1e-15)
                assert restricted @ restricted == pytest.approx(1.0, abs=1e-12)
            else:
                np.testing.assert_allclose(restricted, 0.0, rtol=0, atol=1e-15)

    def test_growth_guards(self):
        short, sector = enumerate_sector(8, 0), enumerate_sector(10, 0)
        block = symmetry_block(10, 1, 1)
        x = np.ones(short.dim)
        with pytest.raises(DimensionError):
            grow_into_block(block, x[:-1])
        with pytest.raises(DimensionError):
            grow_into_block(block, np.ones(sector.dim))
        with pytest.raises(SectorError):
            grow_into_block(sector, x)


class TestGuards:
    def test_chain_sector_size_mismatch(self):
        spec = ChainSpec(L=6)
        with pytest.raises(DimensionError):
            build_chain_hamiltonian(spec, enumerate_sector(4, 0))

    def test_chain_with_gamma_rejected(self):
        spec = ChainSpec(L=4, gamma=0.5)
        with pytest.raises(ConfigError):
            build_chain_hamiltonian(spec, enumerate_sector(4, 0))

    def test_transfer_without_gamma_rejected(self):
        spec = ChainSpec(L=4)
        with pytest.raises(ConfigError):
            build_transfer_hamiltonian(spec, enumerate_sector(5, 1))

    def test_transfer_sector_size_mismatch(self):
        spec = ChainSpec(L=4, gamma=0.2)
        with pytest.raises(DimensionError):
            build_transfer_hamiltonian(spec, enumerate_sector(4, 0))

    def test_block_needs_mirror_symmetric_bonds(self):
        block = symmetry_block(6, 1, 1)
        with pytest.raises(ValueError, match="mirror"):
            build_bond_hamiltonian(6, [(0, 1, 0.3), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 0.7)], block)
        with pytest.raises(ValueError, match="mirror"):
            build_bond_hamiltonian(6, [(0, 1, 1.0), (1, 2, 1.0)], block)
        # the same multiset in another order and orientation is accepted;
        # the diagonal sums in another order, hence the 1e-14
        bonds = [(5, 4, 0.3), (2, 3, 1.0), (1, 0, 0.3), (4, 3, 1.0), (1, 2, 1.0)]
        matrix = build_bond_hamiltonian(6, bonds, block).matrix
        reference = build_chain_hamiltonian(ChainSpec(L=6, J=1.0, Jp=0.3), block).matrix
        np.testing.assert_allclose(matrix.toarray(), reference.toarray(), rtol=0, atol=1e-14)
        # plain sectors take any bond list
        build_bond_hamiltonian(6, bonds[:2], enumerate_sector(6, 0))

    @pytest.mark.parametrize("n_sites, flip, reflect", [(7, 1, 1), (0, 1, 1), (8, 0, 1), (8, 1, 2)])
    def test_symmetry_block_needs_even_sites_and_unit_signs(self, n_sites, flip, reflect):
        with pytest.raises(SectorError):
            symmetry_block(n_sites, flip, reflect)

    def test_expand_to_sector_rejects_bad_inputs(self):
        sector6 = enumerate_sector(6, 0)
        block = symmetry_block(6, 1, 1)
        vec = np.ones(block.dim)
        with pytest.raises(SectorError):
            expand_to_sector(sector6, np.ones(sector6.dim))
        with pytest.raises(DimensionError):
            expand_to_sector(block, np.ones(block.dim + 1))
        with pytest.raises(DimensionError):
            expand_to_sector(block, vec[:-1])


class TestApply:
    def test_identity_operator(self, rng):
        op = SparseOperator(identity(10, format="csr"))
        v = rng.standard_normal(10)
        np.testing.assert_array_equal(op.matrix @ v, v)

    def test_symmetry_inner_product(self, rng):
        spec = ChainSpec(L=6, J=1.0, Jp=0.4)
        op = build_chain_hamiltonian(spec, enumerate_sector(6, 0))
        for _ in range(5):
            u = rng.standard_normal(op.dim)
            v = rng.standard_normal(op.dim)
            assert np.dot(u, op.matrix @ v) == pytest.approx(np.dot(op.matrix @ u, v), abs=1e-12)

    def test_matvec_matches_dense(self, rng):
        spec = ChainSpec(L=6, J=1.0, Jp=0.4)
        sector = enumerate_sector(6, 0)
        op = build_chain_hamiltonian(spec, sector)
        full = dense_chain_hamiltonian(spec)
        idx = sector.basis.astype(np.int64)
        dense_block = full[np.ix_(idx, idx)]
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(op.matrix @ v, dense_block @ v, atol=1e-12)

    def test_magnetization_conserved(self, rng):
        # applying the operator never leaks amplitude outside the sector:
        # columns of the assembled matrix are sector indices by construction
        spec = ChainSpec(L=6, J=1.0, Jp=0.4)
        sector = enumerate_sector(6, 2)
        op = build_chain_hamiltonian(spec, sector)
        assert op.matrix.indices.max() < sector.dim

    def test_sigma_z_expectation(self):
        sector = enumerate_sector(2, 0)
        vec = np.array([1.0, 0.0])  # pattern 0b01: site 0 up, site 1 down
        assert pauli_z_expectation(sector, vec, 0) == pytest.approx(1.0)
        assert pauli_z_expectation(sector, vec, 1) == pytest.approx(-1.0)

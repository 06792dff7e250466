"""Sector enumeration and Hamiltonian assembly against the kron oracle."""

import numpy as np
import pytest
from scipy.sparse import identity

from spinchannel.chain import (
    ChainSpec,
    SparseOperator,
    apply_total_spin_ladder,
    build_bond_hamiltonian,
    build_chain_hamiltonian,
    build_transfer_hamiltonian,
    enumerate_sector,
    pauli_xx_expectation,
    pauli_z_expectation,
    pauli_zz_expectation,
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

    def test_offdiagonal_row_sums_bounded(self):
        spec = ChainSpec(L=6, J=1.0, Jp=1.0)
        op = build_chain_hamiltonian(spec, enumerate_sector(6, 0))
        mat = op.matrix.toarray()
        off = np.abs(mat - np.diag(np.diag(mat))).sum(axis=1)
        n_bonds = 5
        assert np.all(off <= n_bonds * 0.5 * 1.0 + 1e-12)


class TestTotalSpinLadder:
    """S+- of m = 0 eigenvectors against the kron-product total spin."""

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


class TestApply:
    def test_identity_operator(self, rng):
        op = SparseOperator(identity(10, format="csr"))
        v = rng.standard_normal(10)
        np.testing.assert_array_equal(op.apply(v), v)

    def test_length_mismatch(self):
        op = SparseOperator(identity(10, format="csr"))
        with pytest.raises(DimensionError):
            op.apply(np.ones(9))

    def test_symmetry_inner_product(self, rng):
        spec = ChainSpec(L=6, J=1.0, Jp=0.4)
        op = build_chain_hamiltonian(spec, enumerate_sector(6, 0))
        for _ in range(5):
            u = rng.standard_normal(op.dim)
            v = rng.standard_normal(op.dim)
            assert np.dot(u, op.apply(v)) == pytest.approx(np.dot(op.apply(u), v), abs=1e-12)

    def test_matvec_matches_dense(self, rng):
        spec = ChainSpec(L=6, J=1.0, Jp=0.4)
        sector = enumerate_sector(6, 0)
        op = build_chain_hamiltonian(spec, sector)
        full = dense_chain_hamiltonian(spec)
        idx = sector.basis.astype(np.int64)
        dense_block = full[np.ix_(idx, idx)]
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(op.apply(v), dense_block @ v, atol=1e-12)

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

"""Lanczos eigensolver against the dense oracle, plus spectral_data checks."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags

import spinchannel.eigensolve
from spinchannel.chain import ChainSpec, SparseOperator, build_bond_hamiltonian, build_chain_hamiltonian, enumerate_sector
from spinchannel.chain import pauli_xx_expectation, pauli_zz_expectation
from spinchannel.eigensolve import (
    EigenPair,
    dense_spectrum,
    lowest_eigenpairs,
    spectral_data,
)
from spinchannel.errors import ConfigError, ConvergenceError, OrderingError

from conftest import dense_chain_hamiltonian


class TestLowestEigenpairs:
    def test_two_spin_singlet(self):
        sector = enumerate_sector(2, 0)
        op = build_bond_hamiltonian(2, [(0, 1, 1.0)], sector)
        (pair,) = lowest_eigenpairs(op, 1)
        assert pair.energy == pytest.approx(-0.75, abs=1e-12)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        assert pair.residual <= 1e-12

    def test_dim_one_sector(self):
        sector = enumerate_sector(2, 2)
        op = build_bond_hamiltonian(2, [(0, 1, 1.0)], sector)
        (pair,) = lowest_eigenpairs(op, 1)
        assert pair.energy == pytest.approx(0.25, abs=1e-15)
        assert pair.residual == 0.0

    @pytest.mark.parametrize("jp", [0.1, 0.5, 1.0])
    def test_L10_matches_dense(self, jp):
        spec = ChainSpec(L=10, J=1.0, Jp=jp)
        op = build_chain_hamiltonian(spec, enumerate_sector(10, 0))
        pairs = lowest_eigenpairs(op, 2, 1e-10)
        dense = dense_spectrum(op)
        assert pairs[0].energy == pytest.approx(dense[0], abs=1e-9)
        assert pairs[1].energy == pytest.approx(dense[1], abs=1e-9)
        assert pairs[0].residual <= 1e-10
        assert pairs[1].residual <= 1e-10

    def test_restart_path(self):
        # force a small ARPACK subspace (ncv) so implicit restarts must happen
        spec = ChainSpec(L=10, J=1.0, Jp=0.3)
        op = build_chain_hamiltonian(spec, enumerate_sector(10, 0))
        pairs = lowest_eigenpairs(op, 2, 1e-10, max_subspace=12)
        dense = dense_spectrum(op)
        assert pairs[0].energy == pytest.approx(dense[0], abs=1e-9)
        assert pairs[1].energy == pytest.approx(dense[1], abs=1e-9)

    def test_deterministic_given_seed(self):
        spec = ChainSpec(L=8, J=1.0, Jp=0.2)
        op = build_chain_hamiltonian(spec, enumerate_sector(8, 0))
        a = lowest_eigenpairs(op, 2, seed=42)
        b = lowest_eigenpairs(op, 2, seed=42)
        assert a[0].energy == b[0].energy
        np.testing.assert_array_equal(a[0].vector, b[0].vector)

    def test_variational_bound(self, rng):
        spec = ChainSpec(L=8, J=1.0, Jp=0.5)
        op = build_chain_hamiltonian(spec, enumerate_sector(8, 0))
        (ground, _) = lowest_eigenpairs(op, 2)
        for _ in range(10):
            v = rng.standard_normal(op.dim)
            v /= np.linalg.norm(v)
            assert ground.energy <= np.dot(v, op.apply(v)) + 1e-12

    def test_convergence_error_carries_residuals(self):
        spec = ChainSpec(L=12, J=1.0, Jp=0.1)
        op = build_chain_hamiltonian(spec, enumerate_sector(12, 0))
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, 2, 1e-14, max_steps=3)
        assert "residual" in str(err.value) or err.value.residuals is None or err.value.residuals

    def test_residual_guard_rejects_inaccurate_pairs(self, monkeypatch):
        true_eigsh = spinchannel.eigensolve.eigsh

        def perturbed(*args, **kwargs):
            energies, vectors = true_eigsh(*args, **kwargs)
            vectors = vectors.copy()
            vectors[0] += 1e-3
            return energies, vectors

        monkeypatch.setattr(spinchannel.eigensolve, "eigsh", perturbed)
        spec = ChainSpec(L=12, J=1.0, Jp=0.1)
        op = build_chain_hamiltonian(spec, enumerate_sector(12, 0))
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, 2, 1e-10)
        assert isinstance(err.value.residuals, list)
        assert max(err.value.residuals) > 1e-10

    def test_bad_arguments(self):
        sector = enumerate_sector(2, 0)
        op = build_bond_hamiltonian(2, [(0, 1, 1.0)], sector)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, 0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, 5)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, 1, tol=-1.0)


class TestDenseSpectrum:
    def test_two_spin_full_space(self):
        eigs = []
        for twice_sz in (-2, 0, 2):
            sector = enumerate_sector(2, twice_sz)
            eigs.append(dense_spectrum(build_bond_hamiltonian(2, [(0, 1, 1.0)], sector)))
        pooled = np.sort(np.concatenate(eigs))
        np.testing.assert_allclose(pooled, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_diagonal_operator(self):
        values = np.array([3.0, -1.0, 2.0, 0.5])
        op = SparseOperator(csr_matrix(diags(values)))
        np.testing.assert_allclose(dense_spectrum(op), np.sort(values), atol=1e-15)

    def test_refuses_large_dimension(self):
        op = SparseOperator(csr_matrix(diags(np.ones(5000))))
        with pytest.raises(ValueError):
            dense_spectrum(op)

    def test_L8_sectors_cover_full_spectrum(self):
        spec = ChainSpec(L=8, J=1.0, Jp=0.6)
        eigs = []
        for twice_sz in range(-8, 9, 2):
            op = build_chain_hamiltonian(spec, enumerate_sector(8, twice_sz))
            eigs.append(dense_spectrum(op))
        pooled = np.sort(np.concatenate(eigs))
        full = np.linalg.eigvalsh(dense_chain_hamiltonian(spec))
        np.testing.assert_allclose(pooled, full, atol=1e-11)


class TestSpectralData:
    def test_uniform_L4_gap_matches_dense(self):
        spec = ChainSpec(L=4, J=1.0, Jp=1.0)
        sd = spectral_data(spec)
        m0 = dense_spectrum(build_chain_hamiltonian(spec, enumerate_sector(4, 0)))
        m1 = dense_spectrum(build_chain_hamiltonian(spec, enumerate_sector(4, 2)))
        assert sd.e0 == pytest.approx(m0[0], abs=1e-12)
        assert sd.gap == pytest.approx(m1[0] - m0[0], abs=1e-12)

    @pytest.mark.parametrize("seed", [None, 7])
    def test_L16_spectrum_pinned(self, seed):
        # e0 and gap as computed by the original thick-restart Lanczos solver
        kwargs = {} if seed is None else {"seed": seed}
        sd = spectral_data(ChainSpec(L=16, J=1.0, Jp=0.1), **kwargs)
        assert sd.e0 == pytest.approx(-6.035563591378224, abs=1e-9)
        assert sd.gap == pytest.approx(0.002929115857094544, abs=1e-9)

    def test_triplet_degeneracy_holds(self):
        spec = ChainSpec(L=8, J=1.0, Jp=0.2)
        sd = spectral_data(spec, 1e-10)
        assert sd.gap > 0
        # second m=0 level must sit on the m=1 level; spectral_data already
        # enforces it, re-derive independently here
        op = build_chain_hamiltonian(spec, enumerate_sector(8, 0))
        second = dense_spectrum(op)[1]
        assert second == pytest.approx(sd.e_triplet, abs=1e-9)

    def test_weak_probes_strongly_entangled(self):
        sd = spectral_data(ChainSpec(L=8, J=1.0, Jp=0.2))
        assert sd.gzz_ground < -1.0 / 3.0

    def test_correlators_in_range(self):
        sd = spectral_data(ChainSpec(L=6, J=1.0, Jp=0.5))
        for val in (sd.gzz_ground, sd.gzz_triplet, sd.gxx_triplet):
            assert -1.0 <= val <= 1.0

    def test_huge_tol_trips_degeneracy_guard(self):
        with pytest.raises(OrderingError):
            spectral_data(ChainSpec(L=8, J=1.0, Jp=0.2), tol=1.0)

    def test_non_triplet_second_state_trips_guard(self, monkeypatch):
        # L = 4 quintet member at m = 0: the symmetric superposition of the
        # six configurations, <S^2> = 6, energy (Jp + J + Jp)/4
        spec = ChainSpec(L=4, J=1.0, Jp=0.5)
        true_solve = spinchannel.eigensolve.lowest_eigenpairs

        def quintet_second(op, k, *args, **kwargs):
            ground = true_solve(op, 1)[0]
            quintet = np.full(op.dim, 1.0 / np.sqrt(op.dim))
            return [ground, EigenPair(0.5, quintet, 0.0)]

        monkeypatch.setattr(spinchannel.eigensolve, "lowest_eigenpairs", quintet_second)
        with pytest.raises(OrderingError, match="S\\^2"):
            spectral_data(spec)

    @pytest.mark.parametrize("length", [8, 10, 12])
    @pytest.mark.parametrize("jp", [0.1, 0.2])
    def test_triplet_matches_m1_solve(self, length, jp):
        # the m = 1 route that spectral_data no longer takes, kept as an oracle
        # for the Wigner-Eckart correlators
        spec = ChainSpec(L=length, J=1.0, Jp=jp)
        sd = spectral_data(spec)
        sector1 = enumerate_sector(length, 2)
        (pair,) = lowest_eigenpairs(build_chain_hamiltonian(spec, sector1), 1, tol=1e-12)
        a, b = spec.site_a, spec.site_b
        assert sd.e_triplet == pytest.approx(pair.energy, abs=1e-10)
        assert sd.gzz_triplet == pytest.approx(
            pauli_zz_expectation(sector1, pair.vector, a, b), abs=1e-10
        )
        assert sd.gxx_triplet == pytest.approx(
            pauli_xx_expectation(sector1, pair.vector, a, b), abs=1e-10
        )

    def test_rejects_transfer_spec(self):
        with pytest.raises(ConfigError):
            spectral_data(ChainSpec(L=4, gamma=0.2))

    def test_reflection_symmetry_of_gzz(self):
        # the chain is mirror symmetric, so swapping probes changes nothing
        spec = ChainSpec(L=6, J=1.0, Jp=0.3)
        sector = enumerate_sector(6, 0)
        op = build_chain_hamiltonian(spec, sector)
        (ground, _) = lowest_eigenpairs(op, 2)
        from spinchannel.chain import pauli_zz_expectation

        ab = pauli_zz_expectation(sector, ground.vector, 0, 5)
        ba = pauli_zz_expectation(sector, ground.vector, 5, 0)
        assert ab == pytest.approx(ba, abs=1e-15)

"""Lanczos eigensolver against the dense oracle, plus spectral_data checks."""

import multiprocessing
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse import csr_matrix, diags

import spinchannel.chain
import spinchannel.eigensolve
import spinchannel.worker
from spinchannel.chain import ChainSpec, SparseOperator, build_bond_hamiltonian, build_chain_hamiltonian, enumerate_sector
from spinchannel.chain import expand_to_sector, grow_into_block
from spinchannel.chain import pauli_xx_expectation, pauli_zz_expectation, symmetry_block
from spinchannel.eigensolve import (
    DEFAULT_TOL,
    SpectralData,
    dense_spectrum,
    lowest_eigenpairs,
    spectral_data,
)
from spinchannel.errors import (ConfigError, ConvergenceError, DimensionError, OrderingError,
                                SpinChainError)
from spinchannel.scaling import gap_sweep

from conftest import dense_chain_hamiltonian, total_spin_ladder


class TestLowestEigenpairs:
    def test_two_spin_singlet(self):
        sector = enumerate_sector(2, 0)
        op = build_bond_hamiltonian([(0, 1, 1.0)], sector)
        (pair,) = lowest_eigenpairs(op, 1)
        assert pair.energy == pytest.approx(-0.75, abs=1e-12)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        assert pair.residual <= 1e-12

    def test_dim_one_sector(self):
        sector = enumerate_sector(2, 2)
        op = build_bond_hamiltonian([(0, 1, 1.0)], sector)
        (pair,) = lowest_eigenpairs(op, 1)
        assert pair.energy == pytest.approx(0.25, abs=1e-15)
        assert pair.residual == 0.0

    # the L = 12 m = 0 sector (dim 924) is above the dense cut-off, so the
    # oracles below compare ARPACK, not eigh, with the dense spectrum
    @pytest.mark.parametrize("jp", [0.1, 0.5, 1.0])
    def test_L12_matches_dense(self, jp, arpack_dims):
        spec = ChainSpec(L=12, J=1.0, Jp=jp)
        op = build_chain_hamiltonian(spec, enumerate_sector(12, 0))
        pairs = lowest_eigenpairs(op, 2, 1e-10)
        dense = dense_spectrum(op)
        assert arpack_dims == [924]
        assert pairs[0].energy == pytest.approx(dense[0], abs=1e-9)
        assert pairs[1].energy == pytest.approx(dense[1], abs=1e-9)
        assert pairs[0].residual <= 1e-10
        assert pairs[1].residual <= 1e-10

    def test_restart_path(self, monkeypatch, arpack_dims):
        # force the smallest ARPACK subspace for k = 2 (ncv = 2k + 1 = 5) so
        # that many implicit restarts must happen
        monkeypatch.setattr(spinchannel.eigensolve, "_ARPACK_NCV", 5)
        spec = ChainSpec(L=12, J=1.0, Jp=0.3)
        op = build_chain_hamiltonian(spec, enumerate_sector(12, 0))
        pairs = lowest_eigenpairs(op, 2, 1e-10)
        dense = dense_spectrum(op)
        assert arpack_dims == [924]
        assert pairs[0].energy == pytest.approx(dense[0], abs=1e-9)
        assert pairs[1].energy == pytest.approx(dense[1], abs=1e-9)

    def test_deterministic_given_seed(self, arpack_dims):
        spec = ChainSpec(L=12, J=1.0, Jp=0.2)
        op = build_chain_hamiltonian(spec, enumerate_sector(12, 2))
        a = lowest_eigenpairs(op, 2, seed=42)
        b = lowest_eigenpairs(op, 2, seed=42)
        assert arpack_dims == [792, 792]
        assert a[0].energy == b[0].energy
        np.testing.assert_array_equal(a[0].vector, b[0].vector)

    @pytest.mark.parametrize("k", [12, 13])
    def test_many_pairs_widen_the_subspace(self, k, arpack_dims):
        # ARPACK needs ncv > k; ncv = max(_ARPACK_NCV, 2k + 1) keeps k >= 12 working
        spec = ChainSpec(L=12, J=1.0, Jp=0.5)
        op = build_chain_hamiltonian(spec, enumerate_sector(12, 0))
        pairs = lowest_eigenpairs(op, k, 1e-10)
        dense = dense_spectrum(op)
        assert arpack_dims == [924]
        np.testing.assert_allclose([p.energy for p in pairs], dense[:k], rtol=0, atol=1e-9)
        assert max(p.residual for p in pairs) <= 1e-10

    def test_subspace_memory_peak(self, arpack_dims):
        # k = 1 keeps no Lanczos basis: the start, v_(j-1), v_j and the product,
        # then the Ritz vector, and the coefficient arrays.  ARPACK with ncv = 12
        # read ~29 vectors of dim here, and ~45 with 20.
        spec = ChainSpec(L=18, J=1.0, Jp=0.1)
        block = symmetry_block(18, -1, -1)  # (s, s), s = (-1)^9
        op = build_chain_hamiltonian(spec, block)
        tracemalloc.start()
        try:
            lowest_eigenpairs(op, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arpack_dims == []
        assert peak <= 8 * op.dim * 8

    def test_variational_bound(self, rng):
        spec = ChainSpec(L=8, J=1.0, Jp=0.5)
        op = build_chain_hamiltonian(spec, enumerate_sector(8, 0))
        (ground, _) = lowest_eigenpairs(op, 2)
        for _ in range(10):
            v = rng.standard_normal(op.dim)
            v /= np.linalg.norm(v)
            assert ground.energy <= np.dot(v, op.matrix @ v) + 1e-12

    def test_convergence_error_carries_residuals(self, monkeypatch):
        monkeypatch.setattr(spinchannel.eigensolve, "_ARPACK_MAXITER", 3)
        spec = ChainSpec(L=12, J=1.0, Jp=0.1)
        op = build_chain_hamiltonian(spec, enumerate_sector(12, 0))
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, 2, 1e-14)
        assert "residual" in str(err.value) or err.value.residuals is None or err.value.residuals

    def test_residual_guard_rejects_inaccurate_pairs(self, monkeypatch):
        true_eigsh = scipy.sparse.linalg.eigsh

        def perturbed(*args, **kwargs):
            energies, vectors = true_eigsh(*args, **kwargs)
            vectors = vectors.copy()
            vectors[0] += 1e-3
            return energies, vectors

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
        spec = ChainSpec(L=12, J=1.0, Jp=0.1)
        op = build_chain_hamiltonian(spec, enumerate_sector(12, 0))
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, 2, 1e-10)
        assert isinstance(err.value.residuals, list)
        assert max(err.value.residuals) > 1e-10

    def test_residual_guard_rejects_inaccurate_ritz_vectors(self, monkeypatch):
        # pass 2 (the rerun with known coefficients) yields shifted vectors, so
        # every run's x misses tol and no restart can help
        true_vectors = spinchannel.eigensolve._lanczos_vectors

        def perturbed(mat, v0, alphas, betas, known=0):
            for v in true_vectors(mat, v0, alphas, betas, known):
                yield v + 1e-3 if known else v

        monkeypatch.setattr(spinchannel.eigensolve, "_lanczos_vectors", perturbed)
        op = build_chain_hamiltonian(ChainSpec(L=12, J=1.0, Jp=0.1), enumerate_sector(12, 0))
        with pytest.raises(ConvergenceError, match="steps in 3 runs") as err:
            lowest_eigenpairs(op, 1, 1e-10)
        (residual,) = err.value.residuals
        assert residual > 1e-10

    def test_step_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(spinchannel.eigensolve, "_LANCZOS_MAX_STEPS", 3)
        op = build_chain_hamiltonian(ChainSpec(L=12, J=1.0, Jp=0.1), enumerate_sector(12, 0))
        with pytest.raises(ConvergenceError, match="after 9 steps in 3 runs") as err:
            lowest_eigenpairs(op, 1)
        (residual,) = err.value.residuals
        assert residual > 1e-10

    def test_invariant_start_ends_at_breakdown(self):
        # v0 in the span of two eigenvectors: beta_2 = 0 ends pass 1 with an exact pair
        op = SparseOperator(diags(np.arange(300, dtype=float)).tocsr())
        v0 = np.zeros(300)
        v0[[3, 7]] = 1.0
        (pair,) = lowest_eigenpairs(op, 1, v0=v0)
        assert pair.energy == pytest.approx(3.0, abs=1e-14)
        assert abs(pair.vector[3]) == pytest.approx(1.0, abs=1e-14)
        assert pair.residual <= 1e-14

    def test_k1_deterministic_given_seed(self, arpack_dims):
        op = build_chain_hamiltonian(ChainSpec(L=16, J=1.0, Jp=0.2), symmetry_block(16, 1, 1))
        (a,), (b,) = lowest_eigenpairs(op, 1, seed=42), lowest_eigenpairs(op, 1, seed=42)
        assert arpack_dims == []
        assert a.energy == b.energy
        assert a.vector.tobytes() == b.vector.tobytes()

    def test_bad_arguments(self):
        sector = enumerate_sector(2, 0)
        op = build_bond_hamiltonian([(0, 1, 1.0)], sector)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, 0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, 5)
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                lowest_eigenpairs(op, 1, tol=tol)


class TestTwoPassLanczos:
    """k = 1 (two-pass Lanczos) against the lowest pair of k = 2 (ARPACK)."""

    SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    @pytest.mark.parametrize("length", [14, 16, 18])
    @pytest.mark.parametrize("jp", [0.05, 0.1, 0.5, 1.0])
    def test_matches_arpack(self, length, jp, arpack_dims):
        spec, short = ChainSpec(L=length, J=1.0, Jp=jp), ChainSpec(L=length - 2, J=1.0, Jp=jp)
        # the lowest vector of block (F, R) at L - 2 with a middle singlet is in (-F, -R) at L
        seeds = {}
        for flip, reflect in self.SIGNS:
            block = symmetry_block(length - 2, flip, reflect)
            (pair,) = lowest_eigenpairs(build_chain_hamiltonian(short, block), 1)
            seeds[-flip, -reflect] = expand_to_sector(block, pair.vector)
        cases = []
        for signs in self.SIGNS:
            block = symmetry_block(length, *signs)
            cases.append((block, grow_into_block(block, seeds[signs])))
        s = (-1) ** (length // 2)
        ground_block = symmetry_block(length, s, s)
        ground_start = grow_into_block(ground_block, seeds[s, s])
        cases.append((enumerate_sector(length, 0), expand_to_sector(ground_block, ground_start)))
        for sector, grown in cases:
            op = build_chain_hamiltonian(spec, sector)
            reference = lowest_eigenpairs(op, 2)[0]
            for v0 in (None, grown):
                (pair,) = lowest_eigenpairs(op, 1, v0=v0)
                assert abs(pair.energy - reference.energy) <= 1e-10
                assert abs(pair.vector @ reference.vector) >= 1.0 - 1e-10
                assert pair.residual <= DEFAULT_TOL
        assert arpack_dims == [sector.dim for sector, _ in cases]


class TestLanczosRecurrence:
    """_lanczos_vectors, the recurrence of the eigensolver and of the Krylov propagator."""

    LEVELS = np.linspace(-1.0, 1.0, 300)

    def rounding_invariant_start(self, dtype):
        """A rotated diagonal matrix and a start in span{q_3, q_7}, invariant only up to rounding."""
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((300, 300)))
        mat = (q * self.LEVELS) @ q.T
        return 0.5 * (mat + mat.T), q[:, 3] + (1j if dtype is complex else 1.0) * q[:, 7], q

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_ends_on_a_rounding_invariant_subspace(self, dtype):
        mat, v0, q = self.rounding_invariant_start(dtype)
        alphas, betas = np.full(10, np.nan), np.full(10, np.nan)
        vectors = list(spinchannel.eigensolve._lanczos_vectors(mat, v0, alphas, betas))
        assert len(vectors) == 2 and vectors[1].dtype == dtype
        assert betas[1] == 0.0
        residual = mat @ vectors[1] - alphas[1] * vectors[1] - betas[0] * vectors[0]
        assert 0.0 < np.linalg.norm(residual) < 1e-13  # not an exact zero
        if dtype is float:
            (pair,) = lowest_eigenpairs(SparseOperator(csr_matrix(mat)), 1, v0=v0)
            assert pair.energy == pytest.approx(self.LEVELS[3], abs=1e-14)
            assert abs(pair.vector @ q[:, 3]) == pytest.approx(1.0, abs=1e-14)
            assert pair.residual <= 1e-12  # rounding of the rotated matrix

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rerun_with_known_coefficients_stops_at_the_same_step(self, dtype):
        mat, v0, _ = self.rounding_invariant_start(dtype)
        alphas, betas = np.full(10, np.nan), np.full(10, np.nan)
        first = list(spinchannel.eigensolve._lanczos_vectors(mat, v0, alphas, betas))
        stored = alphas.copy(), betas.copy()
        rerun = list(spinchannel.eigensolve._lanczos_vectors(mat, v0, alphas, betas, known=2))
        assert [v.tobytes() for v in rerun] == [v.tobytes() for v in first]
        np.testing.assert_array_equal(alphas, stored[0])
        np.testing.assert_array_equal(betas, stored[1])


class TestArpackTolerance:
    """k >= 2 hands ARPACK tol over the largest absolute row sum, bounded below by 1."""

    @pytest.mark.parametrize("length", [14, 16, 18, 20])
    def test_is_tol_over_the_largest_row_sum(self, monkeypatch, length):
        class Stop(Exception):
            pass

        handed = []

        def recorder(mat, k, **kwargs):
            handed.append(kwargs["tol"])
            raise Stop

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorder)
        op = build_chain_hamiltonian(ChainSpec(L=length, Jp=0.1), symmetry_block(length, 1, 1))
        with pytest.raises(Stop):
            lowest_eigenpairs(op, 2, 1e-10)
        # the row sums by reduceat over the non-empty rows, which is what scipy's norm runs
        starts = op.matrix.indptr[:-1][np.diff(op.matrix.indptr) > 0]
        bound = np.add.reduceat(np.abs(op.matrix.data), starts).max()
        assert bound > 1.0
        assert handed == [1e-10 / bound]


class TestDenseSpectrum:
    def test_two_spin_full_space(self):
        eigs = []
        for twice_sz in (-2, 0, 2):
            sector = enumerate_sector(2, twice_sz)
            eigs.append(dense_spectrum(build_bond_hamiltonian([(0, 1, 1.0)], sector)))
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


SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _block_expansion(block, sector):
    """Plain-sector images of the block's unit vectors, one per column."""
    images = [expand_to_sector(block, e) for e in np.eye(block.dim)]
    return np.reshape(images, (block.dim, sector.dim)).T  # the L = 4 (1, -1) block is empty


class TestSpinInversionBlocks:
    """The (spin inversion, reflection) blocks of the m = 0 sector against the plain sector."""

    @pytest.mark.parametrize("length", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("jp", [0.1, 0.5, 1.0])
    def test_block_spectra_make_up_the_sector(self, length, jp):
        spec = ChainSpec(L=length, J=1.0, Jp=jp)
        sector0 = enumerate_sector(length, 0)
        blocks = [
            dense_spectrum(build_chain_hamiltonian(spec, symmetry_block(length, *signs)))
            for signs in SIGNS
        ]
        plain = dense_spectrum(build_chain_hamiltonian(spec, sector0))
        np.testing.assert_allclose(np.sort(np.concatenate(blocks)), plain, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("length", [4, 6, 8, 10])
    def test_expansions_are_one_orthogonal_basis(self, length):
        # each block's expansion is an isometry; the four together span the sector
        sector0 = enumerate_sector(length, 0)
        columns = np.hstack(
            [_block_expansion(symmetry_block(length, *signs), sector0) for signs in SIGNS]
        )
        assert columns.shape == (sector0.dim, sector0.dim)
        np.testing.assert_allclose(columns.T @ columns, np.eye(sector0.dim), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("length", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("signs", SIGNS)
    def test_block_matrix_is_projected_plain_matrix(self, length, signs):
        # E^T H E with E's columns the expansions of the block's unit vectors
        spec = ChainSpec(L=length, J=1.0, Jp=0.3)
        sector0 = enumerate_sector(length, 0)
        block = symmetry_block(length, *signs)
        expansion = _block_expansion(block, sector0)
        projected = expansion.T @ (build_chain_hamiltonian(spec, sector0).matrix @ expansion)
        matrix = build_chain_hamiltonian(spec, block).matrix.toarray()
        np.testing.assert_allclose(matrix, projected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("length", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("jp", [0.1, 1.0])
    def test_ground_state_parity(self, length, jp):
        # spectral_data solves block (s, s) for the singlet and (-s, -s) for T0
        sector0 = enumerate_sector(length, 0)
        op = build_chain_hamiltonian(ChainSpec(L=length, J=1.0, Jp=jp), sector0)
        ground, triplet = np.linalg.eigh(op.matrix.toarray())[1][:, :2].T
        mirrored = [int(format(int(p), f"0{length}b")[::-1], 2) for p in sector0.basis]
        mirror = sector0.index_of(np.array(mirrored, dtype=np.uint64))
        s = (-1) ** (length // 2)
        for vector, sign in ((ground, s), (triplet, -s)):
            np.testing.assert_allclose(vector[::-1], sign * vector, rtol=0, atol=1e-10)
            np.testing.assert_allclose(vector[mirror], sign * vector, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n_sites", [4, 10, 16, 22, 31, 40])
    def test_bit_reversal_matches_string_reversal(self, n_sites):
        rng = np.random.default_rng(n_sites)
        patterns = rng.integers(0, 1 << n_sites, 500, dtype=np.uint64)
        expected = [int(format(int(p), f"0{n_sites}b")[::-1], 2) for p in patterns]
        assert spinchannel.chain._reverse_bits(patterns, n_sites).tolist() == expected

    @pytest.mark.parametrize("length", [12, 14, 16])
    def test_matches_plain_k2_solve(self, length):
        tol = 1e-10
        spec = ChainSpec(L=length, J=1.0, Jp=0.1)
        sd = spectral_data(spec, tol)
        op = build_chain_hamiltonian(spec, enumerate_sector(length, 0))
        ground, triplet = lowest_eigenpairs(op, 2, tol)
        assert sd.e0 == pytest.approx(ground.energy, abs=1e-10)
        assert sd.e_triplet == pytest.approx(triplet.energy, abs=1e-10)
        for energy, vector in ((sd.e0, sd.ground), (sd.e_triplet, sd.triplet)):
            assert np.linalg.norm(op.matrix @ vector - energy * vector) <= tol

    def test_gap_independent_of_seed(self):
        spec = ChainSpec(L=14, J=1.0, Jp=0.1)
        gaps = [spectral_data(spec, seed=seed).gap for seed in (1, 2, 1234)]
        assert max(gaps) - min(gaps) <= 1e-10


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
        # e_triplet is the lowest level of T0's block; it must sit on the lowest
        # m = 1 level, taken here from an independent dense solve
        op = build_chain_hamiltonian(spec, enumerate_sector(8, 2))
        lowest_m1 = dense_spectrum(op)[0]
        assert lowest_m1 == pytest.approx(sd.e_triplet, abs=1e-9)

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

    def test_both_block_solves_precede_the_expansions(self, monkeypatch):
        # a plain m = 0 vector holds four block vectors' worth of entries; none
        # may be alive while the second block is assembled and solved.  T0's
        # block (solved second) is expanded first: T0's correlators run before
        # G's vector exists
        solve = spinchannel.eigensolve.lowest_eigenpairs
        expand = spinchannel.eigensolve.expand_to_sector
        calls = []

        def recorded_solve(op, *args, **kwargs):
            calls.append(("solve", op.dim))
            return solve(op, *args, **kwargs)

        def recorded_expand(block, vec):
            calls.append(("expand", block.dim))
            return expand(block, vec)

        monkeypatch.setattr(spinchannel.eigensolve, "lowest_eigenpairs", recorded_solve)
        monkeypatch.setattr(spinchannel.eigensolve, "expand_to_sector", recorded_expand)
        spectral_data(ChainSpec(L=12, J=1.0, Jp=0.1))
        assert [name for name, _ in calls] == ["solve", "solve", "expand", "expand"]
        assert [dim for _, dim in calls[2:]] == [dim for _, dim in calls[1::-1]]

    def test_memory_peak_is_one_block_csr_and_a_few_vectors(self):
        # every phase stays near the solve's floor, one block's CSR and its
        # Lanczos vectors.  At L = 20 the last correlator, zz of |G>, tops it by
        # 0.3 MB: the m = 0 basis, |T0> and |G> are four block vectors each
        spec = ChainSpec(L=20, J=1.0, Jp=0.1)
        block = symmetry_block(20, 1, 1)  # (s, s), s = (-1)^10, the larger block
        csr = build_chain_hamiltonian(spec, block).matrix
        csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        del csr
        tracemalloc.start()
        try:
            spectral_data(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= csr_bytes + 10 * 8 * block.dim

    @pytest.mark.parametrize("grown", [False, True])
    def test_one_m0_enumeration_per_call(self, monkeypatch, grown):
        # the blocks list their own representatives, so the plain m = 0 basis is
        # enumerated once, for the correlators after both solves, and no other
        # sector is listed: the triplet's spin is a theorem, not a run-time check
        short = spectral_data(ChainSpec(L=12, J=1.0, Jp=0.1)) if grown else None
        enumerate_m, patterns = spinchannel.eigensolve.enumerate_sector, spinchannel.chain._patterns
        sectors, listed = [], []

        def recorded_enumerate(n_sites, twice_sz):
            sectors.append((n_sites, twice_sz))
            return enumerate_m(n_sites, twice_sz)

        def recorded_patterns(n_sites, n_up):
            listed.append((n_sites, n_up))
            return patterns(n_sites, n_up)

        monkeypatch.setattr(spinchannel.eigensolve, "enumerate_sector", recorded_enumerate)
        monkeypatch.setattr(spinchannel.chain, "_patterns", recorded_patterns)
        spectral_data(ChainSpec(L=14, J=1.0, Jp=0.1), grow_from=short)
        assert sectors == [(14, 0)]
        assert listed.count((14, 7)) == 1
        assert (14, 8) not in listed

    @pytest.mark.parametrize("length", [4, 6, 8, 10, 12, 14, 16])
    @pytest.mark.parametrize("jp", [0.01, 0.1, 0.2, 1.0, 5.0, 100.0])
    def test_triplet_matches_m1_solve(self, length, jp):
        # the lowest state of T0's block is the triplet (Marshall and Lieb-Mattis):
        # its energy is the lowest m = 1 level, and the lowest m = 2 level lies
        # above it, which an S = 3 state would not.  The m = 1 route that
        # spectral_data does not take is the oracle of the Wigner-Eckart correlators
        spec = ChainSpec(L=length, J=1.0, Jp=jp)
        sd = spectral_data(spec)
        sector1 = enumerate_sector(length, 2)
        (pair,) = lowest_eigenpairs(build_chain_hamiltonian(spec, sector1), 1, tol=1e-12)
        (lowest_m2,) = lowest_eigenpairs(
            build_chain_hamiltonian(spec, enumerate_sector(length, 4)), 1, tol=1e-12)
        a, b = spec.site_a, spec.site_b
        assert sd.e_triplet == pytest.approx(pair.energy, abs=1e-10)
        assert lowest_m2.energy - sd.e_triplet > 1e-9
        assert sd.gzz_triplet == pytest.approx(
            pauli_zz_expectation(sector1, pair.vector, a, b), abs=1e-10
        )
        assert sd.gxx_triplet == pytest.approx(
            pauli_xx_expectation(sector1, pair.vector, a, b), abs=1e-10
        )

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


def _counting_products(monkeypatch):
    """Vector products of each matrix spectral_data assembles, one count per block."""
    build, counts = spinchannel.eigensolve.build_chain_hamiltonian, []

    class CountingCSR(csr_matrix):
        def _matmul_vector(self, other):
            counts[self.count_index] += 1
            return super()._matmul_vector(other)

    def counted(*args, **kwargs):
        op = build(*args, **kwargs)
        op.matrix.__class__, op.matrix.count_index = CountingCSR, len(counts)
        counts.append(0)
        return op

    monkeypatch.setattr(spinchannel.eigensolve, "build_chain_hamiltonian", counted)
    return counts


class TestGrownStarts:
    """spectral_data(grow_from=...) and the start vectors it passes to the solver."""

    @pytest.mark.parametrize("length", [6, 8, 12, 14, 16])
    def test_grown_starts_are_pure_singlet_and_triplet(self, length):
        # <S^2> = |S+ v|^2 at m = 0: 0 for the grown |G>, 2 for the grown |T0>
        short = spectral_data(ChainSpec(L=length - 2, J=1.0, Jp=0.1))
        sector = enumerate_sector(length, 0)
        s = (-1) ** (length // 2)
        for sign, vec, s2 in ((s, short.ground, 0.0), (-s, short.triplet, 2.0)):
            block = symmetry_block(length, sign, sign)
            start = expand_to_sector(block, grow_into_block(block, vec))
            _, raised = total_spin_ladder(sector, start, raising=True)
            assert start @ start == pytest.approx(1.0, abs=1e-12)
            assert raised @ raised == pytest.approx(s2, abs=1e-12)

    @pytest.mark.parametrize("length", [14, 16])  # Lanczos blocks; dense ones ignore v0
    @pytest.mark.parametrize("jp", [0.1, 0.5])
    def test_grown_solve_matches_random_start(self, length, jp):
        spec = ChainSpec(L=length, J=1.0, Jp=jp)
        short = spectral_data(ChainSpec(L=length - 2, J=1.0, Jp=jp))
        grown, fresh = spectral_data(spec, grow_from=short), spectral_data(spec)
        for name in ("e0", "e_triplet", "gap", "gzz_ground", "gzz_triplet", "gxx_triplet"):
            assert getattr(grown, name) == pytest.approx(getattr(fresh, name), abs=1e-10)

    @pytest.mark.parametrize("length", [16, 18])
    def test_grown_start_saves_products(self, monkeypatch, in_process_worker, length):
        # the worker's block is solved in process here, so both blocks' products count
        spec = ChainSpec(L=length, J=1.0, Jp=0.1)
        short = spectral_data(ChainSpec(L=length - 2, J=1.0, Jp=0.1))
        counts = _counting_products(monkeypatch)
        spectral_data(spec)
        random_products = sum(counts)
        counts.clear()
        spectral_data(spec, grow_from=short)
        assert len(counts) == 2
        assert sum(counts) < random_products

    def test_random_start_is_the_seeded_vector(self):
        op = build_chain_hamiltonian(ChainSpec(L=14, J=1.0, Jp=0.1), enumerate_sector(14, 0))
        v0 = np.random.default_rng(5).standard_normal(op.dim)
        (seeded,), (given,) = lowest_eigenpairs(op, 1, seed=5), lowest_eigenpairs(op, 1, v0=v0)
        assert seeded.energy == given.energy
        assert seeded.vector.tobytes() == given.vector.tobytes()

    @pytest.mark.parametrize("dim_shift", [0, 1000])  # dense (dim 3) and Lanczos (dim 1003)
    @pytest.mark.parametrize(
        "make", [lambda n: np.ones(n + 1), lambda n: np.ones((n, 1)), lambda n: np.zeros(n),
                 lambda n: np.full(n, np.nan), lambda n: np.r_[np.inf, np.ones(n - 1)]],
        ids=["long", "column", "zero", "nan", "inf"],
    )
    def test_bad_start_vector_raises(self, dim_shift, make):
        dim = 3 + dim_shift
        op = SparseOperator(diags(np.arange(dim, dtype=float)).tocsr())
        with pytest.raises(ValueError, match="start vector"):
            lowest_eigenpairs(op, 1, v0=make(dim))

    @pytest.mark.parametrize("phase", [1j, 1.0 + 1.0j], ids=["imaginary", "complex"])
    def test_complex_start_vector_names_its_dtype(self, phase):
        # the operator is real: a complex start fails before any product, with
        # neither a ComplexWarning nor a silently dropped imaginary part
        op = build_chain_hamiltonian(ChainSpec(L=14, J=1.0, Jp=0.1), symmetry_block(14, 1, 1))

        class NoProducts(csr_matrix):
            def _matmul_vector(self, other):
                raise AssertionError("product taken although the start vector is complex")

        op.matrix.__class__ = NoProducts
        v = np.random.default_rng(5).standard_normal(op.dim)
        with pytest.raises(ValueError, match="start vector must be real, got dtype complex128"):
            lowest_eigenpairs(op, 1, v0=phase * v)

    @pytest.mark.parametrize("phase", [1j, 1.0 + 1.0j], ids=["imaginary", "complex"])
    def test_complex_grow_from_names_its_dtype(self, monkeypatch, phase):
        # the blocks are real: growing a complex L - 2 vector neither warns nor drops
        # its imaginary part, and fails before any assembly
        sd12 = spectral_data(ChainSpec(L=12, J=1.0, Jp=0.1))

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled although the grown vector is complex")

        monkeypatch.setattr(spinchannel.eigensolve, "build_chain_hamiltonian", no_assembly)
        with pytest.raises(ValueError, match="must be real, got dtype complex128"):
            spectral_data(ChainSpec(L=14, J=1.0, Jp=0.1),
                          grow_from=replace(sd12, ground=phase * sd12.ground))
        with pytest.raises(ValueError, match="must be real, got dtype complex128"):
            grow_into_block(symmetry_block(14, 1, 1), phase * sd12.ground)

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (lambda sd: SpectralData(sd.e0, sd.e_triplet, sd.gap, sd.gzz_ground, sd.gzz_triplet,
                                     sd.gxx_triplet), ConfigError, "vectors"),
            (lambda sd: replace(sd, triplet=None), ConfigError, "vectors"),
            (lambda sd: spectral_data(ChainSpec(L=8, J=1.0, Jp=0.1)), DimensionError, "10-site"),
            (lambda sd: spectral_data(ChainSpec(L=12, J=1.0, Jp=0.1)), DimensionError, "10-site"),
            (lambda sd: replace(sd, ground=sd.ground[:-1]), DimensionError, "10-site"),
            (lambda sd: replace(sd, triplet=np.full(sd.triplet.size, np.nan)), ValueError,
             "start vector"),
            (lambda sd: replace(sd, ground=np.zeros(sd.ground.size)), ValueError, "start vector"),
        ],
        ids=["no-vectors", "no-triplet", "L-4", "same-L", "short-vector", "nan", "zero"],
    )
    def test_bad_grow_from_raises_before_assembly(self, monkeypatch, change, error, message):
        grow_from = change(spectral_data(ChainSpec(L=10, J=1.0, Jp=0.1)))

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled although grow_from is invalid")

        monkeypatch.setattr(spinchannel.eigensolve, "build_chain_hamiltonian", no_assembly)
        with pytest.raises(error, match=message):
            spectral_data(ChainSpec(L=12, J=1.0, Jp=0.1), grow_from=grow_from)


def in_process_spectral_data(spec, grow_from=None):
    """spectral_data's result from both block solves in this process, by lowest_eigenpairs."""
    s = (-1) ** (spec.L // 2)
    starts = (None, None) if grow_from is None else (grow_from.ground, grow_from.triplet)
    solved = []
    for sign, short in zip((s, -s), starts):
        block = symmetry_block(spec.L, sign, sign)
        v0 = None if short is None else grow_into_block(block, short)
        (pair,) = lowest_eigenpairs(build_chain_hamiltonian(spec, block), 1, v0=v0)
        solved.append((pair.energy, expand_to_sector(block, pair.vector)))
    (e0, ground), (e_triplet, triplet) = solved
    sector = enumerate_sector(spec.L, 0)
    a, b = spec.site_a, spec.site_b
    zz0, xx0 = (f(sector, triplet, a, b) for f in (pauli_zz_expectation, pauli_xx_expectation))
    return SpectralData(e0=e0, e_triplet=e_triplet, gap=e_triplet - e0,
                        gzz_ground=pauli_zz_expectation(sector, ground, a, b),
                        gzz_triplet=xx0, gxx_triplet=0.5 * (zz0 + xx0),
                        ground=ground, triplet=triplet)


def _solve_by_process(monkeypatch, in_caller, in_worker):
    """Patch lowest_eigenpairs to run in_caller in this process and in_worker in any other."""
    caller, solve = os.getpid(), spinchannel.eigensolve.lowest_eigenpairs

    def split(op, k, tol, **kwargs):
        return (in_caller if os.getpid() == caller else in_worker)(solve, op, k, tol, **kwargs)

    monkeypatch.setattr(spinchannel.eigensolve, "lowest_eigenpairs", split)


class TestWorkerBlock:
    """From _WORKER_MIN_DIM on, T0's block is solved in a forked worker process."""

    def test_crossover_lies_between_the_measured_blocks(self):
        # L = 14 (dim 890) is faster in one process, L = 16 (dim 3,264) with a worker
        dims = [symmetry_block(L, -s, -s).dim for L, s in ((14, -1), (16, 1))]
        assert dims[0] < spinchannel.eigensolve._WORKER_MIN_DIM <= dims[1]

    @pytest.mark.parametrize("length", [16, 18, 20])
    def test_bytes_equal_both_blocks_in_process(self, length):
        spec = ChainSpec(L=length, J=1.0, Jp=0.1)
        short = spectral_data(ChainSpec(L=length - 2, J=1.0, Jp=0.1)) if length == 18 else None
        forked, oracle = spectral_data(spec, grow_from=short), in_process_spectral_data(spec, short)
        for name in ("e0", "e_triplet", "gap", "gzz_ground", "gzz_triplet", "gxx_triplet"):
            assert getattr(forked, name).hex() == getattr(oracle, name).hex()
        assert forked.ground.tobytes() == oracle.ground.tobytes()
        assert forked.triplet.tobytes() == oracle.triplet.tobytes()
        assert multiprocessing.active_children() == []

    def test_worker_convergence_error_arrives_typed(self, monkeypatch):
        # T0's block (dim 3,264 at L = 16) fails at a tol below round-off, wherever it is
        # solved: forked, the error keeps its type and residuals, and gap_sweep skips the
        # length with the warning it writes when both blocks are solved in process.  The
        # step cap, above the <= 80 steps the other solves take, keeps the failure quick
        monkeypatch.setattr(spinchannel.eigensolve, "_LANCZOS_MAX_STEPS", 100)
        t0_dim, solve = symmetry_block(16, -1, -1).dim, spinchannel.eigensolve.lowest_eigenpairs

        def failing_t0(op, k, tol, **kwargs):
            return solve(op, k, 1e-300 if op.dim == t0_dim else tol, **kwargs)

        monkeypatch.setattr(spinchannel.eigensolve, "lowest_eigenpairs", failing_t0)
        with pytest.raises(ConvergenceError, match=f"dim = {t0_dim}") as failure:
            spectral_data(ChainSpec(L=16, J=1.0, Jp=0.1))
        assert len(failure.value.residuals) == 1 and failure.value.residuals[0] > 1e-300
        assert type(failure.value.__cause__).__name__ == "_RemoteTraceback"
        forked = gap_sweep([14, 16, 18], 0.1)
        monkeypatch.setattr(spinchannel.eigensolve, "_WORKER_MIN_DIM", 10**9)
        in_process = gap_sweep([14, 16, 18], 0.1)
        assert forked.skipped == in_process.skipped == (16,)
        assert forked.warnings == in_process.warnings
        assert forked.warnings[0].startswith("L = 16 skipped: Lanczos residual")
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_a_package_error(self, monkeypatch):
        def in_caller(solve, *args, **kwargs):
            return solve(*args, **kwargs)

        def exiting(solve, *args, **kwargs):
            os._exit(3)

        _solve_by_process(monkeypatch, in_caller, exiting)
        with pytest.raises(SpinChainError, match="worker process ended without a result"):
            spectral_data(ChainSpec(L=16, J=1.0, Jp=0.1))
        assert multiprocessing.active_children() == []

    def test_caller_error_does_not_wait_for_the_worker(self, monkeypatch):
        def failing(solve, *args, **kwargs):
            raise ConvergenceError("caller failed", residuals=[1.0])

        def sleeping(solve, *args, **kwargs):
            time.sleep(5.0)
            return solve(*args, **kwargs)

        _solve_by_process(monkeypatch, failing, sleeping)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="caller failed"):
            spectral_data(ChainSpec(L=16, J=1.0, Jp=0.1))
        assert time.perf_counter() - start < 2.5
        assert multiprocessing.active_children() == []

    def test_small_blocks_fork_nothing(self, monkeypatch):
        def no_fork(*args):
            raise AssertionError("a worker was forked for a block below _WORKER_MIN_DIM")

        monkeypatch.setattr(spinchannel.worker, "call_both", no_fork)
        for length in (10, 12, 14):
            spectral_data(ChainSpec(L=length, J=1.0, Jp=0.1))

"""Transfer closed forms vs the three-site oracle, and full-chain dynamics."""

import math
import multiprocessing
import os
import pickle
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import spinchannel.eigensolve
import spinchannel.worker
from spinchannel import transfer
from spinchannel.chain import (
    ChainSpec,
    build_bond_hamiltonian,
    build_chain_hamiltonian,
    build_transfer_hamiltonian,
    chain_bonds,
    enumerate_sector,
)
from spinchannel.eigensolve import SpectralData, lowest_eigenpairs, spectral_data
from spinchannel.errors import (
    ConfigError,
    ConvergenceError,
    FlatCurveError,
    OrderingError,
    PropagationError,
    SpinChainError,
    UnsupportedRegimeError,
)
from spinchannel.thermal import boltzmann_factor
from spinchannel.transfer import (
    EffectiveModel,
    closed_form_fidelity,
    effective_coupling,
    full_chain_transfer,
    max_fidelity,
    numeric_peak,
    optimal_time,
    predicted_peak,
    three_site_oracle,
)

from conftest import (
    dense_transfer_hamiltonian,
    random_pure_qubit,
    rank,
    total_spin_ladder,
    z_signs,
)

G_VALUES = (-1.0, -0.5, 0.0, 1.0 / 3.0)


def commensurate_fidelity(g, u):
    """Four-term cosine form at gamma = j_eff, with u = j_eff * t."""
    return (
        25.0
        - 2.0 * g
        - 6.0 * (1.0 + g) * np.cos(u / 2.0)
        + (6.0 * g - 3.0) * np.cos(u)
        + 2.0 * (1.0 + g) * np.cos(1.5 * u)
    ) / 36.0


class TestClosedFormFidelity:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 2.4])
    @pytest.mark.parametrize("g", G_VALUES)
    def test_starts_at_one_half(self, gamma, g):
        model = EffectiveModel(j_eff=1.0, gamma=gamma, g=g)
        assert closed_form_fidelity(model, 0.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("g", G_VALUES)
    def test_reduces_to_commensurate_form(self, g):
        model = EffectiveModel(j_eff=1.3, gamma=1.3, g=g)
        ts = np.linspace(0.0, 10.0, 300)
        np.testing.assert_allclose(
            closed_form_fidelity(model, ts),
            commensurate_fidelity(g, 1.3 * ts),
            atol=1e-12,
        )

    def test_perfect_transfer_for_singlet(self):
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=-1.0)
        assert closed_form_fidelity(model, np.pi) == pytest.approx(1.0, abs=1e-12)
        assert closed_form_fidelity(model, np.pi / 2.0) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("gamma_ratio", [1.0, 0.5, 1.7])
    @pytest.mark.parametrize("g", G_VALUES)
    def test_matches_three_site_oracle(self, gamma_ratio, g, rng):
        model = EffectiveModel(j_eff=1.0, gamma=gamma_ratio, g=g)
        xi = random_pure_qubit(rng)
        for t in np.linspace(0.0, 4.0 * np.pi, 120):
            assert closed_form_fidelity(model, t) == pytest.approx(
                three_site_oracle(model, t, xi), abs=1e-10
            )

    def test_bounded_in_unit_interval(self):
        for g in np.linspace(-1.0, 1.0 / 3.0, 9):
            model = EffectiveModel(j_eff=1.0, gamma=1.0, g=g)
            fs = closed_form_fidelity(model, np.linspace(0.0, 30.0, 2000))
            assert fs.min() >= -1e-12 and fs.max() <= 1.0 + 1e-12


class TestThreeSiteOracle:
    def test_state_independence(self, rng):
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=-0.4)
        values = [three_site_oracle(model, 2.1, random_pure_qubit(rng)) for _ in range(20)]
        assert max(values) - min(values) <= 1e-12

    def test_time_grid_matches_scalar_times(self, rng):
        model = EffectiveModel(j_eff=1.0, gamma=0.7, g=-0.3)
        xi = random_pure_qubit(rng)
        times = np.linspace(0.0, 9.0, 50)
        expected = [three_site_oracle(model, t, xi) for t in times]
        np.testing.assert_allclose(three_site_oracle(model, times, xi), expected, rtol=0, atol=1e-14)

    def test_half_at_time_zero(self, rng):
        for g in G_VALUES:
            model = EffectiveModel(j_eff=1.0, gamma=0.8, g=g)
            assert three_site_oracle(model, 0.0, random_pure_qubit(rng)) == pytest.approx(
                0.5, abs=1e-12
            )


class TestOptimalTime:
    def test_singlet_value(self):
        model = EffectiveModel(j_eff=2.0, gamma=2.0, g=-1.0)
        assert optimal_time(model) == pytest.approx(np.pi / 2.0, abs=1e-14)

    def test_series_matches_closed_form_across_switch(self):
        j = 1.0
        inside = EffectiveModel(j_eff=j, gamma=j, g=-1.0 + 9e-7)
        outside = EffectiveModel(j_eff=j, gamma=j, g=-1.0 + 2e-6)
        diff = abs(optimal_time(inside) - optimal_time(outside))
        assert diff <= (2.0 / 3.0) * 1.2e-6  # slope (2/3)/j near g = -1

    @pytest.mark.parametrize("u", [1e-7, 5e-7, 9e-7])
    def test_matches_second_order_series_near_singlet(self, u):
        # t* = pi + (2/3)u + (4/9)u^2 + O(u^3) at j = 1; u^3 is below the last bit of pi
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=-1.0 + u)
        assert abs(optimal_time(model) - (np.pi + 2.0 * u / 3.0 + 4.0 * u * u / 9.0)) <= 1e-15

    def test_raw_quotient_agreement(self):
        # conjugate form must equal the raw arccos argument away from g = -1
        for g in (-0.9, -0.5, 0.0, 0.25, 1.0 / 3.0):
            model = EffectiveModel(j_eff=1.0, gamma=1.0, g=g)
            raw = (1.0 - 2.0 * g - np.sqrt(12.0 * g * g + 12.0 * g + 9.0)) / (
                4.0 * (1.0 + g)
            )
            assert optimal_time(model) == pytest.approx(2.0 * np.arccos(raw), abs=1e-13)

    @pytest.mark.parametrize("g", G_VALUES)
    def test_is_a_local_maximum(self, g):
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=g)
        t_star = optimal_time(model)
        f_star = closed_form_fidelity(model, t_star)
        eps = 1e-4
        assert closed_form_fidelity(model, t_star - eps) <= f_star + 1e-12
        assert closed_form_fidelity(model, t_star + eps) <= f_star + 1e-12

    def test_non_commensurate_rejected(self):
        model = EffectiveModel(j_eff=1.0, gamma=0.5, g=0.0)
        with pytest.raises(UnsupportedRegimeError):
            optimal_time(model)


class TestMaxFidelity:
    def test_worst_case_is_seven_eighths(self):
        assert max_fidelity(0.0) == 7.0 / 8.0

    def test_perfect_for_singlet(self):
        assert max_fidelity(-1.0) == 1.0

    def test_never_below_seven_eighths(self):
        for g in np.linspace(-1.0, 1.0 / 3.0, 100):
            assert max_fidelity(g) >= 7.0 / 8.0 - 1e-12

    def test_shape_minimum_at_zero(self):
        gs = np.linspace(-1.0, 0.0, 60)
        values = [max_fidelity(g) for g in gs]
        assert np.all(np.diff(values) <= 1e-12)
        gs = np.linspace(0.0, 1.0 / 3.0, 30)
        values = [max_fidelity(g) for g in gs]
        assert np.all(np.diff(values) >= -1e-12)

    @pytest.mark.parametrize("g", [-0.5, 0.0, 1.0 / 3.0])
    def test_agrees_with_numeric_peak(self, g):
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=g)
        _, f_num = numeric_peak(model, 4.0 * np.pi)
        assert max_fidelity(g) == pytest.approx(f_num, abs=1e-8)

    def test_series_continuity_at_switch(self):
        # near g = -1 the closed form must agree with its second-order
        # series (series error there is O(u^3))
        for u in (2e-6, 1e-5, 1e-4):
            g = -1.0 + u
            series = 1.0 - (2.0 / 9.0) * u + u * u / 18.0
            assert max_fidelity(g) == pytest.approx(series, abs=1e-12)

    def test_raw_quotient_agreement(self):
        # conjugate form must equal the raw quotient away from g = -1
        for g in (-0.9, -0.6, -0.51):
            x = 4.0 * g * g + 4.0 * g + 3.0
            raw = (np.sqrt(3.0 * x**3) + 24.0 * g * g + 66.0 * g + 33.0) / (
                48.0 * (1.0 + g) ** 2
            )
            assert max_fidelity(g) == pytest.approx(raw, rel=1e-11)


class TestNumericPeak:
    def test_singlet_peak(self):
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=-1.0)
        t_star, f_star = numeric_peak(model, 4.0 * np.pi)
        assert t_star == pytest.approx(np.pi, abs=1e-7)
        assert f_star == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_forms(self):
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=0.0)
        t_star, f_star = numeric_peak(model, 4.0 * np.pi)
        assert t_star == pytest.approx(optimal_time(model), abs=1e-6)
        assert f_star == pytest.approx(7.0 / 8.0, abs=1e-8)

    def test_incommensurate_revival_imperfect(self):
        model = EffectiveModel(j_eff=1.0, gamma=0.5, g=-1.0)
        _, f_star = numeric_peak(model, 8.0 * np.pi)
        assert f_star < 1.0 - 1e-3

    def test_flat_curve_raises(self):
        model = EffectiveModel(j_eff=1.0, gamma=0.0, g=-0.2)  # decoupled sender
        with pytest.raises(FlatCurveError):
            numeric_peak(model, 10.0)


class TestEffectiveCoupling:
    @pytest.mark.parametrize("gamma", [-0.1, float("nan"), float("inf")])
    def test_bad_gamma_rejected(self, gamma):
        # each bad gamma is a bad j_eff and a bad numeric_peak t_max as well
        with pytest.raises(ValueError, match="gamma"):
            EffectiveModel(j_eff=1.0, gamma=gamma, g=-1.0)
        with pytest.raises(ValueError, match="j_eff"):
            EffectiveModel(j_eff=gamma, gamma=1.0, g=-1.0)
        with pytest.raises(ValueError, match="t_max"):
            numeric_peak(EffectiveModel(j_eff=1.0, gamma=1.0, g=-1.0), gamma)

    def test_jeff_is_the_gap(self):
        spec = ChainSpec(L=8, Jp=0.2)
        sd = spectral_data(spec)
        model = effective_coupling(sd)
        assert model.j_eff == pytest.approx(sd.gap, abs=1e-12)
        assert model.g == pytest.approx(sd.gzz_ground, abs=1e-12)
        assert model.gamma == pytest.approx(sd.gap)  # "auto"

    def test_perturbative_scaling_of_jeff(self):
        strong_spec = ChainSpec(L=8, Jp=0.2)
        weak_spec = ChainSpec(L=8, Jp=0.1)
        strong = effective_coupling(spectral_data(strong_spec)).j_eff
        weak = effective_coupling(spectral_data(weak_spec)).j_eff
        assert 3.0 < strong / weak < 5.5  # ~4x from the quadratic prefactor

    def test_finite_temperature_g(self):
        spec = ChainSpec(L=8, Jp=0.2)
        sd = spectral_data(spec)
        model = effective_coupling(sd, temperature=sd.gap)
        assert model.g > sd.gzz_ground


class TestPredictedPeak:
    def test_starts_at_half_and_finds_peak(self):
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=-0.8)
        assert closed_form_fidelity(model, 0.0) == pytest.approx(0.5, abs=1e-12)
        t_star, f_star = predicted_peak(model)
        t_scan, f_scan = numeric_peak(model, 4.0 * np.pi)
        assert f_star == pytest.approx(max_fidelity(-0.8), abs=1e-8)
        assert f_scan == pytest.approx(f_star, abs=1e-8)
        assert t_scan == pytest.approx(t_star, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 2.0])
    def test_first_maximum_away_from_commensurate_point(self, gamma):
        model = EffectiveModel(j_eff=1.0, gamma=gamma, g=-0.8)
        t_star, f_star = predicted_peak(model)
        assert 0.0 < t_star < 8.0 * np.pi / min(1.0, gamma)
        assert f_star == closed_form_fidelity(model, t_star)
        assert closed_form_fidelity(model, t_star - 1e-3) < f_star
        assert closed_form_fidelity(model, t_star + 1e-3) < f_star


def dense_mixture_theta(spec, gamma, temperature, times):
    """theta(t) of the truncated four-state mixture, sender up, by dense eigh evolution."""
    sector0 = enumerate_sector(spec.L, 0)
    pairs0 = lowest_eigenpairs(build_chain_hamiltonian(spec, sector0), 2, 1e-12)
    branches = [(sector0, pairs0[0].vector, 1.0)]
    if temperature > 0.0:
        triplet = [(sector0, pairs0[1].vector)]
        energies = []
        for tsz in (2, -2):
            sector = enumerate_sector(spec.L, tsz)
            (pair,) = lowest_eigenpairs(build_chain_hamiltonian(spec, sector), 1, 1e-12)
            triplet.append((sector, pair.vector))
            energies.append(pair.energy)
        x = np.exp(-(energies[0] - pairs0[0].energy) / temperature)
        branches = [(sector0, pairs0[0].vector, 1.0 / (1.0 + 3.0 * x))]
        branches += [(sector, vec, x / (1.0 + 3.0 * x)) for sector, vec in triplet]
    theta = np.zeros(len(times))
    for sector, vec, weight in branches:
        full_sector = enumerate_sector(spec.L + 1, sector.twice_sz + 1)
        h = build_transfer_hamiltonian(spec, full_sector, gamma).matrix.toarray()
        psi0 = np.zeros(full_sector.dim, dtype=complex)
        psi0[rank(full_sector, (sector.basis << np.uint64(1)) | np.uint64(1))] = vec
        signs = z_signs(full_sector, spec.L)
        w, v = np.linalg.eigh(h)
        for k, t in enumerate(times):
            psi_t = (v * np.exp(-1j * w * t)) @ (v.conj().T @ psi0)
            theta[k] += weight * float(np.dot(np.abs(psi_t) ** 2, signs))
    return theta


class TestFullChainTransfer:
    def test_matches_dense_evolution(self):
        spec = ChainSpec(L=4, Jp=0.5)
        times = np.linspace(0.0, 25.0, 40)
        curve = full_chain_transfer(
            spec, 0.0, times, krylov_tol=1e-12, gamma=0.3, spectral=spectral_data(spec)
        )
        expected = dense_mixture_theta(spec, 0.3, 0.0, times)
        np.testing.assert_allclose(curve.thetas, expected, atol=1e-10)

    def test_finite_temperature_matches_dense(self):
        spec = ChainSpec(L=4, Jp=0.5)
        times = np.linspace(0.0, 15.0, 25)
        curve = full_chain_transfer(
            spec, 0.2, times, krylov_tol=1e-12, gamma=0.3, spectral=spectral_data(spec)
        )
        expected = dense_mixture_theta(spec, 0.3, 0.2, times)
        np.testing.assert_allclose(curve.thetas, expected, atol=1e-10)

    @pytest.mark.parametrize("temperature", [0.0, 0.2])
    def test_truncated_krylov_matches_dense(self, monkeypatch, temperature):
        # L = 8: the sector dim 126 exceeds _KRYLOV_DIM = 30, so the Lanczos basis is
        # truncated; each grid step (r dt = 31.5) is tried whole, with no reach to cut it
        # in two, so the error estimate halves dt
        monkeypatch.setattr(transfer, "_KRYLOV_REACH", math.inf)
        steps = []
        krylov_step = transfer._krylov_step

        def recorded(matrix, psi, dt_req, tol, basis):
            psi_new, dt_done = krylov_step(matrix, psi, dt_req, tol, basis)
            steps.append((psi.size, dt_done < dt_req))
            return psi_new, dt_done

        monkeypatch.setattr(transfer, "_krylov_step", recorded)
        spec = ChainSpec(L=8, Jp=0.5)
        times = np.linspace(0.0, 80.0, 9)
        curve = full_chain_transfer(
            spec, temperature, times, krylov_tol=1e-12, gamma=0.3, spectral=spectral_data(spec)
        )
        assert min(dim for dim, _ in steps) > 30
        assert any(halved for _, halved in steps)
        np.testing.assert_allclose(
            curve.thetas, dense_mixture_theta(spec, 0.3, temperature, times), atol=1e-10
        )

    def test_decoupled_sender_constant_theta(self):
        spec = ChainSpec(L=4, Jp=0.5)
        curve = full_chain_transfer(
            spec, 0.0, np.linspace(0.0, 30.0, 16), gamma=0.0, spectral=spectral_data(spec)
        )
        assert np.max(np.abs(curve.thetas - curve.thetas[0])) <= 1e-10
        assert curve.fidelities[0] == pytest.approx(0.5, abs=1e-10)

    def test_one_transfer_sector_per_run(self, monkeypatch, in_process_worker):
        # the whole T > 0 mixture lives in the up sender's 2Sz = +1 sector; the
        # caller (G) and the worker (T0) each build that sector's matrix
        built = []
        build = transfer.build_transfer_hamiltonian

        def recorded(spec, sector, gamma):
            built.append(sector.twice_sz)
            return build(spec, sector, gamma)

        monkeypatch.setattr(transfer, "build_transfer_hamiltonian", recorded)
        spec = ChainSpec(L=8, Jp=0.5)
        full_chain_transfer(
            spec, 0.2, np.linspace(0.0, 10.0, 5), gamma=0.3, spectral=spectral_data(spec)
        )
        assert built == [1, 1]

    def test_enumerates_only_its_own_sector(self, monkeypatch, in_process_worker):
        # the chain state is placed by a bit mask, not ranked from an L-site enumeration
        enumerated = []
        enumerate_own = transfer.enumerate_sector

        def recorded(n_sites, twice_sz):
            enumerated.append((n_sites, twice_sz))
            return enumerate_own(n_sites, twice_sz)

        spec = ChainSpec(L=8, Jp=0.5)
        sd = spectral_data(spec)
        monkeypatch.setattr(transfer, "enumerate_sector", recorded)
        for temperature in (0.0, 0.2):
            full_chain_transfer(spec, temperature, np.linspace(0.0, 10.0, 5), gamma=0.3,
                                spectral=sd)
        assert enumerated and set(enumerated) == {(9, 1)}

    @pytest.mark.parametrize("length", range(4, 20, 2))
    def test_sender_up_rows_are_the_ranked_chain_basis(self, length):
        # the sorted 2Sz = +1 sector of L + 1 sites lists the patterns with the sender
        # (bit 0) up in the order of the L-site m = 0 basis shifted up one bit, and
        # holds no bit above B = bit L
        sector = enumerate_sector(length + 1, 1)
        chain_basis = enumerate_sector(length, 0).basis
        ranked = rank(sector, (chain_basis << np.uint64(1)) | np.uint64(1))
        np.testing.assert_array_equal(np.flatnonzero(sector.basis & np.uint64(1)), ranked)
        top = np.where(sector.basis >> np.uint64(length), 1.0, -1.0)
        np.testing.assert_array_equal(top, z_signs(sector, length))

    @pytest.mark.parametrize("temperature, trajectories", [(0.0, 2), (0.2, 2)])
    def test_trajectories_per_run(self, monkeypatch, in_process_worker, temperature, trajectories):
        # at T = 0 two segments of G's grid that cover it exactly once, the second
        # reached by a jump; at T > 0 ground and T0 whole, the S+ branch follows from
        # T0's.  The in-process pool keeps the worker's trajectory where the count can see it.
        started, segments = [], []
        trajectory, branch_theta = transfer._trajectory, transfer._branch_theta

        def recorded(matrix, psi, times, tol, radius):
            started.append(psi.size)
            return trajectory(matrix, psi, times, tol, radius)

        def recorded_branch(spec, gamma, vector, times, *args):
            segments.append(times)
            return branch_theta(spec, gamma, vector, times, *args)

        monkeypatch.setattr(transfer, "_trajectory", recorded)
        monkeypatch.setattr(transfer, "_branch_theta", recorded_branch)
        spec = ChainSpec(L=6, Jp=0.5)
        grid = np.linspace(0.0, 10.0, 5)
        full_chain_transfer(spec, temperature, grid, gamma=0.3, spectral=spectral_data(spec))
        assert len(started) == trajectories
        if temperature == 0.0:
            head, tail = sorted(segments, key=lambda times: times[0])
            assert head[0] == 0.0 < tail[0]
            np.testing.assert_array_equal(np.concatenate((head, tail)), grid)
        else:
            assert all(np.array_equal(times, grid) for times in segments)

    def test_triplet_without_flip_parity_raises_before_assembly(self, monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("transfer Hamiltonian assembled for a triplet of wrong parity")

        monkeypatch.setattr(transfer, "build_transfer_hamiltonian", no_assembly)
        for length in (6, 8):
            spec = ChainSpec(L=length, Jp=0.5)
            sd = spectral_data(spec)
            block_sign = -((-1) ** (length // 2))
            # G and T0 have spin-flip parities s and -s: their sum has <F> = 0, and G
            # in T0's slot has |<F>| = 1 with the wrong sign, which a +-1 check passed
            for triplet in ((sd.ground + sd.triplet) / np.sqrt(2.0), sd.ground):
                with pytest.raises(OrderingError, match=f"not its block's -s = {block_sign}$"):
                    full_chain_transfer(spec, 0.2, np.linspace(0.0, 10.0, 5), gamma=0.3,
                                        spectral=replace(sd, triplet=triplet))

    def test_flip_ladder_is_ladder_after_reversal(self, rng):
        # F maps the 2Sz = +1 sector onto -1 by reversing the sorted basis
        sector = enumerate_sector(7, 1)
        vec = rng.standard_normal(sector.dim)
        target, image = total_spin_ladder(enumerate_sector(7, -1), vec[::-1], raising=True)
        assert target.twice_sz == 1
        np.testing.assert_allclose(
            vec[transfer._flip_ladder(sector)].sum(axis=0), image, rtol=0.0, atol=1e-14
        )

    @pytest.mark.parametrize("krylov_tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_krylov_tol_fails_before_any_solve(self, monkeypatch, krylov_tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("work started although krylov_tol is invalid")

        monkeypatch.setattr(transfer, "build_transfer_hamiltonian", no_solve)
        monkeypatch.setattr(spinchannel.worker, "call_both", no_solve)
        spec = ChainSpec(L=4, Jp=0.5)
        sd = spectral_data(spec)
        with pytest.raises(ValueError, match="krylov_tol"):
            full_chain_transfer(
                spec, 0.0, np.linspace(0.0, 1.0, 5), krylov_tol, gamma=0.1, spectral=sd
            )

    def test_requires_gamma_and_valid_grid(self):
        spec = ChainSpec(L=4, Jp=0.5)
        sd = spectral_data(spec)
        with pytest.raises(TypeError, match="gamma"):  # keyword-only, no default
            full_chain_transfer(spec, 0.0, np.linspace(0.0, 1.0, 5), spectral=sd)
        with pytest.raises(ValueError):  # must start at 0
            full_chain_transfer(spec, 0.0, np.linspace(1.0, 2.0, 5), gamma=0.1, spectral=sd)
        with pytest.raises(ValueError):
            full_chain_transfer(spec, -0.1, np.linspace(0.0, 1.0, 5), gamma=0.1, spectral=sd)

    def test_requires_spectral_vectors_of_the_chain(self):
        spec = ChainSpec(L=4, Jp=0.5)
        times = np.linspace(0.0, 1.0, 5)
        sd = spectral_data(spec)
        scalars_only = SpectralData(
            e0=sd.e0, e_triplet=sd.e_triplet, gap=sd.gap, gzz_ground=sd.gzz_ground,
            gzz_triplet=sd.gzz_triplet, gxx_triplet=sd.gxx_triplet,
        )
        other_length = spectral_data(ChainSpec(L=6, Jp=0.5))
        for spectral in (scalars_only, other_length):
            with pytest.raises(ConfigError):
                full_chain_transfer(spec, 0.0, times, gamma=0.1, spectral=spectral)

    @pytest.mark.parametrize("triplet_length", [None, 6])
    def test_requires_the_triplet_vector_at_finite_temperature(self, monkeypatch, triplet_length):
        def no_assembly(*args, **kwargs):
            raise AssertionError("transfer Hamiltonian assembled although the triplet is unfit")

        monkeypatch.setattr(transfer, "build_transfer_hamiltonian", no_assembly)
        spec = ChainSpec(L=4, Jp=0.5)
        sd = spectral_data(spec)
        if triplet_length is None:
            sd = replace(sd, triplet=None)
        else:
            sd = replace(sd, triplet=spectral_data(ChainSpec(L=triplet_length, Jp=0.5)).triplet)
        with pytest.raises(ConfigError, match="with state vectors"):
            full_chain_transfer(spec, 0.1, np.linspace(0.0, 1.0, 5), gamma=0.1, spectral=sd)

    def test_agrees_with_effective_model_at_weak_coupling(self):
        # small version of the headline comparison (L = 6 keeps it quick)
        spec = ChainSpec(L=6, Jp=0.1)
        sd = spectral_data(spec)
        model = EffectiveModel(j_eff=sd.gap, gamma=sd.gap, g=sd.gzz_ground)
        t_pred = optimal_time(model)
        f_pred = max_fidelity(sd.gzz_ground)
        times = np.linspace(0.0, 1.3 * t_pred, 500)
        curve = full_chain_transfer(spec, 0.0, times, gamma=sd.gap, spectral=sd)
        assert abs(curve.f_star - f_pred) < 0.05
        assert abs(curve.t_star - t_pred) / t_pred < 0.1
        # flying-qubit bound: information cannot arrive faster than the
        # excitations carrying it, so t* >= L/2 (units of 1/J) inside the validity window
        assert curve.t_star >= 0.5 * spec.L


def lockstep_theta(spec, gamma, temperature, times, sd, tol=1e-10):
    """T > 0 theta with G and T0 advanced together in this process, combined per grid point."""
    sector = enumerate_sector(spec.L + 1, 1)
    matrix = build_transfer_hamiltonian(spec, sector, gamma).matrix
    psi0 = np.zeros((2, sector.dim), dtype=complex)
    chain_basis = enumerate_sector(spec.L, 0).basis
    psi0[:, rank(sector, (chain_basis << np.uint64(1)) | np.uint64(1))] = sd.ground, sd.triplet
    signs = z_signs(sector, spec.L)
    ladder = transfer._flip_ladder(sector)
    parity = float(np.dot(sd.triplet, sd.triplet[::-1]))
    x = math.exp(-sd.gap / temperature)
    w0, w = 1.0 / (1.0 + 3.0 * x), x / (1.0 + 3.0 * x)
    radius = transfer._spectral_interval(spec, gamma)[1]
    pairs = zip(transfer._trajectory(matrix, psi0[0], times, tol, radius),
                transfer._trajectory(matrix, psi0[1], times, tol, radius))
    return np.array([
        w0 * np.vdot(g, signs * g).real
        + w * np.vdot(t + 2.0 * parity * t[ladder].sum(axis=0), signs * t).real
        for g, t in pairs
    ])


class TestWorkerProcess:
    """One worker process: T0's trajectory at T > 0, the second segment of G's at T = 0."""

    @pytest.mark.parametrize("temperature", [0.2, 1e-3])
    @pytest.mark.parametrize("length", [6, 8, 10])
    def test_theta_bitwise_equals_both_branches_in_process(self, length, temperature):
        # Jp = 0.1 keeps the gap near 4e-3, so the triplet weight is not 0 at T = 1e-3
        spec = ChainSpec(L=length, Jp=0.1)
        sd = spectral_data(spec)
        times = np.linspace(0.0, 400.0, 41)
        curve = full_chain_transfer(spec, temperature, times, gamma=sd.gap, spectral=sd)
        expected = lockstep_theta(spec, sd.gap, temperature, times, sd)
        assert curve.thetas.tobytes() == expected.tobytes()

    def test_worker_error_arrives_typed_and_no_process_is_left(self, monkeypatch):
        # the caller propagates G at a reachable tol, so only T0's worker can fail
        caller, trajectory = os.getpid(), transfer._trajectory

        def reachable_in_caller(matrix, psi, times, tol, radius):
            own_tol = 1e-10 if os.getpid() == caller else tol
            return trajectory(matrix, psi, times, own_tol, radius)

        monkeypatch.setattr(transfer, "_trajectory", reachable_in_caller)
        spec = ChainSpec(L=6, Jp=0.5)
        sd = spectral_data(spec)
        times = np.linspace(0.0, 10.0, 5)
        full_chain_transfer(spec, 0.2, times, gamma=0.3, spectral=sd)
        assert multiprocessing.active_children() == []
        with pytest.raises(PropagationError, match="tol = 1e-300") as failure:
            full_chain_transfer(spec, 0.2, times, 1e-300, gamma=0.3, spectral=sd)
        assert type(failure.value.__cause__).__name__ == "_RemoteTraceback"
        assert multiprocessing.active_children() == []

    def test_caller_error_joins_the_worker(self, monkeypatch):
        # the caller's trajectory fails at once while the worker's sleeps 5 s:
        # the error must not wait for the worker, and the worker must be gone
        caller, trajectory = os.getpid(), transfer._trajectory

        def failing_in_caller(matrix, psi, times, tol, radius):
            if os.getpid() == caller:
                raise PropagationError("caller failed")
            time.sleep(5.0)
            return trajectory(matrix, psi, times, tol, radius)

        monkeypatch.setattr(transfer, "_trajectory", failing_in_caller)
        spec = ChainSpec(L=6, Jp=0.5)
        sd = spectral_data(spec)
        start = time.perf_counter()
        with pytest.raises(PropagationError, match="caller failed"):
            full_chain_transfer(spec, 0.2, np.linspace(0.0, 10.0, 5), gamma=0.3, spectral=sd)
        assert time.perf_counter() - start < 2.5
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_a_package_error(self, monkeypatch):
        # a worker that exits without a Python exception closes the pipe unwritten
        caller, trajectory = os.getpid(), transfer._trajectory

        def exiting_in_worker(matrix, psi, times, tol, radius):
            if os.getpid() != caller:
                os._exit(3)
            return trajectory(matrix, psi, times, tol, radius)

        monkeypatch.setattr(transfer, "_trajectory", exiting_in_worker)
        spec = ChainSpec(L=6, Jp=0.5)
        sd = spectral_data(spec)
        with pytest.raises(SpinChainError, match="worker") as failure:
            full_chain_transfer(spec, 0.2, np.linspace(0.0, 10.0, 5), gamma=0.3, spectral=sd)
        assert isinstance(failure.value.__cause__, EOFError)
        assert multiprocessing.active_children() == []

    def test_zero_temperature_worker_rules(self, monkeypatch):
        # the worker's segment at T = 0 keeps the rules: a worker error arrives typed, a
        # caller error ends the worker at once, a dead worker raises a package error
        spec = ChainSpec(L=6, Jp=0.5)
        sd = spectral_data(spec)
        times = np.linspace(0.0, 10.0, 5)
        caller, trajectory = os.getpid(), transfer._trajectory

        def reachable_in_caller(matrix, psi, times, tol, radius):
            own_tol = 1e-10 if os.getpid() == caller else tol
            return trajectory(matrix, psi, times, own_tol, radius)

        monkeypatch.setattr(transfer, "_trajectory", reachable_in_caller)
        with pytest.raises(PropagationError, match="Chebyshev jump cannot meet tol") as failure:
            full_chain_transfer(spec, 0.0, times, 1e-300, gamma=0.3, spectral=sd)
        assert type(failure.value.__cause__).__name__ == "_RemoteTraceback"
        assert multiprocessing.active_children() == []

        def failing_in_caller(matrix, psi, times, tol, radius):
            if os.getpid() == caller:
                raise PropagationError("caller failed")
            time.sleep(5.0)
            return trajectory(matrix, psi, times, tol, radius)

        monkeypatch.setattr(transfer, "_trajectory", failing_in_caller)
        start = time.perf_counter()
        with pytest.raises(PropagationError, match="caller failed"):
            full_chain_transfer(spec, 0.0, times, gamma=0.3, spectral=sd)
        assert time.perf_counter() - start < 2.5
        assert multiprocessing.active_children() == []

        def exiting_in_worker(matrix, psi, times, tol, radius):
            if os.getpid() != caller:
                os._exit(3)
            return trajectory(matrix, psi, times, tol, radius)

        monkeypatch.setattr(transfer, "_trajectory", exiting_in_worker)
        with pytest.raises(SpinChainError, match="worker") as failure:
            full_chain_transfer(spec, 0.0, times, gamma=0.3, spectral=sd)
        assert isinstance(failure.value.__cause__, EOFError)
        assert multiprocessing.active_children() == []

    def test_package_errors_survive_pickling(self):
        error = pickle.loads(pickle.dumps(ConvergenceError("no convergence", residuals=[1e-3])))
        assert type(error) is ConvergenceError
        assert error.residuals == [1e-3]
        assert str(error) == "no convergence"

    def test_zero_temperature_starts_one_worker(self, monkeypatch):
        # G's grid is split between the caller and one forked worker, which is gone after
        forks, fork = [], multiprocessing.context.ForkProcess.start

        def recorded(process):
            forks.append(process)
            return fork(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recorded)
        spec = ChainSpec(L=6, Jp=0.5)
        full_chain_transfer(
            spec, 0.0, np.linspace(0.0, 10.0, 5), gamma=0.3, spectral=spectral_data(spec)
        )
        assert len(forks) == 1
        assert multiprocessing.active_children() == []

    def test_underflowing_temperature_runs_the_zero_temperature_plan(self, monkeypatch):
        # at T = 1e-9 the triplet's factor exp(-gap/T) is 0.0: no weightless T0 trajectory,
        # but the split of G's grid, with the bits of T = 0
        splits, split_index = [], transfer._split_index

        def recorded(times, radius):
            splits.append(times.size)
            return split_index(times, radius)

        monkeypatch.setattr(transfer, "_split_index", recorded)
        spec = ChainSpec(L=6, Jp=0.5)
        sd = spectral_data(spec)
        times = np.linspace(0.0, 10.0, 9)
        assert boltzmann_factor(sd, 1e-9) == 0.0
        cold, tiny = (full_chain_transfer(spec, temperature, times, gamma=0.3, spectral=sd)
                      for temperature in (0.0, 1e-9))
        assert splits == [9, 9]
        assert tiny.thetas.tobytes() == cold.thetas.tobytes()

    @pytest.mark.parametrize("length, jp, points", [(8, 0.1, 300), (10, 0.1, 300), (12, 0.1, 300),
                                                    (10, 0.03, 600)],
                             ids=["8", "10", "12", "10-jp0.03"])
    def test_split_theta_equals_one_trajectory_in_process(self, length, jp, points):
        # the caller's segment is the unsplit trajectory's to the bit; the worker's,
        # reached by a Chebyshev jump, agrees to 1e-10.  At Jp = 0.03 a grid step takes
        # 4 Krylov steps, and the jump has z ~ 3.2e4
        spec = ChainSpec(L=length, Jp=jp)
        sd = spectral_data(spec)
        times = np.linspace(0.0, 1.35 * np.pi / sd.gap, points)
        curve = full_chain_transfer(spec, 0.0, times, gamma=sd.gap, spectral=sd)
        unsplit = transfer._branch_theta(spec, sd.gap, sd.ground, times, transfer.DEFAULT_KRYLOV_TOL)
        split = transfer._split_index(times, transfer._spectral_interval(spec, sd.gap)[1])
        assert 0 < split < times.size - 1
        assert curve.thetas[:split].tobytes() == unsplit[:split].tobytes()
        np.testing.assert_allclose(curve.thetas, unsplit, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "temperature, times, gamma, match",
        [
            (float("nan"), [0.0, 1.0, 2.0, 3.0], 0.1, "temperature"),
            (float("inf"), [0.0, 1.0, 2.0, 3.0], 0.1, "temperature"),
            (0.2, [0.0, 1.0, float("nan"), 3.0], 0.1, "finite"),
            (0.2, [0.0, 1.0, 2.0, float("inf")], 0.1, "finite"),
            (0.2, [0.0, 1.0, 2.0, 3.0], -0.1, "gamma must be >= 0 and finite"),
            (0.2, [0.0, 1.0, 2.0, 3.0], float("nan"), "gamma must be >= 0 and finite"),
            (0.2, [0.0, 1.0, 2.0, 3.0], float("inf"), "gamma must be >= 0 and finite"),
            (0.0, [0.0, 1.0, float("nan"), 3.0], 0.1, "finite"),
            (0.0, [0.0, 1.0, 2.0, float("inf")], 0.1, "finite"),
            (0.0, [0.0, 1.0, 2.0, 3.0], -0.1, "gamma must be >= 0 and finite"),
            (0.0, [0.0, 1.0, 2.0, 3.0], float("nan"), "gamma must be >= 0 and finite"),
            (0.0, [0.0, 1.0, 2.0, 3.0], float("inf"), "gamma must be >= 0 and finite"),
        ],
        ids=["T-nan", "T-inf", "t-nan", "t-inf", "gamma-negative", "gamma-nan", "gamma-inf",
             "T0-t-nan", "T0-t-inf", "T0-gamma-negative", "T0-gamma-nan", "T0-gamma-inf"],
    )
    def test_non_finite_input_fails_before_any_work(self, monkeypatch, temperature, times, gamma,
                                                    match):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although an input is invalid")

        monkeypatch.setattr(transfer, "build_transfer_hamiltonian", no_work)
        monkeypatch.setattr(spinchannel.worker, "call_both", no_work)
        spec = ChainSpec(L=4, Jp=0.5)
        with pytest.raises(ValueError, match=match):
            full_chain_transfer(spec, temperature, times, gamma=gamma, spectral=spectral_data(spec))


def krylov_basis(psi):
    """A trajectory's reusable (_KRYLOV_DIM, dim) basis buffer for psi's sector."""
    return np.empty((transfer._KRYLOV_DIM, psi.size), dtype=complex)


class TestKrylovStep:
    @staticmethod
    def random_symmetric(rng, dim=40):
        a = rng.standard_normal((dim, dim))
        return a + a.T

    def test_unreachable_tol_raises(self, rng):
        matrix = self.random_symmetric(rng)
        psi = rng.standard_normal(matrix.shape[0]).astype(complex)
        with pytest.raises(PropagationError):
            transfer._krylov_step(matrix, psi, 1.0, 0.0, krylov_basis(psi))

    def test_one_recurrence_of_full_dimension_per_step(self, monkeypatch, rng):
        class CountingMatrix:
            def __init__(self, matrix):
                self.matrix, self.products = matrix, 0

            def __matmul__(self, v):
                self.products += 1
                return self.matrix @ v

        assert transfer._lanczos_vectors is spinchannel.eigensolve._lanczos_vectors
        recurrences = []

        def counted(*args, **kwargs):
            recurrences.append(args)
            return spinchannel.eigensolve._lanczos_vectors(*args, **kwargs)

        monkeypatch.setattr(transfer, "_lanczos_vectors", counted)
        spec = ChainSpec(L=8, Jp=0.5)
        matrix = CountingMatrix(
            build_transfer_hamiltonian(spec, enumerate_sector(9, 1), 0.3).matrix
        )
        psi = rng.standard_normal(126) + 1j * rng.standard_normal(126)
        psi /= np.linalg.norm(psi)
        for dt_req in (0.7, 40.0):
            psi, dt_done = transfer._krylov_step(matrix, psi, dt_req, 1e-12, krylov_basis(psi))
        assert dt_done < 40.0  # halving dt reuses the step's one basis
        assert len(recurrences) == 2
        assert matrix.products == 2 * transfer._KRYLOV_DIM

    def test_step_allocates_a_few_vectors_not_a_basis(self, rng):
        # the trajectory's one (_KRYLOV_DIM, dim) buffer holds the basis; a step itself
        # allocates the recurrence's product and psi_new, not _KRYLOV_DIM vectors
        spec = ChainSpec(L=12, Jp=0.5)
        matrix = build_transfer_hamiltonian(spec, enumerate_sector(13, 1), 0.3).matrix
        psi = rng.standard_normal(matrix.shape[0]) + 1j * rng.standard_normal(matrix.shape[0])
        psi /= np.linalg.norm(psi)
        basis = krylov_basis(psi)
        expected, _ = transfer._krylov_step(matrix, psi, 0.5, 1e-10, krylov_basis(psi))
        tracemalloc.start()
        try:
            psi_new, _ = transfer._krylov_step(matrix, psi, 0.5, 1e-10, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi_new.tobytes() == expected.tobytes()
        assert peak < 3 * psi.nbytes

    def test_eigenvector_breaks_down_and_takes_full_step(self, rng):
        matrix = self.random_symmetric(rng)
        energies, modes = np.linalg.eigh(matrix)
        psi = modes[:, 3].astype(complex)
        psi_new, dt_done = transfer._krylov_step(matrix, psi, 2.5, 1e-12, krylov_basis(psi))
        assert dt_done == 2.5
        np.testing.assert_allclose(psi_new, np.exp(-2.5j * energies[3]) * psi, atol=1e-12)

    def test_transfer_matrix_is_complex_copy_of_real_assembly(self):
        spec = ChainSpec(L=8, Jp=0.5)
        sector = enumerate_sector(9, 1)
        matrix = build_transfer_hamiltonian(spec, sector, 0.3).matrix
        bonds = [(0, 1, 0.3)] + chain_bonds(spec, offset=1)
        real = build_bond_hamiltonian(bonds, sector).matrix
        assert matrix.dtype == np.complex128
        assert np.all(matrix.data.imag == 0.0)
        np.testing.assert_array_equal(matrix.indptr, real.indptr)
        np.testing.assert_array_equal(matrix.indices, real.indices)
        np.testing.assert_array_equal(matrix.data.real, real.data)

    def test_chained_steps_match_dense_expm_at_L8(self):
        # L = 8 transfer sector (dim 126 > _KRYLOV_DIM) against exp(-iHt) of the
        # Kronecker-product Hamiltonian restricted to the same sector
        spec = ChainSpec(L=8, Jp=0.5)
        sector = enumerate_sector(9, 1)
        assert sector.dim == 126
        matrix = build_transfer_hamiltonian(spec, sector, 0.3).matrix
        states = sector.basis.astype(np.int64)
        dense = dense_transfer_hamiltonian(spec, 0.3)[np.ix_(states, states)]
        rng = np.random.default_rng(8)
        psi0 = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
        psi0 /= np.linalg.norm(psi0)
        psi, t_now, halved, basis = psi0, 0.0, False, krylov_basis(psi0)
        for dt_req in (0.7, 2.0, 40.0, 1.3):
            psi, dt_done = transfer._krylov_step(matrix, psi, dt_req, 1e-12, basis)
            halved |= dt_done < dt_req
            t_now += dt_done
            np.testing.assert_allclose(psi, expm(-1j * t_now * dense) @ psi0, atol=1e-10)
        assert halved


def gershgorin(matrix):
    """Center and radius of the Gershgorin interval of a real symmetric matrix."""
    matrix = np.asarray(matrix.toarray())
    diag = np.diag(matrix)
    discs = np.abs(matrix).sum(axis=1) - np.abs(diag)
    low, high = np.min(diag - discs), np.max(diag + discs)
    return (high + low) / 2.0, (high - low) / 2.0


class TestChebyshevJump:
    """exp(-i H t0) psi0 of a real start by one Chebyshev series, and the T = 0 split."""

    @staticmethod
    def real_transfer_matrix(length, gamma=0.3):
        spec = ChainSpec(L=length, Jp=0.5)
        return build_transfer_hamiltonian(spec, enumerate_sector(length + 1, 1), gamma).matrix.real

    @staticmethod
    def interval(length, gamma=0.3):
        return transfer._spectral_interval(ChainSpec(L=length, Jp=0.5), gamma)

    # t0 = 4000 puts z = radius * t0 at 8.6e3-1.7e4, where jv's rounding in the
    # Bessel check reaches 1e-12 (L = 8 and 10 exceed it)
    @pytest.mark.parametrize("t0", [0.3, 40.0, 400.0, 4000.0])
    @pytest.mark.parametrize("length", [6, 8, 10])
    def test_matches_dense_evolution_within_its_bound(self, rng, length, t0):
        matrix = self.real_transfer_matrix(length)
        psi0 = rng.standard_normal(matrix.shape[0])
        psi0 /= np.linalg.norm(psi0)
        energies, modes = np.linalg.eigh(matrix.toarray())
        exact = (modes * np.exp(-1j * energies * t0)) @ (modes.T @ psi0)
        psi, bound = transfer._chebyshev_jump(matrix, psi0, t0, 1e-10, self.interval(length))
        assert 0.0 <= bound <= 1e-10
        assert np.linalg.norm(psi - exact) <= bound + 1e-12

    def test_gershgorin_interval(self):
        # every row's disc reaches up to S/4 and the Neel row's down to -3 S/4, S the
        # sum of the couplings: the matrix's own Gershgorin interval, which holds its spectrum
        for length in (6, 8, 10):
            center, radius = self.interval(length)
            couplings = 0.3 + 2 * 0.5 + (length - 3) * 1.0
            assert (center, radius) == (-0.25 * couplings, 0.5 * couplings)
            matrix = self.real_transfer_matrix(length)
            expected = gershgorin(matrix)
            assert center == pytest.approx(expected[0], rel=1e-14, abs=0)
            assert radius == pytest.approx(expected[1], rel=1e-14, abs=0)
            # the top edge is the S = (L + 1)/2 level itself, so allow eigvalsh's round-off
            energies = np.linalg.eigvalsh(matrix.toarray())
            assert energies[-1] == pytest.approx(center + radius, rel=1e-14)
            assert center - radius < energies[0] and energies[-1] <= center + radius + 1e-14

    def test_perturbed_bessel_values_raise(self, monkeypatch, rng):
        import scipy.special

        jv = scipy.special.jv
        monkeypatch.setattr(scipy.special, "jv", lambda order, z: jv(order, z) * (1.0 + 1e-9))
        psi0 = rng.standard_normal(126)
        with pytest.raises(PropagationError, match="J_0\\^2 \\+ 2 sum J_k\\^2 = 1"):
            transfer._chebyshev_jump(self.real_transfer_matrix(8), psi0 / np.linalg.norm(psi0),
                                     40.0, 1e-10, self.interval(8))

    def test_unreachable_tol_raises(self, rng):
        psi0 = rng.standard_normal(126)
        with pytest.raises(PropagationError, match="cannot meet tol = 1e-300"):
            transfer._chebyshev_jump(self.real_transfer_matrix(8), psi0 / np.linalg.norm(psi0),
                                     40.0, 1e-300, self.interval(8))

    @pytest.mark.parametrize("length, gamma", [(4, 0.0), (8, 0.3), (12, 0.004)])
    def test_split_radius_is_the_gershgorin_radius(self, monkeypatch, in_process_worker, length,
                                                   gamma):
        radii, split_index = [], transfer._split_index

        def recorded(times, radius):
            radii.append(radius)
            return split_index(times, radius)

        monkeypatch.setattr(transfer, "_split_index", recorded)
        spec = ChainSpec(L=length, Jp=0.1)
        full_chain_transfer(spec, 0.0, np.linspace(0.0, 5.0, 4), gamma=gamma,
                            spectral=spectral_data(spec))
        matrix = build_transfer_hamiltonian(spec, enumerate_sector(length + 1, 1), gamma).matrix
        assert radii == [pytest.approx(gershgorin(matrix.real)[1], rel=1e-14)]

    @pytest.mark.parametrize("length, jp, points, temperature, split", [
        (14, 0.1, 300, 0.0, 175), (14, 0.1, 300, 1e-3, 176),  # the benchmark's argvs
        (10, 0.05, 600, 0.0, 329),  # 2 Krylov steps per grid step: 364 when priced at 1
        (10, 0.03, 600, 0.0, 344),  # 4 steps per grid step: 1 when priced at 1
    ])
    def test_split_of_the_command_grids(self, length, jp, points, temperature, split):
        # the transfer command's grid: 1.35 times the predicted peak time
        spec = ChainSpec(L=length, Jp=jp)
        model = transfer.effective_coupling(spectral_data(spec), temperature=temperature)
        times = np.linspace(0.0, 1.35 * transfer.predicted_peak(model)[0], points)
        radius = transfer._spectral_interval(spec, model.gamma)[1]
        assert transfer._split_index(times, radius) == split

    @pytest.mark.parametrize("length, jp, points, temperature", [
        (8, 0.2, 86, 0.0),  # r h = 6.9
        (14, 0.1, 300, 0.0),  # 25.7, the benchmark's T = 0 argv
        (12, 0.1, 200, 1e-3),  # 30.4
        (10, 0.05, 600, 0.0),  # 32: 2 steps per grid step
        (10, 0.03, 600, 0.0),  # 94: 4 steps per grid step
        (10, 0.2, 8, 0.0),  # 125: 5 steps per grid step
    ])
    def test_trajectories_take_the_priced_krylov_steps(self, monkeypatch, in_process_worker,
                                                        length, jp, points, temperature):
        # at the default krylov tol each grid span takes its _grid_steps count of Krylov
        # steps and none halves: caller and worker together take what _split_index
        # prices at T = 0 (the jump covers the span into times[split]), two grids at T > 0
        halved, krylov_step = [], transfer._krylov_step

        def recorded(matrix, psi, dt_req, tol, basis):
            psi_new, dt_done = krylov_step(matrix, psi, dt_req, tol, basis)
            halved.append(dt_done < dt_req)
            return psi_new, dt_done

        monkeypatch.setattr(transfer, "_krylov_step", recorded)
        spec = ChainSpec(L=length, Jp=jp)
        sd = spectral_data(spec)
        model = transfer.effective_coupling(sd, temperature=temperature)
        times = np.linspace(0.0, 1.35 * transfer.predicted_peak(model)[0], points)
        full_chain_transfer(spec, temperature, times, gamma=model.gamma, spectral=sd)
        radius = transfer._spectral_interval(spec, model.gamma)[1]
        steps = transfer._grid_steps(np.diff(times), radius)
        if temperature == 0.0:
            priced = steps.sum() - steps[transfer._split_index(times, radius) - 1]
        else:
            priced = 2 * steps.sum()
        assert len(halved) == priced and not any(halved)

    @pytest.mark.parametrize("points", [8, 60, 300, 600])
    def test_split_is_unchanged_where_one_step_covers_a_grid_step(self, points):
        # oracle: every grid step priced at one Krylov step, _KRYLOV_DIM products
        times = np.linspace(0.0, 1000.0, points)
        for radius in np.linspace(0.1, 0.99, 10) * transfer._KRYLOV_REACH / times[1]:
            ks = np.arange(1, times.size)
            caller = transfer._KRYLOV_DIM * (ks - 1.0)
            worker = (transfer._JUMP_TERM_COST * radius * times[ks]
                      + transfer._KRYLOV_DIM * (times.size - 1.0 - ks))
            oracle = int(ks[np.argmin(np.maximum(caller, worker))])
            assert transfer._split_index(times, radius) == oracle

    def test_split_balances_the_estimated_work(self):
        # no jump cost: the midpoint; the jump's cost moves the split later
        times = np.linspace(0.0, 1.0, 301)
        assert transfer._split_index(times, 0.0) in (150, 151)
        splits = [transfer._split_index(times, radius) for radius in (0.0, 1e2, 1e3, 1e4)]
        assert splits == sorted(splits) and splits[0] < splits[-1] < 300
        assert transfer._split_index(times[:2], 5.0) == 1

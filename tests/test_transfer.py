"""Transfer closed forms vs the three-site oracle, and full-chain dynamics."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

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
    FlatCurveError,
    PropagationError,
    UnsupportedRegimeError,
)
from spinchannel.transfer import (
    EffectiveModel,
    Frequencies,
    closed_form_fidelity,
    effective_coupling,
    effective_transfer_curve,
    full_chain_transfer,
    max_fidelity,
    numeric_peak,
    optimal_time,
    three_site_oracle,
)

from conftest import dense_transfer_hamiltonian, random_pure_qubit

G_VALUES = (-1.0, -0.5, 0.0, 1.0 / 3.0)


def chain_spectral(spec):
    """spectral_data of the bare chain under a transfer spec."""
    return spectral_data(replace(spec, gamma=None))


def commensurate_fidelity(g, u):
    """Four-term cosine form at gamma = j_eff, with u = j_eff * t."""
    return (
        25.0
        - 2.0 * g
        - 6.0 * (1.0 + g) * np.cos(u / 2.0)
        + (6.0 * g - 3.0) * np.cos(u)
        + 2.0 * (1.0 + g) * np.cos(1.5 * u)
    ) / 36.0


class TestFrequencies:
    def test_commensurate_point(self):
        w = Frequencies.from_couplings(1.0, 1.0)
        assert w.omega == pytest.approx(1.0)
        assert w.omega_plus == pytest.approx(3.0)
        assert w.omega_minus == pytest.approx(-1.0)

    def test_general_point(self):
        w = Frequencies.from_couplings(2.0, 0.5)
        assert w.omega == pytest.approx(np.sqrt(4.0 - 1.0 + 0.25))


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
        assert diff <= (2.0 / 3.0) * 1.2e-6  # slope (2/3)/j across the window

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
        # just outside the series window the closed form must agree with the
        # series evaluated at the same point (series error there is O(u^3))
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
    def test_jeff_is_the_gap(self):
        spec = ChainSpec(L=8, J=1.0, Jp=0.2)
        sd = spectral_data(spec)
        model = effective_coupling(spec, sd)
        assert model.j_eff == pytest.approx(sd.gap, abs=1e-12)
        assert model.g == pytest.approx(sd.gzz_ground, abs=1e-12)
        assert model.gamma == pytest.approx(sd.gap)  # "auto"

    def test_perturbative_scaling_of_jeff(self):
        strong_spec = ChainSpec(L=8, J=1.0, Jp=0.2)
        weak_spec = ChainSpec(L=8, J=1.0, Jp=0.1)
        strong = effective_coupling(strong_spec, spectral_data(strong_spec)).j_eff
        weak = effective_coupling(weak_spec, spectral_data(weak_spec)).j_eff
        assert 3.0 < strong / weak < 5.5  # ~4x from the quadratic prefactor

    def test_validity_flag(self):
        weak = ChainSpec(L=8, J=1.0, Jp=0.1)
        strong = ChainSpec(L=8, J=1.0, Jp=1.0)
        assert effective_coupling(weak, spectral_data(weak)).valid
        assert not effective_coupling(strong, spectral_data(strong)).valid

    def test_finite_temperature_g(self):
        spec = ChainSpec(L=8, J=1.0, Jp=0.2)
        sd = spectral_data(spec)
        model = effective_coupling(spec, sd, temperature=sd.gap)
        assert model.g > sd.gzz_ground


class TestEffectiveTransferCurve:
    def test_starts_at_half_and_finds_peak(self):
        model = EffectiveModel(j_eff=1.0, gamma=1.0, g=-0.8)
        times = np.linspace(0.0, 4.0 * np.pi, 400)
        curve = effective_transfer_curve(model, times)
        assert curve.fidelities[0] == pytest.approx(0.5, abs=1e-12)
        assert curve.mode == "closed-form"
        assert curve.f_star == pytest.approx(max_fidelity(-0.8), abs=1e-8)


def dense_mixture_theta(spec, temperature, times):
    """theta(t) of the truncated four-state mixture by dense eigh evolution."""
    base = replace(spec, gamma=None)
    sector0 = enumerate_sector(spec.L, 0)
    pairs0 = lowest_eigenpairs(build_chain_hamiltonian(base, sector0), 2, 1e-12)
    branches = [(sector0, pairs0[0].vector, 1.0)]
    if temperature > 0.0:
        triplet = [(sector0, pairs0[1].vector)]
        energies = []
        for tsz in (2, -2):
            sector = enumerate_sector(spec.L, tsz)
            (pair,) = lowest_eigenpairs(build_chain_hamiltonian(base, sector), 1, 1e-12)
            triplet.append((sector, pair.vector))
            energies.append(pair.energy)
        x = np.exp(-(energies[0] - pairs0[0].energy) / temperature)
        branches = [(sector0, pairs0[0].vector, 1.0 / (1.0 + 3.0 * x))]
        branches += [(sector, vec, x / (1.0 + 3.0 * x)) for sector, vec in triplet]
    theta = np.zeros(len(times))
    for sector, vec, weight in branches:
        full_sector = enumerate_sector(spec.L + 1, sector.twice_sz + 1)
        h = build_transfer_hamiltonian(spec, full_sector).matrix.toarray()
        psi0 = np.zeros(full_sector.dim, dtype=complex)
        psi0[full_sector.index_of((sector.basis << np.uint64(1)) | np.uint64(1))] = vec
        bits = (full_sector.basis >> np.uint64(spec.L)) & np.uint64(1)
        signs = 2.0 * bits.astype(float) - 1.0
        w, v = np.linalg.eigh(h)
        for k, t in enumerate(times):
            psi_t = (v * np.exp(-1j * w * t)) @ (v.conj().T @ psi0)
            theta[k] += weight * float(np.dot(np.abs(psi_t) ** 2, signs))
    return theta


class TestFullChainTransfer:
    def test_matches_dense_evolution(self):
        spec = ChainSpec(L=4, J=1.0, Jp=0.5, gamma=0.3)
        times = np.linspace(0.0, 25.0, 40)
        curve = full_chain_transfer(
            spec, 0.0, times, krylov_tol=1e-12, spectral=chain_spectral(spec)
        )
        np.testing.assert_allclose(curve.thetas, dense_mixture_theta(spec, 0.0, times), atol=1e-10)

    def test_finite_temperature_matches_dense(self):
        spec = ChainSpec(L=4, J=1.0, Jp=0.5, gamma=0.3)
        times = np.linspace(0.0, 15.0, 25)
        curve = full_chain_transfer(
            spec, 0.2, times, krylov_tol=1e-12, spectral=chain_spectral(spec)
        )
        np.testing.assert_allclose(curve.thetas, dense_mixture_theta(spec, 0.2, times), atol=1e-10)

    @pytest.mark.parametrize("temperature", [0.0, 0.2])
    def test_truncated_krylov_matches_dense(self, monkeypatch, temperature):
        # L = 8: sector dims 126 and 84 exceed m_max = 30, so the Lanczos basis
        # is truncated; the coarse grid (dt = 10) makes the error estimate halve dt
        steps = []
        krylov_step = transfer._krylov_step

        def recorded(matrix, psi, dt_req, tol):
            psi_new, dt_done = krylov_step(matrix, psi, dt_req, tol)
            steps.append((psi.size, dt_done < dt_req))
            return psi_new, dt_done

        monkeypatch.setattr(transfer, "_krylov_step", recorded)
        spec = ChainSpec(L=8, J=1.0, Jp=0.5, gamma=0.3)
        times = np.linspace(0.0, 80.0, 9)
        curve = full_chain_transfer(
            spec, temperature, times, krylov_tol=1e-12, spectral=chain_spectral(spec)
        )
        assert min(dim for dim, _ in steps) > 30
        assert any(halved for _, halved in steps)
        np.testing.assert_allclose(
            curve.thetas, dense_mixture_theta(spec, temperature, times), atol=1e-10
        )

    def test_decoupled_sender_constant_theta(self):
        spec = ChainSpec(L=4, J=1.0, Jp=0.5, gamma=0.0)
        curve = full_chain_transfer(
            spec, 0.0, np.linspace(0.0, 30.0, 16), spectral=chain_spectral(spec)
        )
        assert np.max(np.abs(curve.thetas - curve.thetas[0])) <= 1e-10
        assert curve.fidelities[0] == pytest.approx(0.5, abs=1e-10)

    def test_sender_down_flips_theta(self):
        spec = ChainSpec(L=4, J=1.0, Jp=0.4, gamma=0.2)
        times = np.linspace(0.0, 20.0, 21)
        sd = chain_spectral(spec)
        up = full_chain_transfer(spec, 0.0, times, spectral=sd, sender_up=True)
        down = full_chain_transfer(spec, 0.0, times, spectral=sd, sender_up=False)
        np.testing.assert_allclose(up.thetas, -down.thetas, atol=1e-10)

    @pytest.mark.parametrize("krylov_tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_krylov_tol_fails_before_any_solve(self, monkeypatch, krylov_tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve ran although krylov_tol is invalid")

        monkeypatch.setattr(transfer, "_thermal_branches", no_solve)
        spec = ChainSpec(L=4, Jp=0.5, gamma=0.1)
        sd = chain_spectral(spec)
        with pytest.raises(ValueError, match="krylov_tol"):
            full_chain_transfer(spec, 0.0, np.linspace(0.0, 1.0, 5), krylov_tol, spectral=sd)

    def test_requires_gamma_and_valid_grid(self):
        spec = ChainSpec(L=4, Jp=0.5, gamma=0.1)
        sd = chain_spectral(spec)
        with pytest.raises(ConfigError):
            full_chain_transfer(ChainSpec(L=4, Jp=0.5), 0.0, np.linspace(0.0, 1.0, 5), spectral=sd)
        with pytest.raises(ValueError):
            full_chain_transfer(spec, 0.0, np.linspace(1.0, 2.0, 5), spectral=sd)  # must start at 0
        with pytest.raises(ValueError):
            full_chain_transfer(spec, -0.1, np.linspace(0.0, 1.0, 5), spectral=sd)

    def test_requires_spectral_vectors_of_the_chain(self):
        spec = ChainSpec(L=4, Jp=0.5, gamma=0.1)
        times = np.linspace(0.0, 1.0, 5)
        sd = chain_spectral(spec)
        scalars_only = SpectralData(
            e0=sd.e0, e_triplet=sd.e_triplet, gap=sd.gap, gzz_ground=sd.gzz_ground,
            gzz_triplet=sd.gzz_triplet, gxx_triplet=sd.gxx_triplet,
        )
        other_length = spectral_data(ChainSpec(L=6, Jp=0.5))
        for spectral in (scalars_only, other_length):
            with pytest.raises(ConfigError):
                full_chain_transfer(spec, 0.0, times, spectral=spectral)

    def test_agrees_with_effective_model_at_weak_coupling(self):
        # small version of the headline comparison (L = 6 keeps it quick)
        spec = ChainSpec(L=6, J=1.0, Jp=0.1)
        sd = spectral_data(spec)
        model = EffectiveModel(j_eff=sd.gap, gamma=sd.gap, g=sd.gzz_ground)
        t_pred = optimal_time(model)
        f_pred = max_fidelity(sd.gzz_ground)
        times = np.linspace(0.0, 1.3 * t_pred, 500)
        curve = full_chain_transfer(replace(spec, gamma=sd.gap), 0.0, times, spectral=sd)
        assert abs(curve.f_star - f_pred) < 0.05
        assert abs(curve.t_star - t_pred) / t_pred < 0.1
        # flying-qubit bound: information cannot arrive faster than the
        # excitations carrying it, so t* J >= L/2 inside the validity window
        assert curve.t_star * spec.J >= 0.5 * spec.L


class TestKrylovStep:
    @staticmethod
    def random_symmetric(rng, dim=40):
        a = rng.standard_normal((dim, dim))
        return a + a.T

    def test_unreachable_tol_raises(self, rng):
        matrix = self.random_symmetric(rng)
        psi = rng.standard_normal(matrix.shape[0]).astype(complex)
        with pytest.raises(PropagationError):
            transfer._krylov_step(matrix, psi, 1.0, tol=0.0, m_max=2)

    def test_eigenvector_breaks_down_and_takes_full_step(self, rng):
        matrix = self.random_symmetric(rng)
        energies, modes = np.linalg.eigh(matrix)
        psi = modes[:, 3].astype(complex)
        psi_new, dt_done = transfer._krylov_step(matrix, psi, 2.5, tol=1e-12)
        assert dt_done == 2.5
        np.testing.assert_allclose(psi_new, np.exp(-2.5j * energies[3]) * psi, atol=1e-12)

    def test_transfer_matrix_is_complex_copy_of_real_assembly(self):
        spec = ChainSpec(L=8, J=1.0, Jp=0.5, gamma=0.3)
        sector = enumerate_sector(9, 1)
        matrix = build_transfer_hamiltonian(spec, sector).matrix
        bonds = [(0, 1, spec.gamma)] + chain_bonds(spec, offset=1)
        real = build_bond_hamiltonian(9, bonds, sector).matrix
        assert matrix.dtype == np.complex128
        assert np.all(matrix.data.imag == 0.0)
        np.testing.assert_array_equal(matrix.indptr, real.indptr)
        np.testing.assert_array_equal(matrix.indices, real.indices)
        np.testing.assert_array_equal(matrix.data.real, real.data)

    def test_chained_steps_match_dense_expm_at_L8(self):
        # L = 8 transfer sector (dim 126 > m_max) against exp(-iHt) of the
        # Kronecker-product Hamiltonian restricted to the same sector
        spec = ChainSpec(L=8, J=1.0, Jp=0.5, gamma=0.3)
        sector = enumerate_sector(9, 1)
        assert sector.dim == 126
        matrix = build_transfer_hamiltonian(spec, sector).matrix
        states = sector.basis.astype(np.int64)
        dense = dense_transfer_hamiltonian(spec)[np.ix_(states, states)]
        rng = np.random.default_rng(8)
        psi0 = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
        psi0 /= np.linalg.norm(psi0)
        psi, t_now, halved = psi0, 0.0, False
        for dt_req in (0.7, 2.0, 40.0, 1.3):
            psi, dt_done = transfer._krylov_step(matrix, psi, dt_req, tol=1e-12)
            halved |= dt_done < dt_req
            t_now += dt_done
            np.testing.assert_allclose(psi, expm(-1j * t_now * dense) @ psi0, atol=1e-10)
        assert halved

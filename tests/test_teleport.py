"""Depolarizing channel, teleportation fidelity and the threshold temperature."""

import numpy as np
import pytest

from spinchannel.chain import ChainSpec
from spinchannel.eigensolve import SpectralData, spectral_data
from spinchannel.errors import NoThresholdError
from spinchannel.teleport import (
    DepolarizingChannel,
    apply_channel,
    fidelity_curve,
    shrink_factor,
    teleport_fidelity,
    threshold_temperature,
)
from spinchannel.thermal import thermal_g

from conftest import random_pure_qubit

TWO_SPIN = SpectralData(
    e0=-0.75, e_triplet=0.25, gap=1.0, gzz_ground=-1.0, gzz_triplet=1.0, gxx_triplet=0.0
)


class TestShrinkFactor:
    def test_singlet_resource(self):
        assert shrink_factor(-1.0).theta == 1.0

    def test_total_depolarization(self):
        assert shrink_factor(0.0).theta == 0.0

    def test_separability_edge(self):
        assert shrink_factor(-1.0 / 3.0).theta == pytest.approx(1.0 / 3.0)

    def test_error_probability_accessor(self):
        assert DepolarizingChannel(theta=1.0).error_probability == 0.0
        assert DepolarizingChannel(theta=0.0).error_probability == 0.75
        assert DepolarizingChannel(theta=0.5).error_probability == pytest.approx(3 / 8)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            DepolarizingChannel(theta=1.5)
        with pytest.raises(ValueError):
            DepolarizingChannel(theta=-0.5)


class TestApplyChannel:
    def test_ideal_channel(self, rng):
        channel = DepolarizingChannel(theta=1.0)
        psi = random_pure_qubit(rng)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(apply_channel(channel, rho), rho, atol=1e-15)

    def test_fully_depolarizing(self, rng):
        channel = DepolarizingChannel(theta=0.0)
        psi = random_pure_qubit(rng)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(apply_channel(channel, rho), np.eye(2) / 2, atol=1e-15)

    def test_half_shrink_on_up_state(self):
        channel = DepolarizingChannel(theta=0.5)
        rho = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(apply_channel(channel, rho), np.diag([0.75, 0.25]), atol=1e-15)

    def test_trace_preserved(self, rng):
        channel = DepolarizingChannel(theta=0.37)
        psi = random_pure_qubit(rng)
        rho = np.outer(psi, psi.conj())
        assert np.trace(apply_channel(channel, rho)).real == pytest.approx(1.0, abs=1e-15)

    def test_invalid_density_matrix_rejected(self):
        channel = DepolarizingChannel(theta=0.5)
        with pytest.raises(ValueError):
            apply_channel(channel, np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            apply_channel(channel, np.diag([0.9, 0.9]))  # trace != 1
        with pytest.raises(ValueError):
            apply_channel(channel, np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_su2_covariance(self, rng):
        # the channel commutes with any unitary conjugation of its input
        channel = DepolarizingChannel(theta=0.6)
        phases = rng.standard_normal(3)
        from scipy.linalg import expm

        pauli = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        u = expm(-0.5j * sum(p * s for p, s in zip(phases, pauli)))
        psi = random_pure_qubit(rng)
        rho = np.outer(psi, psi.conj())
        lhs = apply_channel(channel, u @ rho @ u.conj().T)
        rhs = u @ apply_channel(channel, rho) @ u.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTeleportFidelity:
    @pytest.mark.parametrize("g,f", [(-1.0, 1.0), (-1.0 / 3.0, 2.0 / 3.0), (1.0 / 3.0, 1.0 / 3.0)])
    def test_closed_form_values(self, g, f):
        assert teleport_fidelity(g) == pytest.approx(f, abs=1e-15)

    def test_state_independence(self, rng):
        # Tr(xi * channel(xi)) equals (1 + theta)/2 for every pure state
        for g in np.linspace(-1.0, 1.0 / 3.0, 7):
            channel = shrink_factor(g)
            for _ in range(10):
                psi = random_pure_qubit(rng)
                rho = np.outer(psi, psi.conj())
                f = np.trace(rho @ apply_channel(channel, rho)).real
                assert f == pytest.approx(teleport_fidelity(g), abs=1e-12)

    def test_better_than_classical_iff_entangled(self):
        for g in np.linspace(-1.0, 1.0 / 3.0, 101):
            assert (teleport_fidelity(g) > 2.0 / 3.0) == (g < -1.0 / 3.0 - 1e-15) or abs(
                g + 1.0 / 3.0
            ) < 1e-12


class TestThresholdTemperature:
    def test_two_spin_value(self):
        assert threshold_temperature(TWO_SPIN) == pytest.approx(1.0 / np.log(3.0), abs=1e-12)

    def test_inverts_thermal_g(self):
        sd = spectral_data(ChainSpec(L=8, J=1.0, Jp=0.2))
        t_star = threshold_temperature(sd)
        assert thermal_g(sd, t_star) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_separable_ground_state_has_no_threshold(self):
        sd = SpectralData(
            e0=-1.0, e_triplet=-0.5, gap=0.5,
            gzz_ground=-0.2, gzz_triplet=0.5, gxx_triplet=0.0,
        )
        with pytest.raises(NoThresholdError):
            threshold_temperature(sd)


class TestFidelityCurve:
    def test_curve_shape_and_limits(self):
        sd = spectral_data(ChainSpec(L=8, J=1.0, Jp=0.2))
        temps = np.geomspace(1e-6, 1e-1, 40)
        curve = fidelity_curve(sd, temps)
        assert curve.fidelities[0] == pytest.approx((1.0 - sd.gzz_ground) / 2.0, abs=1e-12)
        assert np.all(np.diff(curve.fidelities) <= 1e-15)  # weakly decreasing
        assert curve.t_star is not None
        assert curve.t_star == pytest.approx(threshold_temperature(sd))

    def test_smaller_jp_higher_fidelity_at_low_t(self):
        temps = np.array([1e-6])
        weak, strong = (spectral_data(ChainSpec(L=12, J=1.0, Jp=jp)) for jp in (0.1, 0.2))
        assert fidelity_curve(weak, temps).fidelities[0] > fidelity_curve(strong, temps).fidelities[0]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            fidelity_curve(TWO_SPIN, [])
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            fidelity_curve(TWO_SPIN, [-0.1, 0.1])
        # T = 0 is on the grid: the ground state's value
        curve = fidelity_curve(TWO_SPIN, [0.0, 0.1])
        assert curve.g_values[0] == TWO_SPIN.gzz_ground
        assert curve.fidelities[0] == teleport_fidelity(TWO_SPIN.gzz_ground)

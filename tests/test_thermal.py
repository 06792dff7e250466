"""Thermal Werner parameter, its temperature rule and the Werner density matrix."""

import numpy as np
import pytest

import spinchannel.worker
from spinchannel import transfer
from spinchannel.chain import ChainSpec
from spinchannel.eigensolve import SpectralData, spectral_data
from spinchannel.teleport import fidelity_curve
from spinchannel.thermal import (
    WERNER_MAX,
    WERNER_MIN,
    boltzmann_factor,
    thermal_g,
    truncation_warnings,
    validate_werner_g,
    werner_density_matrix,
)

TWO_SPIN = SpectralData(
    e0=-0.75, e_triplet=0.25, gap=1.0, gzz_ground=-1.0, gzz_triplet=1.0, gxx_triplet=0.0
)


class TestThermalG:
    def test_zero_temperature_limit(self):
        # T <= gap * 1e-3 underflows the Boltzmann factor to exactly zero
        assert thermal_g(TWO_SPIN, 1e-3) == TWO_SPIN.gzz_ground

    def test_separability_edge_at_gap_over_ln3(self):
        t_edge = TWO_SPIN.gap / np.log(3.0)
        assert thermal_g(TWO_SPIN, t_edge) == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_high_temperature_mixture(self):
        # T -> infinity: the equal-weight average of the four states
        average = (TWO_SPIN.gzz_ground + TWO_SPIN.gzz_triplet + 2.0 * TWO_SPIN.gxx_triplet) / 4.0
        assert thermal_g(TWO_SPIN, 1e9) == pytest.approx(average, abs=1e-9)
        assert average == 0.0

    def test_monotone_increasing_for_singlet_ground(self):
        # strictly increasing where the Boltzmann factor is representable,
        # weakly increasing everywhere (it saturates at g = -1 below that)
        warm = [thermal_g(TWO_SPIN, t) for t in np.geomspace(0.1, 1e2, 50)]
        assert np.all(np.diff(warm) > 0)
        wide = [thermal_g(TWO_SPIN, t) for t in np.geomspace(1e-4, 1e2, 80)]
        assert np.all(np.diff(wide) >= 0)

    def test_range_preserved(self):
        sd = SpectralData(
            e0=-2.0, e_triplet=-1.9, gap=0.1,
            gzz_ground=-0.9, gzz_triplet=0.8, gxx_triplet=-0.1,
        )
        lo = sd.gzz_ground
        hi = (sd.gzz_ground + sd.gzz_triplet + 2.0 * sd.gxx_triplet) / 4.0  # T -> infinity
        for t in np.geomspace(1e-4, 1e4, 60):
            g = thermal_g(sd, t)
            assert min(lo, hi) - 1e-12 <= g <= max(lo, hi) + 1e-12

    def test_nonpositive_temperature_rejected(self):
        # T = 0 is the x = 0 case of the thermal state; only T < 0 is refused
        assert thermal_g(TWO_SPIN, 0.0) == TWO_SPIN.gzz_ground
        with pytest.raises(ValueError):
            thermal_g(TWO_SPIN, -1.0)

    @pytest.mark.parametrize("length, jp", [(4, 0.5), (8, 0.2), (12, 0.1)])
    def test_zero_temperature_is_the_ground_value_to_the_bit(self, length, jp):
        sd = spectral_data(ChainSpec(L=length, J=1.0, Jp=jp))
        expected = validate_werner_g(sd.gzz_ground)
        assert boltzmann_factor(sd, 0.0) == 0.0
        assert thermal_g(sd, 0.0).hex() == expected.hex()
        assert transfer.effective_coupling(sd, temperature=0.0).g.hex() == expected.hex()
        # a T whose factor underflows is the same state
        assert boltzmann_factor(sd, sd.gap / 800.0) == 0.0
        assert thermal_g(sd, sd.gap / 800.0).hex() == expected.hex()


class TestTemperatureRule:
    """0 <= T < inf everywhere: every protocol takes its temperature rule from thermal."""

    MESSAGE = "temperature must be >= 0 and finite, got {}"

    @pytest.mark.parametrize("temperature", [-1.0, float("nan"), float("inf")])
    def test_same_error_in_every_protocol(self, monkeypatch, temperature):
        spec = ChainSpec(L=4, J=1.0, Jp=0.5)
        sd = spectral_data(spec)

        def no_work(*args, **kwargs):
            raise AssertionError("work started although the temperature is invalid")

        monkeypatch.setattr(transfer, "build_transfer_hamiltonian", no_work)
        monkeypatch.setattr(spinchannel.worker, "call_both", no_work)
        calls = {
            "thermal_g": lambda: thermal_g(sd, temperature),
            "fidelity_curve": lambda: fidelity_curve(sd, [temperature]),
            "effective_coupling": lambda: transfer.effective_coupling(sd, temperature=temperature),
            "full_chain_transfer": lambda: transfer.full_chain_transfer(
                spec, temperature, np.linspace(0.0, 1.0, 5), gamma=0.1, spectral=sd),
        }
        messages = {}
        for name, call in calls.items():
            with pytest.raises(ValueError) as exc:
                call()
            messages[name] = str(exc.value)
        assert set(messages.values()) == {self.MESSAGE.format(temperature)}

    def test_boltzmann_factor(self):
        assert boltzmann_factor(TWO_SPIN, 0.0) == 0.0
        assert boltzmann_factor(TWO_SPIN, -0.0) == 0.0
        assert boltzmann_factor(TWO_SPIN, 1.0) == np.exp(-1.0)
        assert boltzmann_factor(TWO_SPIN, 1e-3) == 0.0  # underflows

    def test_truncation_warning_above_half_the_gap(self):
        assert truncation_warnings(TWO_SPIN, 0.0) == []
        assert truncation_warnings(TWO_SPIN, 0.5) == []
        assert truncation_warnings(TWO_SPIN, np.array([0.1, 0.5])) == []
        (warning,) = truncation_warnings(TWO_SPIN, np.array([0.1, 0.5000001]))
        assert warning == ("temperatures above gap/2 = 0.5: the four-state thermal "
                           "truncation may miss higher levels there")
        assert truncation_warnings(TWO_SPIN, 0.6) == [warning]


class TestValidateWernerG:
    def test_clamps_float_dust(self):
        assert validate_werner_g(-1.0 - 1e-12) == -1.0
        assert validate_werner_g(WERNER_MAX + 1e-12) == WERNER_MAX

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_werner_g(-1.1)
        with pytest.raises(ValueError):
            validate_werner_g(0.5)
        with pytest.raises(ValueError):
            validate_werner_g(float("nan"))


class TestWernerDensityMatrix:
    def test_singlet_at_minus_one(self):
        rho = werner_density_matrix(-1.0)
        psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(rho, np.outer(psi_minus, psi_minus), atol=1e-15)

    def test_maximally_mixed_at_zero(self):
        np.testing.assert_allclose(werner_density_matrix(0.0), np.eye(4) / 4.0, atol=1e-15)

    def test_triplet_projector_at_one_third(self):
        eigenvalues = np.linalg.eigvalsh(werner_density_matrix(1.0 / 3.0))
        np.testing.assert_allclose(eigenvalues, [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_trace_one_and_positive(self):
        for g in np.linspace(WERNER_MIN, WERNER_MAX, 25):
            rho = werner_density_matrix(g)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.eigvalsh(rho).min() >= -1e-14
            np.testing.assert_allclose(rho, rho.T, atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            werner_density_matrix(0.9)

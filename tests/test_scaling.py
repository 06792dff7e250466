"""Gap sweeps and the power-law fit."""

import numpy as np
import pytest

import spinchannel.scaling
from spinchannel.chain import ChainSpec, build_chain_hamiltonian, enumerate_sector
from spinchannel.eigensolve import dense_spectrum, spectral_data
from spinchannel.errors import ConvergenceError, InsufficientDataError
from spinchannel.scaling import GapRow, GapTable, fit_power_law, gap_sweep


def synthetic_table(c, alpha, lengths, jp=0.2):
    rows = tuple(GapRow(length=L, jp=jp, gap=c * L ** (-alpha), e0=-float(L)) for L in lengths)
    return GapTable(rows=rows)


class TestFitPowerLaw:
    def test_recovers_exact_generator(self):
        table = synthetic_table(2.0, 0.5, range(8, 40, 4))
        fit = fit_power_law(table)
        assert fit.c == pytest.approx(2.0, abs=1e-12)
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_gap_degenerates(self):
        table = synthetic_table(0.7, 0.0, range(8, 40, 4))
        fit = fit_power_law(table)
        assert abs(fit.alpha) < 1e-12
        assert fit.r_squared == pytest.approx(0.0, abs=1e-6)

    def test_small_lengths_excluded_by_default(self):
        rows = synthetic_table(2.0, 0.5, [4, 6, 8, 10, 12, 14]).rows
        fit = fit_power_law(GapTable(rows=rows))
        assert fit.n_points == 4  # L = 4, 6 dropped

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law(synthetic_table(1.0, 0.5, [8, 10, 12]))

    def test_mixed_jp_rejected(self):
        rows = synthetic_table(1.0, 0.5, [8, 10, 12, 14]).rows
        mixed = GapTable(rows=rows[:-1] + (GapRow(16, 0.3, 0.1, -16.0),))
        with pytest.raises(ValueError):
            fit_power_law(mixed)


class TestGapSweep:
    def test_gaps_decrease_with_length(self):
        table = gap_sweep([8, 10, 12], 0.2)
        gaps = [row.gap for row in table.rows]
        assert len(gaps) == 3
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_duplicates_removed_with_warning(self):
        table = gap_sweep([8, 8, 10], 0.2)
        assert [row.length for row in table.rows] == [8, 10]
        assert any("duplicate" in w for w in table.warnings)

    def test_failed_length_is_recorded_as_skipped(self, monkeypatch):
        true_solve = spinchannel.scaling.spectral_data

        def fails_at_ten(spec, *args, **kwargs):
            if spec.L == 10:
                raise ConvergenceError("injected failure")
            return true_solve(spec, *args, **kwargs)

        monkeypatch.setattr(spinchannel.scaling, "spectral_data", fails_at_ten)
        table = gap_sweep([8, 10, 12], 0.2)
        assert [row.length for row in table.rows] == [8, 12]
        assert table.skipped == (10,)
        assert table.warnings == ("L = 10 skipped: injected failure",)

    def test_uniform_chain_matches_dense(self):
        table = gap_sweep([8], 1.0)
        spec = ChainSpec(L=8, J=1.0, Jp=1.0)
        m0 = dense_spectrum(build_chain_hamiltonian(spec, enumerate_sector(8, 0)))
        m1 = dense_spectrum(build_chain_hamiltonian(spec, enumerate_sector(8, 2)))
        assert table.rows[0].gap == pytest.approx(m1[0] - m0[0], abs=1e-10)
        assert table.rows[0].e0 == pytest.approx(m0[0], abs=1e-10)

    def test_matches_spectral_data(self):
        table = gap_sweep([10], 0.3)
        sd = spectral_data(ChainSpec(L=10, J=1.0, Jp=0.3))
        assert table.rows[0].gap == pytest.approx(sd.gap, abs=1e-12)

    def test_invalid_lengths_rejected_up_front(self):
        with pytest.raises(ValueError):
            gap_sweep([7, 8], 0.2)
        with pytest.raises(ValueError):
            gap_sweep([2], 0.2)

    def test_exponent_stability_under_point_removal(self):
        table = gap_sweep(range(8, 17, 2), 0.2)
        full_fit = fit_power_law(table)
        trimmed = GapTable(rows=table.rows[1:])
        trimmed_fit = fit_power_law(trimmed)
        assert abs(full_fit.alpha - trimmed_fit.alpha) < 0.1


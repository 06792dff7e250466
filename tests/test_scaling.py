"""Gap sweeps and the power-law fit."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import spinchannel.scaling
from spinchannel.chain import ChainSpec, build_chain_hamiltonian, enumerate_sector, symmetry_block
from spinchannel.eigensolve import dense_spectrum, spectral_data
from spinchannel.errors import ConvergenceError, InsufficientDataError
from spinchannel.scaling import GapRow, GapTable, fit_power_law, gap_sweep

from conftest import chain_length


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
        # each row carries its spectral_data, without the vectors
        assert table.rows[0].spectral == replace(sd, ground=None, triplet=None)

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



class TestGrownSweep:
    """Each length of a sweep starts from the L - 2 solve (gap_sweep)."""

    @pytest.mark.parametrize("jp", [0.1, 0.5])
    def test_matches_random_start_solves(self, jp):
        table = gap_sweep(range(8, 19, 2), jp)
        assert [row.length for row in table.rows] == list(range(8, 19, 2))
        for row in table.rows:
            sd = spectral_data(ChainSpec(L=row.length, J=1.0, Jp=jp))
            assert row.e0 == pytest.approx(sd.e0, abs=1e-10)
            assert row.gap == pytest.approx(sd.gap, abs=1e-10)
            for name in ("gzz_ground", "gzz_triplet", "gxx_triplet"):
                assert getattr(row.spectral, name) == pytest.approx(getattr(sd, name), abs=1e-10)

    @staticmethod
    def record_growth(monkeypatch, fail_at=None):
        true_solve, grown_from = spinchannel.scaling.spectral_data, []

        def recorded(spec, *args, grow_from=None, **kwargs):
            grown_from.append((spec.L, None if grow_from is None else chain_length(grow_from)))
            if spec.L == fail_at:
                raise ConvergenceError("injected failure")
            return true_solve(spec, *args, grow_from=grow_from, **kwargs)

        monkeypatch.setattr(spinchannel.scaling, "spectral_data", recorded)
        return grown_from

    def test_grows_only_from_a_solved_l_minus_2(self, monkeypatch):
        grown_from = self.record_growth(monkeypatch, fail_at=12)
        table = gap_sweep([6, 8, 12, 14, 16, 20], 0.2)
        assert table.skipped == (12,)
        assert grown_from == [(6, None), (8, 6), (12, None), (14, None), (16, 14), (20, None)]

    def test_l_minus_2_is_freed_before_the_next_solve(self):
        # the L = 16 vectors must die before the L = 18 solves, so the sweep
        # peaks where one L = 18 call grown from an L = 16 result does, within
        # half an L = 18 block vector (49 KB); a live L = 16 plain vector is 103 KB
        spec = ChainSpec(L=18, J=1.0, Jp=0.1)
        block_dim = symmetry_block(18, -1, -1).dim
        short = spectral_data(ChainSpec(L=16, J=1.0, Jp=0.1))
        gap_sweep([16, 18], 0.1)  # warm caches and imports
        tracemalloc.start()
        try:
            spectral_data(spec, grow_from=short)
            _, grown = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            gap_sweep([16, 18], 0.1)
            _, sweep = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sweep <= grown + 4 * block_dim

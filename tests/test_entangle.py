"""Concurrence closed forms validated against a general Wootters computation."""

import numpy as np
import pytest

from spinchannel import checks
from spinchannel.eigensolve import DEFAULT_SEED, DEFAULT_TOL
from spinchannel.entangle import (
    concurrence,
    shared_output_state,
    sharing_concurrence,
    sharing_report,
    werner_concurrence,
)
from spinchannel.transfer import max_fidelity


class TestWernerConcurrence:
    @pytest.mark.parametrize("g,c", [(-1.0, 1.0), (-1.0 / 3.0, 0.0), (0.0, 0.0)])
    def test_values(self, g, c):
        assert werner_concurrence(g) == pytest.approx(c, abs=1e-15)

    def test_matches_wootters_oracle(self):
        # the Werner input and the shared output mixture, both against Wootters
        ok, detail = checks.werner_concurrence_oracle(DEFAULT_TOL, DEFAULT_SEED)
        assert ok, detail


class TestSharingConcurrence:
    def test_paper_point(self):
        assert sharing_concurrence(7.0 / 8.0) == 5.0 / 8.0

    def test_perfect_channel(self):
        assert sharing_concurrence(1.0) == 1.0

    def test_classical_channel(self):
        assert sharing_concurrence(2.0 / 3.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sharing_concurrence(1.2)

    def test_two_forms_of_the_output_concurrence_agree(self):
        # max(1 - 2p, 0) with p = 3(1 - theta)/4, theta = 2 f* - 1,
        # must equal max(3 f* - 2, 0)
        for f_star in np.linspace(0.0, 1.0, 101):
            theta = 2.0 * f_star - 1.0
            p = 3.0 * (1.0 - theta) / 4.0
            assert max(1.0 - 2.0 * p, 0.0) == pytest.approx(
                sharing_concurrence(f_star), abs=1e-12
            )


class TestSharingReport:
    def test_singlet_resource(self):
        report = sharing_report(-1.0)
        assert report.concurrence_out == pytest.approx(1.0, abs=1e-12)
        assert report.concurrence_in == pytest.approx(1.0, abs=1e-12)
        assert report.enhancement == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_resource(self):
        report = sharing_report(0.0)
        assert report.f_star == 7.0 / 8.0
        assert report.concurrence_out == 5.0 / 8.0
        assert report.concurrence_in == 0.0
        assert report.error_prob == pytest.approx(3.0 * (1.0 - 0.75) / 4.0)

    def test_upper_edge_resource(self):
        report = sharing_report(1.0 / 3.0)
        assert report.concurrence_in == 0.0
        assert report.concurrence_out == pytest.approx(3.0 * max_fidelity(1.0 / 3.0) - 2.0)
        assert report.concurrence_out > 0.0

    def test_enhancement_on_grid(self):
        for g in np.linspace(-1.0, 1.0 / 3.0, 200):
            report = sharing_report(g)
            assert report.enhancement >= -1e-12


class TestWoottersOracle:
    def test_pure_singlet(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert concurrence(np.outer(psi, psi)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(2))

    def test_output_state_is_physical(self):
        for p in (0.0, 0.3, 1.0):
            rho = shared_output_state(p)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.eigvalsh(rho).min() >= -1e-14

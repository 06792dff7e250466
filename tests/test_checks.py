"""Each shared oracle check fails once its quantity is off by just past its tolerance."""

import pytest

import spinchannel.eigensolve
import spinchannel.entangle
import spinchannel.teleport
import spinchannel.transfer
from spinchannel import checks
from spinchannel.eigensolve import DEFAULT_SEED, DEFAULT_TOL


@pytest.mark.parametrize(
    "check, module, name, shift",
    [
        (checks.lanczos_vs_dense, spinchannel.eigensolve, "dense_spectrum", 1e-8),
        (checks.threshold_bisection, spinchannel.teleport, "threshold_temperature", 1e-8),
        (checks.channel_state_independence, spinchannel.teleport, "apply_channel", 1e-10),
        # f*(-1) = 1 - 1e-9 makes the singlet margin -3e-9
        (checks.enhancement_inequality, spinchannel.transfer, "max_fidelity", -1e-9),
        (checks.werner_concurrence_oracle, spinchannel.entangle, "werner_concurrence", 1e-8),
    ],
    ids=["lanczos-vs-dense", "threshold-bisection", "channel-state-independence",
         "enhancement-inequality", "werner-concurrence-oracle"],
)
def test_injected_fault_fails_the_check(monkeypatch, check, module, name, shift):
    true_fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: true_fn(*args, **kwargs) + shift)
    ok, detail = check(DEFAULT_TOL, DEFAULT_SEED)
    assert not ok, detail


def test_channel_check_reads_shrink_factor(monkeypatch):
    # theta off -g by 1e-10 must show against the simulated teleportation
    true_fn = spinchannel.teleport.shrink_factor
    monkeypatch.setattr(
        spinchannel.teleport, "shrink_factor",
        lambda g: spinchannel.teleport.DepolarizingChannel(theta=true_fn(g).theta + 1e-10),
    )
    ok, detail = checks.channel_state_independence(DEFAULT_TOL, DEFAULT_SEED)
    assert not ok, detail


def test_lanczos_vs_dense_runs_arpack(arpack_dims):
    # three couplings x (the L = 12 sectors 2S_z = -2, 0, 2 and the two L = 14 blocks
    # of spectral_data), all above the dense cut-off
    ok, detail = checks.lanczos_vs_dense(DEFAULT_TOL, DEFAULT_SEED)
    assert ok, detail
    assert arpack_dims == [792, 924, 792, 890, 890] * 3

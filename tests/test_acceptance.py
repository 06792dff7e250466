"""Acceptance suite: one test per release criterion, with runtime budgets.

Each test prints a single `[criterion NN] PASS/FAIL` line with the measured
numbers (run pytest with -s to see them).  The heavy spectral sweep
(L = 8..20 at Jp = 0.1 and 0.2) is computed once and shared; its build time
is charged to the first criterion that needs it.
"""

import time

import numpy as np
import pytest

from spinchannel import checks
from spinchannel.chain import ChainSpec
from spinchannel.eigensolve import DEFAULT_SEED, DEFAULT_TOL, spectral_data
from spinchannel.entangle import sharing_concurrence
from spinchannel.scaling import GapRow, GapTable, fit_power_law
from spinchannel.teleport import fidelity_curve
from spinchannel.thermal import thermal_g
from spinchannel.transfer import (
    EffectiveModel,
    closed_form_fidelity,
    full_chain_transfer,
    max_fidelity,
    numeric_peak,
    optimal_time,
)

SWEEP_LENGTHS = (8, 10, 12, 14, 16, 18, 20)
SWEEP_JPS = (0.1, 0.2)


def report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}  {detail}  ({elapsed:.2f} s < {budget:.0f} s)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f} s budget"


@pytest.fixture(scope="module")
def sweep():
    """SpectralData for every (L, jp) of the heavy sweep, plus build time."""
    start = time.perf_counter()
    data = {
        (L, jp): spectral_data(ChainSpec(L=L, Jp=jp))
        for jp in SWEEP_JPS
        for L in SWEEP_LENGTHS
    }
    return data, time.perf_counter() - start


def test_criterion_01_depolarizing_channel_exactness():
    start = time.perf_counter()
    ok, detail = checks.channel_state_independence(DEFAULT_TOL, DEFAULT_SEED)
    report(1, ok, detail, time.perf_counter() - start, 1.0)


def test_criterion_02_threshold_temperature():
    start = time.perf_counter()
    ok, detail = checks.threshold_bisection(DEFAULT_TOL, DEFAULT_SEED)
    report(2, ok, detail, time.perf_counter() - start, 10.0)


def test_criterion_03_closed_form_oracle_equivalence():
    start = time.perf_counter()
    ok, detail = checks.closed_form_vs_three_site(DEFAULT_TOL, DEFAULT_SEED)
    report(3, ok, detail, time.perf_counter() - start, 10.0)


def test_criterion_04_closed_form_constants():
    start = time.perf_counter()
    exact_f = max_fidelity(0.0) == 7.0 / 8.0
    exact_c = sharing_concurrence(7.0 / 8.0) == 5.0 / 8.0
    model = EffectiveModel(j_eff=1.0, gamma=1.0, g=-1.0)
    t_star = optimal_time(model)
    dev_t = abs(t_star - np.pi)
    dev_f = abs(closed_form_fidelity(model, t_star) - 1.0)
    elapsed = time.perf_counter() - start
    ok = exact_f and exact_c and dev_t <= 1e-10 and dev_f <= 1e-12
    report(
        4,
        ok,
        f"f*(0) = 7/8: {exact_f}, C(7/8) = 5/8: {exact_c}, "
        f"|t*(-1) - pi| = {dev_t:.1e} (tol 1e-10), |f(t*) - 1| = {dev_f:.1e} (tol 1e-12)",
        elapsed,
        60.0,
    )


def test_criterion_05_worst_case_peak_shift():
    start = time.perf_counter()
    model = EffectiveModel(j_eff=1.0, gamma=1.0, g=1.0 / 3.0)
    t_star, f_star = numeric_peak(model, 4.0 * np.pi)
    shift = t_star - np.pi
    stated = 1.448
    rel_dev = abs(shift - stated) / stated
    flagged = rel_dev > 0.10
    # the numeric peak must agree with the closed-form first-maximum time;
    # the comparison against the stated 1.448 is reported, flagged if off,
    # but does not fail the criterion
    dev_closed = abs(t_star - optimal_time(model))
    ok = dev_closed <= 1e-6 and shift > 0.0
    elapsed = time.perf_counter() - start
    note = "FLAGGED: outside 10% of stated value" if flagged else "within 10% of stated value"
    report(
        5,
        ok,
        f"shift = {shift:.6f}/j_eff vs stated {stated} ({rel_dev:.1%} off, {note}); "
        f"|t*_num - t*_closed| = {dev_closed:.1e}",
        elapsed,
        1.0,
    )


def test_criterion_06_eigensolver_oracle():
    start = time.perf_counter()
    ok, detail = checks.lanczos_vs_dense(DEFAULT_TOL, DEFAULT_SEED)
    report(6, ok, detail, time.perf_counter() - start, 120.0)


def test_criterion_07_gap_scaling(sweep):
    data, build_seconds = sweep
    start = time.perf_counter()
    details = []
    ok = True
    for jp in SWEEP_JPS:
        rows = tuple(
            GapRow(length=L, jp=jp, gap=data[(L, jp)].gap, e0=data[(L, jp)].e0)
            for L in SWEEP_LENGTHS
        )
        fit = fit_power_law(GapTable(rows=rows))
        ok = ok and (0.0 < fit.alpha < 1.0) and fit.r_squared >= 0.98
        details.append(f"jp={jp}: alpha={fit.alpha:.3f}, r2={fit.r_squared:.5f}")
    elapsed = time.perf_counter() - start + build_seconds
    report(7, ok, "; ".join(details) + " (need alpha in (0,1), r2 >= 0.98)", elapsed, 600.0)


def test_criterion_08_effective_model_validity():
    start = time.perf_counter()
    sd = spectral_data(ChainSpec(L=8, Jp=0.1))
    model = EffectiveModel(j_eff=sd.gap, gamma=sd.gap, g=sd.gzz_ground)
    t_pred = optimal_time(model)
    f_pred = max_fidelity(sd.gzz_ground)
    times = np.linspace(0.0, 1.35 * t_pred, 700)
    curve = full_chain_transfer(
        ChainSpec(L=8, Jp=0.1), 0.0, times, krylov_tol=1e-10, gamma=sd.gap, spectral=sd
    )
    dev_f = abs(curve.f_star - f_pred)
    dev_t = abs(curve.t_star - t_pred) / t_pred
    elapsed = time.perf_counter() - start
    ok = dev_f <= 0.05 and dev_t <= 0.10 and curve.f_star > 2.0 / 3.0
    report(
        8,
        ok,
        f"|f* - pred| = {dev_f:.4f} (tol 0.05), |t* - pred|/pred = {dev_t:.4f} (tol 0.10), "
        f"f* = {curve.f_star:.4f} > 2/3",
        elapsed,
        300.0,
    )


def test_criterion_09_enhancement_inequality():
    start = time.perf_counter()
    ok, detail = checks.enhancement_inequality(DEFAULT_TOL, DEFAULT_SEED)
    report(9, ok, detail, time.perf_counter() - start, 1.0)


def test_criterion_10_figure_shapes_at_desk_scale(sweep):
    data, _ = sweep
    start = time.perf_counter()
    problems = []

    # teleportation curves at L = 12; the sweep already holds Jp = 0.1 and 0.2
    temps = np.geomspace(1e-4, 1.0, 150)
    curves = {}
    for jp in (0.1, 0.2, 0.3):
        sd = data[(12, jp)] if jp in SWEEP_JPS else spectral_data(ChainSpec(L=12, Jp=jp))
        curves[jp] = fidelity_curve(sd, temps)
    for jp, curve in curves.items():
        if not np.all(np.diff(curve.fidelities) <= 1e-15):
            problems.append(f"teleport jp={jp} not monotone")
        f = curve.fidelities
        k = int(np.searchsorted(-(f - 2.0 / 3.0), 0.0))
        if not 0 < k < f.size:
            problems.append(f"teleport jp={jp} never crosses 2/3")
            continue
        t_lo, t_hi = temps[k - 1], temps[k]
        t_cross = t_lo + (f[k - 1] - 2.0 / 3.0) * (t_hi - t_lo) / (f[k - 1] - f[k])
        if abs(t_cross - curve.t_star) / curve.t_star > 0.05:
            problems.append(f"teleport jp={jp} crossing {t_cross:.4g} far from T* {curve.t_star:.4g}")
    f0 = {jp: curves[jp].fidelities[0] for jp in curves}
    if not f0[0.1] > f0[0.2] > f0[0.3]:
        problems.append(f"teleport zero-T ordering broken: {f0}")

    # transfer peak fidelity: finite temperature strictly below T = 0, all (L, jp)
    for jp in SWEEP_JPS:
        for length in SWEEP_LENGTHS:
            sd = data[(length, jp)]
            f_cold = max_fidelity(sd.gzz_ground)
            f_warm = max_fidelity(thermal_g(sd, 1e-3))
            if not f_warm < f_cold:
                problems.append(f"transfer L={length} jp={jp}: f*(T=1e-3) !< f*(0)")
            if not f_cold > 2.0 / 3.0:
                problems.append(f"transfer L={length} jp={jp}: f*(0) <= 2/3")
            model = EffectiveModel(j_eff=sd.gap, gamma=sd.gap, g=sd.gzz_ground)
            if not optimal_time(model) >= 0.5 * length:  # flying-qubit bound, J = 1
                problems.append(f"transfer L={length} jp={jp}: t* below L/(2J)")

    elapsed = time.perf_counter() - start
    ok = not problems
    detail = "teleport curves ordered/monotone/cross near T*; warm f* < cold f* on sweep"
    if problems:
        detail = "; ".join(problems)
    report(10, ok, detail, elapsed, 900.0)

"""Oracle cross-checks shared by ``spinchannel validate`` and the acceptance suite.

Each ``check(tol, seed)`` returns ``(ok, detail)``.  Library functions are called
through their modules, so a patched attribute (an injected fault) is what gets checked.
"""

import math

import numpy as np

from . import chain, eigensolve, entangle, teleport, thermal, transfer

# two spins, J = 1 (e0, e_triplet, gap, gzz_ground, gzz_triplet, gxx_triplet): T* = 1/ln 3
_TWO_SPIN = eigensolve.SpectralData(-0.75, 0.25, 1.0, -1.0, 1.0, 0.0)


def lanczos_vs_dense(tol: float, seed: int):
    """Lowest ARPACK energies against the dense spectrum: two in the L = 12 sectors 2S_z = 0,
    +-2 (dims 924, 792), one in each L = 14 block spectral_data solves (dim 890 each)."""
    worst = 0.0
    sectors = [(chain.enumerate_sector(12, twice_sz), 2) for twice_sz in (-2, 0, 2)]
    sectors += [(chain.symmetry_block(14, sign, sign), 1) for sign in (-1, 1)]  # s = (-1)^7
    for jp in (0.1, 0.5, 1.0):
        for sector, k in sectors:
            op = chain.build_chain_hamiltonian(chain.ChainSpec(sector.n_sites, 1.0, jp), sector)
            dense = eigensolve.dense_spectrum(op)
            pairs = eigensolve.lowest_eigenpairs(op, k, tol, seed=seed)
            for i, pair in enumerate(pairs):
                worst = max(worst, abs(pair.energy - dense[i]))
    return worst <= 1e-9, f"max energy deviation {worst:.3e} (tol 1e-9)"


def closed_form_vs_three_site(tol: float, seed: int):
    """Closed-form transfer fidelity against 8-dimensional unitary evolution."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 4.0 * math.pi, 1000)
    worst = 0.0
    for g in (-1.0, -0.5, 0.0, 1.0 / 3.0):
        model = transfer.EffectiveModel(j_eff=1.0, gamma=1.0, g=g)
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        oracle = transfer.three_site_oracle(model, times, xi)
        worst = max(worst, np.abs(transfer.closed_form_fidelity(model, times) - oracle).max())
    return worst <= 1e-10, f"max |closed form - three-site| {worst:.3e} (tol 1e-10)"


def threshold_bisection(tol: float, seed: int):
    """Closed-form T* against 1/ln 3 for two spins and against brentq's root
    of thermal_g = -1/3 at L = 8."""
    from scipy.optimize import brentq  # imported here, as in transfer.numeric_peak

    dev_two_spin = abs(teleport.threshold_temperature(_TWO_SPIN) - 1.0 / math.log(3.0))
    sd = eigensolve.spectral_data(chain.ChainSpec(L=8, J=1.0, Jp=0.2), tol, seed=seed)
    root = brentq(lambda t: thermal.thermal_g(sd, t) + 1.0 / 3.0, 1e-3 * sd.gap, 1e3 * sd.gap)
    dev_root = abs(teleport.threshold_temperature(sd) - root)
    return dev_two_spin <= 1e-12 and dev_root <= 1e-10, (
        f"two-spin dev = {dev_two_spin:.3e} (tol 1e-12), "
        f"brentq dev = {dev_root:.3e} (tol 1e-10)"
    )


# Bell states of (input, A) as amplitude arrays [input, A] in the {up, down} basis,
# each with the Pauli on B that undoes it over a singlet: Psi- -> I, Psi+ -> sigma_z,
# Phi- -> sigma_x, Phi+ -> sigma_y (Bennett et al., PRL 70, 1895 (1993))
_BELL = np.array([[[0, 1], [-1, 0]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[1, 0], [0, 1]]])
_CORRECTIONS = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])


def _teleported(rho: np.ndarray, g: float) -> np.ndarray:
    """Standard teleportation of rho over the Werner pair g, summed over the outcomes."""
    state = np.kron(rho, thermal.werner_density_matrix(g)).reshape((2,) * 6)  # (in, A, B) twice
    branches = np.einsum("kia,iabjcd,kjc->kbd", _BELL, state, _BELL) / 2.0
    return np.einsum("kxb,kbd,kyd->xy", _CORRECTIONS, branches, _CORRECTIONS.conj())


def channel_state_independence(tol: float, seed: int):
    """Simulated teleportation over the Werner pair g against the channel of
    shrink_factor(g), theta = -g, for random pure inputs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for g in np.linspace(-1.0, 1.0 / 3.0, 20):
        channel = teleport.shrink_factor(g)
        for _ in range(100):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            deviation = np.abs(_teleported(rho, g) - teleport.apply_channel(channel, rho)).max()
            worst = max(worst, deviation)
    return worst <= 1e-12, f"max |teleported - channel output| {worst:.3e} (tol 1e-12)"


def _sharing_margin(g: float) -> float:
    return entangle.sharing_concurrence(transfer.max_fidelity(g)) - entangle.werner_concurrence(g)


def enhancement_inequality(tol: float, seed: int):
    """C_out >= C_in on [-1, 1/3], with equality only at the singlet g = -1."""
    at_singlet = _sharing_margin(-1.0)
    min_margin = min(_sharing_margin(g) for g in np.linspace(-1.0, 1.0 / 3.0, 1000)[1:])
    return abs(at_singlet) <= 1e-12 and min_margin > 1e-12, (
        f"margin at g=-1: {at_singlet:.1e} (|.| <= 1e-12), "
        f"min margin elsewhere: {min_margin:.2e} (> 1e-12)"
    )


def werner_concurrence_oracle(tol: float, seed: int):
    """Closed-form concurrences of the Werner input and the shared output against Wootters."""
    deviations = [
        abs(entangle.concurrence(thermal.werner_density_matrix(g)) - entangle.werner_concurrence(g))
        for g in np.linspace(-1.0, 1.0 / 3.0, 41)
    ] + [
        abs(entangle.concurrence(entangle.shared_output_state(p)) - max(1.0 - 2.0 * p, 0.0))
        for p in np.linspace(0.0, 1.0, 41)
    ]
    worst = max(deviations)
    return worst <= 1e-10, f"max |Wootters - closed form| {worst:.3e} (tol 1e-10)"


CHECKS = [
    ("lanczos-vs-dense", lanczos_vs_dense),
    ("closed-form-vs-three-site", closed_form_vs_three_site),
    ("threshold-bisection", threshold_bisection),
    ("channel-state-independence", channel_state_independence),
    ("enhancement-inequality", enhancement_inequality),
    ("werner-concurrence-oracle", werner_concurrence_oracle),
]

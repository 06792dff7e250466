"""State transfer through the chain: closed forms and full-chain dynamics.

With the chain prepared in its (possibly thermal) equilibrium state and a
sender spin coupled to probe A by gamma at t = 0, the transfer protocol is
again a depolarizing channel whose shrinking factor is the sender-up
magnetization arriving at B: theta(t) = <sigma_z(B)>(t), f = (1 + theta)/2.

Because the weakly coupled probes interact through the chain only via an
effective exchange j_eff equal to the singlet-triplet gap, the protocol
reduces to three spins (sender, A, B) with the probe pair in a Werner state
of parameter g.  That three-spin problem has a closed-form fidelity f(t)
built from the frequencies

    omega   = sqrt(j_eff^2 - j_eff*gamma + gamma^2)
    omega+- = omega +- (j_eff + gamma)

which become commensurate at gamma = j_eff, where the first-maximum time
t* and peak fidelity f* have closed forms of their own (worst case
f* = 7/8 at g = 0).

Everything closed-form is cross-checked here against two independent
routes: exact 8-dimensional unitary evolution (``three_site_oracle``) and
Krylov-propagated dynamics of the full (L+1)-site chain
(``full_chain_transfer``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import zaxpy

from .chain import (
    ChainSpec,
    Sector,
    SparseOperator,
    apply_total_spin_ladder,
    build_transfer_hamiltonian,
    enumerate_sector,
)
from .eigensolve import SpectralData, spectral_data  # noqa: F401  (re-exported)
from .errors import (
    ConfigError,
    FlatCurveError,
    PropagationError,
    UnsupportedRegimeError,
)
from .scaling import validity_window
from .thermal import thermal_g, validate_werner_g

__all__ = [
    "DEFAULT_GAP_EXPONENT",
    "Frequencies",
    "EffectiveModel",
    "TransferCurve",
    "effective_coupling",
    "closed_form_fidelity",
    "optimal_time",
    "max_fidelity",
    "numeric_peak",
    "three_site_oracle",
    "effective_transfer_curve",
    "full_chain_transfer",
]

# Gap-decay exponent fitted by this package's own sweeps (Jp = 0.1,
# L = 8..20, r^2 > 0.999); used only for the default validity window.
DEFAULT_GAP_EXPONENT = 0.46

_SERIES_WINDOW = 1e-6  # |g + 1| below which the closed forms switch to series


@dataclass(frozen=True)
class Frequencies:
    """Oscillation frequencies of the three-spin transfer problem."""

    omega: float
    omega_plus: float
    omega_minus: float

    @classmethod
    def from_couplings(cls, j_eff: float, gamma: float) -> "Frequencies":
        omega = math.sqrt(j_eff * j_eff - j_eff * gamma + gamma * gamma)
        return cls(
            omega=omega,
            omega_plus=omega + (j_eff + gamma),
            omega_minus=omega - (j_eff + gamma),
        )


@dataclass(frozen=True)
class EffectiveModel:
    """Three-spin reduction of the probed chain.

    j_eff     -- effective probe-probe coupling (the singlet-triplet gap)
    gamma     -- sender coupling
    g         -- Werner parameter of the initial probe pair
    valid     -- True iff (Jp/J)^2 < L^(alpha-1), the window where the
                 reduction is trusted
    alpha     -- gap-decay exponent used for the window
    phi       -- the (Jp/J)^2 value checked against the window
    """

    j_eff: float
    gamma: float
    g: float
    valid: bool = True
    alpha: float = DEFAULT_GAP_EXPONENT
    phi: float = 0.0

    def __post_init__(self):
        if self.j_eff <= 0.0:
            raise ValueError(f"j_eff must be positive, got {self.j_eff}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        validate_werner_g(self.g)

    @property
    def frequencies(self) -> Frequencies:
        return Frequencies.from_couplings(self.j_eff, self.gamma)


def effective_coupling(
    spec: ChainSpec,
    spectral: SpectralData,
    *,
    gamma="auto",
    temperature: float = 0.0,
    alpha: float = DEFAULT_GAP_EXPONENT,
) -> EffectiveModel:
    """Three-spin model of a chain from its spectral_data: j_eff = gap, g thermal.

    gamma = "auto" resolves to the commensurate optimum gamma = j_eff; the
    validity flag is scaling.validity_window of the chain.  No solve.
    """
    j_eff = spectral.gap
    if temperature == 0.0:
        g = validate_werner_g(spectral.gzz_ground)
    else:
        g = thermal_g(spectral, temperature)
    return EffectiveModel(
        j_eff=j_eff, gamma=j_eff if gamma == "auto" else float(gamma), g=g,
        valid=validity_window(spec.Jp, spec.J, alpha, spec.L), alpha=alpha,
        phi=(spec.Jp / spec.J) ** 2,
    )


def closed_form_fidelity(model: EffectiveModel, t):
    """Transfer fidelity of the three-spin problem at time(s) t.

    f(t) = [ (22+4g)(j^2+gamma^2) - gamma*j*(19+10g)
             - 2(1+g) omega ( omega- cos(t omega+/2) + omega+ cos(t omega-/2) )
             + 3 gamma j (2g-1) cos(omega t) ] / (36 omega^2)

    Valid for any gamma >= 0 with j_eff > 0; at the commensurate point
    gamma = j_eff it collapses to a four-term cosine series in j_eff*t.
    """
    j, gam, g = model.j_eff, model.gamma, model.g
    w = model.frequencies
    t = np.asarray(t, dtype=float)
    constant = (22.0 + 4.0 * g) * (j * j + gam * gam) - gam * j * (19.0 + 10.0 * g)
    slow = -2.0 * (1.0 + g) * w.omega * (
        w.omega_minus * np.cos(t * w.omega_plus / 2.0)
        + w.omega_plus * np.cos(t * w.omega_minus / 2.0)
    )
    fast = 3.0 * gam * j * (2.0 * g - 1.0) * np.cos(w.omega * t)
    f = (constant + slow + fast) / (36.0 * w.omega * w.omega)
    return float(f) if f.ndim == 0 else f


def _require_commensurate(model: EffectiveModel):
    if not math.isclose(model.gamma, model.j_eff, rel_tol=1e-9, abs_tol=0.0):
        raise UnsupportedRegimeError(
            f"closed-form peak requires gamma = j_eff (got gamma = {model.gamma}, "
            f"j_eff = {model.j_eff}); use numeric_peak for general gamma"
        )


def optimal_time(model: EffectiveModel) -> float:
    """Time of the first fidelity maximum at the commensurate point.

    t* = (2/j_eff) arccos[ (1 - 2g - sqrt(12g^2 + 12g + 9)) / (4(1+g)) ]

    The quotient is 0/0 at g = -1; within |g+1| <= 1e-6 the series
    t* = pi/j_eff + (2/3)(g+1)/j_eff takes over (error O((g+1)^2)).
    Elsewhere the argument is evaluated through its conjugate form
    -2u / (3 - 2u + sqrt(12u^2 - 12u + 9)), u = g + 1, which is free of
    the cancellation that plagues the raw quotient near g = -1.
    """
    _require_commensurate(model)
    g = validate_werner_g(model.g)
    j = model.j_eff
    if abs(g + 1.0) <= _SERIES_WINDOW:
        return math.pi / j + (2.0 / 3.0) * (g + 1.0) / j
    u = g + 1.0
    arg = -2.0 * u / (3.0 - 2.0 * u + math.sqrt(12.0 * u * u - 12.0 * u + 9.0))
    arg = min(max(arg, -1.0), 1.0)
    return 2.0 * math.acos(arg) / j


def max_fidelity(g: float) -> float:
    """Peak fidelity at the commensurate point, a function of g alone.

    f* = [ sqrt(3 (4g^2+4g+3)^3) + 24g^2 + 66g + 33 ] / [ 48 (1+g)^2 ]

    with the series 1 - (2/9)(g+1) + (1/18)(g+1)^2 within |g+1| <= 1e-6
    (the quotient is 0/0 at g = -1).  For g + 1 <= 1/2 the quotient is
    evaluated through its conjugate form, which removes the square-root
    cancellation that would otherwise cost ~eps/(1+g)^2 in accuracy.
    Never below 7/8, the g = 0 value.
    """
    g = validate_werner_g(g)
    u = g + 1.0
    if abs(u) <= _SERIES_WINDOW:
        return 1.0 - (2.0 / 9.0) * u + u * u / 18.0
    x = 4.0 * u * u - 4.0 * u + 3.0  # = 4g^2 + 4g + 3
    root = math.sqrt(3.0 * x * x * x)
    if u <= 0.5:
        poly = 9.0 + u * (-22.0 + u * (21.0 + u * (-12.0 + 4.0 * u)))
        return poly / (root + 9.0 - 18.0 * u) + 0.5
    return (root + 24.0 * g * g + 66.0 * g + 33.0) / (48.0 * u * u)


def numeric_peak(model: EffectiveModel, t_max: float, n_grid: int = 10_000):
    """(t*, f*) of the first interior fidelity maximum, by scan + refinement.

    Scans n_grid >= 1e4 points on [0, t_max] for the first strict local
    maximum, then golden-section refines the bracket to 1e-10 in t.  Works
    for any gamma, serving as the oracle for the commensurate closed forms
    and as the fallback away from them.
    """
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    n_grid = max(int(n_grid), 10_000)
    ts = np.linspace(0.0, t_max, n_grid)
    fs = closed_form_fidelity(model, ts)
    interior = np.nonzero((fs[1:-1] > fs[:-2]) & (fs[1:-1] >= fs[2:]))[0]
    if interior.size == 0:
        raise FlatCurveError(
            f"no interior fidelity maximum on [0, {t_max}] "
            f"(gamma = {model.gamma}, g = {model.g})"
        )
    i = int(interior[0]) + 1
    a, b = ts[i - 1], ts[i + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = closed_form_fidelity(model, c)
    fd = closed_form_fidelity(model, d)
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = closed_form_fidelity(model, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = closed_form_fidelity(model, d)
    t_star = 0.5 * (a + b)
    return t_star, float(closed_form_fidelity(model, t_star))


# ---------------------------------------------------------------------------
# three-spin unitary oracle
# ---------------------------------------------------------------------------

_S_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])  # basis order {down, up}
_S_MINUS = _S_PLUS.T
_S_Z = np.diag([-0.5, 0.5])
_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
)


def _embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Single-site operator on `site`, bit i of the composite index <-> site i."""
    out = np.eye(1, dtype=complex)
    for s in range(n_sites - 1, -1, -1):
        out = np.kron(out, op if s == site else np.eye(2, dtype=complex))
    return out


def _heisenberg_bond_dense(i: int, j: int, n_sites: int) -> np.ndarray:
    zz = _embed(_S_Z, i, n_sites) @ _embed(_S_Z, j, n_sites)
    pm = _embed(_S_PLUS, i, n_sites) @ _embed(_S_MINUS, j, n_sites)
    return (zz + 0.5 * (pm + pm.conj().T)).real


def _werner_dense(g: float) -> np.ndarray:
    rho = np.eye(4, dtype=complex) / 4.0
    for sigma in _PAULIS:
        rho += (g / 4.0) * np.kron(sigma, sigma)
    return rho


def three_site_oracle(model: EffectiveModel, t: float, xi: np.ndarray) -> float:
    """Exact transfer fidelity from 8-dimensional unitary evolution.

    Sites (sender, A, B) = bits (0, 1, 2).  The initial state is
    |xi><xi| on the sender times the Werner state of the probe pair; the
    result is Tr[rho(t) |xi><xi|_B], which must not depend on xi.
    """
    xi = np.asarray(xi, dtype=complex).reshape(2)
    xi = xi / np.linalg.norm(xi)
    xi_dm = np.outer(xi, xi.conj())
    h = model.gamma * _heisenberg_bond_dense(0, 1, 3) + model.j_eff * _heisenberg_bond_dense(
        1, 2, 3
    )
    energies, modes = np.linalg.eigh(h)
    # probe pair on bits (1, 2); the Werner state is swap-symmetric so the
    # internal kron order of the pair does not matter
    rho0 = np.kron(_werner_dense(model.g), xi_dm)
    u = (modes * np.exp(-1.0j * energies * t)) @ modes.conj().T
    rho_t = u @ rho0 @ u.conj().T
    projector_b = np.kron(xi_dm, np.eye(4, dtype=complex))
    return float(np.real(np.trace(rho_t @ projector_b)))


# ---------------------------------------------------------------------------
# full-chain dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferCurve:
    """Transfer fidelity on a time grid with its first-peak summary."""

    times: np.ndarray
    thetas: np.ndarray
    fidelities: np.ndarray
    t_star: float
    f_star: float
    mode: str  # "closed-form" | "full-chain"


def effective_transfer_curve(model: EffectiveModel, times) -> TransferCurve:
    """Closed-form fidelity evaluated on a grid, peak refined numerically."""
    times = np.asarray(times, dtype=float)
    fidelities = np.asarray(closed_form_fidelity(model, times), dtype=float)
    try:
        t_star, f_star = numeric_peak(model, float(times[-1]))
    except FlatCurveError:
        i = int(np.argmax(fidelities))
        t_star, f_star = float(times[i]), float(fidelities[i])
    return TransferCurve(
        times=times,
        thetas=2.0 * fidelities - 1.0,
        fidelities=fidelities,
        t_star=t_star,
        f_star=f_star,
        mode="closed-form",
    )


def _krylov_step(matrix, psi: np.ndarray, dt_req: float, tol: float, m_max: int = 30):
    """Advance psi by exp(-i H dt) for the largest dt <= dt_req meeting tol.

    One plain three-term Lanczos basis (dimension <= m_max) from psi, as in
    Expokit's Hermitian expv (Sidje, ACM TOMS 24, 1998).  Lost orthogonality
    does not spoil Lanczos f(A)b (Druskin, Greenbaum and Knizhnerman, SIAM
    J. Sci. Comput. 19, 1998), so nothing is reorthogonalized.  dt halves
    until beta_next * dt * |last coefficient| <= tol, else PropagationError.
    Returns (psi_new, dt_done).

    Updates run in place (BLAS zaxpy; ``w -= beta * v`` allocates a
    temporary) and normalizing multiplies by 1/beta, since dividing a
    complex vector by a real costs several times the multiply.
    """
    nrm = math.sqrt(np.vdot(psi, psi).real)
    v_rows = np.empty((m_max, psi.size), dtype=complex)
    np.multiply(psi, 1.0 / nrm, out=v_rows[0])
    alphas = np.empty(m_max)
    betas = np.empty(m_max)
    beta_next = 0.0
    for m in range(1, m_max + 1):
        w = matrix @ v_rows[m - 1]
        if m > 1:
            w = zaxpy(v_rows[m - 2], w, a=-betas[m - 2])
        a = alphas[m - 1] = np.vdot(v_rows[m - 1], w).real
        w = zaxpy(v_rows[m - 1], w, a=-a)
        beta = math.sqrt(np.vdot(w, w).real)
        if beta <= 1e-13 * max(1.0, abs(a)):
            break
        if m == m_max:
            beta_next = beta
            break
        betas[m - 1] = beta
        np.multiply(w, 1.0 / beta, out=v_rows[m])

    omega, modes = eigh_tridiagonal(alphas[:m], betas[: m - 1])
    first_row = modes[0, :]  # modes.T @ e1
    dt = dt_req
    while True:
        coeff = modes @ (np.exp(-1.0j * omega * dt) * first_row)
        err = beta_next * dt * abs(coeff[-1]) * nrm
        if err <= tol or beta_next == 0.0:
            break
        if dt < dt_req * 2.0**-40:
            raise PropagationError(
                f"Krylov step cannot meet tol = {tol} even at dt = {dt}"
            )
        dt *= 0.5
    psi_new = (nrm * coeff) @ v_rows[:m]
    return psi_new, dt


def _propagate_expectation(
    op: SparseOperator,
    sector: Sector,
    psi0: np.ndarray,
    times: np.ndarray,
    site: int,
    tol: float,
) -> np.ndarray:
    """<sigma_z(site)>(t) along a Krylov-propagated trajectory.

    The propagated state is re-expanded from a fresh Krylov space every
    step, so the per-step error budget is tol and the accumulated error is
    bounded by tol times the number of steps.  Steps skip reorthogonalization
    at no cost in accuracy (Sidje 1998; Druskin, Greenbaum and Knizhnerman
    1998); a norm drift above 1e-10 at any grid point raises PropagationError.
    """
    bits = (sector.basis >> np.uint64(site)) & np.uint64(1)
    signs = 2.0 * bits.astype(np.float64) - 1.0
    matrix = op.matrix
    psi = psi0.astype(complex)
    out = np.empty(times.size)
    t_now = 0.0  # full_chain_transfer checks that the grid starts at 0
    dt_hint = None
    for idx, t_target in enumerate(times):
        while t_target - t_now > 1e-14 * max(1.0, t_target):
            dt_req = t_target - t_now
            if dt_hint is not None:
                dt_req = min(dt_req, dt_hint)
            psi, dt_done = _krylov_step(matrix, psi, dt_req, tol)
            t_now += dt_done
            dt_hint = dt_done * 1.5 if dt_done == dt_req else dt_done
        drift = abs(np.linalg.norm(psi) - 1.0)
        if drift > 1e-10:
            raise PropagationError(f"norm drift {drift:.3e} at t = {t_now}")
        out[idx] = float(np.dot(np.abs(psi) ** 2, signs))
    return out


def _thermal_branches(spectral: SpectralData, temperature: float):
    """Eigenstate branches of the bare chain entering the truncated mixture.

    Returns a list of (sector, vector, weight).  At T = 0 only the ground
    state contributes; at T > 0 the three triplet members join with weight
    x/(1+3x), x = exp(-gap/T).  The m = +-1 members are S+-|T0>/sqrt(2),
    so no eigensolve is made here.
    """
    sector0 = spectral.sector
    if temperature == 0.0:
        return [(sector0, spectral.ground, 1.0)]
    x = math.exp(-spectral.gap / temperature)
    w = x / (1.0 + 3.0 * x)
    branches = [(sector0, spectral.ground, 1.0 / (1.0 + 3.0 * x)), (sector0, spectral.triplet, w)]
    for raising in (True, False):
        sector, image = apply_total_spin_ladder(sector0, spectral.triplet, raising)
        branches.append((sector, image / math.sqrt(2.0), w))
    return branches


def full_chain_transfer(
    spec: ChainSpec,
    temperature: float,
    times,
    krylov_tol: float = 1e-10,
    *,
    spectral: SpectralData,
    sender_up: bool = True,
) -> TransferCurve:
    """Transfer fidelity from exact dynamics of the (L+1)-site system.

    The chain starts in its truncated thermal mixture of the eigenstates in
    ``spectral`` (spectral_data of the chain without the sender); each
    branch is tensored with the polarized sender, Krylov-propagated under
    the full Hamiltonian inside its magnetization sector, and the branch
    magnetizations at B are Boltzmann-averaged into theta(t).  The peak is
    read off the grid with parabolic refinement.

    Memory and time grow combinatorially with L; the command line caps L
    at cli.FULL_CHAIN_LENGTH_CAP.
    """
    if spec.gamma is None:
        raise ConfigError("full_chain_transfer needs a spec with a sender coupling")
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if not 0.0 < krylov_tol < math.inf:
        raise ValueError(f"krylov_tol must be positive and finite, got {krylov_tol}")
    times = np.asarray(times, dtype=float)
    if times.size < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must start at 0 and increase strictly")
    if spectral.sector is None or spectral.sector.n_sites != spec.L:
        raise ConfigError("spectral must be spectral_data of this chain (with state vectors)")

    sender_bit = 1 if sender_up else 0
    theta = np.zeros(times.size)
    full_sectors: dict[int, tuple[Sector, SparseOperator]] = {}
    for chain_sector, vector, weight in _thermal_branches(spectral, temperature):
        twice_sz = chain_sector.twice_sz + (1 if sender_up else -1)
        if twice_sz not in full_sectors:
            sector = enumerate_sector(spec.L + 1, twice_sz)
            full_sectors[twice_sz] = (sector, build_transfer_hamiltonian(spec, sector))
        sector, hamiltonian = full_sectors[twice_sz]
        patterns = (chain_sector.basis << np.uint64(1)) | np.uint64(sender_bit)
        psi0 = np.zeros(sector.dim, dtype=complex)
        psi0[sector.index_of(patterns)] = vector
        theta += weight * _propagate_expectation(
            hamiltonian, sector, psi0, times, site=spec.L, tol=krylov_tol
        )

    fidelities = (1.0 + theta) / 2.0
    i = int(np.argmax(fidelities))
    t_star, f_star = float(times[i]), float(fidelities[i])
    if 0 < i < times.size - 1:
        # parabolic refinement through the three points around the maximum
        t0, t1, t2 = times[i - 1 : i + 2]
        f0, f1, f2 = fidelities[i - 1 : i + 2]
        denom = (t1 - t0) * (f1 - f2) - (t1 - t2) * (f1 - f0)
        if denom != 0.0:
            shift = 0.5 * (
                (t1 - t0) ** 2 * (f1 - f2) - (t1 - t2) ** 2 * (f1 - f0)
            ) / denom
            tv = t1 - shift
            if t0 <= tv <= t2:
                t_star = float(tv)
                f_star = float(
                    f0 * (tv - t1) * (tv - t2) / ((t0 - t1) * (t0 - t2))
                    + f1 * (tv - t0) * (tv - t2) / ((t1 - t0) * (t1 - t2))
                    + f2 * (tv - t0) * (tv - t1) / ((t2 - t0) * (t2 - t1))
                )
    return TransferCurve(
        times=times,
        thetas=theta,
        fidelities=fidelities,
        t_star=t_star,
        f_star=f_star,
        mode="full-chain",
    )

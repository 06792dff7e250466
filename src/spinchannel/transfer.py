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
(``full_chain_transfer``), whose Krylov bases come from the eigensolver's
Lanczos recurrence.  SU(2) and global spin flip put the whole T > 0
mixture of the latter into two trajectories in one magnetization sector,
which the caller and one worker process share; at T = 0 the two split the
ground state's grid, and the worker reaches its part with one Chebyshev
jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import daxpy, dscal, zaxpy
from scipy.sparse import identity

from .chain import ChainSpec, build_transfer_hamiltonian, chain_bonds, enumerate_sector
from .eigensolve import SpectralData, _lanczos_vectors
from .errors import (
    ConfigError,
    FlatCurveError,
    OrderingError,
    PropagationError,
    UnsupportedRegimeError,
)
from .thermal import (SIGMA_DOT_SIGMA, boltzmann_factor, thermal_g, validate_werner_g,
                      werner_density_matrix)

__all__ = [
    "EffectiveModel",
    "TransferCurve",
    "effective_coupling",
    "closed_form_fidelity",
    "optimal_time",
    "max_fidelity",
    "numeric_peak",
    "predicted_peak",
    "three_site_oracle",
    "DEFAULT_KRYLOV_TOL",
    "full_chain_transfer",
]

_PEAK_SCAN_POINTS = 10_000  # grid points numeric_peak scans before refining
_KRYLOV_DIM = 30  # Lanczos basis dimension of one Krylov time step
_KRYLOV_REACH = 28.0  # radius * dt of _grid_steps' longest Krylov step (no halving at tol 1e-10)
_JUMP_TERM_COST = 0.33  # one real Chebyshev term in complex Lanczos steps (measured, L = 14)
# a jump's Bessel tail bound as a fraction of krylov_tol: a Krylov step's error estimate
# overstates its error by orders of magnitude, the tail does not; at 1e-3 the jump's error
# sits at its rounding floor (~5e-13 at L = 10..12) for ~1.6 z^(1/3) more terms (28 of ~5,000)
_JUMP_TAIL = 1e-3
DEFAULT_KRYLOV_TOL = 1e-10  # error bound of one Krylov time step, the CLI's default too


@dataclass(frozen=True)
class EffectiveModel:
    """Three-spin reduction of the probed chain.

    j_eff     -- effective probe-probe coupling (the singlet-triplet gap)
    gamma     -- sender coupling
    g         -- Werner parameter of the initial probe pair
    """

    j_eff: float
    gamma: float
    g: float

    def __post_init__(self):
        if not 0.0 < self.j_eff < math.inf:
            raise ValueError(f"j_eff must be positive and finite, got {self.j_eff}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 0 and finite, got {self.gamma}")
        validate_werner_g(self.g)


def effective_coupling(
    spectral: SpectralData, *, gamma="auto", temperature: float = 0.0
) -> EffectiveModel:
    """Three-spin model of a chain from its spectral_data: j_eff = gap, g thermal.

    gamma = "auto" resolves to the commensurate optimum gamma = j_eff.  No solve.
    """
    j_eff, g = spectral.gap, thermal_g(spectral, temperature)
    return EffectiveModel(j_eff=j_eff, gamma=j_eff if gamma == "auto" else float(gamma), g=g)


def closed_form_fidelity(model: EffectiveModel, t):
    """Transfer fidelity of the three-spin problem at time(s) t.

    f(t) = [ (22+4g)(j^2+gamma^2) - gamma*j*(19+10g)
             - 2(1+g) omega ( omega- cos(t omega+/2) + omega+ cos(t omega-/2) )
             + 3 gamma j (2g-1) cos(omega t) ] / (36 omega^2)

    Valid for any gamma >= 0 with j_eff > 0; at the commensurate point
    gamma = j_eff it collapses to a four-term cosine series in j_eff*t.
    """
    j, gam, g = model.j_eff, model.gamma, model.g
    omega = math.sqrt(j * j - j * gam + gam * gam)
    omega_plus, omega_minus = omega + (j + gam), omega - (j + gam)
    t = np.asarray(t, dtype=float)
    constant = (22.0 + 4.0 * g) * (j * j + gam * gam) - gam * j * (19.0 + 10.0 * g)
    slow = -2.0 * (1.0 + g) * omega * (
        omega_minus * np.cos(t * omega_plus / 2.0)
        + omega_plus * np.cos(t * omega_minus / 2.0)
    )
    fast = 3.0 * gam * j * (2.0 * g - 1.0) * np.cos(omega * t)
    f = (constant + slow + fast) / (36.0 * omega * omega)
    return float(f) if f.ndim == 0 else f


def _commensurate(model: EffectiveModel) -> bool:
    """gamma = j_eff to 1e-9 relative: where the closed-form peak holds."""
    return math.isclose(model.gamma, model.j_eff, rel_tol=1e-9)


def optimal_time(model: EffectiveModel) -> float:
    """Time of the first fidelity maximum at the commensurate point.

    t* = (2/j_eff) arccos[ (1 - 2g - sqrt(12g^2 + 12g + 9)) / (4(1+g)) ]

    The quotient is 0/0 at g = -1, so the argument is evaluated through
    its conjugate form -2u / (3 - 2u + sqrt(12u^2 - 12u + 9)), u = g + 1,
    which is free of that cancellation and exact at the singlet,
    t* = pi/j_eff.
    """
    if not _commensurate(model):
        raise UnsupportedRegimeError(
            f"closed-form peak requires gamma = j_eff (got gamma = {model.gamma}, "
            f"j_eff = {model.j_eff}); use numeric_peak for general gamma"
        )
    g = validate_werner_g(model.g)
    j = model.j_eff
    u = g + 1.0
    arg = -2.0 * u / (3.0 - 2.0 * u + math.sqrt(12.0 * u * u - 12.0 * u + 9.0))
    arg = min(max(arg, -1.0), 1.0)
    return 2.0 * math.acos(arg) / j


def max_fidelity(g: float) -> float:
    """Peak fidelity at the commensurate point, a function of g alone.

    f* = [ sqrt(3 (4g^2+4g+3)^3) + 24g^2 + 66g + 33 ] / [ 48 (1+g)^2 ]

    The quotient is 0/0 at g = -1.  For g + 1 <= 1/2 it is evaluated
    through its conjugate form, which removes the square-root cancellation
    that would otherwise cost ~eps/(1+g)^2 in accuracy and gives f* = 1 at
    the singlet; the conjugate form is 0/0 at g = 0, so the raw quotient
    serves above.  Never below 7/8, the g = 0 value.
    """
    g = validate_werner_g(g)
    u = g + 1.0
    x = 4.0 * u * u - 4.0 * u + 3.0  # = 4g^2 + 4g + 3
    root = math.sqrt(3.0 * x * x * x)
    if u <= 0.5:
        poly = 9.0 + u * (-22.0 + u * (21.0 + u * (-12.0 + 4.0 * u)))
        return poly / (root + 9.0 - 18.0 * u) + 0.5
    return (root + 24.0 * g * g + 66.0 * g + 33.0) / (48.0 * u * u)


def numeric_peak(model: EffectiveModel, t_max: float):
    """(t*, f*) of the first interior fidelity maximum, by scan + refinement.

    Scans _PEAK_SCAN_POINTS points on [0, t_max] for the first strict local
    maximum, then scipy's bounded Brent minimizer refines its bracket to 1e-10
    in t.  Works for any gamma, serving as the oracle for the commensurate
    closed forms and as the fallback away from them.
    """
    # imported here: a module-level scipy.optimize import slows every command's start-up
    from scipy.optimize import minimize_scalar

    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    ts = np.linspace(0.0, t_max, _PEAK_SCAN_POINTS)
    fs = closed_form_fidelity(model, ts)
    interior = np.nonzero((fs[1:-1] > fs[:-2]) & (fs[1:-1] >= fs[2:]))[0]
    if interior.size == 0:
        raise FlatCurveError(
            f"no interior fidelity maximum on [0, {t_max}] "
            f"(gamma = {model.gamma}, g = {model.g})"
        )
    i = int(interior[0]) + 1
    peak = minimize_scalar(lambda t: -closed_form_fidelity(model, t), bounds=(ts[i - 1], ts[i + 1]),
                           method="bounded", options={"xatol": 1e-10})
    return float(peak.x), float(closed_form_fidelity(model, peak.x))


def predicted_peak(model: EffectiveModel) -> tuple[float, float]:
    """(t*, f*) of the three-spin model: closed forms when gamma = j_eff.

    Elsewhere the first maximum is found by numeric_peak on
    [0, 8 pi / min(j_eff, gamma)], with j_eff alone when gamma = 0.
    """
    if _commensurate(model):
        return optimal_time(model), max_fidelity(model.g)
    scale = min(model.j_eff, model.gamma) if model.gamma > 0 else model.j_eff
    return numeric_peak(model, 8.0 * math.pi / scale)


# ---------------------------------------------------------------------------
# three-spin unitary oracle
# ---------------------------------------------------------------------------


def three_site_oracle(model: EffectiveModel, t, xi: np.ndarray):
    """Exact transfer fidelity from 8-dimensional unitary evolution at time(s) t.

    Sites (sender, A, B) = bits (0, 1, 2).  The initial state is
    |xi><xi| on the sender times the Werner state of the probe pair; the
    result is Tr[rho(t) |xi><xi|_B], which must not depend on xi.  The
    eigenmodes, rho(0) and the projector are built once for all times.
    """
    xi = np.asarray(xi, dtype=complex).reshape(2)
    xi = xi / np.linalg.norm(xi)
    xi_dm = np.outer(xi, xi.conj())
    bond = SIGMA_DOT_SIGMA / 4.0  # S.S of two spins 1/2
    h = model.gamma * np.kron(np.eye(2), bond) + model.j_eff * np.kron(bond, np.eye(2))
    energies, modes = np.linalg.eigh(h)
    # probe pair on bits (1, 2); S.S and the Werner state are invariant
    # under swap and global flip, so neither kron order nor basis order matters
    rho0 = np.kron(werner_density_matrix(model.g), xi_dm)
    projector_b = np.kron(xi_dm, np.eye(4, dtype=complex))
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1.0j * np.multiply.outer(t.ravel(), energies))
    u = (modes * phases[:, None, :]) @ modes.conj().T
    rho_t = u @ rho0 @ u.conj().transpose(0, 2, 1)
    f = np.real(np.einsum("nij,ji->n", rho_t, projector_b)).reshape(t.shape)
    return float(f) if f.ndim == 0 else f


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


def _krylov_step(matrix, psi: np.ndarray, dt_req: float, tol: float, basis: np.ndarray):
    """Advance psi by exp(-i H dt) for the largest dt <= dt_req meeting tol.

    One Lanczos basis (dimension <= _KRYLOV_DIM) from psi by the eigensolver's
    recurrence, ``_lanczos_vectors``, as in Expokit's Hermitian expv (Sidje,
    ACM TOMS 24, 1998), written into ``basis``, a (_KRYLOV_DIM, dim) complex
    buffer that a trajectory reuses for every step.  dt halves until
    beta_next * dt * |last coefficient| <= tol, else PropagationError; a
    breakdown (beta_next = 0) takes the full step.  psi_new is summed over the
    basis in place by zaxpy.  Returns (psi_new, dt_done).
    """
    nrm = math.sqrt(np.vdot(psi, psi).real)
    alphas, betas = np.empty(_KRYLOV_DIM), np.empty(_KRYLOV_DIM)
    m = sum(1 for _ in _lanczos_vectors(matrix, psi, alphas, betas, out=basis))
    beta_next = betas[m - 1]  # stored as 0 at a breakdown

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
    psi_new = np.zeros(psi.size, dtype=complex)
    for c, v in zip(nrm * coeff, basis[:m]):
        psi_new = zaxpy(v, psi_new, a=c)
    return psi_new, dt


def _grid_steps(spans: np.ndarray, radius: float) -> np.ndarray:
    """Krylov steps of each grid span: ceil(radius * span / _KRYLOV_REACH), at least one."""
    return np.maximum(1, np.ceil(radius * spans / _KRYLOV_REACH)).astype(int)


def _trajectory(matrix, psi: np.ndarray, times: np.ndarray, tol: float, radius: float):
    """Yield psi(t) at each time of a grid that starts at 0, by Krylov steps.

    The span to each grid time is cut into the ``_grid_steps`` count of equal
    steps for ``radius``, that of the matrix's spectral interval; a step that
    halves leaves its rest to the next.  Each step re-expands from a fresh
    Krylov space, so the error is at most tol per step; a norm drift above
    1e-10 at a grid point raises PropagationError.
    """
    t_now = 0.0
    basis = np.empty((_KRYLOV_DIM, psi.size), dtype=complex)
    for t_target, n_left in zip(times, _grid_steps(np.diff(times, prepend=0.0), radius)):
        while t_target - t_now > 1e-14 * max(1.0, t_target):
            psi, dt_done = _krylov_step(matrix, psi, (t_target - t_now) / n_left, tol, basis)
            t_now += dt_done
            n_left = max(n_left - 1, 1)
        drift = abs(np.linalg.norm(psi) - 1.0)
        if drift > 1e-10:
            raise PropagationError(f"norm drift {drift:.3e} at t = {t_now}")
        yield psi


def _spectral_interval(spec: ChainSpec, gamma: float) -> tuple[float, float]:
    """Center and radius (-S/4, S/2) of the transfer Hamiltonian's Gershgorin interval.

    S = gamma + the sum of the chain's couplings: every row's disc reaches up to
    S/4, and the Neel row's down to -3S/4.
    """
    total = math.fsum([gamma] + [c for *_, c in chain_bonds(spec)])
    return -0.25 * total, 0.5 * total


def _chebyshev_jump(matrix, psi0: np.ndarray, t0: float, tol: float, interval):
    """exp(-i H t0) psi0 for real symmetric CSR H and real unit psi0, by one Chebyshev series.

    With c +- r = ``interval``, which holds H's spectrum, X = (H - c)/r has its
    spectrum in [-1, 1] and exp(-i H t0) = exp(-i c t0) [J_0(z) + 2 sum_k (-i)^k J_k(z) T_k(X)],
    z = r t0 (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The vectors
    T_k(X) psi0 are real, from T_(k+1) = 2 X T_k - T_(k-1) with three vectors, and
    (-i)^k is real for even k and imaginary for odd k, so each term goes into one
    real accumulator, in place (BLAS daxpy and dscal).  The series stops at the
    first K with 2 sum_(k>=K) |J_k(z)| <= tol, which bounds the error since
    |T_k(X)| <= 1; Bessel values that miss J_0^2 + 2 sum J_k^2 = 1 by more than
    1e-12 + 2 eps z, or a tol that no computed order meets, raise PropagationError.
    The eps z term is scipy's jv's own rounding: the sum falls short of 1 by
    0.34-0.51 eps z for z = 500..1e5, so a fixed bound fails good values from
    z ~ 9000 on.  Returns (psi(t0), the tail bound).
    """
    # imported here: scipy.special takes 50-76 ms to import, and only a worker jumps
    from scipy.special import jv

    center, radius = interval
    z = radius * t0
    # J_k(z) falls like exp(-0.94 m^1.5) at k = z + m z^(1/3): m = 40 is below 1e-100
    bessel = jv(np.arange(math.ceil(z + 40.0 * np.cbrt(z) + 40.0)), z)
    unity = bessel[0] ** 2 + 2.0 * math.fsum(bessel[1:] ** 2)
    if not abs(unity - 1.0) <= 1e-12 + 2.0 * np.finfo(float).eps * z:
        raise PropagationError(f"Bessel values J_k({z:.6g}) miss J_0^2 + 2 sum J_k^2 = 1 "
                               f"by {unity - 1.0:.3e}")
    tails = 2.0 * np.cumsum(np.abs(bessel[::-1]))[::-1]  # tails[K] = 2 sum_(k>=K) |J_k|
    reached = np.nonzero(tails <= tol)[0]
    if reached.size == 0:
        raise PropagationError(f"Chebyshev jump cannot meet tol = {tol} at t = {t0}")
    terms = int(reached[0])
    # (-i)^k = 1, -i, -1, i, ...: the sign of its real or imaginary part
    coeffs = 2.0 * bessel[:terms] * np.resize([1.0, -1.0, -1.0, 1.0], terms)
    double_x = (matrix - center * identity(psi0.size, format="csr")) * (2.0 / radius)
    accumulators = [bessel[0] * psi0, np.zeros(psi0.size)]  # even k: real part; odd k: imaginary
    previous, current = None, psi0
    for k in range(1, terms):
        following = double_x @ current
        following = dscal(0.5, following) if k == 1 else daxpy(previous, following, a=-1.0)
        accumulators[k % 2] = daxpy(following, accumulators[k % 2], a=coeffs[k])
        previous, current = current, following
    psi = np.empty(psi0.size, dtype=complex)
    psi.real, psi.imag = accumulators
    psi *= np.exp(-1.0j * center * t0)
    return psi, float(tails[terms])


def _split_index(times: np.ndarray, radius: float) -> int:
    """Grid index where the worker's segment of a T = 0 trajectory starts.

    The caller Krylov-steps to times[k - 1]; the worker jumps to times[k] with
    ~radius * times[k] Chebyshev terms at _JUMP_TERM_COST products each and
    steps on to the end.  Each grid step costs _KRYLOV_DIM products per step of
    ``_grid_steps``, the count the trajectory takes, and k balances the two
    estimates; a pure function of the grid and the radius, so the bytes never
    depend on timing.
    """
    reached = np.concatenate(([0], np.cumsum(_KRYLOV_DIM * _grid_steps(np.diff(times), radius))))
    ks = np.arange(1, times.size)
    caller = reached[ks - 1]
    worker = _JUMP_TERM_COST * radius * times[ks] + (reached[-1] - reached[ks])
    return int(ks[np.argmin(np.maximum(caller, worker))])


def _flip_ladder(sector) -> np.ndarray:
    """Total S+ after spin flip F as columns: S+ F v = v[columns].sum(0).

    Site i's term maps a pattern with bit i set to it with every other bit
    complemented, which reverses the sorted order of those patterns; each
    pattern has n set bits, so columns has shape (n, dim); int32 halves its memory.
    """
    n = (sector.n_sites + sector.twice_sz) // 2
    columns, filled = np.empty((n, sector.dim), dtype=np.int32), np.zeros(sector.dim, dtype=np.intp)
    for site in range(sector.n_sites):
        rows = np.nonzero((sector.basis >> np.uint64(site)) & np.uint64(1))[0]
        columns[filled[rows], rows] = rows[::-1]
        filled[rows] += 1
    return columns


def _branch_theta(spec: ChainSpec, gamma: float, vector: np.ndarray, times: np.ndarray,
                  krylov_tol: float, parity: float | None = None) -> np.ndarray:
    """<sigma_z(B)> on the grid of m = 0 chain state ``vector`` with the sender up; with T0's
    parity f, the bracket <T|sigma_z(B)|T> + 2 f Re <S+ F T|sigma_z(B)|T>.  A grid that
    starts at t0 > 0 is reached by one Chebyshev jump of the real start state, then
    Krylov-stepped.  Builds its one sector, the (L+1)-site 2Sz = +1, its matrix and flip
    ladder, so a worker process needs only these arguments.  The sector's rows with the
    sender (bit 0) up are the sorted m = 0 chain patterns shifted up one bit, in order, so
    ``vector`` fills them as it stands; B is the top bit.
    """
    sector = enumerate_sector(spec.L + 1, 1)
    hamiltonian = build_transfer_hamiltonian(spec, sector, gamma).matrix
    interval = _spectral_interval(spec, gamma)
    psi0 = np.zeros(sector.dim)
    psi0[(sector.basis & np.uint64(1)) != 0] = vector
    if times[0] > 0.0:
        psi0, _ = _chebyshev_jump(hamiltonian.real, psi0, times[0], _JUMP_TAIL * krylov_tol,
                                  interval)
    signs = np.where(sector.basis >> np.uint64(spec.L), 1.0, -1.0)
    states = _trajectory(hamiltonian, psi0.astype(complex, copy=False), times - times[0],
                         krylov_tol, interval[1])
    if parity is None:
        forms = (np.vdot(s, signs * s).real for s in states)
    else:
        flip_ladder = _flip_ladder(sector)
        forms = (
            np.vdot(t + 2.0 * parity * t[flip_ladder].sum(axis=0), signs * t).real for t in states
        )
    return np.fromiter(forms, float, times.size)


def full_chain_transfer(
    spec: ChainSpec,
    temperature: float,
    times,
    krylov_tol: float = DEFAULT_KRYLOV_TOL,
    *,
    gamma: float,
    spectral: SpectralData,
) -> TransferCurve:
    """Transfer fidelity from exact dynamics of the (L+1)-site system.

    The chain starts in the truncated thermal mixture of the eigenstates in
    ``spectral`` (spectral_data of the chain without the sender): ground with
    weight w0 = 1/(1+3x), each triplet member with w = x/(1+3x), x from
    ``boltzmann_factor``.  The sender (coupled to A by gamma) starts up: a down
    one only flips theta's sign, by global spin flip.  The 2Sz = +1 sector
    holds it all:

        theta(t) = w0 <G|sigma_z(B)|G>
                   + w [3 <T|sigma_z(B)|T> + 2 sqrt(2) Re <P|sigma_z(B)|T>]

    G and T are ground and m = 0 triplet T0 tensored with the up sender; P is
    S+|T0>/sqrt(2) tensored with the down sender.  Spin flip maps the
    m = -1 member to -<P|sigma_z(B)|P>; the m = +1 member is pure S = 3/2,
    so by SU(2) its sigma_z(B) is 3x that of (P + sqrt(2) T)/sqrt(3), and
    the P diagonal terms cancel.  H commutes with global spin flip F and total
    S+: with f = <T0|F|T0> = +-1, F maps T0 with the down sender to f T,
    whose S+ is sqrt(2) P + T, so P(t) = (f S+ F T(t) - T(t))/sqrt(2) and
    the bracket is <T|sigma_z(B)|T> + 2 f Re <S+ F T|sigma_z(B)|T>.

    Only G and T are Krylov-propagated, by the caller and one worker process
    together.  At x > 0 the worker propagates T and the caller G, and theta is
    the same to the bit as with both in one process.  At x = 0 (T = 0, or a T
    whose factor underflows) they split G's grid at the index ``_split_index``
    picks from the grid and the radius of ``_spectral_interval``: the caller
    steps the first part, and the worker jumps to the second part's first time with one
    Chebyshev series of the real start state (``_chebyshev_jump``) and steps on,
    which moves theta there in its last digits only.  The worker is forked
    (``worker.call_both``) under any start method: its errors keep their type,
    a worker that dies without one raises SpinChainError, and a caller error
    ends the worker at once (SIGTERM); no process outlives the call.  t* and
    f* are the vertex of the quadratic fit through the grid maximum and its
    neighbours, if it lies among them.  A negative or non-finite gamma or T,
    or non-finite times raise ValueError, a missing or misfitting ground
    vector (or triplet vector at x > 0) ConfigError, and at x > 0 an f off
    T0's block sign -s = -(-1)^(L/2) by more than 1e-8 OrderingError, before
    any assembly or worker.  Memory
    and time grow combinatorially with L; the CLI caps L at
    FULL_CHAIN_LENGTH_CAP.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    x = boltzmann_factor(spectral, temperature)
    if not 0.0 < krylov_tol < math.inf:
        raise ValueError(f"krylov_tol must be positive and finite, got {krylov_tol}")
    times = np.asarray(times, dtype=float)
    valid = times.size >= 2 and times[0] == 0.0 and np.all(np.isfinite(times))
    if not (valid and np.all(np.diff(times) > 0.0)):
        raise ValueError("time grid must be finite, start at 0 and increase strictly")
    vectors = (spectral.ground,) if x == 0.0 else (spectral.ground, spectral.triplet)
    if any(v is None or v.size != math.comb(spec.L, spec.L // 2) for v in vectors):
        raise ConfigError("spectral must be spectral_data of this chain (with state vectors)")
    if x == 0.0:  # no weight on the triplet: split G's grid
        split = _split_index(times, _spectral_interval(spec, gamma)[1])
        own_times, remote_args = times[:split], (spectral.ground, times[split:], krylov_tol)
    else:
        # F reverses the sorted m = 0 basis: f pairs T0 with its reverse
        parity = float(np.dot(spectral.triplet, spectral.triplet[::-1]))
        block_sign = -(-1) ** (spec.L // 2)
        if abs(parity - block_sign) > 1e-8:
            raise OrderingError(f"triplet spin-flip parity <T0|F|T0> = {parity:.6g}, "
                                f"not its block's -s = {block_sign}")
        w0, w = 1.0 / (1.0 + 3.0 * x), x / (1.0 + 3.0 * x)
        own_times, remote_args = times, (spectral.triplet, times, krylov_tol, parity)
    from .worker import call_both  # imported here: no other command forks a worker

    own, other = call_both(_branch_theta, (spec, gamma, spectral.ground, own_times, krylov_tol),
                           (spec, gamma, *remote_args))
    theta = np.concatenate((own, other)) if x == 0.0 else w0 * own + w * other

    fidelities = (1.0 + theta) / 2.0
    i = int(np.argmax(fidelities))
    t_star, f_star = float(times[i]), float(fidelities[i])
    if 0 < i < times.size - 1:
        fit = np.polynomial.Polynomial.fit(times[i - 1 : i + 2], fidelities[i - 1 : i + 2], 2)
        vertex = fit.deriv().roots()  # empty if the three points are collinear
        if vertex.size and times[i - 1] <= vertex[0] <= times[i + 1]:
            t_star, f_star = float(vertex[0]), float(fit(vertex[0]))
    return TransferCurve(
        times=times,
        thetas=theta,
        fidelities=fidelities,
        t_star=t_star,
        f_star=f_star,
    )

"""Lowest eigenpairs of sector Hamiltonians and derived spectral quantities.

A k = 1 solve, the only kind the commands make, is a plain Lanczos run in
two passes that stores no basis: pass 1 runs the three-term recurrence until
the lowest Ritz pair's residual estimate meets tol, pass 2 reruns it and sums
the Ritz vector (the scheme of Cullum and Willoughby's Lanczos codes).  That
recurrence, ``_lanczos_vectors``, also builds each Krylov basis of the
transfer module's propagator, in complex arithmetic.  k >= 2
is ARPACK's implicitly restarted Lanczos, ``scipy.sparse.linalg.eigsh``,
imported only then; ``validate`` and the tests use it as the oracle of k = 1.
Every returned pair is checked against the absolute residual tolerance.
Start vectors are seeded random vectors, or grown from the chain two sites
shorter, so runs are bit-reproducible.  Blocks up to dim 256 (all m = 0
blocks to L = 12) get an exact dense ``eigh``.

``spectral_data`` packages the low-energy manifold, singlet ground state and
triplet, from two symmetry blocks of the m = 0 sector, solved side by side in
the caller and a forked worker once they are large; SU(2) fixes the other
triplet members, and T0's xx correlator is read in its block.  That the
lowest state of the triplet's block is the triplet is a theorem for Jp > 0 (J = 1)
(Marshall's sign rule and Lieb-Mattis, see ``spectral_data``); ``validate``
checks it against dense spectra once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import daxpy, get_blas_funcs

from .chain import (
    ChainSpec,
    SparseOperator,
    build_chain_hamiltonian,
    enumerate_sector,
    expand_to_sector,
    grow_into_block,
    pauli_xx_expectation,
    pauli_zz_expectation,
    symmetry_block,
)
from .errors import ConfigError, ConvergenceError, OrderingError

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_SEED",
    "EigenPair",
    "SpectralData",
    "lowest_eigenpairs",
    "dense_spectrum",
    "spectral_data",
]

# Default residual tolerance, two orders below the smallest gaps probed
# (~1e-3 J at L = 24, Jp = 0.1).
DEFAULT_TOL = 1e-10

# Fixed seed for Lanczos start vectors; change only via the seed argument.
DEFAULT_SEED = 1234

_DENSE_CUTOFF = 256         # eigh: ~10 ms at dim 252; the L = 10 transfer pins hold its vector
_DENSE_ORACLE_CAP = 4096    # refuse dense_spectrum above this dimension
_LANCZOS_MAX_STEPS = 5_000  # k = 1: steps of one Lanczos run (<= 80 in the commands and checks)
_LANCZOS_RESTARTS = 2       # k = 1: reruns from the Ritz vector of a pair above tol
_ARPACK_NCV = 12            # k >= 2: Lanczos vectors ARPACK keeps for k <= 5 (2k + 1 above)
_ARPACK_MAXITER = 50_000    # k >= 2: ARPACK's maxiter, implicit restarts allowed
# spectral_data forks a worker for T0's block from this dim on.  Medians of 11 calls, grown
# and random starts: L = 14 (dim 890) took 15-19 ms in one process and 19-23 ms with a
# worker, L = 16 (dim 3,264) 19-34 ms and 21-27 ms, L = 18 74-122 ms and 55-61 ms
_WORKER_MIN_DIM = 2048


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair: energy (units of J), unit vector, true residual |Hv - Ev|."""

    energy: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class SpectralData:
    """Low-energy manifold of a chain: singlet ground state and triplet.

    e0          -- singlet ground energy (m = 0 sector)
    e_triplet   -- triplet energy, the lowest level of T0's symmetry block
    gap         -- e_triplet - e0 (> 0)
    gzz_ground  -- <G| sigma_z(A) sigma_z(B) |G>
    gzz_triplet -- <T+1| sigma_z(A) sigma_z(B) |T+1>
    gxx_triplet -- <T+1| sigma_x(A) sigma_x(B) |T+1>
    ground, triplet -- unit vectors of |G> and of the m = 0 triplet member
                   |T0> in the sorted m = 0 basis; None in hand-built instances
    """

    e0: float
    e_triplet: float
    gap: float
    gzz_ground: float
    gzz_triplet: float
    gxx_triplet: float
    ground: np.ndarray | None = field(default=None, repr=False, compare=False)
    triplet: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.gap > 0.0:
            raise ValueError(f"gap must be positive, got {self.gap}")
        for name in ("gzz_ground", "gzz_triplet", "gxx_triplet"):
            val = getattr(self, name)
            if not -1.0 - 1e-9 <= val <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {val} outside [-1, 1]")


def _pairs_with_residuals(mat, energies: np.ndarray, vectors: np.ndarray) -> list[EigenPair]:
    pairs = []
    for i in np.argsort(energies, kind="stable"):
        vec = np.ascontiguousarray(vectors[:, i])
        res = float(np.linalg.norm(mat @ vec - energies[i] * vec))
        pairs.append(EigenPair(float(energies[i]), vec, res))
    return pairs


def _dense_pairs(op: SparseOperator, k: int) -> list[EigenPair]:
    energies, vectors = np.linalg.eigh(op.matrix.toarray())
    return _pairs_with_residuals(op.matrix, energies[:k], vectors[:, :k])


def _check_start(v0, dim: int) -> None:
    if np.iscomplexobj(v0):  # the operators are real symmetric
        raise ValueError(f"start vector must be real, got dtype {np.asarray(v0).dtype}")
    if v0 is not None and (np.shape(v0) != (dim,) or not np.all(np.isfinite(v0)) or not np.any(v0)):
        raise ValueError(f"start vector must be finite and nonzero, of shape ({dim},)")


def _lanczos_vectors(mat, v0: np.ndarray, alphas: np.ndarray, betas: np.ndarray, known: int = 0,
                     out: np.ndarray | None = None):
    """Yield v_1, v_2, ... of the plain three-term Lanczos recurrence from v0.

    The one recurrence of the package: real vectors for the eigensolver,
    complex ones for the Krylov propagator of the transfer module.  Keeps
    v_(j-1), v_j and the product only, and reorthogonalizes nothing; lost
    orthogonality does not spoil Lanczos f(A)b (Druskin, Greenbaum and
    Knizhnerman, SIAM J. Sci. Comput. 19, 1998).  Step j's coefficients go to
    alphas[j], betas[j]; the first ``known`` are reused, so a rerun with pass
    1's coefficients yields its vectors bit for bit.  A beta_j <= 1e-13
    max(1, |alpha_j|), an invariant subspace up to rounding, is stored as 0
    and ends the recurrence.

    Updates run in place (BLAS daxpy or zaxpy; ``w -= beta * v`` allocates a
    temporary) and normalizing multiplies by 1/beta, since dividing a
    complex vector by a real costs several times the multiply.  With ``out``
    (alphas.size rows) v_j is normalized into out[j], so a caller that
    keeps the basis holds one buffer instead of a fresh vector per step.
    """
    scale = 1.0 / math.sqrt(np.vdot(v0, v0).real)
    v_prev, v = None, v0 * scale if out is None else np.multiply(v0, scale, out=out[0])
    axpy = get_blas_funcs("axpy", (v,))
    for j in range(alphas.size):
        yield v
        w = mat @ v
        if j:
            w = axpy(v_prev, w, a=-betas[j - 1])
        if j >= known:
            alphas[j] = np.vdot(v, w).real
        w = axpy(v, w, a=-alphas[j])
        if j >= known:
            beta = math.sqrt(np.vdot(w, w).real)
            betas[j] = beta if beta > 1e-13 * max(1.0, abs(alphas[j])) else 0.0
        if not betas[j] or j + 1 == alphas.size:
            return
        v_prev, v = v, np.multiply(w, 1.0 / betas[j], out=w if out is None else out[j + 1])
        del w  # frees the product before the next one is made (with out it is not v)


def _lanczos_lowest(mat, v0: np.ndarray, tol: float) -> tuple[EigenPair, int]:
    """Lowest pair by two passes of ``_lanczos_vectors``, and the steps taken.

    Pass 1 stops at the first step m with beta_m |y_m| <= tol/2 for the lowest
    Ritz pair (theta, y) of the tridiagonal matrix, or at ``_LANCZOS_MAX_STEPS``;
    pass 2 reruns m steps and sums x = sum_j y_j v_j.  The energy is the
    Rayleigh quotient of x, and the residual the true |Hx - Ex|.
    """
    alphas, betas = np.zeros(_LANCZOS_MAX_STEPS), np.zeros(_LANCZOS_MAX_STEPS)
    vectors = _lanczos_vectors(mat, v0, alphas, betas)
    next(vectors)
    for m in range(1, _LANCZOS_MAX_STEPS + 1):
        exhausted = next(vectors, None) is None
        _, y = eigh_tridiagonal(alphas[:m], betas[: m - 1], select="i", select_range=(0, 0))
        if exhausted or betas[m - 1] * abs(y[-1, 0]) <= 0.5 * tol:
            break
    vectors.close()
    x = np.zeros(mat.shape[0])
    for coeff, v in zip(y[:, 0], _lanczos_vectors(mat, v0, alphas, betas, known=m)):
        x = daxpy(v, x, a=coeff)
    x *= 1.0 / np.linalg.norm(x)
    hx = mat @ x
    energy = float(x @ hx)
    residual = float(np.linalg.norm(daxpy(x, hx, a=-energy)))
    return EigenPair(energy, x, residual), m


def lowest_eigenpairs(
    op: SparseOperator,
    k: int,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = DEFAULT_SEED,
    v0: np.ndarray | None = None,
) -> list[EigenPair]:
    """k lowest eigenpairs of a real symmetric operator, energies ascending.

    Iterative solves start from v0, else from a seeded random vector, so a fixed
    seed gives the same pairs on one machine; dense blocks ignore both, but a
    seed < 0 or a complex, non-finite, zero or wrong-length v0 raises ValueError
    on every path.  k = 1 is a two-pass plain Lanczos (``_lanczos_lowest``) that
    stores no basis; a pair above tol reruns from its own vector up to
    ``_LANCZOS_RESTARTS`` times.  k >= 2 is ARPACK's implicitly restarted Lanczos
    (``scipy.sparse.linalg.eigsh``), keeping max(``_ARPACK_NCV``, 2k + 1) vectors
    and restarting at most ``_ARPACK_MAXITER`` times.  Every returned pair has a
    true residual |Hv - Ev| <= tol; otherwise, or when ARPACK runs out of restarts,
    ConvergenceError carries the residuals.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > op.dim:
        raise ValueError(f"k = {k} exceeds operator dimension {op.dim}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_start(v0, op.dim)

    dim = op.dim
    mat = op.matrix
    if dim <= max(_DENSE_CUTOFF, 4 * k):
        return _dense_pairs(op, k)

    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(dim)
    if k == 1:
        steps = 0
        for _ in range(1 + _LANCZOS_RESTARTS):
            pair, m = _lanczos_lowest(mat, v0, tol)
            steps += m
            if pair.residual <= tol:
                return [pair]
            v0 = pair.vector
        raise ConvergenceError(
            f"Lanczos residual {pair.residual:.3e} above tol {tol} after {steps} steps "
            f"in {1 + _LANCZOS_RESTARTS} runs (dim = {dim})",
            residuals=[pair.residual],
        )

    from scipy.sparse.linalg import ArpackNoConvergence, eigsh, norm  # only validate and tests need k >= 2

    ncv = min(dim, max(_ARPACK_NCV, 2 * k + 1))
    # ARPACK accepts a Ritz value theta once its error estimate is at most
    # arpack_tol * |theta|; since |theta| <= the infinity norm, that is <= tol.
    arpack_tol = tol / max(norm(mat, np.inf), 1.0)
    try:
        energies, vectors = eigsh(
            mat, k, which="SA", v0=v0, ncv=ncv, maxiter=_ARPACK_MAXITER, tol=arpack_tol
        )
    except ArpackNoConvergence as exc:
        done = _pairs_with_residuals(mat, exc.eigenvalues, exc.eigenvectors)
        raise ConvergenceError(
            f"ARPACK did not reach residual {tol} within {_ARPACK_MAXITER} restarts "
            f"({len(done)} of {k} pairs converged; dim = {dim})",
            residuals=[p.residual for p in done],
        ) from exc

    pairs = _pairs_with_residuals(mat, energies, vectors)
    residuals = [p.residual for p in pairs]
    if max(residuals) > tol:
        raise ConvergenceError(
            f"eigenpair residual {max(residuals):.3e} above tol {tol} "
            f"(dim = {dim}, k = {k})",
            residuals=residuals,
        )
    return pairs


def dense_spectrum(op: SparseOperator) -> np.ndarray:
    """All eigenvalues, ascending.  Refuses dimensions above 4096."""
    if op.dim > _DENSE_ORACLE_CAP:
        raise ValueError(
            f"dense_spectrum refuses dim = {op.dim} > {_DENSE_ORACLE_CAP}; "
            "use lowest_eigenpairs"
        )
    return np.linalg.eigvalsh(op.matrix.toarray())


def _lowest_in_block(spec: ChainSpec, block, tol: float, seed: int, start) -> EigenPair:
    (pair,) = lowest_eigenpairs(build_chain_hamiltonian(spec, block), 1, tol, seed=seed, v0=start)
    return pair


def spectral_data(
    spec: ChainSpec,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = DEFAULT_SEED,
    grow_from: SpectralData | None = None,
) -> SpectralData:
    """Low-energy manifold of a chain from one k = 1 solve in each of two blocks.

    With s = (-1)^(L/2) the singlet |G> is lowest in the (inversion,
    reflection) block (s, s) of the m = 0 sector and the triplet member |T0>
    in (-s, -s) (see the chain module): for Jp > 0 (J = 1) the chain is a bipartite
    antiferromagnet, whose E_min(S) increases with S (Marshall's sign rule and
    Lieb and Mattis, J. Math. Phys. 3, 749 (1962)), and block (-s, -s) holds
    only odd S.  ``validate`` checks that ordering once against dense spectra
    (``checks.triplet_ordering``).  ``expand_to_sector`` returns both in
    the plain m = 0 basis, with the block solve's residual.  By Wigner-Eckart
    zz(T+1) = xx(T0), xx(T+1) = (zz(T0) + xx(T0))/2.

    ``grow_from``, this function's result for the same couplings at L - 2,
    replaces the seeded random starts by its |G> and |T0> with a middle
    singlet inserted (``grow_into_block``): pure S = 0 and S = 1, the lowest
    spins of their blocks by Lieb-Mattis.  Both starts are built, and
    ``grow_from`` dropped, before any assembly (one without vectors raises
    ConfigError, one of another length DimensionError).  From T0's block dim
    ``_WORKER_MIN_DIM`` on, a forked worker (``worker.call_both``) assembles and
    solves it while the caller does G's; its errors arrive with their type
    (ConvergenceError with its residuals), and the bytes are those of one
    process.  The caller alone expands and measures.  xx(T0) is read on
    T0's block vector, as the A-B bond of ``build_bond_hamiltonian``, before
    any plain vector exists; the plain m = 0 basis is then enumerated once,
    and the two zz correlators read the expanded vectors.
    """
    if grow_from is not None and (grow_from.ground is None or grow_from.triplet is None):
        raise ConfigError("grow_from needs the vectors of a spectral_data result")

    a, b = 0, spec.L - 1  # the probes, A and B

    singlet_sign = (-1) ** (spec.L // 2)
    blocks = [symmetry_block(spec.L, sign, sign) for sign in (singlet_sign, -singlet_sign)]
    starts = [None, None] if grow_from is None else [
        grow_into_block(block, vec)
        for block, vec in zip(blocks, (grow_from.ground, grow_from.triplet))]
    for block, start in zip(blocks, starts):
        _check_start(start, block.dim)
    calls = [(spec, block, tol, seed, start) for block, start in zip(blocks, starts)]
    # no L - 2 vector lives through a solve, and popped calls free each start with its solve
    del grow_from, starts, start
    if blocks[1].dim < _WORKER_MIN_DIM:
        ground, triplet = [_lowest_in_block(*calls.pop(0)) for _ in blocks]
    else:
        from .worker import call_both  # imported here: only a large block forks

        ground, triplet = call_both(_lowest_in_block, calls.pop(0), calls.pop(0))
    if triplet.energy - ground.energy <= 10.0 * tol:
        raise OrderingError(
            f"singlet and triplet degenerate within 10*tol "
            f"(E(T0) - E(G) = {triplet.energy - ground.energy:.3e}); "
            "the thermal truncation assumes a unique singlet"
        )

    xx0 = pauli_xx_expectation(blocks[1], triplet.vector, a, b)
    sector0 = enumerate_sector(spec.L, 0)
    triplet = replace(triplet, vector=expand_to_sector(blocks[1], triplet.vector))
    zz0 = pauli_zz_expectation(sector0, triplet.vector, a, b)
    ground = replace(ground, vector=expand_to_sector(blocks[0], ground.vector))
    return SpectralData(
        e0=ground.energy,
        e_triplet=triplet.energy,
        gap=triplet.energy - ground.energy,
        gzz_ground=pauli_zz_expectation(sector0, ground.vector, a, b),
        gzz_triplet=xx0,
        gxx_triplet=0.5 * (zz0 + xx0),
        ground=ground.vector,
        triplet=triplet.vector,
    )

"""Lowest eigenpairs of sector Hamiltonians and derived spectral quantities.

The workhorse is ARPACK's implicitly restarted Lanczos method, called
through ``scipy.sparse.linalg.eigsh``; every pair it returns is checked
against the absolute residual tolerance.  Start vectors come from a seeded
generator so runs are bit-reproducible.  Sectors small enough to
diagonalize densely are handled densely.

``spectral_data`` packages the low-energy manifold, singlet ground state and
triplet, from one m = 0 solve; SU(2) symmetry fixes the other triplet
members.  It checks that the second m = 0 state really is a spin-1 triplet,
<S^2> = 2, and fails loudly otherwise instead of returning nonsense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .chain import (
    ChainSpec,
    Sector,
    SparseOperator,
    apply_total_spin_ladder,
    build_chain_hamiltonian,
    enumerate_sector,
    pauli_xx_expectation,
    pauli_zz_expectation,
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

_DENSE_CUTOFF = 64          # sectors this small go straight to numpy.linalg.eigh
_DENSE_ORACLE_CAP = 4096    # refuse dense_spectrum above this dimension
_NORM_ROW_BLOCK = 1 << 16   # rows per block when bounding the spectrum

# |<S^2> - 2| allowed for the triplet: a Ritz vector's error in <S^2> is of
# second order, ~L^2 (tol/level spacing)^2, while a singlet or quintet
# admixture of weight p moves it by 2p or 4p.
_TRIPLET_S2_TOL = 1e-6


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
    e_triplet   -- triplet energy, the second m = 0 level
    gap         -- e_triplet - e0 (> 0)
    gzz_ground  -- <G| sigma_z(A) sigma_z(B) |G>
    gzz_triplet -- <T+1| sigma_z(A) sigma_z(B) |T+1>
    gxx_triplet -- <T+1| sigma_x(A) sigma_x(B) |T+1>
    sector, ground, triplet -- m = 0 basis and unit vectors of |G> and of the
                   m = 0 triplet member |T0>; None in hand-built instances
    """

    e0: float
    e_triplet: float
    gap: float
    gzz_ground: float
    gzz_triplet: float
    gxx_triplet: float
    sector: Sector | None = field(default=None, repr=False, compare=False)
    ground: np.ndarray | None = field(default=None, repr=False, compare=False)
    triplet: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.gap > 0.0:
            raise ValueError(f"gap must be positive, got {self.gap}")
        for name in ("gzz_ground", "gzz_triplet", "gxx_triplet"):
            val = getattr(self, name)
            if not -1.0 - 1e-9 <= val <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {val} outside [-1, 1]")


def _norm_bound(mat) -> float:
    """Largest absolute row sum, an upper bound on every |eigenvalue|.

    Taken over blocks of rows so that no full copy of the matrix is made.
    """
    bound = 0.0
    for lo in range(0, mat.shape[0], _NORM_ROW_BLOCK):
        row_sums = abs(mat[lo : lo + _NORM_ROW_BLOCK]).sum(axis=1)
        bound = max(bound, float(row_sums.max()))
    return bound


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


def lowest_eigenpairs(
    op: SparseOperator,
    k: int,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = DEFAULT_SEED,
    max_subspace: int | None = None,
    max_steps: int = 50_000,
) -> list[EigenPair]:
    """k lowest eigenpairs of a real symmetric operator, energies ascending.

    ARPACK's implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``)
    started from a seeded random vector, so a fixed seed gives the same
    pairs on one machine.  ``max_subspace`` is ARPACK's ``ncv``, the number
    of Lanczos vectors kept (ARPACK's default when None); ``max_steps`` is
    ARPACK's ``maxiter``, the number of implicit restarts allowed.  Every
    returned pair has a true residual |Hv - Ev| <= tol; otherwise, or when
    ARPACK runs out of restarts, ConvergenceError carries the residuals.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > op.dim:
        raise ValueError(f"k = {k} exceeds operator dimension {op.dim}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    dim = op.dim
    mat = op.matrix
    if dim <= max(_DENSE_CUTOFF, 4 * k):
        return _dense_pairs(op, k)

    ncv = None if max_subspace is None else int(min(dim, max_subspace))
    v0 = np.random.default_rng(seed).standard_normal(dim)
    # ARPACK accepts a Ritz value theta once its error estimate is at most
    # arpack_tol * |theta|; since |theta| <= the norm bound, that is <= tol.
    arpack_tol = tol / max(_norm_bound(mat), 1.0)
    try:
        energies, vectors = eigsh(
            mat, k, which="SA", v0=v0, ncv=ncv, maxiter=max_steps, tol=arpack_tol
        )
    except ArpackNoConvergence as exc:
        done = _pairs_with_residuals(mat, exc.eigenvalues, exc.eigenvectors)
        raise ConvergenceError(
            f"ARPACK did not reach residual {tol} within {max_steps} restarts "
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


def spectral_data(
    spec: ChainSpec,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = DEFAULT_SEED,
) -> SpectralData:
    """Low-energy manifold of a chain from one solve of the m = 0 sector.

    The two lowest m = 0 states are the singlet |G> and the triplet member
    |T0>; by Wigner-Eckart zz(T+1) = xx(T0), xx(T+1) = (zz(T0) + xx(T0))/2.
    """
    if spec.gamma is not None:
        raise ConfigError("spectral_data expects a chain spec without a sender coupling")

    a, b = spec.site_a, spec.site_b

    sector0 = enumerate_sector(spec.L, 0)
    h0 = build_chain_hamiltonian(spec, sector0)
    ground, triplet = lowest_eigenpairs(h0, 2, tol, seed=seed)

    if triplet.energy - ground.energy <= 10.0 * tol:
        raise OrderingError(
            f"m = 0 ground state degenerate within 10*tol "
            f"(E1 - E0 = {triplet.energy - ground.energy:.3e}); "
            "the thermal truncation assumes a unique singlet"
        )

    _, raised = apply_total_spin_ladder(sector0, triplet.vector, raising=True)
    s2 = float(np.dot(raised, raised))  # <S^2> = |S+ v|^2 at m = 0
    if abs(s2 - 2.0) > _TRIPLET_S2_TOL:
        raise OrderingError(
            f"second m = 0 state has <S^2> = {s2:.6g}, not 2; the first "
            "excitation is not the expected triplet (Jp too large?)"
        )

    zz0 = pauli_zz_expectation(sector0, triplet.vector, a, b)
    xx0 = pauli_xx_expectation(sector0, triplet.vector, a, b)
    return SpectralData(
        e0=ground.energy,
        e_triplet=triplet.energy,
        gap=triplet.energy - ground.energy,
        gzz_ground=pauli_zz_expectation(sector0, ground.vector, a, b),
        gzz_triplet=xx0,
        gxx_triplet=0.5 * (zz0 + xx0),
        sector=sector0,
        ground=ground.vector,
        triplet=triplet.vector,
    )

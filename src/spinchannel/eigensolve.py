"""Lowest eigenpairs of sector Hamiltonians and derived spectral quantities.

The workhorse is ARPACK's implicitly restarted Lanczos method, called
through ``scipy.sparse.linalg.eigsh``; every pair it returns is checked
against the absolute residual tolerance.  Start vectors come from a seeded
generator so runs are bit-reproducible.  Sectors small enough to
diagonalize densely are handled densely.

``spectral_data`` packages what the thermal two-probe state needs: the
singlet ground energy, the lowest triplet energy and gap, and the three
end-to-end Pauli correlators.  It verifies that the lowest excitation really
is the expected spin-1 triplet by checking that the second state of the
m = 0 sector is degenerate with the lowest m = 1 state, and fails loudly
otherwise instead of returning nonsense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .chain import (
    ChainSpec,
    SparseOperator,
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


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair: energy (units of J), unit vector, true residual |Hv - Ev|."""

    energy: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class SpectralData:
    """Spectral inputs of the thermal two-probe state.

    e0          -- singlet ground energy (m = 0 sector)
    e_triplet   -- lowest energy of the m = 1 sector
    gap         -- e_triplet - e0 (> 0)
    gzz_ground  -- <G| sigma_z(A) sigma_z(B) |G>
    gzz_triplet -- <1| sigma_z(A) sigma_z(B) |1>
    gxx_triplet -- <1| sigma_x(A) sigma_x(B) |1>
    """

    e0: float
    e_triplet: float
    gap: float
    gzz_ground: float
    gzz_triplet: float
    gxx_triplet: float

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
    """Ground/triplet energies, gap and end-to-end correlators of a chain.

    Diagonalizes the m = 0 sector for the singlet ground state (two states,
    so the triplet identification can be checked) and the m = 1 sector for
    the triplet member carrying the transverse correlator.
    """
    if spec.gamma is not None:
        raise ConfigError("spectral_data expects a chain spec without a sender coupling")

    a, b = spec.site_a, spec.site_b

    sector0 = enumerate_sector(spec.L, 0)
    h0 = build_chain_hamiltonian(spec, sector0)
    ground, second = lowest_eigenpairs(h0, 2, tol, seed=seed)

    if second.energy - ground.energy <= 10.0 * tol:
        raise OrderingError(
            f"m = 0 ground state degenerate within 10*tol "
            f"(E1 - E0 = {second.energy - ground.energy:.3e}); "
            "the thermal truncation assumes a unique singlet"
        )

    sector1 = enumerate_sector(spec.L, 2)
    h1 = build_chain_hamiltonian(spec, sector1)
    (triplet,) = lowest_eigenpairs(h1, 1, tol, seed=seed)

    if abs(second.energy - triplet.energy) > 10.0 * tol:
        raise OrderingError(
            f"second m = 0 state (E = {second.energy:.12g}) not degenerate with "
            f"lowest m = 1 state (E = {triplet.energy:.12g}); the first excitation "
            "is not the expected triplet (Jp too large?)"
        )

    return SpectralData(
        e0=ground.energy,
        e_triplet=triplet.energy,
        gap=triplet.energy - ground.energy,
        gzz_ground=pauli_zz_expectation(sector0, ground.vector, a, b),
        gzz_triplet=pauli_zz_expectation(sector1, triplet.vector, a, b),
        gxx_triplet=pauli_xx_expectation(sector1, triplet.vector, a, b),
    )

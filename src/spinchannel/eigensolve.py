"""Lowest eigenpairs of sector Hamiltonians and derived spectral quantities.

The workhorse is ARPACK's implicitly restarted Lanczos method, called
through ``scipy.sparse.linalg.eigsh``; every pair it returns is checked
against the absolute residual tolerance.  Start vectors are seeded random
vectors, or grown from the chain two sites shorter, so runs are
bit-reproducible.  ARPACK keeps 12 Lanczos vectors, not scipy's 20: k = 1 needs ncv >= 2k (ARPACK Users' Guide), and 10-12 were fastest at L = 22.
Blocks up to dim 256 (all m = 0 blocks to L = 12) get an exact dense ``eigh``.

``spectral_data`` packages the low-energy manifold, singlet ground state and
triplet, from two symmetry blocks of the m = 0 sector; SU(2) fixes
the other triplet members.  It checks that the lowest state of the triplet's
block really is a spin-1 triplet, <S^2> = 2, and fails loudly otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .chain import (
    ChainSpec,
    SparseOperator,
    apply_total_spin_ladder,
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
_NORM_ROW_BLOCK = 1 << 16   # rows per block when bounding the spectrum
_ARPACK_NCV = 12            # Lanczos vectors kept for k <= 5 (2k + 1 above); they set the peak
_ARPACK_MAXITER = 50_000    # ARPACK's maxiter, implicit restarts allowed

# |<S^2> - 2| allowed for the triplet: a Ritz vector's error in <S^2> is of
# second order, ~L^2 (tol/level spacing)^2, while an admixture of weight p
# of T0's block's next spin, S = 3, moves it by 10p.
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


def _norm_bound(mat) -> float:
    """Largest absolute row sum, an upper bound on every |eigenvalue|.

    Summed from slices of the CSR arrays, ``_NORM_ROW_BLOCK`` rows at a
    time, so |values| of only one block is ever copied.  ``reduceat`` over
    the non-empty rows is what scipy's ``abs(mat).sum(axis=1)`` runs, so the
    bound is the same bit for bit.
    """
    bound, indptr = 0.0, mat.indptr
    for lo in range(0, mat.shape[0], _NORM_ROW_BLOCK):
        starts = indptr[lo : lo + _NORM_ROW_BLOCK + 1]
        first = starts[:-1][np.diff(starts) > 0]
        if first.size:
            values = np.abs(mat.data[first[0] : starts[-1]])
            bound = max(bound, float(np.add.reduceat(values, first - first[0]).max()))
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


def _check_start(v0, dim: int) -> None:
    if v0 is not None and (np.shape(v0) != (dim,) or not np.all(np.isfinite(v0)) or not np.any(v0)):
        raise ValueError(f"start vector must be finite and nonzero, of shape ({dim},)")


def lowest_eigenpairs(
    op: SparseOperator,
    k: int,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = DEFAULT_SEED,
    v0: np.ndarray | None = None,
) -> list[EigenPair]:
    """k lowest eigenpairs of a real symmetric operator, energies ascending.

    ARPACK's implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``)
    started from v0, else from a seeded random vector, so a fixed seed gives
    the same pairs on one machine; a v0 of the wrong length, not finite or
    zero raises ValueError, and dense blocks ignore it.  ARPACK keeps
    max(``_ARPACK_NCV``, 2k + 1) Lanczos vectors and restarts at most
    ``_ARPACK_MAXITER`` times.  Every returned pair
    has a true residual |Hv - Ev| <= tol; otherwise, or when ARPACK runs
    out of restarts, ConvergenceError carries the residuals.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > op.dim:
        raise ValueError(f"k = {k} exceeds operator dimension {op.dim}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_start(v0, op.dim)

    dim = op.dim
    mat = op.matrix
    if dim <= max(_DENSE_CUTOFF, 4 * k):
        return _dense_pairs(op, k)

    ncv = min(dim, max(_ARPACK_NCV, 2 * k + 1))
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(dim)
    # ARPACK accepts a Ritz value theta once its error estimate is at most
    # arpack_tol * |theta|; since |theta| <= the norm bound, that is <= tol.
    arpack_tol = tol / max(_norm_bound(mat), 1.0)
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
    in (-s, -s) (see the chain module).  ``expand_to_sector`` returns both in
    the plain m = 0 basis, with the block solve's residual.  By Wigner-Eckart
    zz(T+1) = xx(T0), xx(T+1) = (zz(T0) + xx(T0))/2.

    ``grow_from``, this function's result for the same couplings at L - 2,
    replaces the seeded random starts by its |G> and |T0> with a middle
    singlet inserted (``grow_into_block``): pure S = 0 and S = 1, the lowest
    spins of their blocks by Lieb-Mattis.  Both starts are built, and
    ``grow_from`` dropped, before any assembly (one without vectors raises
    ConfigError, one of another length DimensionError).  The plain m = 0
    basis is enumerated once, after both solves.
    """
    if spec.gamma is not None:
        raise ConfigError("spectral_data expects a chain spec without a sender coupling")
    if grow_from is not None and (grow_from.ground is None or grow_from.triplet is None):
        raise ConfigError("grow_from needs the vectors of a spectral_data result")

    a, b = spec.site_a, spec.site_b

    singlet_sign = (-1) ** (spec.L // 2)
    blocks = [symmetry_block(spec.L, sign, sign) for sign in (singlet_sign, -singlet_sign)]
    starts = [None, None] if grow_from is None else [
        grow_into_block(block, vec)
        for block, vec in zip(blocks, (grow_from.ground, grow_from.triplet))]
    for block, start in zip(blocks, starts):
        _check_start(start, block.dim)
    del grow_from  # no L - 2 vector lives through a solve
    solves = [lowest_eigenpairs(build_chain_hamiltonian(spec, block), 1, tol, seed=seed,
                                v0=starts.pop(0)) for block in blocks]
    sector0 = enumerate_sector(spec.L, 0)
    ground, triplet = [  # expanded after both solves: no plain m = 0 vector lives through one
        replace(pair, vector=expand_to_sector(block, pair.vector))
        for block, (pair,) in zip(blocks, solves)
    ]

    if triplet.energy - ground.energy <= 10.0 * tol:
        raise OrderingError(
            f"singlet and triplet degenerate within 10*tol "
            f"(E(T0) - E(G) = {triplet.energy - ground.energy:.3e}); "
            "the thermal truncation assumes a unique singlet"
        )

    _, raised = apply_total_spin_ladder(sector0, triplet.vector, raising=True)
    s2 = float(np.dot(raised, raised))  # <S^2> = |S+ v|^2 at m = 0
    if abs(s2 - 2.0) > _TRIPLET_S2_TOL:
        raise OrderingError(
            f"lowest state of T0's block has <S^2> = {s2:.6g}, not 2; the first "
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
        ground=ground.vector,
        triplet=triplet.vector,
    )

"""Low-temperature thermal state of the two probe spins.

Truncating the chain ensemble to the singlet ground state plus the lowest
triplet (weight e^{-gap/T} per member) leaves the probe pair in an
SU(2)-invariant Werner state, fully described by the single scalar

    g(T) = [gzz_G + e^{-gap/T} (gzz_T + 2 gxx_T)] / (1 + 3 e^{-gap/T})

with g in [-1, 1/3]; the pair is entangled iff g < -1/3.  The Boltzmann
factor is evaluated directly and allowed to underflow, which reproduces the
exact T -> 0 limit g = gzz_ground.
"""

from __future__ import annotations

import math

import numpy as np

from .eigensolve import SpectralData

__all__ = [
    "SIGMA_DOT_SIGMA",
    "WERNER_MIN",
    "WERNER_MAX",
    "validate_werner_g",
    "thermal_g",
    "werner_density_matrix",
]

WERNER_MIN = -1.0
WERNER_MAX = 1.0 / 3.0

# sigma_A . sigma_B of two qubits, basis order {up-up, up-down, down-up, down-down}
SIGMA_DOT_SIGMA = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 2.0, 0.0],
        [0.0, 2.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def validate_werner_g(g: float, tol: float = 1e-9) -> float:
    """Check g against the Werner range [-1, 1/3], forgiving float dust.

    Values within ``tol`` outside the range are clamped; anything further
    out raises ValueError.
    """
    g = float(g)
    if not WERNER_MIN - tol <= g <= WERNER_MAX + tol:
        raise ValueError(f"Werner parameter g = {g} outside [{WERNER_MIN}, {WERNER_MAX:.6g}]")
    return min(max(g, WERNER_MIN), WERNER_MAX)


def thermal_g(spectral: SpectralData, temperature: float) -> float:
    """Werner parameter of the thermal two-probe state at temperature T > 0."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = math.exp(-spectral.gap / temperature)
    g = (spectral.gzz_ground + x * (spectral.gzz_triplet + 2.0 * spectral.gxx_triplet)) / (
        1.0 + 3.0 * x
    )
    return validate_werner_g(g)


def werner_density_matrix(g: float) -> np.ndarray:
    """Two-qubit Werner state (1/4) I + (g/4) sigma_A . sigma_B.

    Basis order {up-up, up-down, down-up, down-down}.  Unit trace by
    construction; positive semidefinite for g in [-1, 1/3].
    """
    g = validate_werner_g(g)
    return np.eye(4) / 4.0 + (g / 4.0) * SIGMA_DOT_SIGMA

"""Low-temperature thermal state of the two probe spins.

Truncating the chain ensemble to the singlet ground state plus the lowest
triplet (weight e^{-gap/T} per member) leaves the probe pair in an
SU(2)-invariant Werner state, fully described by the single scalar

    g(T) = [gzz_G + e^{-gap/T} (gzz_T + 2 gxx_T)] / (1 + 3 e^{-gap/T})

with g in [-1, 1/3]; the pair is entangled iff g < -1/3.  Every protocol
takes its temperature rule, 0 <= T < inf, and its truncation warning from
here.  T = 0 is the case x = e^{-gap/T} = 0, where g = gzz_ground exactly;
x is allowed to underflow, so a T far below the gap is that case too.
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
    "boltzmann_factor",
    "thermal_g",
    "truncation_warnings",
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


def validate_werner_g(g: float) -> float:
    """Check g against the Werner range [-1, 1/3], forgiving float dust.

    Values within 1e-9 outside the range are clamped; anything further
    out raises ValueError.
    """
    g = float(g)
    if not WERNER_MIN - 1e-9 <= g <= WERNER_MAX + 1e-9:
        raise ValueError(f"Werner parameter g = {g} outside [{WERNER_MIN}, {WERNER_MAX:.6g}]")
    return min(max(g, WERNER_MIN), WERNER_MAX)


def boltzmann_factor(spectral: SpectralData, temperature: float) -> float:
    """x = exp(-gap/T), each triplet member's weight against the ground state; 0.0 at T = 0."""
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be >= 0 and finite, got {temperature}")
    return math.exp(-spectral.gap / temperature) if temperature > 0.0 else 0.0


def thermal_g(spectral: SpectralData, temperature: float) -> float:
    """Werner parameter of the thermal two-probe state at temperature T >= 0."""
    x = boltzmann_factor(spectral, temperature)
    g = spectral.gzz_ground + x * (spectral.gzz_triplet + 2.0 * spectral.gxx_triplet)
    return validate_werner_g(g / (1.0 + 3.0 * x))


def truncation_warnings(spectral: SpectralData, temperatures) -> list[str]:
    """The truncation's warning if a temperature (or one of a grid) exceeds gap/2, else []."""
    if float(np.max(temperatures)) <= spectral.gap / 2.0:
        return []
    return [f"temperatures above gap/2 = {spectral.gap / 2.0:.6g}: the four-state "
            "thermal truncation may miss higher levels there"]


def werner_density_matrix(g: float) -> np.ndarray:
    """Two-qubit Werner state (1/4) I + (g/4) sigma_A . sigma_B.

    Basis order {up-up, up-down, down-up, down-down}.  Unit trace by
    construction; positive semidefinite for g in [-1, 1/3].
    """
    g = validate_werner_g(g)
    return np.eye(4) / 4.0 + (g / 4.0) * SIGMA_DOT_SIGMA

"""Teleportation across the chain, viewed as a depolarizing channel.

With a Werner resource state shared between the probes, standard
teleportation acts on the input qubit as

    channel(xi) = theta * xi + (1 - theta) * I/2,     theta = -g,

so the fidelity f = (1 - g)/2 is independent of the input state.  Heating
the chain drives g up towards the separability edge g = -1/3, where f hits
the classical bound 2/3; the closed-form threshold temperature solves
thermal_g(T*) = -1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import SpectralData
from .errors import NoThresholdError
from .thermal import thermal_g, validate_werner_g

__all__ = [
    "DepolarizingChannel",
    "FidelityCurve",
    "shrink_factor",
    "apply_channel",
    "teleport_fidelity",
    "threshold_temperature",
    "fidelity_curve",
]


@dataclass(frozen=True)
class DepolarizingChannel:
    """Qubit channel xi -> theta * xi + (1 - theta) * I/2."""

    theta: float

    def __post_init__(self):
        if not -1.0 / 3.0 - 1e-9 <= self.theta <= 1.0 + 1e-9:
            raise ValueError(f"shrinking factor theta = {self.theta} outside [-1/3, 1]")

    @property
    def error_probability(self) -> float:
        """p = 3 (1 - theta) / 4, the weight of the three Pauli error branches."""
        return 3.0 * (1.0 - self.theta) / 4.0


def shrink_factor(g: float) -> DepolarizingChannel:
    """Channel realized by teleportation over the Werner state with parameter g."""
    return DepolarizingChannel(theta=-validate_werner_g(g))


def _check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def apply_channel(channel: DepolarizingChannel, qubit: np.ndarray) -> np.ndarray:
    """Apply the depolarizing channel to a single-qubit density matrix."""
    rho = _check_density_matrix(qubit)
    return channel.theta * rho + (1.0 - channel.theta) * np.eye(2) / 2.0


def teleport_fidelity(g: float) -> float:
    """f = (1 - g)/2, independent of the teleported state."""
    return (1.0 - validate_werner_g(g)) / 2.0


def threshold_temperature(spectral: SpectralData) -> float:
    """Temperature above which the thermal probe pair becomes separable.

    Inverts thermal_g(T) = -1/3 in closed form:

        T* = gap / log[(gzz_T + 2 gxx_T + 1) / (-gzz_G - 1/3)]

    Exists only when the probes are entangled at T = 0 (gzz_G < -1/3).
    """
    numerator = spectral.gzz_triplet + 2.0 * spectral.gxx_triplet + 1.0
    denominator = -spectral.gzz_ground - 1.0 / 3.0
    if denominator <= 0.0:
        raise NoThresholdError(
            f"probes separable already at T = 0 (gzz_ground = {spectral.gzz_ground:.6g})"
        )
    ratio = numerator / denominator
    if ratio <= 1.0:
        raise NoThresholdError(
            "truncated thermal state never crosses the separability edge"
        )
    return spectral.gap / math.log(ratio)


@dataclass(frozen=True)
class FidelityCurve:
    """Teleportation fidelity on a temperature grid, plus its threshold."""

    temperatures: np.ndarray
    g_values: np.ndarray
    fidelities: np.ndarray
    t_star: float | None


def fidelity_curve(spectral: SpectralData, temperatures) -> FidelityCurve:
    """Teleportation fidelity vs temperature for the chain of ``spectral``.

    No solve is made here: the temperature enters only through the
    Boltzmann factor, so one spectral_data call feeds the whole grid.
    """
    temps = np.asarray(temperatures, dtype=float)
    if temps.size == 0:
        raise ValueError("temperature grid is empty")
    g_values = np.array([thermal_g(spectral, t) for t in temps])
    fidelities = np.array([teleport_fidelity(g) for g in g_values])
    try:
        t_star = threshold_temperature(spectral)
    except NoThresholdError:
        t_star = None
    return FidelityCurve(
        temperatures=temps,
        g_values=g_values,
        fidelities=fidelities,
        t_star=t_star,
    )

"""Concurrence bookkeeping for the entanglement-sharing protocol.

Sending half of a fresh singlet through the transfer channel at the optimal
time leaves the (kept qubit, receiver) pair in a Pauli-error mixture with
error probability p = 3(1 - theta)/4, whose concurrence is
max(1 - 2p, 0) = max(3 f* - 2, 0).  The probe pair itself, being a Werner
state, has concurrence max(-3g/2 - 1/2, 0).  The protocol never decreases
concurrence; equality holds only for a pure singlet resource (g = -1).

``concurrence`` is a general two-qubit Wootters computation kept here so
tests can validate the two closed forms against it instead of assuming
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .teleport import DepolarizingChannel
from .thermal import validate_werner_g
from .transfer import max_fidelity

__all__ = [
    "SharingResult",
    "werner_concurrence",
    "sharing_concurrence",
    "sharing_report",
    "concurrence",
    "shared_output_state",
]


def werner_concurrence(g: float) -> float:
    """Concurrence of the Werner state with parameter g: max(-3g/2 - 1/2, 0)."""
    g = validate_werner_g(g)
    return max(-1.5 * g - 0.5, 0.0)


def sharing_concurrence(f_star: float) -> float:
    """Concurrence shared through a channel of peak fidelity f*: max(3 f* - 2, 0)."""
    if not 0.0 <= f_star <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {f_star}")
    return max(3.0 * f_star - 2.0, 0.0)


@dataclass(frozen=True)
class SharingResult:
    """Outcome of sharing a singlet through the commensurate transfer channel."""

    g: float
    f_star: float
    error_prob: float
    concurrence_out: float
    concurrence_in: float

    @property
    def enhancement(self) -> float:
        return self.concurrence_out - self.concurrence_in


def sharing_report(g: float) -> SharingResult:
    """Compare the shared concurrence against the bare probe-pair concurrence."""
    g = validate_werner_g(g)
    f_star = max_fidelity(g)
    error_prob = DepolarizingChannel(theta=2.0 * f_star - 1.0).error_probability
    c_out = sharing_concurrence(f_star)
    c_in = werner_concurrence(g)
    if c_out < c_in - 1e-12:
        raise RuntimeError(
            f"enhancement inequality violated (C_out = {c_out}, C_in = {c_in}); "
            "internal inconsistency"
        )
    return SharingResult(
        g=g,
        f_star=f_star,
        error_prob=error_prob,
        concurrence_out=c_out,
        concurrence_in=c_in,
    )


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    eigenvalues = np.linalg.eigvals(rho @ rho_tilde)
    # tiny negative real parts are roundoff
    lam = np.sqrt(np.clip(np.sort(eigenvalues.real)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def shared_output_state(p: float) -> np.ndarray:
    """Singlet sent through a Pauli-error channel with error probability p.

    rho_out = (1-p) |psi-><psi-| + (p/3) sum_k (I x sigma_k) |psi-><psi-| (I x sigma_k)

    Basis order {up-up, up-down, down-up, down-down}.  Used as the explicit
    state whose Wootters concurrence validates max(1 - 2p, 0).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"error probability must be in [0, 1], got {p}")
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho_in = np.outer(psi_minus, psi_minus).astype(complex)
    sigmas = (
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )
    out = (1.0 - p) * rho_in
    for sigma in sigmas:
        kraus = np.kron(np.eye(2, dtype=complex), sigma)
        out += (p / 3.0) * kraus @ rho_in @ kraus.conj().T
    return out

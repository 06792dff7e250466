"""Gap-vs-length sweeps and the power-law fit gap = c * L^(-alpha).

The boundary-induced singlet-triplet gap of the probed chain decays
algebraically with the chain length.  ``gap_sweep`` tabulates it over a
family of lengths at fixed probe coupling; ``fit_power_law`` extracts the
exponent by ordinary least squares on log-log axes.  Lengths below 8 are
excluded from fits by default: finite-size corrections at tiny L distort
the asymptotic exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .chain import ChainSpec
from .eigensolve import DEFAULT_SEED, DEFAULT_TOL, SpectralData, spectral_data
from .errors import ConvergenceError, InsufficientDataError, OrderingError

__all__ = [
    "GapRow",
    "GapTable",
    "PowerLawFit",
    "gap_sweep",
    "fit_power_law",
]

DEFAULT_FIT_MIN_LENGTH = 8


class GapRow(NamedTuple):
    length: int
    jp: float
    gap: float
    e0: float
    spectral: SpectralData | None = None  # the length's spectral_data, without vectors


@dataclass(frozen=True)
class GapTable:
    """Rows by ascending length, sweep warnings, and lengths whose solve failed."""

    rows: tuple[GapRow, ...]
    warnings: tuple[str, ...] = field(default=())
    skipped: tuple[int, ...] = field(default=())


@dataclass(frozen=True)
class PowerLawFit:
    """gap = c * L^(-alpha) fitted on log-log axes."""

    c: float
    alpha: float
    r_squared: float
    n_points: int


def gap_sweep(
    lengths,
    jp: float,
    tol: float = DEFAULT_TOL,
    *,
    J: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> GapTable:
    """One spectral_data per length, deterministic.

    Each length whose L - 2 was solved grows its start vectors from that
    solve (``grow_from``).  Duplicate lengths are dropped with a warning; a
    length whose diagonalization fails is recorded as missing rather than
    fabricated.
    """
    requested = [int(L) for L in lengths]
    specs = [ChainSpec(L=L, J=J, Jp=jp) for L in sorted(set(requested))]
    warnings, skipped = [], []
    if len(specs) != len(requested):
        dupes = sorted({L for L in requested if requested.count(L) > 1})
        warnings.append(f"duplicate lengths removed: {dupes}")
    rows, solved = [], []  # solved: the last solve, with its vectors
    for spec in specs:
        if solved and rows[-1].length != spec.L - 2:
            solved.clear()
        try:
            # popped as a temporary, so spectral_data frees the L - 2 data before assembling
            solved.append(
                spectral_data(spec, tol, seed=seed, grow_from=solved.pop() if solved else None)
            )
        except (ConvergenceError, OrderingError) as exc:
            # a failed length is recorded as missing, never fabricated
            warnings.append(f"L = {spec.L} skipped: {exc}")
            skipped.append(spec.L)
            continue
        sd = replace(solved[0], ground=None, triplet=None)
        rows.append(GapRow(length=spec.L, jp=jp, gap=sd.gap, e0=sd.e0, spectral=sd))
    return GapTable(rows=tuple(rows), warnings=tuple(warnings), skipped=tuple(skipped))


def fit_power_law(table: GapTable) -> PowerLawFit:
    """Least squares of log(gap) against log(L), L >= DEFAULT_FIT_MIN_LENGTH, one jp."""
    jps = {row.jp for row in table.rows}
    if len(jps) > 1:
        raise ValueError(f"fit needs a single-jp series, table mixes jp = {sorted(jps)}")
    rows = [row for row in table.rows if row.length >= DEFAULT_FIT_MIN_LENGTH]
    if len(rows) < 4:
        raise InsufficientDataError(
            f"power-law fit needs >= 4 points with L >= {DEFAULT_FIT_MIN_LENGTH}, got {len(rows)}"
        )
    x = np.log([row.length for row in rows])
    y = np.log([row.gap for row in rows])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 1e-30 else 0.0
    return PowerLawFit(
        c=math.exp(intercept),
        alpha=-float(slope),
        r_squared=r_squared,
        n_points=len(rows),
    )

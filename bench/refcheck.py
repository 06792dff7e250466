"""Correctness gate: CLI outputs against stored references, with tolerances.

References were made by ``make_reference.py`` from the seed commit with the
CLI's default seed.  Runs compare values, never bytes, across environments:
the BLAS thread count alone changes the last bits of the output.

Tolerances follow from the solver tolerance ``tol = 1e-10`` (residual
|Hv - Ev|), not from observed spread (about 1e-12 between seeds):

- energies: |dE| <= residual (Bauer-Fike), so e0, gap and jeff get 1e-9;
- the fitted exponent alpha moves by about max |d gap| / gap = 4e-7 at
  gap = 2.5e-3; it gets 1e-6;
- correlators move with the eigenvector, |dv| <= residual / spectral gap =
  4e-8, so the Werner parameter g gets 1e-6;
- f* also carries the Krylov error, krylov_tol = 1e-10 per step times a
  few hundred steps; it gets 1e-6, and t* a relative 1e-6.

Physics worth reporting moves these values by 1e-4 or more.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

ABS_TOL = {"gap": 1e-9, "e0": 1e-9, "jeff": 1e-9, "alpha": 1e-6, "g": 1e-6, "fstar": 1e-6}
REL_TOL = {"tstar": 1e-6}


def extract(command: str, sidecar: dict) -> dict:
    """The checked values of one CLI run, read from its JSON sidecar."""
    derived = sidecar["derived"]
    if command == "gap-scan":
        values = {f"L{row[0]}": {"gap": row[2], "e0": row[3]} for row in sidecar["results"]["rows"]}
        (fit,) = derived["fits"].values()
        values["alpha"] = None if fit is None else fit["alpha"]
        return values
    return {
        "tstar": derived["measured"]["tstar"],
        "fstar": derived["measured"]["fstar"],
        "g": derived["g"],
        "jeff": derived["jeff"],
    }


def compare(reference: dict, values: dict, path: str = "") -> list[str]:
    """Every value outside its tolerance, and every key missing on one side."""
    problems = []
    for key in sorted(set(reference) | set(values)):
        where = f"{path}{key}"
        if key not in values:
            problems.append(f"{where}: missing from output")
            continue
        if key not in reference:
            problems.append(f"{where}: not in the reference")
            continue
        ref, got = reference[key], values[key]
        if isinstance(ref, dict):
            problems += compare(ref, got, where + ".")
        elif ref is None or got is None:
            if ref is not got:
                problems.append(f"{where}: {got!r}, reference {ref!r}")
        elif key in REL_TOL:
            if abs(got - ref) > REL_TOL[key] * abs(ref):
                problems.append(f"{where}: {got!r} vs {ref!r}, rel tol {REL_TOL[key]}")
        elif abs(got - ref) > ABS_TOL[key]:
            problems.append(f"{where}: {got!r} vs {ref!r}, abs tol {ABS_TOL[key]}")
    return problems


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["cases"]

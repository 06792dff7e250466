"""Command-line front end: sweeps with deterministic CSV/JSON emission.

Commands
--------
gap-scan   gap and ground energy over a length range, with power-law fits
teleport   teleportation fidelity vs temperature for one chain
transfer   peak transfer fidelity over lengths (effective mode) or the
           full time-resolved curve for one chain (full mode)
share      entanglement-sharing report for one chain
validate   run the built-in oracle cross-checks

Flags override values from an optional JSON config file (``--config``);
environment variables are never consulted.  Identical configuration and
seed produce byte-identical output files.  Exit codes: 0 success,
1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import eigensolve, entangle, scaling, teleport, thermal, transfer
from .chain import ChainSpec
from .errors import InsufficientDataError, NoThresholdError, SpinChainError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

FULL_CHAIN_LENGTH_CAP = 16

_DEFAULTS = {
    "length": None,
    "l_min": None,
    "l_max": None,
    "l_step": 2,
    "j": 1.0,
    "jp": [0.2],
    "gamma": "auto",
    "temp_min": 0.0,
    "temp_max": None,
    "temp_points": 1,
    "temp_scale": "lin",
    "t_max": None,
    "t_points": 600,
    "mode": "effective",
    "tol": eigensolve.DEFAULT_TOL,
    "krylov_tol": 1e-10,
    "seed": eigensolve.DEFAULT_SEED,
    "out": None,
    "format": "csv",
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    length: int | None
    l_min: int | None
    l_max: int | None
    l_step: int
    j: float
    jp: list
    gamma: object
    temp_min: float
    temp_max: float | None
    temp_points: int
    temp_scale: str
    t_max: float | None
    t_points: int
    mode: str
    tol: float
    krylov_tol: float
    seed: int
    out: str | None
    format: str


class UsageError(ValueError):
    pass


def _parse_jp(text) -> list:
    if isinstance(text, list):
        return [float(v) for v in text]
    return [float(part) for part in str(text).split(",") if part != ""]


def _parse_gamma(text):
    if text == "auto":
        return "auto"
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchannel",
        description="Probed Heisenberg chains as teleportation and transfer channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gap-scan", "teleport", "transfer", "share", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--length", type=int, default=None)
        p.add_argument("--l-min", dest="l_min", type=int, default=None)
        p.add_argument("--l-max", dest="l_max", type=int, default=None)
        p.add_argument("--l-step", dest="l_step", type=int, default=None)
        p.add_argument("--j", type=float, default=None)
        p.add_argument("--jp", type=str, default=None, help="value or comma list")
        p.add_argument("--gamma", type=str, default=None, help='value or "auto"')
        p.add_argument("--temp-min", dest="temp_min", type=float, default=None)
        p.add_argument("--temp-max", dest="temp_max", type=float, default=None)
        p.add_argument("--temp-points", dest="temp_points", type=int, default=None)
        p.add_argument(
            "--temp-scale", dest="temp_scale", choices=("lin", "log"), default=None
        )
        p.add_argument("--t-max", dest="t_max", type=float, default=None)
        p.add_argument("--t-points", dest="t_points", type=int, default=None)
        p.add_argument("--mode", choices=("effective", "full"), default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--krylov-tol", dest="krylov_tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command-line flag > config file > built-in default."""
    merged = dict(_DEFAULTS)
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    merged["jp"] = _parse_jp(merged["jp"])
    merged["gamma"] = _parse_gamma(merged["gamma"])
    if merged["temp_max"] is None:
        merged["temp_max"] = merged["temp_min"]
    return RunConfig(command=args.command, **merged)


def _length_range(cfg: RunConfig) -> list[int]:
    if cfg.length is not None:
        if cfg.l_min is not None or cfg.l_max is not None:
            raise UsageError("give either --length or an --l-min/--l-max range, not both")
        return [cfg.length]
    if cfg.l_min is None or cfg.l_max is None:
        raise UsageError("need --length or both --l-min and --l-max")
    if cfg.l_step < 1:
        raise UsageError(f"--l-step must be >= 1, got {cfg.l_step}")
    lengths = list(range(cfg.l_min, cfg.l_max + 1, cfg.l_step))
    if not lengths:
        raise UsageError(f"empty length range [{cfg.l_min}, {cfg.l_max}]")
    return lengths


def _single_length(cfg: RunConfig) -> int:
    if cfg.length is None:
        raise UsageError(f"command '{cfg.command}' needs --length")
    return cfg.length


def _single_jp(cfg: RunConfig) -> float:
    if len(cfg.jp) != 1:
        raise UsageError(f"command '{cfg.command}' needs a single --jp value")
    return cfg.jp[0]


def _single_temperature(cfg: RunConfig) -> float:
    if cfg.temp_points != 1 or cfg.temp_max != cfg.temp_min:
        raise UsageError(f"command '{cfg.command}' needs a single temperature (--temp-min only)")
    if cfg.temp_min < 0.0:
        raise UsageError("temperature must be >= 0")
    return cfg.temp_min


def _temperature_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.temp_points < 1:
        raise UsageError("--temp-points must be >= 1")
    if cfg.temp_scale == "log":
        if cfg.temp_min <= 0.0 or cfg.temp_max <= 0.0:
            raise UsageError("log temperature grid needs positive bounds")
        return np.geomspace(cfg.temp_min, cfg.temp_max, cfg.temp_points)
    return np.linspace(cfg.temp_min, cfg.temp_max, cfg.temp_points)


def _require_out(cfg: RunConfig) -> Path:
    if cfg.out is None:
        raise UsageError(f"command '{cfg.command}' needs --out")
    return Path(cfg.out)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(cfg: RunConfig, header: list[str], rows: list[list], derived: dict, warnings: list[str]):
    """Write results once, from a single writer, at the end of the run.

    csv format: rows at --out plus a JSON sidecar next to it;
    json format: everything in one JSON document at --out.
    """
    out = _require_out(cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    sidecar = {
        "config": _jsonable(asdict(cfg)),
        "results": {"header": header, "rows": _jsonable(rows)},
        "derived": _jsonable(derived),
        "warnings": list(warnings),
    }
    text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    if cfg.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(out.with_suffix(".json"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_gap_scan(cfg: RunConfig) -> int:
    lengths = _length_range(cfg)
    rows: list[list] = []
    derived: dict = {"fits": {}}
    warnings: list[str] = []
    failures: list[str] = []
    for jp in cfg.jp:
        table = scaling.gap_sweep(lengths, jp, cfg.tol, J=cfg.j, seed=cfg.seed)
        warnings.extend(table.warnings)
        failures.extend(w for w in table.warnings if "skipped" in w)
        rows.extend([r.length, r.jp, r.gap, r.e0] for r in table.rows)
        try:
            fit = scaling.fit_power_law(table)
            derived["fits"][_fmt(jp)] = {
                "c": fit.c,
                "alpha": fit.alpha,
                "r_squared": fit.r_squared,
                "n_points": fit.n_points,
            }
        except InsufficientDataError as exc:
            warnings.append(f"jp = {jp}: no fit ({exc})")
            derived["fits"][_fmt(jp)] = None
    _emit(cfg, ["L", "jp", "gap", "e0"], rows, derived, warnings)
    if failures:
        record = {"error": "SweepFailure", "message": "; ".join(failures)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_teleport(cfg: RunConfig) -> int:
    length = _single_length(cfg)
    jp = _single_jp(cfg)
    temps = _temperature_grid(cfg)
    if np.any(temps <= 0.0):
        raise UsageError("teleport needs positive temperatures")
    spec = ChainSpec(L=length, J=cfg.j, Jp=jp)
    curve = teleport.fidelity_curve(spec, temps, cfg.tol, seed=cfg.seed)
    sd = curve.spectral
    warnings = []
    if float(temps.max()) > sd.gap / 2.0:
        warnings.append(
            f"temperatures above gap/2 = {sd.gap / 2.0:.6g}: the four-state "
            "thermal truncation may miss higher levels there"
        )
    rows = [
        [t, g, -g, f]
        for t, g, f in zip(curve.temperatures, curve.g_values, curve.fidelities)
    ]
    derived = {
        "t_star": curve.t_star,
        "gap": sd.gap,
        "e0": sd.e0,
        "gzz_ground": sd.gzz_ground,
        "gzz_triplet": sd.gzz_triplet,
        "gxx_triplet": sd.gxx_triplet,
    }
    _emit(cfg, ["T", "g", "theta", "fidelity"], rows, derived, warnings)
    return EXIT_OK


def _predicted_peak(model: transfer.EffectiveModel) -> tuple[float, float]:
    """(t*, f*) of the three-spin model: closed forms when gamma = j_eff."""
    if math.isclose(model.gamma, model.j_eff, rel_tol=1e-9):
        return transfer.optimal_time(model), transfer.max_fidelity(model.g)
    scale = min(model.j_eff, model.gamma) if model.gamma > 0 else model.j_eff
    return transfer.numeric_peak(model, 8.0 * math.pi / scale)


def cmd_transfer(cfg: RunConfig) -> int:
    if cfg.mode == "full":
        return _cmd_transfer_full(cfg)
    lengths = _length_range(cfg)
    temps = _temperature_grid(cfg)
    if np.any(temps < 0.0):
        raise UsageError("temperatures must be >= 0")
    rows: list[list] = []
    warnings: list[str] = []
    derived: dict = {"points": []}
    for jp in cfg.jp:
        for length in lengths:
            spec = ChainSpec(L=length, J=cfg.j, Jp=jp)
            sd = eigensolve.spectral_data(spec, cfg.tol, seed=cfg.seed)
            for temperature in temps:
                model = transfer.effective_coupling(
                    spec, sd, gamma=cfg.gamma, temperature=temperature
                )
                t_star, f_star = _predicted_peak(model)
                rows.append([length, jp, temperature, model.g, model.j_eff, t_star, f_star])
                derived["points"].append(
                    {"L": length, "jp": jp, "T": temperature, "gamma": model.gamma,
                     "valid_window": model.valid}
                )
    _emit(cfg, ["L", "jp", "T", "g", "jeff", "tstar", "fstar"], rows, derived, warnings)
    return EXIT_OK


def _cmd_transfer_full(cfg: RunConfig) -> int:
    length = _single_length(cfg)
    jp = _single_jp(cfg)
    if length > FULL_CHAIN_LENGTH_CAP:
        raise UsageError(
            f"full mode is capped at L = {FULL_CHAIN_LENGTH_CAP} "
            f"(got {length}); use --mode effective for longer chains"
        )
    temperature = _single_temperature(cfg)
    if cfg.t_points < 2:
        raise UsageError("--t-points must be >= 2")
    if cfg.t_max is not None and not 0.0 < cfg.t_max < math.inf:
        raise UsageError("--t-max must be positive and finite")
    if not 0.0 < cfg.krylov_tol < math.inf:
        raise UsageError("--krylov-tol must be positive and finite")
    base = ChainSpec(L=length, J=cfg.j, Jp=jp)
    sd = eigensolve.spectral_data(base, cfg.tol, seed=cfg.seed)
    model = transfer.effective_coupling(base, sd, gamma=cfg.gamma, temperature=temperature)
    t_pred, f_pred = _predicted_peak(model)
    t_max = cfg.t_max if cfg.t_max is not None else 1.35 * t_pred
    times = np.linspace(0.0, t_max, cfg.t_points)
    curve = transfer.full_chain_transfer(
        replace(base, gamma=model.gamma), temperature, times, cfg.krylov_tol, spectral=sd
    )
    warnings = []
    if temperature > sd.gap / 2.0:
        warnings.append(
            f"temperature above gap/2 = {sd.gap / 2.0:.6g}: thermal truncation suspect"
        )
    rows = [[t, th, f] for t, th, f in zip(curve.times, curve.thetas, curve.fidelities)]
    derived = {
        "gamma": model.gamma,
        "jeff": model.j_eff,
        "g": model.g,
        "temperature": temperature,
        "measured": {"tstar": curve.t_star, "fstar": curve.f_star},
        "effective_model": {"tstar": t_pred, "fstar": f_pred},
        "deviation": {
            "fstar_abs": abs(curve.f_star - f_pred),
            "tstar_rel": abs(curve.t_star - t_pred) / t_pred if t_pred > 0 else None,
        },
    }
    _emit(cfg, ["t", "theta", "fidelity"], rows, derived, warnings)
    return EXIT_OK


def cmd_share(cfg: RunConfig) -> int:
    length = _single_length(cfg)
    jp = _single_jp(cfg)
    temperature = _single_temperature(cfg)
    spec = ChainSpec(L=length, J=cfg.j, Jp=jp)
    sd = eigensolve.spectral_data(spec, cfg.tol, seed=cfg.seed)
    model = transfer.effective_coupling(spec, sd, temperature=temperature)
    report = entangle.sharing_report(model.g)
    out = _require_out(cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "config": _jsonable(asdict(cfg)),
        "results": {
            "g": report.g,
            "f_star": report.f_star,
            "error_probability": report.error_prob,
            "concurrence_out": report.concurrence_out,
            "concurrence_in": report.concurrence_in,
            "enhancement": report.enhancement,
        },
        "derived": {"gap": model.j_eff, "temperature": temperature},
        "warnings": [],
    }
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate: built-in oracle cross-checks
# ---------------------------------------------------------------------------


def _check_lanczos_vs_dense(cfg: RunConfig):
    from .chain import build_chain_hamiltonian, enumerate_sector

    worst = 0.0
    for length in (4, 6, 8, 10):
        for jp in (0.1, 1.0):
            spec = ChainSpec(L=length, J=1.0, Jp=jp)
            for twice_sz in range(-length, length + 1, 2):
                sector = enumerate_sector(length, twice_sz)
                op = build_chain_hamiltonian(spec, sector)
                dense = eigensolve.dense_spectrum(op)
                k = min(2, sector.dim)
                pairs = eigensolve.lowest_eigenpairs(op, k, cfg.tol, seed=cfg.seed)
                for i, pair in enumerate(pairs):
                    worst = max(worst, abs(pair.energy - dense[i]))
    return worst <= 1e-9, f"max energy deviation {worst:.3e} (tol 1e-9)"


def _check_closed_form_vs_three_site(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for g in (-1.0, -0.5, 0.0, 1.0 / 3.0):
        model = transfer.EffectiveModel(j_eff=1.0, gamma=1.0, g=g)
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for t in np.linspace(0.0, 4.0 * math.pi, 200):
            diff = abs(
                transfer.closed_form_fidelity(model, t)
                - transfer.three_site_oracle(model, t, xi)
            )
            worst = max(worst, diff)
    return worst <= 1e-10, f"max |closed form - three-site| {worst:.3e} (tol 1e-10)"


def _check_threshold_bisection(cfg: RunConfig):
    sd = eigensolve.spectral_data(ChainSpec(L=8, J=1.0, Jp=0.2), cfg.tol, seed=cfg.seed)
    t_closed = teleport.threshold_temperature(sd)
    lo, hi = sd.gap * 1e-3, sd.gap * 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if thermal.thermal_g(sd, mid) < -1.0 / 3.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    t_bisect = 0.5 * (lo + hi)
    diff = abs(t_closed - t_bisect)
    return diff <= 1e-10, f"|closed - bisection| = {diff:.3e} (tol 1e-10)"


def _check_channel_state_independence(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for theta in np.linspace(-1.0 / 3.0, 1.0, 11):
        channel = teleport.DepolarizingChannel(theta=theta)
        for _ in range(20):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            f = float(np.real(np.trace(rho @ teleport.apply_channel(channel, rho))))
            worst = max(worst, abs(f - (1.0 + theta) / 2.0))
    return worst <= 1e-12, f"max fidelity deviation {worst:.3e} (tol 1e-12)"


def _check_enhancement(cfg: RunConfig):
    for g in np.linspace(-1.0, 1.0 / 3.0, 500):
        c_out = entangle.sharing_concurrence(transfer.max_fidelity(g))
        c_in = entangle.werner_concurrence(g)
        if c_out < c_in - 1e-12:
            return False, f"violated at g = {g}"
    return True, "C_out >= C_in on a 500-point grid"


def _check_concurrence_oracle(cfg: RunConfig):
    worst = 0.0
    for g in np.linspace(-1.0, 1.0 / 3.0, 41):
        diff = abs(
            entangle.concurrence(thermal.werner_density_matrix(g))
            - entangle.werner_concurrence(g)
        )
        worst = max(worst, diff)
    for p in np.linspace(0.0, 1.0, 41):
        diff = abs(
            entangle.concurrence(entangle.shared_output_state(p)) - max(1.0 - 2.0 * p, 0.0)
        )
        worst = max(worst, diff)
    return worst <= 1e-10, f"max |Wootters - closed form| {worst:.3e} (tol 1e-10)"


_VALIDATE_CHECKS = [
    ("lanczos-vs-dense", _check_lanczos_vs_dense),
    ("closed-form-vs-three-site", _check_closed_form_vs_three_site),
    ("threshold-bisection", _check_threshold_bisection),
    ("channel-state-independence", _check_channel_state_independence),
    ("enhancement-inequality", _check_enhancement),
    ("werner-concurrence-oracle", _check_concurrence_oracle),
]


def cmd_validate(cfg: RunConfig) -> int:
    failures = []
    width = max(len(name) for name, _ in _VALIDATE_CHECKS)
    for name, check in _VALIDATE_CHECKS:
        try:
            ok, detail = check(cfg)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"failed checks: {', '.join(failures)}")
        return EXIT_FAILURE
    print("all checks passed")
    return EXIT_OK


_COMMANDS = {
    "gap-scan": cmd_gap_scan,
    "teleport": cmd_teleport,
    "transfer": cmd_transfer,
    "share": cmd_share,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if cfg.command != "validate":
            _require_out(cfg)  # before any compute, not after a long sweep
        return _COMMANDS[args.command](cfg)
    except ValueError as exc:  # UsageError and the ValueError SpinChainErrors
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpinChainError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())

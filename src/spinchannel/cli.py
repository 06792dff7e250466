"""Command-line front end: sweeps with deterministic CSV/JSON emission.

Commands
--------
gap-scan   gap and ground energy over a length range, with power-law fits
teleport   teleportation fidelity vs temperature for one chain
transfer   peak transfer fidelity over lengths (effective mode) or the
           full time-resolved curve for one chain (full mode)
share      entanglement-sharing report for one chain
validate   run the oracle cross-checks of ``spinchannel.checks``, the same
           functions the acceptance suite calls

An optional JSON config file (``--config``) is read as flags that the typed
flags override; environment variables are never consulted.  Identical
configuration and seed produce byte-identical output files at a fixed BLAS
thread count.  gap-scan and effective-mode transfer read one
``scaling.gap_sweep`` per --jp value: with --l-step 2 every length but the
first starts its solves from the one before, and --seed seeds all other
solves.  A length whose solve fails is skipped; the others are written and
the run exits 1.
Exit codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import checks, eigensolve, entangle, scaling, teleport, thermal, transfer
from .chain import ChainSpec
from .errors import InsufficientDataError, SpinChainError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

FULL_CHAIN_LENGTH_CAP = 18

@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one run; each field's default is the built-in one."""

    command: str
    length: int | None = None
    l_min: int | None = None
    l_max: int | None = None
    l_step: int = 2
    jp: tuple[float, ...] = (0.2,)
    gamma: object = "auto"
    temp_min: float = 0.0
    temp_max: float | None = None
    temp_points: int = 1
    temp_scale: str = "lin"
    t_max: float | None = None
    t_points: int = 600
    mode: str = "effective"
    tol: float = eigensolve.DEFAULT_TOL
    krylov_tol: float = transfer.DEFAULT_KRYLOV_TOL
    seed: int = eigensolve.DEFAULT_SEED
    out: str | None = None
    format: str = "csv"


_SETTINGS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}

# argparse type of each int and float setting (None allowed), read off RunConfig
_HINTS = typing.get_type_hints(RunConfig)
_NUMERIC = {key: t for key in _SETTINGS for t in (int, float) if _HINTS[key] in (t, t | None)}
_CHOICES = {"temp_scale": ("lin", "log"), "mode": ("effective", "full"), "format": ("csv", "json")}
_HELP = {"jp": "value or comma list", "gamma": 'value or "auto"',
         "seed": "random start (>= 0) of each solve not grown from the length L - 2 of a sweep",
         "tol": "true eigenpair residual |Hv - Ev| to meet; at L = 14..20 every Lanczos solve "
                "(L > 12) met 5e-15, some met 2e-15 to 3e-15 and none 1e-15"}


class UsageError(ValueError):
    pass


def _parse_jp(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part != "")


def _parse_gamma(text):
    if text == "auto":
        return "auto"
    gamma = float(text)
    if not 0.0 < gamma < math.inf:
        raise UsageError(f'--gamma must be "auto" or > 0 and finite, got {text}')
    return gamma


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchannel",
        description="Probed Heisenberg chains as teleportation and transfer channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gap-scan", "teleport", "transfer", "share", "validate"):
        # no prefix matching: a flag that is gone (--j) must not read as one left (--jp)
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None)
        for key, default in _SETTINGS.items():
            kind = _parse_jp if key == "jp" else _NUMERIC.get(key)
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=default, type=kind,
                           choices=_CHOICES.get(key), help=_HELP.get(key))
    return parser


def _config_flags(path: str) -> list[str]:
    """A JSON config file as the flags that set the same values.

    A list is joined by commas and a string passes as typed unless its
    setting is numeric; other values pass as JSON, so "8" fails --length.
    A null, or a null or nested item in a list, is refused by its key.
    """
    try:
        file_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise UsageError("config file must hold a JSON object of settings")
    unknown = set(file_cfg) - set(_SETTINGS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in file_cfg.items():
        if value is None:
            raise UsageError(f"config key '{key}' is null; leave it out for the default")
        if isinstance(value, list):
            if any(item is None or isinstance(item, (list, dict)) for item in value):
                raise UsageError(f"config key '{key}' lists a null or non-scalar item")
            value = ",".join(map(str, value))
        elif not isinstance(value, str) or key in _NUMERIC:
            value = json.dumps(value)
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Check the parsed settings; argparse gave flag > config file > default."""
    merged = {key: getattr(args, key) for key in _SETTINGS}
    merged["gamma"] = _parse_gamma(merged["gamma"])
    if not merged["jp"]:
        raise UsageError("--jp needs at least one value")
    if len(set(merged["jp"])) != len(merged["jp"]):
        raise UsageError(f"--jp repeats a value: {list(merged['jp'])}")
    if not 0.0 < merged["tol"] < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {merged['tol']}")
    if merged["seed"] < 0:
        raise UsageError(f"--seed must be >= 0, got {merged['seed']}")
    if merged["temp_max"] is None:
        merged["temp_max"] = merged["temp_min"]
    for key in ("temp_min", "temp_max"):
        if not math.isfinite(merged[key]):
            raise UsageError(f"--{key.replace('_', '-')} must be finite, got {merged[key]}")
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


def _single_chain(cfg: RunConfig) -> ChainSpec:
    """The one chain of teleport, full-mode transfer and share."""
    if cfg.length is None:
        raise UsageError(f"command '{cfg.command}' needs --length")
    if len(cfg.jp) != 1:
        raise UsageError(f"command '{cfg.command}' needs a single --jp value")
    return ChainSpec(L=cfg.length, Jp=cfg.jp[0])


def _temperature_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.temp_points < 1:
        raise UsageError("--temp-points must be >= 1")
    if cfg.temp_points == 1 and cfg.temp_max != cfg.temp_min:
        raise UsageError("--temp-points 1 needs --temp-max equal to --temp-min")
    if cfg.temp_min < 0.0 or cfg.temp_max < 0.0:
        raise UsageError("temperatures must be >= 0")
    if cfg.temp_scale == "log":
        if cfg.temp_min <= 0.0 or cfg.temp_max <= 0.0:
            raise UsageError("log temperature grid needs positive bounds")
        return np.geomspace(cfg.temp_min, cfg.temp_max, cfg.temp_points)
    return np.linspace(cfg.temp_min, cfg.temp_max, cfg.temp_points)


def _single_temperature(cfg: RunConfig) -> float:
    if cfg.temp_points != 1 or cfg.temp_max != cfg.temp_min:
        raise UsageError(f"command '{cfg.command}' needs a single temperature (--temp-min only)")
    return float(_temperature_grid(cfg)[0])


def _require_out(cfg: RunConfig) -> Path:
    if cfg.out is None:
        raise UsageError(f"command '{cfg.command}' needs --out")
    out = Path(cfg.out)
    if cfg.format == "csv" and out.suffix == ".json":
        raise UsageError(
            f"--out {cfg.out} is its own JSON sidecar in csv format; "
            "use --format json or a .csv name"
        )
    return out


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _emit(cfg: RunConfig, header: list[str], rows: list[list], derived: dict, warnings: list[str]):
    """Write results once, from a single writer, at the end of the run.

    csv format: rows at --out plus a JSON sidecar next to it;
    json format: everything in one JSON document at --out.
    """
    out = _require_out(cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    sidecar = {
        "config": asdict(cfg),
        "results": {"header": header, "rows": rows},
        "derived": derived,
        "warnings": list(warnings),
    }
    # numpy scalars and arrays: np.float64 is a float already, the rest tolist()
    text = json.dumps(sidecar, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"
    if cfg.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        out.with_suffix(".json").write_text(text, encoding="utf-8", newline="")
    else:
        out.write_text(text, encoding="utf-8", newline="")


def _sweep(cfg: RunConfig, lengths: list[int], warnings: list[str], failures: list[str]):
    """(jp, scaling.gap_sweep table) of each --jp value; notes warnings and skipped lengths."""
    for jp, length in itertools.product(cfg.jp, lengths):
        ChainSpec(L=length, Jp=jp)  # a bad length or jp fails here, before any solve
    for jp in cfg.jp:
        table = scaling.gap_sweep(lengths, jp, cfg.tol, seed=cfg.seed)
        warnings.extend(table.warnings)
        failures.extend(f"jp = {jp}: L = {L} skipped (see warnings)" for L in table.skipped)
        yield jp, table


def _emit_sweep(cfg: RunConfig, header, rows, derived, warnings, failures: list[str]) -> int:
    """_emit the rows of the solved lengths; exit 1 with a SweepFailure record if any failed."""
    _emit(cfg, header, rows, derived, warnings)
    if failures:
        record = {"error": "SweepFailure", "message": "; ".join(failures)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_gap_scan(cfg: RunConfig) -> int:
    rows: list[list] = []
    derived: dict = {"fits": {}}
    warnings: list[str] = []
    failures: list[str] = []
    for jp, table in _sweep(cfg, _length_range(cfg), warnings, failures):
        rows.extend([r.length, r.jp, r.gap, r.e0] for r in table.rows)
        try:
            fit = scaling.fit_power_law(table)
            derived["fits"][_fmt(jp)] = asdict(fit)
        except InsufficientDataError as exc:
            warnings.append(f"jp = {jp}: no fit ({exc})")
            derived["fits"][_fmt(jp)] = None
    return _emit_sweep(cfg, ["L", "jp", "gap", "e0"], rows, derived, warnings, failures)


def cmd_teleport(cfg: RunConfig) -> int:
    spec = _single_chain(cfg)
    temps = _temperature_grid(cfg)
    sd = eigensolve.spectral_data(spec, cfg.tol, seed=cfg.seed)
    curve = teleport.fidelity_curve(sd, temps)
    rows = [[t, g, -g, f] for t, g, f in zip(curve.temperatures, curve.g_values, curve.fidelities)]
    derived = {
        "t_star": curve.t_star,
        "gap": sd.gap,
        "e0": sd.e0,
        "gzz_ground": sd.gzz_ground,
        "gzz_triplet": sd.gzz_triplet,
        "gxx_triplet": sd.gxx_triplet,
    }
    warnings = thermal.truncation_warnings(sd, temps)
    _emit(cfg, ["T", "g", "theta", "fidelity"], rows, derived, warnings)
    return EXIT_OK


def cmd_transfer(cfg: RunConfig) -> int:
    if cfg.mode == "full":
        return _cmd_transfer_full(cfg)
    lengths = _length_range(cfg)
    temps = _temperature_grid(cfg)
    rows: list[list] = []
    warnings: list[str] = []
    failures: list[str] = []
    derived: dict = {"points": []}
    for jp, table in _sweep(cfg, lengths, warnings, failures):
        for row in table.rows:
            notes = thermal.truncation_warnings(row.spectral, temps)
            warnings.extend(f"jp = {jp}, L = {row.length}: {note}" for note in notes)
            for temperature in temps:
                model = transfer.effective_coupling(row.spectral, gamma=cfg.gamma,
                                                    temperature=temperature)
                t_star, f_star = transfer.predicted_peak(model)
                rows.append([row.length, row.jp, temperature, model.g, model.j_eff, t_star, f_star])
                derived["points"].append({"L": row.length, "jp": row.jp, "T": temperature,
                                          "gamma": model.gamma})
    header = ["L", "jp", "T", "g", "jeff", "tstar", "fstar"]
    return _emit_sweep(cfg, header, rows, derived, warnings, failures)


def _cmd_transfer_full(cfg: RunConfig) -> int:
    base = _single_chain(cfg)
    if base.L > FULL_CHAIN_LENGTH_CAP:
        raise UsageError(
            f"full mode is capped at L = {FULL_CHAIN_LENGTH_CAP} "
            f"(got {base.L}); use --mode effective for longer chains"
        )
    temperature = _single_temperature(cfg)
    if cfg.t_points < 2:
        raise UsageError("--t-points must be >= 2")
    if cfg.t_max is not None and not 0.0 < cfg.t_max < math.inf:
        raise UsageError("--t-max must be positive and finite")
    if not 0.0 < cfg.krylov_tol < math.inf:
        raise UsageError("--krylov-tol must be positive and finite")
    sd = eigensolve.spectral_data(base, cfg.tol, seed=cfg.seed)
    model = transfer.effective_coupling(sd, gamma=cfg.gamma, temperature=temperature)
    t_pred, f_pred = transfer.predicted_peak(model)
    t_max = cfg.t_max if cfg.t_max is not None else 1.35 * t_pred
    times = np.linspace(0.0, t_max, cfg.t_points)
    curve = transfer.full_chain_transfer(
        base, temperature, times, cfg.krylov_tol, gamma=model.gamma, spectral=sd
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
    warnings = thermal.truncation_warnings(sd, temperature)
    _emit(cfg, ["t", "theta", "fidelity"], rows, derived, warnings)
    return EXIT_OK


def cmd_share(cfg: RunConfig) -> int:
    spec = _single_chain(cfg)
    temperature = _single_temperature(cfg)
    sd = eigensolve.spectral_data(spec, cfg.tol, seed=cfg.seed)
    r = entangle.sharing_report(thermal.thermal_g(sd, temperature))
    header = ["g", "f_star", "error_probability", "concurrence_out", "concurrence_in",
              "enhancement"]
    row = [r.g, r.f_star, r.error_prob, r.concurrence_out, r.concurrence_in, r.enhancement]
    derived = {"gap": sd.gap, "temperature": temperature}
    _emit(cfg, header, [row], derived, thermal.truncation_warnings(sd, temperature))
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    failures = []
    width = max(len(name) for name, _ in checks.CHECKS)
    for name, check in checks.CHECKS:
        try:
            ok, detail = check(cfg.tol, cfg.seed)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the file's values go in as flags before the typed ones, which win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
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

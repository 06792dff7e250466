"""Layered benchmark of the spinchannel command line.

Usage (from the repository root):

    python3 bench/run.py --workload gap-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload transfer-cold --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload transfer-thermal --seed 1 --seconds 1 --trace 0 --smoke

A closed loop with one command in flight: every sample is a fresh Python
process (``child.py``) that imports spinchannel, makes one tiny warm-up
solve and calls ``spinchannel.cli.main(argv)`` once.  BLAS threads are
pinned in the child's environment.  With ``--trace 0`` the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced samples
alternate and the per-layer metrics come from the traced ones.  Every
sample is checked against stored references (``refcheck.py``), for a
clean exit, for sweep warnings, for the solver residual, and for
byte-identical output to every earlier sample of the same seed, code and
environment.  The last line of standard output is one JSON object; a
result file with the environment record, every sample and every span goes
to ``.bench_out/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refcheck

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HASH_STORE = OUT / "output_hashes.json"

_TRANSFER = ["transfer", "--mode", "full", "--jp", "0.1", "--gamma", "auto"]

# workload -> (full argv, smoke argv); the seed and --out are appended
WORKLOADS = {
    "gap-sweep": (
        ["gap-scan", "--l-min", "8", "--l-max", "22", "--jp", "0.1"],
        ["gap-scan", "--l-min", "8", "--l-max", "14", "--jp", "0.1"],
    ),
    "transfer-cold": (
        _TRANSFER + ["--length", "14", "--t-points", "300"],
        _TRANSFER + ["--length", "8", "--t-points", "60"],
    ),
    "transfer-thermal": (
        _TRANSFER + ["--length", "14", "--t-points", "300", "--temp-min", "1e-3"],
        _TRANSFER + ["--length", "8", "--t-points", "60", "--temp-min", "1e-3"],
    ),
}

# One BLAS thread: with two on a shared 2-vCPU machine, gap-sweep samples
# ranged over 16-21 s; with one they took 27-31 s.
BLAS_THREADS = 1
SETUP_REPS = 9          # setup-only processes per run, besides the samples
SMOKE_SETUP_REPS = 2
CHILD_TIMEOUT_S = 170
RUN_BUDGET_S = 150      # start no sample that would end the run after this


# --- environment -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinchannel").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(child: dict) -> dict:
    """Record written into every result file; ``child`` is a child report's env."""
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **child,
        "blas_threads": BLAS_THREADS,
    }


# --- samples -----------------------------------------------------------------


def run_child(run_dir: Path, index: int, argv: list[str], *, trace: bool, setup_only: bool) -> dict:
    """Start one child, wait for it, and return its report plus output digest."""
    sample_dir = run_dir / f"sample{index}"
    sample_dir.mkdir()
    report_path = run_dir / f"report{index}.json"
    job = {"argv": argv, "trace": trace, "setup_only": setup_only, "report": str(report_path)}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
            cwd=sample_dir, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stderr = None, f"timed out after {CHILD_TIMEOUT_S} s: {exc.stderr!r}"
    sample = {"trace": trace, "setup_only": setup_only, "exit_code": returncode}
    if report_path.exists():
        sample.update(json.loads(report_path.read_text()))
        sample["setup_s"] = sample["ready_monotonic"] - spawned
        sample["interpreter_start_s"] = sample["start_monotonic"] - spawned
    if returncode != 0:
        sample["stderr"] = stderr[-4000:]
    if not setup_only:
        files = sorted(p for p in sample_dir.iterdir() if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        sample["output_sha256"] = digest.hexdigest()
        sidecar = sample_dir / "result.json"
        sample["sidecar"] = json.loads(sidecar.read_text()) if sidecar.exists() else None
    shutil.rmtree(sample_dir)
    return sample


def check_sample(sample: dict, command: str, reference: dict) -> list[str]:
    """Reasons the sample failed; empty when it passed."""
    if "ready_monotonic" not in sample:
        return [f"process died before writing its report: {sample.get('stderr', '')}"]
    problems = []
    if sample["exit_code"] != 0 or sample["returncode"] != 0:
        problems.append(f"exit code {sample['exit_code']}, cli returned {sample['returncode']}")
    sidecar = sample["sidecar"]
    if sidecar is None:
        return problems + ["no JSON sidecar written"]
    problems += [f"sweep warning: {w}" for w in sidecar["warnings"] if "skipped" in w]
    problems += refcheck.compare(reference, refcheck.extract(command, sidecar))
    tol = sidecar["config"]["tol"]
    if sample["max_residual"] is None or sample["max_residual"] > tol:
        problems.append(f"eigensolve residual {sample['max_residual']} above tol {tol}")
    return problems


def check_reproducible(samples: list[dict], key: str) -> None:
    """Fail every sample whose outputs differ from earlier ones of ``key``."""
    store = json.loads(HASH_STORE.read_text()) if HASH_STORE.exists() else {}
    expected = store.get(key)
    for sample in samples:
        digest = sample.get("output_sha256")
        if digest is None or sample.get("sidecar") is None:
            continue
        if expected is None:
            expected = digest
        elif digest != expected:
            sample["failures"].append("output not byte-identical to an earlier run")
    if expected is not None and key not in store:
        store[key] = expected
        tmp = HASH_STORE.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, HASH_STORE)


# --- metrics -----------------------------------------------------------------


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}
    if len(values) >= 4:
        out["p25"], _, out["p75"] = statistics.quantiles(values, n=4)
    return out


def layer_metrics(sample: dict) -> dict:
    """Per-layer metrics of one traced sample."""
    spans = sample["spans"]

    def total(name: str, key: str = "dur_s") -> float:
        return sum(s[key] for s in spans if s["name"] == name)

    products = sample["products"].values()
    mv_n = sum(p["count"] for p in products)
    mv_s = sum(p["seconds"] for p in products)
    mv_bytes = sum(p["bytes"] for p in products)
    solves = [s for s in spans if s["name"] == "eigensolve.solve"]
    solve_s = total("eigensolve.solve")
    transfer_mv = sample["products"].get("transfer", {"count": 0})["count"]
    points = sum(s["points"] for s in spans if s["name"] == "transfer.full_chain")
    (root,) = [s for s in spans if s["parent"] is None]
    return {
        "chain.enumerate_s": total("chain.enumerate"),
        "chain.assemble_s": total("chain.assemble"),
        "chain.nnz": max((s["nnz"] for s in spans if "nnz" in s), default=0),
        "chain.matvecs": mv_n,
        "chain.matvec_s": mv_s,
        "chain.matvec_gbps": mv_bytes / mv_s / 1e9 if mv_s else 0.0,
        "chain.correlator_s": total("chain.correlator"),
        "eigensolve.calls": len(solves),
        "eigensolve.solve_s": solve_s,
        "eigensolve.matvecs": sum(s["matvecs"] for s in solves),
        "eigensolve.nonmatvec_share": 1.0 - total("eigensolve.solve", "matvec_s") / solve_s if solve_s else 0.0,
        "eigensolve.max_residual": max((s["max_residual"] for s in solves), default=0.0),
        "eigensolve.spectral_s": total("eigensolve.spectral"),
        "transfer.full_chain_s": total("transfer.full_chain"),
        "transfer.propagate_self_s": total("transfer.full_chain", "self_s"),
        "transfer.matvecs": transfer_mv,
        "transfer.matvecs_per_point": transfer_mv / points if points else 0.0,
        "scaling.sweep_s": total("scaling.sweep"),
        "scaling.fit_s": total("scaling.fit"),
        "cli.self_s": root["self_s"],
        "cli.output_bytes": sample["output_bytes"],
        "traced_wall_s": sample["wall_s"],
    }


def run_stats(setups: list[dict], samples: list[dict]) -> dict:
    """Summaries of every metric over the children that wrote a report."""
    untraced = [s for s in samples if not s["trace"] and "wall_s" in s]
    traced = [s for s in samples if s["trace"] and "spans" in s]
    stats = {"setup_s": summary([s["setup_s"] for s in setups + samples])}
    if untraced:
        stats["wall_s"] = summary([s["wall_s"] for s in untraced])
        stats["peak_rss_mb"] = summary([s["peak_rss_mb"] for s in untraced])
    per_sample = [layer_metrics(s) for s in traced]
    for name in per_sample[0] if per_sample else []:
        stats[name] = summary([m[name] for m in per_sample])
    if traced and untraced:
        stats["trace_overhead_s"] = summary(
            [stats["traced_wall_s"]["median"] - stats["wall_s"]["median"]]
        )
    return stats


def per_length_table(spans: list[dict]) -> list[dict]:
    """m = 0 sector work of every spectral_data call, one row per chain length."""
    rows = []
    for sd in sorted((s for s in spans if s["name"] == "eigensolve.spectral"), key=lambda s: s["start"]):
        kids = sorted((s for s in spans if s["parent"] == sd["id"]), key=lambda s: s["start"])
        enum0 = next(s for s in kids if s["name"] == "chain.enumerate" and s["twice_sz"] == 0)
        asm0 = next(s for s in kids if s["name"] == "chain.assemble" and s["twice_sz"] == 0)
        solve0 = next(s for s in kids if s["name"] == "eigensolve.solve" and s["dim"] == asm0["dim"])
        rows.append({
            "L": sd["L"],
            "dim": asm0["dim"],
            "nnz": asm0["nnz"],
            "enumerate_s": enum0["dur_s"],
            "assemble_s": asm0["dur_s"],
            "lanczos_matvecs": solve0["matvecs"],
            "matvec_ms": 1e3 * solve0["matvec_s"] / solve0["matvecs"] if solve0["matvecs"] else 0.0,
            "lanczos_s": solve0["dur_s"],
            "spectral_s": sd["dur_s"],
        })
    return rows


def span_balance(sample: dict) -> dict:
    """Self times of all spans plus product time, against the root span."""
    spans = sample["spans"]
    products_s = sum(p["seconds"] for p in sample["products"].values())
    return {
        "self_sum_s": sum(s["self_s"] for s in spans) + products_s,
        "root_s": next(s["dur_s"] for s in spans if s["parent"] is None),
    }


# --- main --------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinchannel" / "cli.py").is_file():
        print(f"error: no spinchannel sources under {SRC}", file=sys.stderr)
        return 2
    command_argv = WORKLOADS[args.workload][1 if args.smoke else 0]
    case = f"smoke/{args.workload}" if args.smoke else args.workload
    reference = refcheck.load_references()[case]
    # the CLI seeds numpy's generator, which takes non-negative integers
    cli_seed = args.seed % 2**32
    argv_full = command_argv + ["--seed", str(cli_seed), "--out", "result.csv"]
    run_name = f"{case.replace('/', '-')}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / "runs" / run_name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    run_start = time.monotonic()
    index = 0
    setups: list[dict] = []

    def run_setups(count: int) -> bool:
        nonlocal index
        for _ in range(count):
            setup = run_child(run_dir, index, argv_full, trace=False, setup_only=True)
            index += 1
            if "ready_monotonic" not in setup:
                print(f"error: setup failed: {setup.get('stderr', '')}", file=sys.stderr)
                return False
            setups.append(setup)
        return True

    # half of the setup-only children before the samples and half after, so
    # the setup median spans the whole run and not one quiet or busy moment
    reps = SMOKE_SETUP_REPS if args.smoke else SETUP_REPS
    if not run_setups(reps - reps // 2):
        return 1

    kinds = [False, True] if args.trace else [False]
    samples: list[dict] = []
    loop_start = time.monotonic()
    longest = 0.0
    while not samples or (
        time.monotonic() - loop_start < args.seconds
        and time.monotonic() - run_start + longest < RUN_BUDGET_S
    ):
        for trace in kinds:
            t0 = time.monotonic()
            sample = run_child(run_dir, index, argv_full, trace=trace, setup_only=False)
            longest = max(longest, time.monotonic() - t0)
            index += 1
            sample["failures"] = check_sample(sample, command_argv[0], reference)
            samples.append(sample)
    if not run_setups(reps // 2):
        return 1

    env = environment(next(s["env"] for s in setups))
    env_key = hashlib.sha256(
        json.dumps({k: v for k, v in env.items() if k != "git_sha"}, sort_keys=True).encode()
    ).hexdigest()
    check_reproducible(samples, f"{env_key}/{case}/{cli_seed}")
    failed = sum(1 for s in samples if s["failures"])

    ok = [s for s in samples if "ready_monotonic" in s]
    stats = run_stats(setups, ok)
    stats["success_rate"] = summary([1.0 - failed / len(samples)])
    traced = [s for s in ok if s["trace"] and "spans" in s]
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    result["metrics"] = {
        name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items() if name in stats
    }
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        result["correct"] = False

    setup_breakdown = {
        key: statistics.median(s["setup"][key] for s in setups + ok if key in s["setup"])
        for key in ("import_numpy_s", "import_scipy_s", "import_spinchannel_s", "warmup_solve_s", "warmup_repeat_s")
        if any(key in s["setup"] for s in setups + ok)
    }
    record = {
        "workload": args.workload,
        "smoke": args.smoke,
        "seed": args.seed,
        "cli_argv": argv_full,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "result": result,
        "stats": stats,
        "setup_breakdown": setup_breakdown,
        "per_length": per_length_table(traced[0]["spans"]) if traced else [],
        "span_balance": span_balance(traced[0]) if traced else None,
        "samples": [{k: v for k, v in s.items() if k != "sidecar"} for s in setups + samples],
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_file = results_dir / f"{run_name}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(run_dir)

    print_report(record, result_file, all_units, missing)
    print(json.dumps(result, sort_keys=True))
    return 0


def print_report(record: dict, result_file: Path, units: dict, missing: list[str]) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}{' (smoke)' if record['smoke'] else ''}  "
          f"seed {record['seed']}  trace {record['trace']}")
    print("argv: spinchannel " + " ".join(record["cli_argv"]))
    print(f"env: git {env['git_sha']}  src {env['src_sha256'][:12]}  {env['cpu_model']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  {env['blas_vendor']} {env['blas_version']}  "
          f"blas threads {env['blas_threads']}")
    print(f"{'metric':<28}{'unit':<9}{'median':>14}{'min':>14}{'max':>14}{'n':>4}")
    for name, s in record["stats"].items():
        print(f"{name:<28}{units[name]:<9}{s['median']:>14.6g}{s['min']:>14.6g}"
              f"{s['max']:>14.6g}{s['n']:>4}")
    print("setup breakdown (median s): " + "  ".join(
        f"{k}={v:.4f}" for k, v in record["setup_breakdown"].items()))
    if record["per_length"]:
        print(f"{'L':>3}{'dim':>9}{'nnz':>10}{'assemble_s':>12}{'matvecs':>9}"
              f"{'matvec_ms':>11}{'lanczos_s':>11}{'spectral_s':>12}")
        for r in record["per_length"]:
            print(f"{r['L']:>3}{r['dim']:>9}{r['nnz']:>10}{r['assemble_s']:>12.4f}"
                  f"{r['lanczos_matvecs']:>9}{r['matvec_ms']:>11.4f}{r['lanczos_s']:>11.4f}"
                  f"{r['spectral_s']:>12.4f}")
    for i, s in enumerate(record["samples"]):
        for problem in s.get("failures", []):
            print(f"FAILED sample {i}: {problem}")
    for name in missing:
        print(f"MISSING metric {name}")
    print(f"result file: {result_file.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())

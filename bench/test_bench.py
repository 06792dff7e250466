"""Tests of the benchmark harness itself, on the tiny smoke sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import refcheck  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 11


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (last stdout line as JSON, result file)."""
    out = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, workload, SEED, trace)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            result_file = run.OUT / "results" / f"smoke-{workload}-seed{SEED}-trace{trace}.json"
            out[workload, trace] = (last, json.loads(result_file.read_text()))
    return out


def test_workload_names_match_declaration():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in DECLARED["workloads"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_emitted_with_unit(runs, trace, section):
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    for workload in run.WORKLOADS:
        last, _ = runs[workload, trace]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())


def test_traced_and_untraced_outputs_byte_identical(runs):
    for workload in run.WORKLOADS:
        digests = {
            s["output_sha256"]
            for trace in (0, 1)
            for s in runs[workload, trace][1]["samples"]
            if not s["setup_only"]
        }
        assert len(digests) == 1, workload


def test_span_self_times_sum_to_traced_wall(runs):
    for workload in run.WORKLOADS:
        record = runs[workload, 1][1]
        balance = record["span_balance"]
        overhead = abs(record["stats"]["trace_overhead_s"]["median"])
        assert abs(balance["self_sum_s"] - balance["root_s"]) <= overhead
        assert balance["root_s"] == pytest.approx(record["stats"]["traced_wall_s"]["median"])


def test_each_call_traced_once(runs):
    """A wrapper wrapped twice would double the spans of the nested calls."""
    spans = next(
        s["spans"] for s in runs["gap-sweep", 1][1]["samples"] if s.get("trace")
    )
    names = [s["name"] for s in spans]
    assert names.count("eigensolve.spectral") == 4  # L = 8, 10, 12, 14
    assert names.count("eigensolve.solve") == 8     # m = 0 and m = 1 per length
    assert names.count("chain.assemble") == 8
    assert names.count("scaling.sweep") == 1


def test_per_length_table_covers_the_sweep(runs):
    table = runs["gap-sweep", 1][1]["per_length"]
    assert [r["L"] for r in table] == [8, 10, 12, 14]
    assert [r["dim"] for r in table] == [70, 252, 924, 3432]


def test_environment_recorded(runs):
    env = runs["transfer-cold", 0][1]["environment"]
    for key in ("git_sha", "cpu_model", "nproc", "python", "numpy", "scipy",
                "blas_vendor", "blas_threads", "src_sha256"):
        assert key in env
    assert env["blas_threads"] == run.BLAS_THREADS


def test_second_seed_reproduces_references():
    for workload in run.WORKLOADS:
        proc = bench(ROOT, workload, SEED + 1, 0)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True, proc.stdout


def test_gate_rejects_values_outside_tolerance():
    for case, reference in refcheck.load_references().items():
        assert refcheck.compare(reference, reference) == []
        perturbed = json.loads(json.dumps(reference))
        target = perturbed["L14"] if "L14" in perturbed else perturbed
        key = "gap" if "gap" in target else "fstar"
        target[key] += 1e-5
        assert refcheck.compare(reference, perturbed), case


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "transfer-cold", SEED, 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

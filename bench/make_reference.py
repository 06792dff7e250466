"""Write reference.json: the checked values of every workload, full and smoke.

Run from the repository root on the commit the references should describe:

    python3 bench/make_reference.py

Each case runs the CLI once with its default seed and BLAS threads pinned as
in the benchmark.  The benchmark then checks every run, whatever its seed,
against these values within the tolerances of refcheck.py.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import refcheck
import run


def main() -> int:
    cases = {}
    work = run.OUT / "reference"
    for workload, (full, smoke) in run.WORKLOADS.items():
        for case, argv in ((workload, full), (f"smoke/{workload}", smoke)):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            subprocess.run(
                [sys.executable, "-m", "spinchannel", *argv, "--out", "result.csv"],
                cwd=work, env=run.child_env(), check=True,
            )
            sidecar = json.loads((work / "result.json").read_text(encoding="utf-8"))
            cases[case] = refcheck.extract(argv[0], sidecar)
            print(f"{case}: {cases[case]}")
    shutil.rmtree(work)
    doc = {
        "made_from": {
            "git_sha": run.git_sha(),
            "src_sha256": run.src_digest(),
            "seed": "CLI default",
            "blas_threads": run.BLAS_THREADS,
        },
        "cases": cases,
    }
    refcheck.REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark sample in a fresh interpreter.

Run by ``run.py`` as ``python child.py '<job json>'`` with the working
directory set to an empty sample directory.  The process imports
spinchannel, makes one tiny warm-up solve (setup ends here), then calls
``spinchannel.cli.main(argv)`` once, untraced or traced, and writes a JSON
report to ``job["report"]``.  A setup-only job stops after the warm-up.
"""

import time

_T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WARMUP_LENGTH = 10  # m = 0 dim 252, above the dense cut-off, so Lanczos runs


def _warmup_solve() -> float:
    from spinchannel import ChainSpec, spectral_data

    t0 = time.perf_counter()
    spectral_data(ChainSpec(L=WARMUP_LENGTH, Jp=0.1))
    return time.perf_counter() - t0


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    t0 = time.monotonic()
    import numpy  # noqa: F401

    t1 = time.monotonic()
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    t2 = time.monotonic()
    from spinchannel import cli

    t3 = time.monotonic()
    setup = {
        "import_numpy_s": t1 - t0,
        "import_scipy_s": t2 - t1,
        "import_spinchannel_s": t3 - t2,
        "warmup_solve_s": _warmup_solve(),
    }
    ready = time.monotonic()
    report = {
        "start_monotonic": _T_START,
        "ready_monotonic": ready,
        "setup": setup,
        "env": _environment(),
    }
    if not job["setup_only"]:
        # the same tiny solve again: what the first call in a process costs
        # beyond a warm one
        report["setup"]["warmup_repeat_s"] = _warmup_solve()
        import spans

        if job["trace"]:
            tracer = spans.Tracer()
            spans.install_tracer(tracer)
            root = tracer.begin("cli.main")
            rc = cli.main(job["argv"])
            tracer.end(root)
            wall = root["dur_s"]
            residuals = [s["max_residual"] for s in tracer.spans if "max_residual" in s]
            report["spans"] = tracer.spans
            report["products"] = tracer.matvecs
        else:
            residuals = spans.install_residual_probe()
            t = time.perf_counter()
            rc = cli.main(job["argv"])
            wall = time.perf_counter() - t
        report.update(
            returncode=rc,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            max_residual=max(residuals) if residuals else None,
            output_bytes=sum(p.stat().st_size for p in Path.cwd().iterdir()),
        )
    tmp = job["report"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    os.replace(tmp, job["report"])


if __name__ == "__main__":
    main()

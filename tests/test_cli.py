"""CLI commands: output formats, determinism, exit codes."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinchannel.eigensolve
import spinchannel.scaling
import spinchannel.transfer
from spinchannel.cli import main
from spinchannel.errors import ConvergenceError

from conftest import chain_length


def run(argv):
    return main(argv)


class TestGapScan:
    def test_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "gaps.csv"
        code = run(
            ["gap-scan", "--l-min", "8", "--l-max", "14", "--jp", "0.2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L,jp,gap,e0"
        assert len(lines) == 5  # header + 4 rows
        sidecar = json.loads((tmp_path / "gaps.json").read_text(encoding="utf-8"))
        assert set(sidecar) == {"config", "results", "derived", "warnings"}
        fit = sidecar["derived"]["fits"]["0.20000000000000001"]
        assert 0.0 < fit["alpha"] < 1.0

    @pytest.mark.parametrize(
        "args",
        [
            ["gap-scan", "--l-min", "8", "--l-max", "14", "--jp", "0.2"],
            ["teleport", "--length", "8", "--jp", "0.2", "--temp-min", "1e-3",
             "--temp-max", "1e-1", "--temp-points", "5"],
            ["transfer", "--l-min", "8", "--l-max", "10", "--jp", "0.2"],
            ["transfer", "--mode", "full", "--length", "8", "--jp", "0.2",
             "--temp-min", "1e-3", "--t-points", "60"],
            ["share", "--length", "8", "--jp", "0.2"],
        ],
        ids=["gap-scan", "teleport", "transfer", "full-T1e-3", "share"],
    )
    def test_byte_identical_rerun(self, tmp_path, args):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # sidecars differ only in the recorded output path
        s1 = (tmp_path / "a.json").read_text().replace(str(out1), "X")
        s2 = (tmp_path / "b.json").read_text().replace(str(out2), "X")
        assert s1 == s2

    def test_failed_length_exits_one_and_keeps_the_other_rows(self, monkeypatch, tmp_path,
                                                              capsys):
        true_solve = spinchannel.scaling.spectral_data

        def fails_at_ten(spec, *args, **kwargs):
            if spec.L == 10:
                raise ConvergenceError("injected failure")
            return true_solve(spec, *args, **kwargs)

        monkeypatch.setattr(spinchannel.scaling, "spectral_data", fails_at_ten)
        out = tmp_path / "gaps.csv"
        code = run(["gap-scan", "--l-min", "8", "--l-max", "12", "--jp", "0.2", "--out", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "SweepFailure"
        assert record["message"] == "jp = 0.2: L = 10 skipped (see warnings)"
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["8", "12"]
        sidecar = json.loads((tmp_path / "gaps.json").read_text(encoding="utf-8"))
        assert "L = 10 skipped: injected failure" in sidecar["warnings"]

    def test_empty_range_is_usage_error(self, tmp_path):
        code = run(
            ["gap-scan", "--l-min", "12", "--l-max", "8", "--jp", "0.2",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_json_format_single_document(self, tmp_path):
        out = tmp_path / "gaps.json"
        code = run(
            ["gap-scan", "--l-min", "8", "--l-max", "14", "--jp", "0.2",
             "--out", str(out), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["results"]["header"] == ["L", "jp", "gap", "e0"]
        assert len(doc["results"]["rows"]) == 4


class TestTeleportCommand:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "tele.csv"
        code = run(
            ["teleport", "--length", "8", "--jp", "0.2", "--temp-min", "1e-4",
             "--temp-max", "1e-1", "--temp-points", "20", "--temp-scale", "log",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "T,g,theta,fidelity"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        fidelity = rows[:, 3]
        assert np.all(np.diff(fidelity) <= 1e-15)
        sidecar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        # first row reproduces the zero-temperature limit
        assert rows[0, 3] == pytest.approx(
            (1.0 - sidecar["derived"]["gzz_ground"]) / 2.0, abs=1e-10
        )
        # interpolated crossing of 2/3 sits at the sidecar threshold
        t_star = sidecar["derived"]["t_star"]
        assert t_star is not None
        k = int(np.searchsorted(-(fidelity - 2.0 / 3.0), 0.0))
        assert 0 < k < len(fidelity)
        t_lo, t_hi = rows[k - 1, 0], rows[k, 0]
        f_lo, f_hi = fidelity[k - 1], fidelity[k]
        t_cross = t_lo + (f_lo - 2.0 / 3.0) * (t_hi - t_lo) / (f_lo - f_hi)
        assert t_cross == pytest.approx(t_star, rel=0.05)

    def test_warns_above_truncation_window(self, tmp_path):
        out = tmp_path / "hot.csv"
        code = run(
            ["teleport", "--length", "8", "--jp", "0.2", "--temp-min", "1e-3",
             "--temp-max", "0.5", "--temp-points", "5", "--temp-scale", "log",
             "--out", str(out)]
        )
        assert code == 0
        sidecar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert any("gap/2" in w for w in sidecar["warnings"])

    def test_requires_single_length(self, tmp_path):
        code = run(["teleport", "--jp", "0.2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_rejects_nonpositive_grid(self, tmp_path, capsys):
        # a negative temperature is a usage error; T = 0 is the ground state's row
        argv = ["teleport", "--length", "8", "--jp", "0.2", "--temp-points", "3",
                "--temp-max", "0.1", "--out", str(tmp_path / "x.csv")]
        assert run(argv + ["--temp-min", "-0.1"]) == 2
        assert "temperatures must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert run(argv + ["--temp-min", "0"]) == 0
        sidecar = json.loads((tmp_path / "x.json").read_text(encoding="utf-8"))
        first = sidecar["results"]["rows"][0]
        assert first[:2] == [0.0, sidecar["derived"]["gzz_ground"]]


class TestTruncationWarning:
    """teleport, share and both transfer modes carry the one library warning."""

    COMMANDS = {
        "teleport": ["teleport", "--length", "8"],
        "share": ["share", "--length", "8"],
        "effective": ["transfer", "--mode", "effective", "--l-min", "8", "--l-max", "8"],
        "full": ["transfer", "--mode", "full", "--length", "8", "--t-points", "20"],
    }

    @pytest.mark.parametrize("temperature, warned", [("0.05", True), ("1e-3", False)])
    def test_every_thermal_command_carries_it(self, tmp_path, temperature, warned):
        texts = {}
        for name, command in self.COMMANDS.items():
            out = tmp_path / f"{name}.csv"
            argv = command + ["--jp", "0.2", "--temp-min", temperature, "--out", str(out)]
            assert run(argv) == 0
            texts[name] = json.loads(out.with_suffix(".json").read_text())["warnings"]
        if not warned:
            assert texts == {name: [] for name in self.COMMANDS}
            return
        (library,) = texts.pop("teleport")
        assert library.startswith("temperatures above gap/2 = ")
        assert texts.pop("effective") == [f"jp = 0.2, L = 8: {library}"]
        assert texts == {"share": [library], "full": [library]}


class TestTransferCommand:
    def test_effective_sweep(self, tmp_path):
        out = tmp_path / "transfer.csv"
        code = run(
            ["transfer", "--mode", "effective", "--l-min", "8", "--l-max", "12",
             "--jp", "0.1", "--temp-min", "0", "--temp-max", "1e-3",
             "--temp-points", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L,jp,T,g,jeff,tstar,fstar"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape == (6, 7)
        assert np.all(rows[:, 6] > 2.0 / 3.0)
        for length in (8, 10, 12):
            sel = rows[rows[:, 0] == length]
            cold = sel[sel[:, 2] == 0.0][0, 6]
            warm = sel[sel[:, 2] > 0.0][0, 6]
            assert warm < cold
        sidecar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        for point in sidecar["derived"]["points"]:
            assert set(point) == {"L", "jp", "T", "gamma"}

    @pytest.mark.parametrize(
        "flags, grown_from",
        [
            (["--l-max", "12", "--jp", "0.1,0.2"],
             [(8, None), (10, 8), (12, 10), (8, None), (10, 8), (12, 10)]),
            (["--l-max", "16", "--l-step", "4"], [(8, None), (12, None), (16, None)]),
        ],
        ids=["step-2", "step-4"],
    )
    def test_effective_sweep_grows_from_l_minus_2(self, monkeypatch, tmp_path, flags, grown_from):
        # the first length of each jp and any --l-step other than 2 start at random
        true_solve, calls = spinchannel.scaling.spectral_data, []

        def recorded(spec, *args, grow_from=None, **kwargs):
            calls.append((spec.L, None if grow_from is None else chain_length(grow_from)))
            return true_solve(spec, *args, grow_from=grow_from, **kwargs)

        monkeypatch.setattr(spinchannel.scaling, "spectral_data", recorded)
        argv = ["transfer", "--mode", "effective", "--l-min", "8", "--out", str(tmp_path / "e.csv")]
        assert run(argv + flags) == 0
        assert calls == grown_from

    def test_failed_length_exits_one_and_keeps_the_other_rows(self, monkeypatch, tmp_path,
                                                              capsys):
        # effective mode shares gap-scan's failure rule
        true_solve = spinchannel.scaling.spectral_data

        def fails_at_ten(spec, *args, **kwargs):
            if spec.L == 10:
                raise ConvergenceError("injected failure")
            return true_solve(spec, *args, **kwargs)

        monkeypatch.setattr(spinchannel.scaling, "spectral_data", fails_at_ten)
        out = tmp_path / "e.csv"
        code = run(["transfer", "--mode", "effective", "--l-min", "8", "--l-max", "12",
                    "--jp", "0.2", "--out", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "SweepFailure"
        assert record["message"] == "jp = 0.2: L = 10 skipped (see warnings)"
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["8", "12"]
        sidecar = json.loads((tmp_path / "e.json").read_text(encoding="utf-8"))
        assert "L = 10 skipped: injected failure" in sidecar["warnings"]
        assert [point["L"] for point in sidecar["derived"]["points"]] == [8, 12]

    def test_full_mode_curve_and_sidecar(self, tmp_path):
        out = tmp_path / "full.csv"
        code = run(
            ["transfer", "--mode", "full", "--length", "8", "--jp", "0.2",
             "--t-points", "400", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,theta,fidelity"
        assert len(lines) == 401
        sidecar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        deviation = sidecar["derived"]["deviation"]
        assert deviation["fstar_abs"] <= 0.05
        assert deviation["tstar_rel"] <= 0.1
        assert sidecar["derived"]["gamma"] == pytest.approx(sidecar["derived"]["jeff"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--krylov-tol", "0"],
            ["--krylov-tol", "-1"],
            ["--krylov-tol", "nan"],
            ["--t-points", "1"],
            ["--t-max", "0"],
            ["--t-max", "-5"],
            ["--t-max", "inf"],
        ],
    )
    def test_bad_propagation_args_fail_before_any_solve(self, monkeypatch, tmp_path, flags):
        def no_solve(*args, **kwargs):
            raise AssertionError("spectral_data ran although the arguments are invalid")

        monkeypatch.setattr(spinchannel.eigensolve, "spectral_data", no_solve)
        argv = ["transfer", "--mode", "full", "--length", "8", "--jp", "0.2",
                "--out", str(tmp_path / "x.csv")]
        assert run(argv + flags) == 2

    # t*, f* and theta at five grid points of the L = 10 curve (Jp = 0.1,
    # gamma = gap, default 600-point grid) as computed by the propagator with
    # full Lanczos reorthogonalization; later propagators must reproduce them.
    # The T = 0 t* is that of the exact (dense eigh) ground vector.  The peak
    # is so flat that a 1e-9 window on t* resolves a Ritz vector's ~1e-11
    # residual: the earlier pin 869.3013199007 was the value of the k = 1
    # Ritz vector of the whole m = 0 sector, while k = 2 Ritz vectors from any
    # seed give the dense value to 3e-10, and so does the k = 1 vector of the
    # singlet's spin-inversion block, which T0 cannot contaminate.
    @pytest.mark.parametrize(
        "temperature, t_star, f_star, thetas",
        [
            ("0", 869.3013199316285, 0.9959069828017297,
             [-1.8551022026487136e-12, 0.11943501639013894, 0.59532164873720694,
              0.96889570229576227, 0.71807016584213357]),
            ("1e-3", 888.0393573870462, 0.9751755338877776,
             [-1.2393835957524857e-12, 0.11286243428139116, 0.56645961648350762,
              0.92791541754398088, 0.68214238863483456]),
        ],
    )
    def test_full_mode_pinned_at_L10(self, tmp_path, temperature, t_star, f_star, thetas):
        out = tmp_path / "full.csv"
        code = run(
            ["transfer", "--mode", "full", "--length", "10", "--jp", "0.1",
             "--gamma", "auto", "--temp-min", temperature, "--out", str(out)]
        )
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (600, 3)
        np.testing.assert_allclose(rows[[0, 100, 250, 400, 599], 1], thetas, rtol=0, atol=1e-9)
        measured = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))[
            "derived"]["measured"]
        assert measured["tstar"] == pytest.approx(t_star, rel=0, abs=1e-9)
        assert measured["fstar"] == pytest.approx(f_star, rel=0, abs=1e-9)

    # derived.deviation of the full chain from the three-spin closed forms at
    # Jp = 0.1 (gamma = gap, default 600-point grid), pinned to 1e-6; the
    # ceilings bound how far the three-spin reduction may drift there
    @pytest.mark.parametrize(
        "length, temperature, fstar_abs, tstar_rel",
        [
            (8, "0", 0.0021804460975851647, 0.004079486910090298),
            (10, "0", 0.0024782404710278483, 0.001543446153722313),
            (12, "0", 0.0027683712431325613, 0.0005925338404282699),
            (8, "1e-3", 0.0018131728940327108, 0.0028369486109553993),
        ],
    )
    def test_full_mode_deviation_pinned(self, tmp_path, length, temperature, fstar_abs, tstar_rel):
        out = tmp_path / "full.csv"
        code = run(
            ["transfer", "--mode", "full", "--length", str(length), "--jp", "0.1",
             "--gamma", "auto", "--temp-min", temperature, "--out", str(out)]
        )
        assert code == 0
        deviation = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))[
            "derived"]["deviation"]
        assert deviation["fstar_abs"] == pytest.approx(fstar_abs, rel=0, abs=1e-6)
        assert deviation["tstar_rel"] == pytest.approx(tstar_rel, rel=0, abs=1e-6)
        assert deviation["fstar_abs"] <= 5e-3
        assert deviation["tstar_rel"] <= 1e-2

    def test_full_mode_length_cap(self, monkeypatch, tmp_path):
        def no_solve(*args, **kwargs):
            raise AssertionError("spectral_data ran although the length is above the cap")

        monkeypatch.setattr(spinchannel.eigensolve, "spectral_data", no_solve)
        code = run(
            ["transfer", "--mode", "full", "--length", "20", "--jp", "0.1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_worker_failure_exits_one_with_a_typed_record(self, monkeypatch, tmp_path, capsys):
        # the caller propagates G at a reachable tol, so only T0's worker fails
        caller, trajectory = os.getpid(), spinchannel.transfer._trajectory

        def reachable_in_caller(matrix, psi, times, tol, radius):
            own_tol = 1e-10 if os.getpid() == caller else tol
            return trajectory(matrix, psi, times, own_tol, radius)

        monkeypatch.setattr(spinchannel.transfer, "_trajectory", reachable_in_caller)
        code = run(
            ["transfer", "--mode", "full", "--length", "6", "--jp", "0.2", "--temp-min", "0.01",
             "--t-points", "20", "--krylov-tol", "1e-300", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "PropagationError"
        assert "tol = 1e-300" in record["message"]

    def test_dead_worker_exits_one_with_a_typed_record(self, monkeypatch, tmp_path, capsys):
        # a worker that exits without a Python exception: no traceback, one record
        caller, trajectory = os.getpid(), spinchannel.transfer._trajectory

        def exiting_in_worker(matrix, psi, times, tol, radius):
            if os.getpid() != caller:
                os._exit(3)
            return trajectory(matrix, psi, times, tol, radius)

        monkeypatch.setattr(spinchannel.transfer, "_trajectory", exiting_in_worker)
        code = run(
            ["transfer", "--mode", "full", "--length", "6", "--jp", "0.2", "--temp-min", "0.01",
             "--t-points", "20", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "SpinChainError"
        assert multiprocessing.active_children() == []


def run_in_subprocess(code, argv, cwd):
    """Run ``code`` in a fresh interpreter that imports this checkout's spinchannel."""
    src = str(Path(spinchannel.transfer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout


class TestWorkerProcess:
    ARGV = ["transfer", "--mode", "full", "--length", "8", "--jp", "0.2", "--out", "o.csv"]

    def test_bytes_do_not_depend_on_the_start_method(self, monkeypatch, tmp_path):
        # spawn is the default on macOS (forkserver on Linux from Python 3.14); the
        # worker is forked whatever the default, so a script needs no __main__ guard.
        # At T = 0 the worker jumps to the second segment of G's grid, at T > 0 it
        # propagates T0.
        for temperature in ("0", "0.01"):
            argv = self.ARGV + ["--temp-min", temperature]
            default, spawn = tmp_path / temperature / "default", tmp_path / temperature / "spawn"
            default.mkdir(parents=True)
            spawn.mkdir()
            monkeypatch.chdir(default)
            assert run(argv) == 0
            run_in_subprocess(
                "import multiprocessing, sys\n"
                "from spinchannel.cli import main\n"
                "multiprocessing.set_start_method('spawn')\n"
                "raise SystemExit(main(sys.argv[1:]))\n",
                argv, spawn,
            )
            for name in ("o.csv", "o.json"):
                assert (spawn / name).read_bytes() == (default / name).read_bytes()

    def test_worker_and_bessel_functions_stay_unloaded(self, tmp_path):
        # only full mode and blocks from _WORKER_MIN_DIM on fork a worker, and only a
        # worker jumps (scipy.special's jv): the other commands load neither module, a
        # T = 0 full-mode caller no jv
        commands = [
            ["gap-scan", "--l-min", "8", "--l-max", "14", "--jp", "0.2"],
            ["teleport", "--length", "8", "--jp", "0.2", "--temp-min", "1e-3", "--temp-max",
             "1e-1", "--temp-points", "5"],
            ["transfer", "--mode", "effective", "--l-min", "8", "--l-max", "14", "--jp", "0.2"],
            ["transfer", "--mode", "full", "--length", "8", "--jp", "0.2"],
        ]
        loaded = run_in_subprocess(
            "import json, sys\n"
            "from spinchannel.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv + ['--out', 'o.csv']) == 0\n"
            "    print(sorted(m for m in ('multiprocessing', 'scipy.special',\n"
            "                             'spinchannel.worker') if m in sys.modules))\n",
            [json.dumps(commands)], tmp_path,
        )
        assert loaded.split("\n")[:4] == [
            "[]", "[]", "[]", "['multiprocessing', 'spinchannel.worker']"]


def test_gap_scan_leaves_arpack_unloaded(tmp_path):
    # k = 1 solves are two-pass Lanczos; only k >= 2 (validate) imports ARPACK
    loaded = run_in_subprocess(
        "import sys\n"
        "from spinchannel.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('scipy.sparse.linalg' in sys.modules)\n",
        ["gap-scan", "--l-min", "8", "--l-max", "14", "--jp", "0.1", "--out", "o.csv"],
        tmp_path,
    )
    assert loaded.strip() == "False"


class TestShareCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "share.csv"
        code = run(["share", "--length", "8", "--jp", "0.2", "--out", str(out)])
        assert code == 0
        doc = json.loads((tmp_path / "share.json").read_text(encoding="utf-8"))
        (row,) = doc["results"]["rows"]
        results = dict(zip(doc["results"]["header"], row))
        assert set(results) == {
            "g", "f_star", "error_probability",
            "concurrence_out", "concurrence_in", "enhancement",
        }
        assert results["enhancement"] >= 0.0
        assert results["concurrence_out"] >= results["concurrence_in"]
        assert set(doc["derived"]) == {"gap", "temperature"}

    def test_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["share", "--length", "8", "--jp", "0.2", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "g,f_star,error_probability,concurrence_out,concurrence_in,enhancement"
        assert len(lines) == 2
        assert [float(x) for x in lines[1].split(",")] == json.loads(
            (tmp_path / "s.json").read_text(encoding="utf-8"))["results"]["rows"][0]


class TestValidateCommand:
    def test_fresh_checkout_passes(self, capsys):
        assert run(["validate"]) == 0
        captured = capsys.readouterr()
        assert "all checks passed" in captured.out

    def test_injected_sign_error_is_caught(self, monkeypatch, capsys):
        true_form = spinchannel.transfer.closed_form_fidelity

        def broken(model, t):
            value = np.asarray(true_form(model, t))
            return value + 1e-6  # corrupt the closed form slightly

        monkeypatch.setattr(spinchannel.transfer, "closed_form_fidelity", broken)
        assert run(["validate"]) == 1
        captured = capsys.readouterr()
        assert "closed-form-vs-three-site" in captured.out
        assert "FAIL" in captured.out


class TestOneSolvePerChain:
    """Every command diagonalizes each chain once: k = 1 on two m = 0 symmetry blocks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap-scan", "--length", "10"],
            ["teleport", "--length", "10", "--temp-min", "1e-3"],
            ["transfer", "--length", "10"],
            ["transfer", "--mode", "full", "--length", "10", "--t-points", "20"],
            ["transfer", "--mode", "full", "--length", "10", "--t-points", "20",
             "--temp-min", "1e-3"],
            ["share", "--length", "10"],
        ],
        ids=["gap-scan", "teleport", "transfer", "full-T0", "full-T1e-3", "share"],
    )
    def test_single_eigensolve(self, monkeypatch, tmp_path, argv):
        original = spinchannel.eigensolve.lowest_eigenpairs
        calls = []

        def counted(op, k, *args, **kwargs):
            calls.append((op.dim, k))
            return original(op, k, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "spinchannel" or name.startswith("spinchannel."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        assert run(argv + ["--jp", "0.1", "--out", str(tmp_path / "x.csv")]) == 0
        # the (s, s) and (-s, -s) inversion-reflection blocks, s = (-1)^(L/2)
        assert calls == [(71, 1), (71, 1)]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"l_min": 8, "l_max": 10, "jp": "0.2"}))
        out = tmp_path / "gaps.csv"
        code = run(
            ["gap-scan", "--config", str(config), "--l-max", "12", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4  # 8, 10, 12

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"lmin": 8}))
        code = run(["gap-scan", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "setting",
        [{"length": "8"}, {"format": "xml"}, {"mode": "fool"}, {"temp_scale": "cubic"}],
        ids=["quoted-length", "format", "mode", "temp-scale"],
    )
    def test_config_values_are_checked_like_flags(self, monkeypatch, tmp_path, setting):
        self._forbid_solves(monkeypatch)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"length": 8, **setting}))
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run(["share", "--config", str(config), "--jp", "0.2", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_config_gives_the_bytes_of_the_same_flags(self, monkeypatch, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"length": 8, "jp": [0.2], "temp_min": 1e-3, "tol": 1e-11, "out": "s.csv"}
        ))
        flags = ["--length", "8", "--jp", "0.2", "--temp-min", "1e-3", "--tol", "1e-11",
                 "--out", "s.csv"]
        for name, argv in (("file", ["--config", str(config)]), ("flags", flags)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert run(["share"] + argv) == 0
        for out in ("s.csv", "s.json"):
            assert (tmp_path / "file" / out).read_bytes() == (tmp_path / "flags" / out).read_bytes()

    @pytest.mark.parametrize("key", ["out", "temp_max", "gamma", "length"])
    def test_null_value_is_a_usage_error(self, monkeypatch, tmp_path, capsys, key):
        # null is no setting's value: the key names the error, before any solve or write
        self._forbid_solves(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"length": 8, "jp": 0.2, key: None}))
        argv = ["share", "--config", "cfg.json"] + ([] if key == "out" else ["--out", "s.csv"])
        assert run(argv) == 2
        assert f"config key '{key}' is null" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("jp", [[0.2, None], [0.2, [0.3]], [{"jp": 0.2}]],
                             ids=["null", "list", "object"])
    def test_null_or_nested_list_item_is_a_usage_error(self, monkeypatch, tmp_path, capsys, jp):
        # a list item reached argparse as str(item), so a null read '0.2,None'
        # under the flag's name; the key names the error, before any solve or write
        self._forbid_solves(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"length": 8, "jp": jp, "out": "s.csv"}))
        assert run(["share", "--config", "cfg.json"]) == 2
        assert "config key 'jp' lists a null or non-scalar item" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("content", ["8", "[8]", '"x"'])
    def test_config_must_be_an_object(self, tmp_path, content):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        code = run(["gap-scan", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_out_is_usage_error(self):
        assert run(["gap-scan", "--l-min", "8", "--l-max", "10", "--jp", "0.2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["gap-scan", "--l-min", "8", "--l-max", "12", "--jp", "0.2"],
         ["share", "--length", "8", "--jp", "0.2"]],
        ids=["gap-scan", "share"],
    )
    def test_json_out_in_csv_format_fails_before_any_solve(self, monkeypatch, tmp_path, capsys,
                                                           argv):
        # in csv format the sidecar of x.json is x.json itself
        self._forbid_solves(monkeypatch)
        out = tmp_path / "x.json"
        assert run(argv + ["--out", str(out)]) == 2
        assert "--format json or a .csv name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap-scan", "--l-min", "8", "--l-max", "22", "--jp", "0.1"],
            ["teleport", "--length", "8", "--jp", "0.2", "--temp-min", "0.01"],
            ["transfer", "--length", "8", "--jp", "0.2"],
            ["transfer", "--mode", "full", "--length", "8", "--jp", "0.2"],
            ["share", "--length", "8", "--jp", "0.2"],
        ],
    )
    def test_missing_out_fails_before_any_solve(self, monkeypatch, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("spectral_data ran although --out is missing")

        for module in (spinchannel.eigensolve, spinchannel.scaling):
            monkeypatch.setattr(module, "spectral_data", no_solve)
        assert run(argv) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap-scan", "--l-min", "8", "--l-max", "12", "--jp", "0.1,-0.1"],
            ["transfer", "--mode", "effective", "--l-min", "8", "--l-max", "14", "--l-step", "3"],
            ["transfer", "--mode", "effective", "--l-min", "8", "--l-max", "12",
             "--jp", "0.1,-0.1"],
        ],
        ids=["gap-scan-jp", "transfer-length", "transfer-jp"],
    )
    def test_bad_sweep_value_fails_before_any_solve(self, monkeypatch, tmp_path, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("spectral_data ran although a length or jp is invalid")

        for module in (spinchannel.eigensolve, spinchannel.scaling):
            monkeypatch.setattr(module, "spectral_data", no_solve)
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "command", [["transfer", "--mode", "full"], ["share"]], ids=["transfer-full", "share"]
    )
    @pytest.mark.parametrize(
        "flags",
        [
            ["--temp-min", "0", "--temp-max", "0.1", "--temp-points", "5"],
            ["--temp-min", "0.01", "--temp-points", "3"],
            ["--temp-min", "0", "--temp-max", "0.1"],
            ["--temp-min", "-0.1"],
        ],
    )
    def test_single_temperature_commands_reject_sweeps_before_any_solve(
        self, monkeypatch, tmp_path, command, flags
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("spectral_data ran although the temperature is invalid")

        monkeypatch.setattr(spinchannel.eigensolve, "spectral_data", no_solve)
        argv = command + ["--length", "4", "--jp", "0.5", "--out", str(tmp_path / "x.csv")]
        assert run(argv + flags) == 2

    @pytest.mark.parametrize(
        "command", [["teleport"], ["transfer", "--mode", "effective"]],
        ids=["teleport", "transfer-effective"],
    )
    def test_one_point_grid_with_a_range_fails_before_any_solve(
        self, monkeypatch, capsys, tmp_path, command
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("spectral_data ran although --temp-max would be dropped")

        for module in (spinchannel.eigensolve, spinchannel.scaling):
            monkeypatch.setattr(module, "spectral_data", no_solve)
        argv = command + ["--length", "8", "--jp", "0.2", "--temp-min", "0.01",
                          "--temp-max", "0.1", "--out", str(tmp_path / "x.csv")]
        assert run(argv) == 2
        assert "--temp-points" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["effective", "full"])
    @pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf"])
    def test_bad_gamma_fails_before_any_solve(self, monkeypatch, tmp_path, mode, gamma):
        def no_solve(*args, **kwargs):
            raise AssertionError("spectral_data ran although --gamma is invalid")

        for module in (spinchannel.eigensolve, spinchannel.scaling):
            monkeypatch.setattr(module, "spectral_data", no_solve)
        argv = ["transfer", "--mode", mode, "--length", "8", "--jp", "0.2", "--gamma", gamma]
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2

    @staticmethod
    def _forbid_solves(monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("spectral_data ran although an input is invalid")

        for module in (spinchannel.eigensolve, spinchannel.scaling):
            monkeypatch.setattr(module, "spectral_data", no_solve)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gap-scan", "--l-min", "8", "--l-max", "16", "--jp", "0.1", "--tol", "nan"],
             "--tol must be positive and finite, got nan"),
            (["gap-scan", "--l-min", "8", "--l-max", "8", "--jp", "0.1", "--tol", "inf"],
             "--tol must be positive and finite, got inf"),
            (["gap-scan", "--l-min", "16", "--l-max", "16", "--jp", "nan"],
             "Jp must be positive (antiferromagnetic) and finite, got nan"),
            (["gap-scan", "--l-min", "8", "--l-max", "8", "--jp", "inf"],
             "Jp must be positive (antiferromagnetic) and finite, got inf"),
            (["gap-scan", "--l-min", "8", "--l-max", "8", "--jp", "0.1", "--j", "nan"],
             "J must be positive (antiferromagnetic) and finite, got nan"),
            (["teleport", "--length", "8", "--jp", "0.2", "--temp-min", "1e-3", "--tol", "nan"],
             "--tol must be positive and finite, got nan"),
            (["transfer", "--mode", "full", "--length", "8", "--jp", "0.2", "--j", "inf"],
             "J must be positive (antiferromagnetic) and finite, got inf"),
            (["share", "--length", "8", "--jp", "0.2", "--tol", "nan"],
             "--tol must be positive and finite, got nan"),
        ],
        ids=["gap-tol-nan", "gap-tol-inf", "gap-jp-nan", "gap-jp-inf", "gap-j-nan",
             "teleport-tol", "full-j-inf", "share-tol"],
    )
    def test_non_finite_tol_or_coupling_fails_before_any_solve(
        self, monkeypatch, tmp_path, capsys, argv, message
    ):
        self._forbid_solves(monkeypatch)
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["gap-scan", "--l-min", "8", "--l-max", "10", "--jp", ""], None),
            (["transfer", "--l-min", "8", "--l-max", "10", "--jp", ","], None),
            (["gap-scan", "--l-min", "8", "--l-max", "10"], {"jp": []}),
        ],
        ids=["gap-scan-empty", "transfer-comma", "config-empty-list"],
    )
    def test_empty_jp_list_fails_before_any_solve(
        self, monkeypatch, tmp_path, capsys, argv, config
    ):
        self._forbid_solves(monkeypatch)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert "--jp needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["gap-scan"], ["transfer", "--mode", "effective"]],
        ids=["gap-scan", "transfer-effective"],
    )
    def test_repeated_jp_value_fails_before_any_solve(self, monkeypatch, tmp_path, capsys,
                                                      command):
        # a repeat would solve every chain twice and write each row twice
        self._forbid_solves(monkeypatch)
        out = tmp_path / "x.csv"
        argv = command + ["--l-min", "8", "--l-max", "12", "--jp", "0.2,0.2", "--out", str(out)]
        assert run(argv) == 2
        assert "--jp repeats a value: [0.2, 0.2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["teleport"], ["transfer", "--mode", "effective"], ["transfer", "--mode", "full"],
         ["share"]],
        ids=["teleport", "effective", "full", "share"],
    )
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--temp-min", "nan"], "--temp-min must be finite, got nan"),
            (["--temp-min", "inf"], "--temp-min must be finite, got inf"),
            (["--temp-min", "1e-3", "--temp-max", "nan"], "--temp-max must be finite, got nan"),
        ],
        ids=["min-nan", "min-inf", "max-nan"],
    )
    def test_non_finite_temperature_fails_before_any_solve(
        self, monkeypatch, tmp_path, capsys, command, flags, message
    ):
        self._forbid_solves(monkeypatch)
        argv = command + ["--length", "8", "--jp", "0.2", "--out", str(tmp_path / "x.csv")]
        assert run(argv + flags) == 2
        assert message in capsys.readouterr().err

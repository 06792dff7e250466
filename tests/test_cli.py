"""CLI commands: output formats, determinism, exit codes."""

import json
import sys
from math import comb

import numpy as np
import pytest

import spinchannel.eigensolve
import spinchannel.scaling
import spinchannel.teleport
import spinchannel.transfer
from spinchannel.cli import main


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

    def test_byte_identical_rerun(self, tmp_path):
        args = ["gap-scan", "--l-min", "8", "--l-max", "14", "--jp", "0.2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # sidecars differ only in the recorded output path
        s1 = (tmp_path / "a.json").read_text().replace(str(out1), "X")
        s2 = (tmp_path / "b.json").read_text().replace(str(out2), "X")
        assert s1 == s2

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

    def test_rejects_nonpositive_grid(self, tmp_path):
        code = run(
            ["teleport", "--length", "8", "--jp", "0.2", "--temp-min", "0",
             "--temp-points", "3", "--temp-max", "0.1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


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

        for module in (spinchannel.eigensolve, spinchannel.transfer):
            monkeypatch.setattr(module, "spectral_data", no_solve)
        argv = ["transfer", "--mode", "full", "--length", "8", "--jp", "0.2",
                "--out", str(tmp_path / "x.csv")]
        assert run(argv + flags) == 2

    # t*, f* and theta at five grid points of the L = 10 curve (Jp = 0.1,
    # gamma = gap, default 600-point grid) as computed by the propagator with
    # full Lanczos reorthogonalization; later propagators must reproduce them.
    # The T = 0 t* is that of the exact (dense eigh) ground vector.  The peak
    # is so flat that a 1e-9 window on t* resolves a Ritz vector's ~1e-11
    # residual: the earlier pin 869.3013199007 was the k = 1 Ritz vector's
    # value, while k = 2 Ritz vectors from any seed give the dense value to
    # 3e-10.
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

    def test_full_mode_length_cap(self, tmp_path):
        code = run(
            ["transfer", "--mode", "full", "--length", "18", "--jp", "0.1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestShareCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "share.json"
        code = run(["share", "--length", "8", "--jp", "0.2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        results = doc["results"]
        assert set(results) == {
            "g", "f_star", "error_probability",
            "concurrence_out", "concurrence_in", "enhancement",
        }
        assert results["enhancement"] >= 0.0
        assert results["concurrence_out"] >= results["concurrence_in"]


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
    """Every command diagonalizes each chain once: k = 2 on the m = 0 sector."""

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
        out = tmp_path / ("x.json" if argv[0] == "share" else "x.csv")
        assert run(argv + ["--jp", "0.1", "--out", str(out)]) == 0
        assert calls == [(comb(10, 5), 2)]


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

    def test_missing_out_is_usage_error(self):
        assert run(["gap-scan", "--l-min", "8", "--l-max", "10", "--jp", "0.2"]) == 2

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

        for module in (spinchannel.eigensolve, spinchannel.scaling,
                       spinchannel.teleport, spinchannel.transfer):
            monkeypatch.setattr(module, "spectral_data", no_solve)
        assert run(argv) == 2

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

        for module in (spinchannel.eigensolve, spinchannel.transfer):
            monkeypatch.setattr(module, "spectral_data", no_solve)
        argv = command + ["--length", "4", "--jp", "0.5", "--out", str(tmp_path / "x.csv")]
        assert run(argv + flags) == 2

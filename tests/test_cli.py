import json
import math

import pytest

from tcalgebra import verify
from tcalgebra.cli import main

from conftest import psi_t


@pytest.fixture
def phi0_file(tmp_path):
    path = tmp_path / "phi0.json"
    path.write_text(json.dumps({"a": [-1, 0], "b": [-1, 0], "c": [0, 0], "d": [2, 0]}))
    return str(path)


def _write_map(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(m.to_json())
    return str(path)


class TestAnalyze:
    def test_phi0_report(self, phi0_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "--map", phi0_file, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["class"] == "contact"
        assert report["parabolic"] is False
        assert report["zeta"] == [1.0, 0.0]
        assert report["eta"] == [-1.0, 0.0]
        assert abs(report["s"] - 2.0) < 1e-12
        assert abs(report["tau_translation"][0] - 2.0) < 1e-12
        assert abs(report["tau_translation"][1]) < 1e-12
        assert report["krein_commutes"] is False
        sigma = report["sigma_coeffs"]
        assert sigma["b"] == [0.0, -0.0] or sigma["b"] == [-0.0, 0.0] or sigma["b"] == [0.0, 0.0]

    def test_parabolic_map(self, tmp_path):
        path = _write_map(tmp_path, "psi1.json", psi_t(1.0))
        out = tmp_path / "r.json"
        assert main(["analyze", "--map", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["parabolic"] is True
        assert abs(report["s"] - 1.0) < 1e-9

    def test_contraction_exits_2(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [2, 0]}))
        assert main(["analyze", "--map", str(path)]) == 2
        assert "no boundary contact" in capsys.readouterr().err

    def test_automorphism_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rot.json"
        path.write_text(json.dumps({"a": [0, 1], "b": [0, 0], "c": [0, 0], "d": [1, 0]}))
        assert main(["analyze", "--map", str(path)]) == 2
        assert "automorphism" in capsys.readouterr().err


class TestNormalize:
    def test_canonical_form(self, phi0_file, tmp_path, capsys):
        out = tmp_path / "n.json"
        code = main(["normalize", "--map", phi0_file, "--expr", "C'*C", "--out", str(out)])
        assert code == 0
        assert "2·C_{φ∘σ} + K" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["expression"] == "(2.0,0.0)*S*C + K"
        assert payload["quintuple"]["f"]["p"] == [[0.0, 0.0], [1.0, 0.0]]

    def test_square_vanishes(self, phi0_file, capsys):
        assert main(["normalize", "--map", phi0_file, "--expr", "C*C"]) == 0
        assert "0 + K" in capsys.readouterr().out

    def test_syntax_error_exit_1(self, phi0_file, capsys):
        assert main(["normalize", "--map", phi0_file, "--expr", "C + "]) == 1
        assert "offset 4" in capsys.readouterr().err

    def test_parabolic_map_rejected(self, tmp_path, capsys):
        path = _write_map(tmp_path, "psi1.json", psi_t(1.0))
        assert main(["normalize", "--map", path, "--expr", "C"]) == 2
        assert "zeta != eta" in capsys.readouterr().err


class TestSpectrum:
    def test_csv_contents(self, phi0_file, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = main([
            "spectrum", "--map", phi0_file, "--expr", "C + C'",
            "--resolution", "201", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "re,im,source"
        rows = [line.split(",") for line in lines[1:]]
        assert {row[2] for row in rows} == {"circle", "interval+", "interval-"}
        res = [float(row[0]) for row in rows]
        ims = [float(row[1]) for row in rows]
        assert max(abs(v) for v in ims) < 1e-12
        assert abs(min(res) + math.sqrt(2)) < 1e-12
        assert abs(max(res) - math.sqrt(2)) < 1e-12

    def test_deterministic_bytes(self, phi0_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main([
                "spectrum", "--map", phi0_file, "--expr", "S*C + C*S + C - S",
                "--resolution", "101", "--out", str(out),
            ])
        assert out1.read_bytes() == out2.read_bytes()


class TestNorm:
    def test_scalar_output(self, phi0_file, tmp_path, capsys):
        out = tmp_path / "norm.json"
        code = main([
            "norm", "--map", phi0_file, "--expr", "T{z} + C + C'",
            "--resolution", "801", "--out", str(out),
        ])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - math.sqrt(3)) < 1e-6
        payload = json.loads(out.read_text())
        assert payload["norm"] == value
        assert payload["grid_spacing"] > 0


class TestVerify:
    def test_battery_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        # small sizes keep this fast
        code = main([
            "verify", "--N", "128", "--window", "32",
            "--resolution", "200", "--out", str(out),
        ])
        stdout = capsys.readouterr().out
        assert "PASS AC1" in stdout
        assert "claims passed" in stdout
        payload = json.loads(out.read_text())
        assert code == (0 if all(row["pass"] for row in payload) else 1)
        claims = {row["claim"]: row for row in payload}
        assert claims["AC1"]["pass"] is True
        assert claims["AC2"]["pass"] is True
        assert claims["AC8"]["pass"] is True
        assert claims["AC11.roundtrip"]["pass"] is True
        assert claims["AC9.adjoint"]["floor_or_fill"] is not None

    def test_failing_claim_exits_1(self, tmp_path, monkeypatch, capsys):
        def failing(**kwargs):
            return [verify.ClaimResult("AC1", False, "forced failure", measured=1.0)]

        monkeypatch.setitem(verify.MANIFEST, "AC1", failing)
        out = tmp_path / "verify.json"
        code = main([
            "verify", "--N", "128", "--window", "32",
            "--resolution", "200", "--out", str(out),
        ])
        assert code == 1
        assert "FAIL AC1" in capsys.readouterr().out
        claims = {row["claim"]: row for row in json.loads(out.read_text())}
        assert claims["AC1"]["pass"] is False

    def test_window_guard(self, capsys):
        assert main(["verify", "--N", "64", "--window", "64"]) == 1
        assert "window" in capsys.readouterr().err

    def test_size_too_small_for_ac10(self, capsys):
        assert main(["verify", "--N", "2", "--window", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any claim runs
        assert "AC10" in captured.err and "N//4 = 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["analyze", "--N", "100"],
    ["analyze", "--N", "256", "--window", "32"],
    ["normalize", "--expr", "C", "--N", "100"],
    ["spectrum", "--expr", "C", "--N", "100"],
    ["norm", "--expr", "C", "--N", "100"],
])
def test_sizes_only_checked_by_verify(phi0_file, argv):
    # --N and --window are accepted by every subcommand but used only by verify
    assert main([argv[0], "--map", phi0_file, *argv[1:]]) == 0


def test_missing_map_file(capsys):
    assert main(["analyze", "--map", "/nonexistent/map.json"]) == 1

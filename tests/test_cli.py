"""Command-line surface: exit codes, report schemas, determinism."""

import json

import numpy as np
import pytest

from qhodge.cli import main
from qhodge.fields import random_field, single_mode
from qhodge.exterior import VOL
from qhodge.operators import exterior_d
from qhodge.suites import RunConfig, run_suites
from qhodge.transgression import quartic_differential


def run(argv):
    return main(argv)


class TestVerify:
    def test_single_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "exterior", "--seed", "1", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["all_pass"] is True
        assert rep["suites"]["exterior"]["max_residual"] <= 1e-10
        assert rep["schema_version"] == 1
        for check in rep["suites"]["exterior"]["checks"].values():
            assert check["pass"] is True
            assert check["residual"] <= 1e-10

    def test_unknown_suite_usage_error(self, capsys):
        code = run(["verify", "--suite", "nonsense"])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_unattainable_tolerance_fails_with_named_check(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run([
            "verify", "--suite", "exterior", "--tol", "1e-20", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "exterior:" in err
        rep = json.loads(out.read_text())
        assert rep["all_pass"] is False
        assert rep["first_failure"].startswith("exterior:")

    def test_determinism_byte_identical(self, tmp_path):
        cfg = dict(kmax=2, field_count=2, seed=7, suites=("operators", "kodaira"))
        a = json.dumps(run_suites(RunConfig(**cfg)), sort_keys=True)
        b = json.dumps(run_suites(RunConfig(**cfg)), sort_keys=True)
        assert a == b

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kmax": 2, "seed": 3, "suites": ["exterior"]}))
        out = tmp_path / "rep.json"
        code = run(["verify", "--config", str(cfg_path), "--seed", "4", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["kmax"] == 2  # from file
        assert rep["config"]["seed"] == 4  # flag wins

    def test_nan_tolerance_usage_error(self, capsys):
        assert run(["verify", "--suite", "exterior", "--tol", "nan"]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_nan_theta_in_config_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"theta": [0.0, float("nan"), 0.0, 0.0]}))
        assert run(["verify", "--suite", "exterior", "--config", str(cfg_path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_report_carries_structure_matrices(self, tmp_path):
        out = tmp_path / "rep.json"
        run(["verify", "--suite", "exterior", "--out", str(out)])
        rep = json.loads(out.read_text())
        mats = rep["structure_matrices"]
        assert set(mats) == {"I", "J", "K"}
        assert np.array(mats["I"]).shape == (4, 4)


class TestTransgress:
    def test_roundtrip_fixture(self, tmp_path):
        rng = np.random.default_rng(123)
        sigma = random_field(2, rng, degree=0)
        target = quartic_differential(sigma)
        inp = tmp_path / "target.json"
        target.save(inp)
        out = tmp_path / "result.json"
        code = run(["transgress", "--order", "4", "--input", str(inp), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["order"] == 4
        assert doc["residual"] <= 1e-8
        assert doc["sign"] == 1.0
        assert set(doc["precondition_residuals"]) >= {"d_closed", "harmonic_part"}

    def test_order1(self, tmp_path):
        rng = np.random.default_rng(5)
        target = exterior_d(random_field(1, rng))
        inp = tmp_path / "t.json"
        target.save(inp)
        out = tmp_path / "r.json"
        assert run(["transgress", "--order", "1", "--input", str(inp), "--out", str(out)]) == 0

    def test_order2_requires_structure(self, tmp_path, capsys):
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"truncation": 1, "entries": []}))
        code = run(["transgress", "--order", "2", "--input", str(inp), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--structure" in capsys.readouterr().err

    def test_harmonic_input_precondition_exit(self, tmp_path, capsys):
        f = single_mode(1, (0, 0, 0, 0), VOL)
        inp = tmp_path / "t.json"
        f.save(inp)
        code = run(["transgress", "--order", "4", "--input", str(inp), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "NotExact" in capsys.readouterr().err

    def test_not_dc_closed_exit_names_structure(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        target = exterior_d(random_field(1, rng, degree=1))
        inp = tmp_path / "t.json"
        target.save(inp)
        code = run(["transgress", "--order", "4", "--input", str(inp), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "NotDCClosed" in capsys.readouterr().err

    def test_bad_order_usage(self, tmp_path, capsys):
        code = run(["transgress", "--order", "3", "--input", "x", "--out", "y"])
        assert code == 2

    def test_missing_input_usage(self, tmp_path, capsys):
        code = run(["transgress", "--order", "1", "--input", str(tmp_path / "no.json"),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2


class TestTorsion:
    def test_report(self, tmp_path):
        out = tmp_path / "torsion.json"
        code = run(["torsion", "--theta", "0,0,0,0", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["identity_residuals"]["abs(T - 1)"] <= 1e-8
        assert rep["identity_residuals"]["rel(T_h - det0^2)"] <= 1e-8
        assert rep["identity_residuals"]["abs(beta0 - 3 log T_h)"] <= 1e-6
        assert set(rep["per_q"]) == {"0", "1", "2"}

    def test_theta_parse_error(self, capsys):
        assert run(["torsion", "--theta", "1,2"]) == 2

    def test_nan_theta_usage_error(self, capsys):
        assert run(["torsion", "--theta", "nan,0,0,0"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_infinite_theta_usage_error(self, capsys):
        assert run(["torsion", "--theta", "inf,0,0,0"]) == 2
        assert "finite" in capsys.readouterr().err


class TestLaplConstant:
    def test_measured_constant(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["lapl-constant", "--modes", "6", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["constant"] == pytest.approx(1.0, abs=1e-12)
        assert rep["spread"] <= 1e-10
        assert len(rep["modes"]) == 6
        assert "16" in rep["note"]

    def test_stdout_emission(self, capsys):
        code = run(["lapl-constant", "--modes", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["constant"] == pytest.approx(1.0, abs=1e-12)

"""End-to-end command-line behavior: exit codes, files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ethsim.cli import main
from ethsim.fileio import read_summary, write_matrix_file, write_summary

FAST_INVERSE_CFG = """
name = tiny-inverse
target = inverse-expectation
form = operator
seed = 5
problem.kind = pauli-terms
problem.terms = 1.5 I; -0.5 Z
delta.kind = identity
phi = uniform
weight.kind = inverse
qpe.m = 2
qpe.shift = 0.0
qpe.scale = 0.25
eth.dt = 0.0981747704246810287
eth.num_steps = 640
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPresetCommand:
    def test_inverse_preset_runs(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "preset", "inverse-2q", "--out-dir", str(tmp_path))
        assert code == 0
        assert err == ""
        assert "estimate=" in out and "gap=" in out
        summary = read_summary(tmp_path / "inverse-2q_summary.json")
        assert summary["estimate"] == pytest.approx(25 / 12, abs=1e-4)
        assert (tmp_path / summary["series_file"]).exists()

    def test_unknown_preset(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "preset", "no-such", "--out-dir", str(tmp_path))
        assert code == 2
        assert "error [config]" in err

    @pytest.mark.parametrize("blocker", ["afile", "out/inverse-2q_series.csv"])
    def test_an_unwritable_output_path_exits_2(self, tmp_path, capsys, blocker):
        # a regular file where the output directory should be made, or a
        # directory where the series file should be written
        if blocker == "afile":
            (tmp_path / blocker).write_text("")
            out_dir = tmp_path / "afile" / "sub"
        else:
            (tmp_path / blocker).mkdir(parents=True)
            out_dir = tmp_path / "out"
        before = sorted(tmp_path.rglob("*"))
        code, _, err = run_cli(capsys, "preset", "inverse-2q", "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith(f"error [config]: cannot write {out_dir / 'inverse-2q_series.csv'}: ")
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("case", ["long-name", "removed-cwd"])
    def test_an_uncreatable_output_directory_exits_2(self, tmp_path, monkeypatch, capsys, case):
        # a name longer than the file system allows (OSError, ENAMETOOLONG), or
        # a directory in a removed working directory (FileNotFoundError)
        if case == "long-name":
            out_dir = tmp_path / ("d" * 300)
        else:
            gone = tmp_path / "gone"
            gone.mkdir()
            monkeypatch.chdir(gone)
            gone.rmdir()
            out_dir = Path("out")
        code, _, err = run_cli(capsys, "preset", "inverse-2q", "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith(f"error [config]: cannot write {out_dir / 'inverse-2q_series.csv'}: ")
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*")) == []

    def test_emit_config_then_run(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "preset", "logdet-2q", "--emit-config", "--out-dir", str(tmp_path)
        )
        assert code == 0
        cfg_path = tmp_path / "logdet-2q.cfg"
        assert cfg_path.exists()
        code, out, _ = run_cli(capsys, "run", str(cfg_path), "--out-dir", str(tmp_path))
        assert code == 0
        summary = read_summary(tmp_path / "logdet-2q_summary.json")
        assert summary["estimate"] == pytest.approx(5.0, abs=1e-3)

    def test_seed_override_recorded(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "preset", "inverse-2q", "--seed", "77", "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert read_summary(tmp_path / "inverse-2q_summary.json")["seed"] == 77

    def test_json_series_format(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "preset", "inverse-2q", "--format", "json", "--out-dir", str(tmp_path)
        )
        assert code == 0
        series = json.loads((tmp_path / "inverse-2q_series.json").read_text())
        assert series["schema_version"] == 1
        assert len(series["rows"]) == 2560

    def test_sweep_preset_prints_per_ratio(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "preset", "condition-sweep", "--out-dir", str(tmp_path))
        assert code == 0
        ratio_lines = [line for line in out.splitlines() if "ratio=" in line]
        assert len(ratio_lines) == 4
        summary = read_summary(tmp_path / "condition-sweep_summary.json")
        gaps = [row["oracle_gap"] for row in summary["runs"]]
        assert gaps == sorted(gaps)  # constant budget degrades with conditioning


class TestRunCommand:
    def test_text_config(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(FAST_INVERSE_CFG)
        code, out, _ = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 0
        summary = read_summary(tmp_path / "tiny-inverse_summary.json")
        # <+|diag(1,2)^{-1}|+> = 0.75
        assert summary["estimate"] == pytest.approx(0.75, abs=1e-6)
        assert summary["oracle_gap"] <= 1e-9

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_INVERSE_CFG.replace("qpe.m = 2", "qpe.m = two"))
        code, _, err = run_cli(capsys, "run", str(cfg))
        assert code == 2
        assert "qpe.m" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert "error [config]" in err

    def test_dense_matrix_problem(self, tmp_path, capsys):
        write_matrix_file(tmp_path / "op.mat", np.diag([1.0, 2.0]).astype(complex))
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace(
                "problem.kind = pauli-terms\nproblem.terms = 1.5 I; -0.5 Z",
                "problem.kind = dense-matrix-file\nproblem.path = op.mat",
            )
        )
        code, _, _ = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 0
        summary = read_summary(tmp_path / "tiny-inverse_summary.json")
        assert summary["estimate"] == pytest.approx(0.75, abs=1e-6)

    def test_non_hermitian_matrix_is_domain_error(self, tmp_path, capsys):
        write_matrix_file(tmp_path / "op.mat", np.array([[0, 1], [0, 0]], dtype=complex))
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace(
                "problem.kind = pauli-terms\nproblem.terms = 1.5 I; -0.5 Z",
                "problem.kind = dense-matrix-file\nproblem.path = op.mat",
            )
        )
        code, _, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 4
        assert "error [domain]" in err

    def test_non_power_of_two_matrix_is_config_error(self, tmp_path, capsys):
        write_matrix_file(tmp_path / "op.mat", np.diag([1.0, 2.0, 3.0]).astype(complex))
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace(
                "problem.kind = pauli-terms\nproblem.terms = 1.5 I; -0.5 Z",
                "problem.kind = dense-matrix-file\nproblem.path = op.mat",
            )
        )
        code, _, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error [config]")
        assert "op.mat" in err and "power of two" in err

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_matrix_entry_is_config_error(self, tmp_path, capsys, entry):
        (tmp_path / "op.mat").write_text(f"2\n1.0 0.0 0.0 0.0\n0.0 0.0 {entry} 0.0\n")
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace(
                "problem.kind = pauli-terms\nproblem.terms = 1.5 I; -0.5 Z",
                "problem.kind = dense-matrix-file\nproblem.path = op.mat",
            )
        )
        code, _, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error [config]")
        assert "op.mat" in err and "finite" in err
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"\xff2\n1.0 0.0 0.0 0.0\n0.0 0.0 1.0 0.0\n", "first line must be the dimension"),
            # a small file: a text-mode reader decoded this row while reading the header
            (b"2\n1.0 0.0 0.0 0.0\n0.0 0.0 \xff 0.0\n", "expected 2 rows of 4 numbers; line 3: could not convert string '\xff' to float64 at column 3."),
        ],
    )
    def test_a_byte_that_is_not_text_names_its_line(self, tmp_path, capsys, body, message):
        (tmp_path / "op.mat").write_bytes(body)
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace(
                "problem.kind = pauli-terms\nproblem.terms = 1.5 I; -0.5 Z",
                "problem.kind = dense-matrix-file\nproblem.path = op.mat",
            )
        )
        code, _, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error [config]")
        assert "op.mat" in err and message in err

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    def test_phase_outside_the_register_names_its_energy(self, tmp_path, capsys, mode):
        # the top eigenvalue 5 maps to phase 5 * 0.25 = 1.25
        write_matrix_file(tmp_path / "op.mat", np.diag([1.0, 5.0]).astype(complex))
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace(
                "problem.kind = pauli-terms\nproblem.terms = 1.5 I; -0.5 Z",
                "problem.kind = dense-matrix-file\nproblem.path = op.mat",
            ).replace("qpe.m = 2", f"qpe.m = 2\nqpe.mode = {mode}")
        )
        code, _, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error [config]")
        assert "phase 1.25 for energy 5.0 lies outside [0, 1); adjust shift/scale" in err
        assert not (tmp_path / "tiny-inverse_summary.json").exists()

    def test_singular_operator_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "singular.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace("problem.terms = 1.5 I; -0.5 Z", "problem.terms = 0.5 I; 0.5 Z")
            .replace("qpe.shift = 0.0", "qpe.shift = -0.0")
            .replace("qpe.scale = 0.25", "qpe.scale = 0.5")
        )
        code, _, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 3
        assert "error [singularity]" in err

    def test_singular_fixed_weight_ignores_the_regularize_policy(self, tmp_path, capsys):
        # an inverse-expectation run weighs by a fixed 1/E and reads no weight block
        cfg = tmp_path / "singular.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace("problem.terms = 1.5 I; -0.5 Z", "problem.terms = 0.5 I; 0.5 Z")
            .replace("weight.kind = inverse", "weight.kind = inverse\nweight.policy = regularize")
            .replace("qpe.scale = 0.25", "qpe.scale = 0.5")
        )
        code, _, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 3
        assert err.startswith("error [singularity]: weight 'inverse' undefined at eigenvalue E = 0.0")
        assert err.rstrip().endswith("a time-average run proceeds under weight.policy = regularize")

    @pytest.mark.parametrize("form", ["operator", "vector"])
    def test_leaked_singular_bin_exit_code(self, tmp_path, capsys, form):
        # circuit-mode leakage reaches bin 0, whose decoded energy is 0
        write_matrix_file(tmp_path / "op.mat", np.diag([0.3, 0.55]).astype(complex))
        cfg = tmp_path / "leak.cfg"
        cfg.write_text(
            FAST_INVERSE_CFG.replace(
                "problem.kind = pauli-terms\nproblem.terms = 1.5 I; -0.5 Z",
                "problem.kind = dense-matrix-file\nproblem.path = op.mat",
            )
            .replace("form = operator", f"form = {form}")
            .replace("qpe.m = 2", "qpe.m = 3\nqpe.mode = circuit")
            .replace("qpe.scale = 0.25", "qpe.scale = 1.0")
        )
        code, _, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path))
        assert code == 3
        assert "error [singularity]" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(FAST_INVERSE_CFG)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "run", str(cfg), "--out-dir", str(dir_a))[0] == 0
        assert run_cli(capsys, "run", str(cfg), "--out-dir", str(dir_b))[0] == 0
        name = "tiny-inverse_series.csv"
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    @pytest.mark.parametrize(
        "exc", [np.linalg.LinAlgError("Eigenvalues did not converge"), MemoryError()], ids=["linalg", "memory"]
    )
    def test_numerical_failure_is_domain_error(self, tmp_path, capsys, monkeypatch, exc):
        def fail(a):
            raise exc

        monkeypatch.setattr("ethsim.runner.eigendecompose", fail)
        code, _, err = run_cli(capsys, "preset", "inverse-2q", "--out-dir", str(tmp_path))
        assert code == 4
        assert err.startswith(f"error [domain]: {type(exc).__name__}")
        assert "Traceback" not in err


class TestCompareCommand:
    def _write_summary(self, path, estimate, se, name="x", target="inverse-expectation"):
        write_summary(
            path,
            {"name": name, "target": target, "estimate": estimate, "standard_error": se},
        )

    def test_consistent_pair(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_summary(a, 1.00, 0.02)
        self._write_summary(b, 1.03, 0.02)
        code, out, _ = run_cli(capsys, "compare", str(a), str(b))
        assert code == 0
        result = json.loads(out)
        assert result["consistent"] is True
        assert result["z_score"] == pytest.approx(0.03 / np.hypot(0.02, 0.02))

    def test_inconsistent_pair(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_summary(a, 1.0, 0.001)
        self._write_summary(b, 2.0, 0.001)
        code, out, _ = run_cli(capsys, "compare", str(a), str(b))
        assert code == 0
        assert json.loads(out)["consistent"] is False

    def test_target_mismatch_is_domain_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_summary(a, 1.0, 0.1)
        self._write_summary(b, 1.0, 0.1, target="logdet-gradient")
        code, _, err = run_cli(capsys, "compare", str(a), str(b))
        assert code == 4
        assert "error [domain]" in err

    @pytest.mark.parametrize(
        "body,code,message",
        [
            ("3", 2, "error [config]: summary file {b} is not a JSON object"),
            ('{"target": "inverse-expectation", "estimate": "x"}', 4,
             "error [domain]: summary b field 'estimate' is not a number: 'x'"),
            ('{"target": "inverse-expectation", "estimate": 1.0, "standard_error": null}', 4,
             "error [domain]: summary b field 'standard_error' is not a number: None"),
        ],
        ids=["root-not-object", "estimate-not-number", "standard-error-null"],
    )
    def test_malformed_summary_is_a_named_error(self, tmp_path, capsys, body, code, message):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_summary(a, 1.0, 0.1)
        b.write_text(body)
        got, out, err = run_cli(capsys, "compare", str(a), str(b))
        assert (got, out, err) == (code, "", message.format(b=b) + "\n")

    def test_real_run_compares_consistent(self, tmp_path, capsys):
        for sub, seed in (("a", "5"), ("b", "6")):
            code, _, _ = run_cli(
                capsys,
                "preset", "inverse-2q", "--seed", seed, "--out-dir", str(tmp_path / sub),
            )
            assert code == 0
        code, out, _ = run_cli(
            capsys,
            "compare",
            str(tmp_path / "a" / "inverse-2q_summary.json"),
            str(tmp_path / "b" / "inverse-2q_summary.json"),
        )
        assert code == 0
        assert json.loads(out)["consistent"] is True


class TestParser:
    def test_no_command_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_script_installed(self, tmp_path):
        # the subprocess imports ethsim from this checkout's src/, installed or not
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "ethsim.cli", "preset", "logdet-2q", "--out-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "estimate=" in proc.stdout

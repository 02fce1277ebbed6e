"""Experiment config parsing, serialization round trips, and file formats."""

import functools
import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ethsim import ConfigError, config, fileio
from ethsim.cli import main
from ethsim.config import (
    DELTA_KINDS,
    FORMS,
    PROBLEM_KINDS,
    TARGETS,
    DeltaSpec,
    ExperimentConfig,
    OutputSpec,
    from_dict,
    load_config,
    parse_amplitudes,
    parse_keyvalue_text,
    to_keyvalue_text,
)
from ethsim.estimators import INITIAL_STATE_KINDS, SAMPLING_MODES, TARGET_ROWS
from ethsim.fileio import (
    atomic_write_text,
    read_matrix_file,
    read_summary,
    series_blocks,
    write_matrix_file,
    write_series,
    write_summary,
)
from ethsim.phase_estimation import QPE_MODES
from ethsim.presets import PRESET_NAMES, build_preset
from ethsim.runner import execute_experiment
from ethsim.weights import INVERSE, WEIGHT_KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


class TestFromDict:
    def base(self) -> dict:
        return json.loads(json.dumps(build_preset("inverse-2q").to_dict()))

    def test_round_trip_through_dict(self):
        cfg = build_preset("inverse-2q")
        again = from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_all_presets_round_trip(self):
        for name in PRESET_NAMES:
            cfg = build_preset(name)
            assert from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_every_weight_kind_loads_runs_and_echoes_itself(self, kind, tmp_path):
        """Each kind the parser lists loads, runs a time-average end to end, and
        the summary's config echo loads back as the same config."""
        data = self.base()
        data.update(target="time-average", delta={"kind": "identity"}, weight={"kind": kind})
        cfg = from_dict(data)
        summary = execute_experiment(cfg.with_outputs(out_dir=str(tmp_path))).summary
        assert summary["config"]["weight"]["kind"] == kind
        assert from_dict(summary["config"]) == cfg

    @pytest.mark.parametrize("key", ["phi", "delta.state"])
    def test_explicit_amplitudes_compare_and_hash(self, key):
        data = self.base()
        amplitudes = [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]]
        if key == "phi":
            data["phi"] = amplitudes
        else:
            # the time-average target reads the delta block; inverse-2q's measures phi
            data["target"] = "time-average"
            data["delta"] = {"kind": "projector-from-state", "state": amplitudes}
        cfg = from_dict(data)
        assert from_dict(data) == cfg
        assert hash(from_dict(data)) == hash(cfg)
        assert from_dict(cfg.to_dict()) == cfg
        assert (cfg.phi if key == "phi" else cfg.delta.state) == (0.5, 0.5j, -0.5, -0.5j)

    def test_missing_required_key_names_field(self):
        data = self.base()
        del data["problem"]
        with pytest.raises(ConfigError, match="problem"):
            from_dict(data)

    def test_bad_target_names_field(self):
        data = self.base()
        data["target"] = "eigenvalues"
        with pytest.raises(ConfigError, match="target"):
            from_dict(data)

    def test_bad_nested_value_names_field(self):
        data = self.base()
        data["qpe"]["m"] = "three"
        with pytest.raises(ConfigError, match="qpe.m"):
            from_dict(data)

    def test_unknown_key_rejected(self):
        data = self.base()
        data["shotz"] = 100
        with pytest.raises(ConfigError, match="shotz"):
            from_dict(data)

    def test_inverse_target_requires_phi(self):
        data = self.base()
        data["phi"] = None
        with pytest.raises(ConfigError, match="phi"):
            from_dict(data)

    def test_logdet_gradient_rejects_the_vector_form(self, tmp_path, capsys):
        data = json.loads(json.dumps(build_preset("logdet-2q").to_dict()))
        data["form"] = "vector"
        with pytest.raises(ConfigError, match="'form'"):
            from_dict(data)
        path = tmp_path / "logdet-vector.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "'form'" in capsys.readouterr().err

    def test_schema_version_is_an_unknown_field(self):
        data = self.base()
        data["schema_version"] = 1
        with pytest.raises(ConfigError, match="'schema_version': unknown field"):
            from_dict(data)

    def test_problem_names_a_preset_only_by_preset(self):
        data = {"name": "x", "problem": {"kind": "preset", "preset": "inverse-2q"}}
        assert from_dict(data) == replace(build_preset("inverse-2q"), outputs=OutputSpec())
        data["problem"] = {"kind": "preset", "name": "inverse-2q"}
        with pytest.raises(ConfigError, match="'problem.name': unknown field"):
            from_dict(data)

    @pytest.mark.parametrize("block,key", [("qpe", "m"), ("eth", "num_steps"), ("eth", "shots"), ("", "seed")])
    def test_integer_fields_accept_integral_numbers_only(self, tmp_path, capsys, block, key):
        data = self.base()
        if key == "shots":
            data["eth"]["sampling"] = "shots"  # an exact run echoes eth.shots as 0
        node = data[block] if block else data
        node[key] = 4.0
        echo = from_dict(data).to_dict()
        parsed = (echo[block] if block else echo)[key]
        assert parsed == 4 and type(parsed) is int
        dotted = f"{block}.{key}" if block else key
        for value in (2.7, 4.9, float("inf")):
            node[key] = value
            with pytest.raises(ConfigError, match=rf"'{dotted}': expected an integer, got {value!r}"):
                from_dict(data)
        node[key] = 4.9
        path = tmp_path / "fraction.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert f"'{dotted}': expected an integer, got 4.9" in capsys.readouterr().err

    def test_an_exact_run_echoes_no_shot_budget(self):
        data = self.base()
        data["eth"].update(sampling="exact", shots=64)
        config = from_dict(data)
        assert config.eth.shots == 0 and config.to_dict()["eth"]["shots"] == 0
        data["eth"]["sampling"] = "shots"
        assert from_dict(data).to_dict()["eth"]["shots"] == 64

    def test_mask_indices_accept_integral_numbers_only(self):
        data = json.loads(json.dumps(build_preset("logdet-2q").to_dict()))
        data["delta"]["entries"] = [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]
        assert from_dict(data).delta.entries == ((0, 1, 0.5), (1, 0, 0.5))
        data["delta"]["entries"] = [[0.9, 1.7, 0.5], [1.7, 0.9, 0.5]]
        with pytest.raises(ConfigError, match="'delta.entries': expected an integer, got 0.9"):
            from_dict(data)

    def test_a_preset_reference_needs_no_qpe_or_eth_block(self):
        """The reference's qpe and eth are the preset's; every other config needs both."""
        cfg = from_dict({"name": "x", "problem": {"kind": "preset", "preset": "inverse-2q"}})
        preset = build_preset("inverse-2q")
        assert (cfg.qpe, cfg.eth) == (preset.qpe, preset.eth)
        assert from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
        assert from_dict(parse_keyvalue_text(to_keyvalue_text(cfg))).to_dict() == cfg.to_dict()
        for key in ("qpe", "eth"):
            data = self.base()
            del data[key]
            with pytest.raises(ConfigError, match=f"'{key}': missing required key"):
                from_dict(data)

    @pytest.mark.parametrize("key,value", [("seed", 5), ("target", "logdet-gradient"), ("qpe", {"m": 3}), ("eth", None), ("sweep", None)])
    def test_a_preset_reference_rejects_every_other_root_key(self, tmp_path, capsys, key, value):
        data = {"name": "mine", key: value, "problem": {"kind": "preset", "preset": "inverse-2q"}}
        with pytest.raises(ConfigError, match=f"field '{key}': a preset reference takes only name, problem and outputs"):
            from_dict(data)
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert f"field '{key}': a preset reference" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_series.csv"))

    def test_a_preset_reference_echoes_only_its_own_keys(self):
        """Of the reference, only its outputs block reaches the echo; the rest is the preset's config."""
        data = {"name": "x", "problem": {"kind": "preset", "preset": "inverse-2q"}, "outputs": {"format": "json"}}
        echo = from_dict(data).to_dict()
        assert echo == build_preset("inverse-2q").with_outputs(format="json").to_dict()
        assert echo["name"] == "inverse-2q" and echo["problem"]["kind"] == "pauli-terms"
        assert echo["outputs"]["format"] == "json"

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_a_preset_reference_is_the_preset_with_its_outputs(self, name):
        data = {"name": "ref", "problem": {"kind": "preset", "preset": name}, "outputs": {"format": "json"}}
        assert from_dict(data) == replace(build_preset(name), outputs=OutputSpec(format="json"))

    def test_a_reference_to_an_unknown_preset_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps({"name": "x", "problem": {"kind": "preset", "preset": "no-such"}}))
        with pytest.raises(ConfigError, match=re.escape(f"unknown preset 'no-such'; expected one of {PRESET_NAMES}")):
            load_config(path)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert f"unknown preset 'no-such'; expected one of {PRESET_NAMES}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_series.*"))

    def test_a_preset_reference_runs_the_preset(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps({"name": "x", "problem": {"kind": "preset", "preset": "inverse-2q"}}))
        for sub, argv in (
            ("ref", ["run", str(path)]),
            ("preset", ["preset", "inverse-2q"]),
            ("ref-77", ["run", str(path), "--seed", "77"]),
            ("preset-77", ["preset", "inverse-2q", "--seed", "77"]),
        ):
            assert main(argv + ["--out-dir", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        for ref, preset in (("ref", "preset"), ("ref-77", "preset-77")):
            for name in ("inverse-2q_series.csv", "inverse-2q_summary.json"):
                got, want = (tmp_path / d / name for d in (ref, preset))
                if name.endswith(".json"):
                    got, want = (read_summary(p) for p in (got, want))
                    for summary in (got, want):
                        summary["cost"].pop("wall_time_s")
                        assert "out_dir" not in summary["config"]["outputs"]
                    assert got == want
                else:
                    assert got.read_bytes() == want.read_bytes()
        assert read_summary(tmp_path / "ref-77" / "inverse-2q_summary.json")["seed"] == 77

    @pytest.mark.parametrize("name", ["inverse-2q", "logdet-2q", "condition-sweep"])
    def test_a_fixed_weight_preset_echoes_the_weight_it_uses(self, name, tmp_path, capsys):
        """The config, every summary's echo and --emit-config give the row's
        1/E under reject, and the emitted file loads as the same config."""
        cfg = build_preset(name).with_outputs(out_dir=str(tmp_path))
        assert cfg.weight == INVERSE
        result = execute_experiment(cfg)
        summaries = [result.summary] + [read_summary(tmp_path / f"{r.name}_summary.json") for r in result.reports]
        assert len(summaries) == (5 if name == "condition-sweep" else 2)
        for summary in summaries:
            assert summary["config"]["weight"] == {"kind": "inverse", "policy": "reject", "eta": None}
        assert main(["preset", name, "--emit-config", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        text = (tmp_path / f"{name}.cfg").read_text()
        assert "weight.kind = inverse\nweight.policy = reject\n" in text
        assert replace(load_config(tmp_path / f"{name}.cfg"), base_dir=cfg.base_dir) == cfg

    @pytest.mark.parametrize("form", ["operator", "vector"])
    def test_a_weight_block_on_a_fixed_weight_row_is_replaced_by_the_row_weight(self, form):
        data = self.base()
        data["form"] = form
        data["weight"] = {"kind": "identity_of_e", "policy": "regularize", "eta": 0.02}
        cfg = from_dict(data)
        assert cfg.weight == INVERSE
        assert cfg.to_dict()["weight"] == {"kind": "inverse", "policy": "reject", "eta": None}
        assert from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_a_preset_emits_a_delta_block_only_if_it_reads_one(self, name, tmp_path, capsys):
        """to_dict, --emit-config and every summary's echo carry a delta block
        exactly when the run measures it; the emitted file loads as the same config."""
        cfg = build_preset(name).with_outputs(out_dir=str(tmp_path))
        reads = cfg.form == "operator" and TARGET_ROWS[cfg.target][1] == "delta"
        assert ("delta" in cfg.to_dict()) == reads
        assert from_dict(cfg.to_dict()) == cfg
        assert main(["preset", name, "--emit-config", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        text = (tmp_path / f"{name}.cfg").read_text()
        assert ("\ndelta.kind = " in text) == reads
        assert replace(load_config(tmp_path / f"{name}.cfg"), base_dir=cfg.base_dir) == cfg
        if not reads:
            result = execute_experiment(cfg)
            summaries = [result.summary] + [read_summary(tmp_path / f"{r.name}_summary.json") for r in result.reports]
            assert all("delta" not in summary["config"] for summary in summaries)

    @pytest.mark.parametrize("target,form", [("time-average", "vector"), ("inverse-expectation", "operator"), ("inverse-expectation", "vector")])
    def test_a_delta_block_on_a_row_that_measures_phi_is_replaced_by_the_default(self, target, form):
        data = self.base()
        data.update(target=target, form=form, delta={"kind": "all-ones", "scale": 0.5})
        cfg = from_dict(data)
        assert cfg.delta == DeltaSpec("identity")
        assert "delta" not in cfg.to_dict()
        assert from_dict(cfg.to_dict()) == cfg

    def test_the_summary_echo_leaves_out_the_output_directory(self, tmp_path):
        """A summary's bytes do not depend on where it is written; to_dict keeps the key."""
        texts = []
        for sub in ("a", "a-much-longer-directory-name"):
            cfg = build_preset("logdet-2q").with_outputs(out_dir=str(tmp_path / sub))
            assert cfg.to_dict()["outputs"]["out_dir"] == str(tmp_path / sub)
            summary = execute_experiment(cfg).summary
            assert "out_dir" not in summary["config"]["outputs"]
            summary["cost"].pop("wall_time_s")
            texts.append(json.dumps(summary, sort_keys=True))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "block,key,value",
        [
            ("weight", "kind", "bogus"),
            ("qpe", "mode", "bogus"),
            ("eth", "sampling", "bogus"),
            ("eth.initial_state", "kind", "bogus"),
            ("problem", "terms", None),
            ("eth.initial_state", "amplitudes", "uniform"),
        ],
    )
    def test_bad_value_names_its_dotted_field(self, block, key, value):
        data = self.base()
        node = data
        for part in block.split("."):
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError) as excinfo:
            from_dict(data)
        assert f"'{block}.{key}'" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_missing_nested_key_names_field(self):
        data = self.base()
        del data["eth"]["dt"]
        with pytest.raises(ConfigError, match="'eth.dt': missing required key"):
            from_dict(data)

    def test_left_out_keys_take_the_dataclass_defaults(self):
        data = {
            "name": "minimal",
            "problem": {"kind": "pauli-terms", "terms": ["1.0 Z"]},
            "qpe": {"m": 2},
            "eth": {"dt": 0.5, "num_steps": 4},
        }
        cfg = from_dict(data)
        assert (cfg.target, cfg.form, cfg.seed, cfg.eth.seed) == ("time-average", "operator", 0, 0)
        assert cfg.delta.kind == "identity" and cfg.delta.scale == 1.0
        assert (cfg.weight.kind, cfg.weight.policy, cfg.weight.eta) == ("unit", "reject", None)
        assert (cfg.qpe.shift, cfg.qpe.scale, cfg.qpe.mode) == (0.0, 1.0, "exact-binning")
        assert (cfg.eth.sampling, cfg.eth.shots, cfg.eth.repetitions) == ("exact", 0, 1)
        assert cfg.eth.initial_state.kind == "uniform"
        assert cfg.outputs.format == "csv" and cfg.to_dict()["outputs"]["basename"] == "minimal"
        assert cfg.sweep is None and cfg.phi is None

    def test_null_is_accepted_only_where_the_default_is_null(self):
        data = self.base()
        data["weight"]["eta"] = None
        data["eth"]["initial_state"]["seed"] = None
        assert from_dict(data).weight.eta is None
        data["eth"]["shots"] = None
        with pytest.raises(ConfigError, match="'eth.shots': expected an integer"):
            from_dict(data)

    def test_terms_as_strings(self):
        data = self.base()
        data["problem"]["terms"] = ["0.625 II", "0.25 ZI", "0.125 IZ"]
        cfg = from_dict(data)
        assert cfg.problem.terms == ((0.625, "II"), (0.25, "ZI"), (0.125, "IZ"))

    def test_parse_amplitudes_forms(self):
        assert parse_amplitudes("uniform", "phi") == "uniform"
        amps = parse_amplitudes([[0.6, 0.0], [0.0, 0.8]], "phi")
        np.testing.assert_array_equal(amps, [0.6, 0.8j])
        flat = parse_amplitudes([0.6, 0.8], "phi")
        np.testing.assert_array_equal(flat, [0.6 + 0j, 0.8 + 0j])
        with pytest.raises(ConfigError, match="phi"):
            parse_amplitudes(object(), "phi")


class TestKeyValueText:
    def test_parse_basics(self):
        text = """
        # comment line
        name = demo
        seed = 7
        qpe.m = 3
        qpe.shift = -0.25
        problem.terms = 1.0 ZI; 0.5 IX
        eth.dt = 0.37
        flag = true
        """
        data = parse_keyvalue_text(text)
        assert data["name"] == "demo"
        assert data["seed"] == 7
        assert data["qpe"]["m"] == 3
        assert data["qpe"]["shift"] == -0.25
        assert data["problem"]["terms"] == [[1.0, "ZI"], [0.5, "IX"]]
        assert data["flag"] is True

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_keyvalue_text("seed = 1\nseed = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_keyvalue_text("just some words\n")

    def test_emit_parse_round_trip(self):
        for name in PRESET_NAMES:
            cfg = build_preset(name)
            text = to_keyvalue_text(cfg)
            again = from_dict(parse_keyvalue_text(text))
            assert again.to_dict() == cfg.to_dict(), name


class TestLoadConfig:
    def test_json_file(self, tmp_path):
        cfg = build_preset("logdet-2q")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(path).to_dict() == cfg.to_dict()

    def test_text_file(self, tmp_path):
        cfg = build_preset("paper-example")
        path = tmp_path / "exp.cfg"
        path.write_text(to_keyvalue_text(cfg))
        assert load_config(path).to_dict() == cfg.to_dict()

    def test_base_dir_recorded(self, tmp_path):
        cfg = build_preset("paper-example")
        path = tmp_path / "exp.cfg"
        path.write_text(to_keyvalue_text(cfg))
        assert load_config(path).base_dir == str(tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")


class TestConfigHelpers:
    def test_with_seed(self):
        cfg = build_preset("inverse-2q")
        moved = cfg.with_seed(99)
        assert moved.seed == 99
        assert moved.eth.seed == 99
        assert cfg.seed == 23  # original untouched

    def test_with_outputs(self):
        cfg = build_preset("inverse-2q")
        moved = cfg.with_outputs(out_dir="/tmp/x", format="json")
        assert moved.outputs.out_dir == "/tmp/x"
        assert moved.outputs.format == "json"

    def test_seed_mismatch_rejected(self):
        data = json.loads(json.dumps(build_preset("inverse-2q").to_dict()))
        data["eth"]["seed"] = 999
        with pytest.raises(ConfigError, match="seed"):
            from_dict(data)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat = mat + mat.conj().T
        path = tmp_path / "op.mat"
        write_matrix_file(path, mat)
        back = read_matrix_file(path)
        np.testing.assert_array_equal(back, mat)  # repr round trip is exact

    def test_header_is_dimension(self, tmp_path):
        path = tmp_path / "op.mat"
        write_matrix_file(path, np.eye(2, dtype=complex))
        assert path.read_text().splitlines()[0] == "2"

    def test_token_count_validated(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n1.0 0.0 0.0 0.0\n0.0 0.0\n")
        with pytest.raises(ConfigError):
            read_matrix_file(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("two\n1.0 0.0\n")
        with pytest.raises(ConfigError):
            read_matrix_file(path)

    @staticmethod
    def token_reference(path):
        """The per-token float() parser the streaming reader replaced."""
        tokens = path.read_text().split()
        dim = int(tokens[0])
        return np.array([float(t) for t in tokens[1:]]).view(complex).reshape(dim, dim)

    def test_large_round_trip_is_bit_identical_to_token_parser(self, tmp_path):
        rng = np.random.default_rng(11)
        shape = (512, 512)
        scale = 10.0 ** rng.integers(-300, 300, size=(2,) + shape)
        mat = rng.normal(size=shape) * scale[0] + 1j * rng.normal(size=shape) * scale[1]
        path = tmp_path / "big.mat"
        write_matrix_file(path, mat)
        back = read_matrix_file(path)
        ref = self.token_reference(path)
        assert back.shape == ref.shape == shape
        np.testing.assert_array_equal(back.view(np.uint64), ref.view(np.uint64))
        np.testing.assert_array_equal(back, mat)

    @pytest.mark.parametrize(
        "body",
        [
            "2\n1.0 0.0 0.0 0.0\n0.0 0.0 1.0\n",  # ragged second row
            "2\n1.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0\n",  # right count, one line
            "4\n" + "1.0 0.0 0.0 0.0\n" * 8,  # right count, rows of dim numbers
            "2\n",  # header only
            "2\n\n\n",  # header and blank lines
        ],
    )
    def test_rows_must_be_one_per_line_of_two_dim_numbers(self, tmp_path, body):
        path = tmp_path / "bad.mat"
        path.write_text(body)
        with pytest.raises(ConfigError, match=r"bad\.mat: expected \d+ rows of \d+ numbers"):
            read_matrix_file(path)

    def test_non_numeric_entry_names_the_file(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n1.0 0.0 x 0.0\n0.0 0.0 1.0 0.0\n")
        with pytest.raises(ConfigError, match=r"bad\.mat.*'x'"):
            read_matrix_file(path)

    def test_hash_is_not_a_comment(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n# identity\n1.0 0.0 0.0 0.0\n0.0 0.0 1.0 0.0\n")
        with pytest.raises(ConfigError, match=r"bad\.mat.*'#'"):
            read_matrix_file(path)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "bad.mat"
        path.write_text(f"2\n1.0 0.0 0.0 0.0\n0.0 {entry} 1.0 0.0\n")
        with pytest.raises(ConfigError, match=r"bad\.mat.*finite"):
            read_matrix_file(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "op.mat"
        path.write_text("2\n1.0 0.5\t0.0 0.0\n0.0 0.0 -2.0 0.0\n\n\n")
        np.testing.assert_array_equal(read_matrix_file(path), np.diag([1.0 + 0.5j, -2.0]))

    def test_missing_file_names_the_file(self, tmp_path):
        with pytest.raises(ConfigError, match="absent.mat"):
            read_matrix_file(tmp_path / "absent.mat")


def element_rows(dt, series, rm, se):
    """The earlier writer's rows: one float() per numpy element."""
    dt = float(dt)
    for j in range(len(series)):
        yield j + 1, (j + 1) * dt, float(series[j]), float(rm[j]), float(se[j])


def reference_series_text(fmt, dt, series, rm, se):
    """The series file as a per-element writer makes it: a repr per float in
    CSV; in JSON, json.dumps of each row on its own line."""
    rows = list(element_rows(dt, series, rm, se))
    if fmt == "csv":
        return "".join(["step,t,sample,running_mean,running_se\n"] + [f"{a},{b!r},{c!r},{d!r},{e!r}\n" for a, b, c, d, e in rows])
    body = ("[\n" + ",\n".join(f"    {json.dumps(list(r))}" for r in rows) + "\n  ]") if rows else "[]"
    return '{\n  "columns": ["step", "t", "sample", "running_mean", "running_se"],\n  "rows": ' + body + ',\n  "schema_version": 1\n}\n'


class TestSeriesFiles:
    SERIES = np.array([0.5, 0.7, 0.6])
    RM = np.array([0.5, 0.6, 0.6])
    SE = np.array([0.0, 0.1, 0.05])

    def test_csv_layout(self):
        text = "".join(series_blocks("csv", 0.25, self.SERIES, self.RM, self.SE))
        lines = text.splitlines()
        assert lines[0] == "step,t,sample,running_mean,running_se"
        assert lines[1].split(",")[0] == "1"
        assert lines[1].split(",")[1] == repr(0.25)
        assert len(lines) == 4

    def test_json_layout(self):
        text = "".join(series_blocks("json", 0.25, self.SERIES, self.RM, self.SE))
        data = json.loads(text)
        assert data["schema_version"] == 1
        assert data["columns"] == ["step", "t", "sample", "running_mean", "running_se"]
        assert data["rows"][2][0] == 3
        assert data["rows"][2][2] == pytest.approx(0.6)

    @staticmethod
    def edge_columns(seed):
        rng = np.random.default_rng(seed)
        edges = [-0.0, 0.0, 1e-7, -1e-7, 1e22, -1e22, 5e-324, 2.2e-308, 1e-310, 3.0, -2.0, 1e16, 0.1, 1.0 / 3.0]
        cols = []
        for _ in range(3):
            col = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-20, 20, size=200), edges])
            rng.shuffle(col)
            cols.append(col)
        return cols

    @pytest.mark.parametrize("block_rows", [7, 64, None])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_match_the_per_element_writer(self, monkeypatch, seed, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(fileio, "_CSV_ROWS", block_rows)
        series, rm, se = self.edge_columns(seed)
        dt = np.float64(0.01 * math.pi)
        assert "".join(series_blocks("csv", dt, series, rm, se)) == reference_series_text("csv", dt, series, rm, se)
        assert "".join(series_blocks("json", dt, series, rm, se)) == reference_series_text("json", dt, series, rm, se)

    @pytest.mark.parametrize("block_rows", [1, 3, None])
    def test_json_bytes_match_json_dumps_on_non_finite_and_empty_columns(self, monkeypatch, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(fileio, "_CSV_ROWS", block_rows)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e22, 4.0, -1e-7])
        for n in (0, 1, 5, 8):
            cols = (special[:n], special[::-1][:n], np.roll(special, 3)[:n])
            assert "".join(series_blocks("json", 0.5, *cols)) == reference_series_text("json", 0.5, *cols)

    def test_write_series_both_formats(self, tmp_path):
        p_csv = write_series(tmp_path / "s.csv", "csv", 0.1, self.SERIES, self.RM, self.SE)
        p_json = write_series(tmp_path / "s.json", "json", 0.1, self.SERIES, self.RM, self.SE)
        assert p_csv.exists() and p_csv.read_text().startswith("step,")
        assert p_json.exists() and json.loads(p_json.read_text())["schema_version"] == 1
        # the format is checked before the missing directory is made
        with pytest.raises(ConfigError, match="unknown series format 'tsv'"):
            write_series(tmp_path / "new" / "s.tsv", "tsv", 0.1, self.SERIES, self.RM, self.SE)
        assert sorted(tmp_path.iterdir()) == [p_csv, p_json]
        with pytest.raises(ConfigError, match="unknown series format 'tsv'"):
            next(series_blocks("tsv", 0.1, self.SERIES, self.RM, self.SE))

    def test_summary_round_trip(self, tmp_path):
        payload = {"name": "x", "estimate": 1.25, "nested": {"b": [1, 2]}}
        path = tmp_path / "summary.json"
        write_summary(path, payload)
        assert read_summary(path) == payload

    def test_summary_is_sorted_and_stable(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(path, {"zeta": 1, "alpha": 2})
        text = path.read_text()
        assert text.index("alpha") < text.index("zeta")

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.iterdir()) == [path]  # no temp files left behind

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_atomic_write_respects_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            path = atomic_write_text(tmp_path / "out.txt", "text")
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == mode


class TestPresets:
    def test_names_and_unknown(self):
        assert len(PRESET_NAMES) == 6
        with pytest.raises(ConfigError, match="unknown preset"):
            build_preset("does-not-exist")

    def test_expected_values(self):
        assert build_preset("paper-example").expected == pytest.approx(1 / math.sqrt(2))
        assert build_preset("integrable-counterexample").expected == pytest.approx(
            0.9 * math.sqrt(2)
        )
        assert build_preset("trace-counterexample").expected == pytest.approx(
            0.4 + math.sqrt(0.24)
        )
        assert build_preset("inverse-2q").expected == pytest.approx(25 / 12)
        assert build_preset("logdet-2q").expected == pytest.approx(5.0)
        assert build_preset("condition-sweep").expected is None

    def test_sweep_shape(self):
        cfg = build_preset("condition-sweep")
        assert cfg.sweep is not None
        assert cfg.sweep.ratios == (2.0, 10.0, 100.0, 1000.0)
        assert cfg.sweep.n_qubits == 3


class TestReadme:
    """The README's config example and section notes match the parser."""

    ACCEPTED = {
        "target": TARGETS,
        "form": FORMS,
        "problem.kind": PROBLEM_KINDS,
        "delta.kind": DELTA_KINDS,
        "weight.kind": WEIGHT_KINDS,
        "qpe.mode": QPE_MODES,
        "eth.sampling": SAMPLING_MODES,
        "eth.initial_state.kind": INITIAL_STATE_KINDS,
    }

    def test_config_block_is_the_emitted_preset(self):
        text = README.read_text()
        block = re.search(r"produces:\n\n```\n(.*?)```", text, re.S).group(1)
        assert block.strip() == to_keyvalue_text(build_preset("inverse-2q")).strip()
        assert from_dict(parse_keyvalue_text(block)).to_dict() == build_preset("inverse-2q").to_dict()

    @staticmethod
    def accepted_keys(table=None, prefix=""):
        """Every dotted key the parser tables accept; a nested block's entry
        parses with partial(_build, cls, table)."""
        for key, (parse, _) in (config._ROOT if table is None else table).items():
            if isinstance(parse, functools.partial):
                yield from TestReadme.accepted_keys(parse.args[1], f"{prefix}{key}.")
            else:
                yield prefix + key

    def test_config_files_section_names_exactly_the_accepted_keys(self):
        text = README.read_text()
        start = text.index("## Config files")
        section = text[start : text.index("\n## ", start)]
        block = re.search(r"produces:\n\n```\n(.*?)```", section, re.S).group(1)
        named = {line.split("=")[0].strip() for line in block.splitlines() if "=" in line}
        # dotted backticked names, except Python names under the package
        named |= {
            key
            for key in re.findall(r"`([a-z_]+(?:\.[a-z_]+)+)`", section)
            if not key.startswith("ethsim.")
        }
        accepted = set(self.accepted_keys())
        assert named - accepted == set()
        assert accepted - named == set()

    def test_section_notes_name_every_accepted_kind(self):
        notes = re.findall(
            r"^- `([a-z_.]+)`: ((?:`[a-z_-]+`(?:,|,? or)\s+)*`[a-z_-]+`)", README.read_text(), re.M
        )
        named = {key: set(re.findall(r"`([a-z_-]+)`", values)) for key, values in notes}
        assert set(named) == set(self.ACCEPTED)
        for key, accepted in self.ACCEPTED.items():
            assert named[key] == set(accepted), key

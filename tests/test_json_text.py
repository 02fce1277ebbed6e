"""The one JSON layout of every summary, series file and printout: dicts
one key per line as json.dumps(indent=2, sort_keys=True) writes them, and
each list of scalars on one line."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from ethsim import PRESET_NAMES, build_preset
from ethsim.config import from_dict
from ethsim.fileio import _json_text, read_summary, write_matrix_file
from ethsim.runner import execute_experiment


def test_the_layout_of_each_rule():
    payload = {
        "scalars": [0.0072652909267222525, -0.0514428170773881],
        "pairs": [[1, 2.5], [-0.0, 3]],
        "dicts": [{"b": 1, "a": [True, None]}, {}],
        "tuple": (1, "x"),
        "empty_dict": {},
        "empty_list": [],
        "nested": {"value": 2},
    }
    assert _json_text(payload) == """{
  "dicts": [
    {
      "a": [true, null],
      "b": 1
    },
    {}
  ],
  "empty_dict": {},
  "empty_list": [],
  "nested": {
    "value": 2
  },
  "pairs": [
    [1, 2.5],
    [-0.0, 3]
  ],
  "scalars": [0.0072652909267222525, -0.0514428170773881],
  "tuple": [1, "x"]
}"""


@pytest.mark.parametrize(
    "value",
    [
        {"b": {"d": {"f": 1, "e": 2.5}, "c": None}, "a": True},
        {"quote\"": "tab\t, newline\n, backslash\\, snowman ☃", "": ""},
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "tiny": 5e-324, "zero": -0.0},
        {"rows": [{"x": 1, "y": {"z": [{"w": "v"}]}}, {}], "more": [[{"k": 0}]]},
        [{"a": 1}, {"b": {}}],
        {},
        [],
        "text",
        1.5,
    ],
    ids=["nested-dicts", "escapes", "non-finite", "lists-of-dicts", "top-level-list", "empty-dict", "empty-list", "string", "float"],
)
def test_without_a_list_of_scalars_the_text_is_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def _same(a, b) -> bool:
    """Equal JSON values, a NaN equal to a NaN."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_each_preset_summary_parses_back_to_its_result(tmp_path, name):
    config = build_preset(name)
    config = dataclasses.replace(config, outputs=dataclasses.replace(config.outputs, out_dir=str(tmp_path)))
    result = execute_experiment(config)
    assert _same(read_summary(result.summary_path), result.summary)


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
def test_a_dense_summary_holds_one_line_per_amplitude_pair(tmp_path):
    rng = np.random.default_rng(4)
    dim = 16
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    write_matrix_file(tmp_path / "a.txt", 0.5 * (a + a.conj().T) + 10 * np.eye(dim))

    def unit():
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return [[x.real, x.imag] for x in v / np.linalg.norm(v)]

    phi, start = unit(), unit()
    config = from_dict(
        {
            "name": "dense-4q",
            "target": "inverse-expectation",
            "form": "vector",
            "seed": 3,
            "problem": {"kind": "dense-matrix-file", "path": "a.txt"},
            "phi": phi,
            "qpe": {"m": 4, "shift": 0.0, "scale": 0.02, "mode": "exact-binning"},
            "eth": {"dt": 0.5, "num_steps": 64, "initial_state": {"kind": "explicit", "amplitudes": start}},
            "outputs": {"out_dir": str(tmp_path / "out")},
        },
        base_dir=str(tmp_path),
    )
    result = execute_experiment(config)
    text = result.summary_path.read_text()
    assert _same(json.loads(text), result.summary)
    pair_lines = [line for line in text.splitlines() if re.fullmatch(r" +\[[^\[\]{}:,]+, [^\[\]{}:,]+\],?", line)]
    assert [json.loads(line.strip().rstrip(",")) for line in pair_lines] == start + phi

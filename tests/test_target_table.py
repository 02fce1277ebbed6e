"""Which config blocks each (target, form) row of the targets table reads.

A change to a block the row does not read leaves the series file and every
estimate of the summary byte-identical; a change to a block it reads moves
them.
"""

import pytest

from ethsim.config import from_dict
from ethsim.errors import SingularityError
from ethsim.estimators import TARGET_ROWS
from ethsim import runner
from ethsim.runner import execute_experiment

WEIGHT = ("weight.kind", "weight.policy", "weight.eta")

# the blocks each (target, form) leaves unread, as the README's targets table states them
UNREAD = {
    ("time-average", "operator"): (),
    ("time-average", "vector"): ("delta",),
    ("inverse-expectation", "operator"): WEIGHT + ("delta",),
    ("inverse-expectation", "vector"): WEIGHT + ("delta",),
    ("logdet-gradient", "operator"): WEIGHT,
}
PAIRS = [(target, form) for target, row in TARGET_ROWS.items() for form in row[0]]

# each change moves a run that reads it: 1/E regularized with eta = 0.02, on
# decoded energies of at least 0.23, differs from 1/E under reject (whose
# window eta reaches no bin), from a narrower eta and from E itself
CHANGES = {
    "weight.kind": ("weight", {"kind": "identity_of_e", "policy": "regularize", "eta": 0.02}),
    "weight.policy": ("weight", {"kind": "inverse", "policy": "reject", "eta": 0.02}),
    "weight.eta": ("weight", {"kind": "inverse", "policy": "regularize", "eta": 0.01}),
    "delta": ("delta", {"kind": "all-ones", "scale": 0.5}),
}
# eigenvalues 0 and 1: a reached zero bin
SINGULAR = {
    "problem": {"kind": "pauli-terms", "terms": [[0.5, "I"], [0.5, "Z"]]},
    "phi": "uniform",
    "delta": {"kind": "identity"},
    "qpe": {"m": 2, "shift": 0.0, "scale": 0.5},
}
SUMMARY_KEYS = ("estimate", "standard_error", "normalization", "oracle_value", "thermalization", "register_residual")


def _config(target, form, tmp_path, **blocks):
    data = {
        "name": "row",
        "target": target,
        "form": form,
        "seed": 5,
        "problem": {"kind": "pauli-terms", "terms": [[0.625, "II"], [0.25, "ZI"], [0.125, "IZ"], [0.2, "XX"]]},
        "delta": {"kind": "derivative-mask", "entries": [[0, 1, 0.5, 0.0], [1, 0, 0.5, 0.0], [2, 2, 1.0, 0.0]]},
        "weight": {"kind": "inverse", "policy": "regularize", "eta": 0.02},
        "phi": [[0.5, 0.0], [0.3, 0.4], [0.5, 0.0], [0.5, 0.0]],
        "qpe": {"m": 4, "shift": 0.0, "scale": 0.8},
        "eth": {"dt": 0.7, "num_steps": 200, "initial_state": {"kind": "haar", "seed": 3}},
        "outputs": {"out_dir": str(tmp_path)},
    }
    return from_dict({**data, **blocks})


def _outputs(config):
    result = execute_experiment(config)
    return result.series_paths[0].read_bytes(), {key: result.summary[key] for key in SUMMARY_KEYS}


def test_the_pairs_are_the_table_rows():
    assert sorted(PAIRS) == sorted(UNREAD)


@pytest.mark.parametrize("target,form", PAIRS)
def test_a_configured_delta_is_built_only_where_it_is_read(target, form, tmp_path, monkeypatch):
    built = []
    original = runner.build_delta
    monkeypatch.setattr(runner, "build_delta", lambda config, n_qubits: built.append(config) or original(config, n_qubits))
    execute_experiment(_config(target, form, tmp_path))
    assert len(built) == (0 if "delta" in UNREAD[target, form] else 1)


@pytest.mark.parametrize("target,form,change", [(*pair, change) for pair in PAIRS for change in CHANGES])
def test_only_the_blocks_a_row_reads_move_its_outputs(target, form, change, tmp_path):
    block, value = CHANGES[change]
    base = _outputs(_config(target, form, tmp_path / "base"))
    changed = _outputs(_config(target, form, tmp_path / "changed", **{block: value}))
    assert (base == changed) == (change in UNREAD[target, form])


@pytest.mark.parametrize("target,form", [pair for pair in PAIRS if "weight.policy" not in UNREAD[pair]])
def test_weight_policy_decides_a_singular_bin_where_it_is_read(target, form, tmp_path):
    """reject ends the run with exit code 3 and regularize finishes it."""
    with pytest.raises(SingularityError) as err:
        execute_experiment(_config(target, form, tmp_path, weight={"kind": "inverse", "policy": "reject"}, **SINGULAR))
    assert err.value.exit_code == 3
    summary = execute_experiment(_config(target, form, tmp_path, weight={"kind": "inverse", "policy": "regularize"}, **SINGULAR)).summary
    assert summary["target"] == target


@pytest.mark.parametrize("target,form", [pair for pair in PAIRS if "weight.policy" in UNREAD[pair]])
def test_a_fixed_weight_rejects_a_singular_bin_under_either_policy(target, form, tmp_path):
    for policy in ("reject", "regularize"):
        with pytest.raises(SingularityError):
            execute_experiment(_config(target, form, tmp_path, weight={"kind": "inverse", "policy": policy}, **SINGULAR))

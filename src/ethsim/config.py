"""Experiment configuration: schema, validation, and file formats.

Configs load from either a human-editable key-value text file or JSON with
the same field layout. Text files use one dotted key per line:

    name = inverse-2q
    problem.kind = pauli-terms
    problem.terms = 0.625 II; 0.25 ZI; 0.125 IZ
    qpe.m = 3

Semicolons separate list items; within an item, whitespace separates
fields and commas separate the numbers of a tuple (matrix-mask entries,
complex amplitude pairs). Dense matrices load from the plain-text format
written by fileio.write_matrix_file.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .core import PauliTerm
from .errors import ConfigError
from .estimators import FORMS, TARGET_ROWS, EthConfig, InitialState
from .phase_estimation import QpeConfig
from .weights import WeightSpec

TARGETS = tuple(TARGET_ROWS)
PROBLEM_KINDS = ("pauli-terms", "dense-matrix-file", "preset")
DELTA_KINDS = ("projector-from-state", "all-ones", "derivative-mask", "identity")
SERIES_FORMATS = ("csv", "json")


def _fail(field_name: str, reason: str):
    raise ConfigError(f"field {field_name!r}: {reason}")


@dataclass(frozen=True)
class ProblemSpec:
    """The operator A: explicit Pauli terms, a matrix file, or a preset name."""

    kind: str
    terms: tuple = ()
    path: str = ""
    preset: str = ""

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            _fail("problem.kind", f"unknown kind {self.kind!r}; expected one of {PROBLEM_KINDS}")
        if self.kind == "pauli-terms" and not self.terms:
            _fail("problem.terms", "at least one term is required")
        if self.kind == "dense-matrix-file" and not self.path:
            _fail("problem.path", "matrix file path is required")
        if self.kind == "preset" and not self.preset:
            _fail("problem.preset", "preset name is required")


@dataclass(frozen=True)
class DeltaSpec:
    """The observable: projector, all-ones pattern, sparse mask, or identity."""

    kind: str
    scale: float = 1.0
    entries: tuple = ()
    state: object = "uniform"

    def __post_init__(self):
        if self.kind not in DELTA_KINDS:
            _fail("delta.kind", f"unknown kind {self.kind!r}; expected one of {DELTA_KINDS}")
        if self.kind == "derivative-mask" and not self.entries:
            _fail("delta.entries", "derivative-mask requires entries")
        if not (math.isfinite(self.scale)):
            _fail("delta.scale", f"must be finite, got {self.scale!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Condition-number sweep: spectral ratios applied to a seeded diagonal."""

    ratios: tuple
    seed: int
    n_qubits: int = 3

    def __post_init__(self):
        if not self.ratios or any((not math.isfinite(r)) or r <= 1 for r in self.ratios):
            _fail("sweep.ratios", "each spectral ratio must be finite and > 1")
        if not (1 <= self.n_qubits <= 6):
            _fail("sweep.n_qubits", f"must be between 1 and 6, got {self.n_qubits}")


@dataclass(frozen=True)
class OutputSpec:
    out_dir: str = "."
    format: str = "csv"
    basename: str = ""

    def __post_init__(self):
        if self.format not in SERIES_FORMATS:
            _fail("outputs.format", f"unknown series format {self.format!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description; every field is explicit."""

    name: str
    problem: ProblemSpec
    qpe: QpeConfig
    eth: EthConfig
    target: str = "time-average"
    form: str = "operator"
    seed: int = 0
    delta: DeltaSpec = field(default_factory=partial(DeltaSpec, "identity"))
    weight: WeightSpec = field(default_factory=WeightSpec)
    phi: object = None
    expected: Optional[float] = None
    tolerance: Optional[float] = None
    outputs: OutputSpec = field(default_factory=OutputSpec)
    sweep: Optional[SweepSpec] = None
    base_dir: str = "."

    def __post_init__(self):
        if not self.name:
            _fail("name", "must be nonempty")
        if self.target not in TARGETS:
            _fail("target", f"unknown target {self.target!r}; expected one of {TARGETS}")
        if self.form not in FORMS:
            _fail("form", f"unknown form {self.form!r}; expected one of {FORMS}")
        forms, observable, fixed, _ = TARGET_ROWS[self.target]
        if self.form not in forms:
            _fail("form", f"target {self.target!r} runs only in the {' or '.join(forms)} form")
        if fixed is not None:
            # the row's own weight, so the run, to_dict and every echo agree; a weight block is unread
            object.__setattr__(self, "weight", fixed)
        if observable == "phi" or self.form == "vector":
            if self.phi is None:
                _fail("phi", f"target {self.target!r} with form {self.form!r} requires phi")
            # the run measures phi: the default stands in for a delta block, and to_dict omits it
            object.__setattr__(self, "delta", DeltaSpec("identity"))
        if self.eth.sampling == "exact":
            # an exact run draws no shots, so the config and every echo give 0 for eth.shots
            object.__setattr__(self, "eth", replace(self.eth, shots=0))
        if self.eth.seed != self.seed:
            _fail("eth.seed", "must equal the top-level seed (set only the top-level one)")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed, eth=replace(self.eth, seed=seed))

    def with_outputs(self, **kwargs) -> "ExperimentConfig":
        return replace(self, outputs=replace(self.outputs, **kwargs))

    def to_dict(self) -> dict:
        data = _dump(_ROOT, self)
        if TARGET_ROWS[self.target][1] == "phi" or self.form == "vector":
            del data["delta"]
        # an empty basename stands for the config's name, as the runner reads it
        data["outputs"]["basename"] = self.outputs.basename or self.name
        return data


def _as_int(value, field_name: str) -> int:
    """An integer, or a number with an integral value (4.0); a bool, a
    fraction (2.7) or a non-finite number is a config error."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        _fail(field_name, f"expected an integer, got {value!r}")


def _as_float(value, field_name: str) -> float:
    try:
        if isinstance(value, bool):
            raise ValueError
        return float(value)
    except (TypeError, ValueError):
        _fail(field_name, f"expected a number, got {value!r}")


def _amplitudes_to_json(value):
    if value is None or isinstance(value, str):
        return value
    arr = np.asarray(value, dtype=complex).ravel()
    return [[float(x.real), float(x.imag)] for x in arr]


def parse_amplitudes(value, field_name: str):
    """Accept 'uniform', a flat real list, or [[re, im], ...] rows."""
    if value is None or value == "uniform":
        return value
    try:
        rows = list(value)
        out = []
        for row in rows:
            if isinstance(row, (int, float)):
                out.append(complex(row))
            else:
                parts = list(row)
                re = float(parts[0])
                im = float(parts[1]) if len(parts) > 1 else 0.0
                out.append(complex(re, im))
        return tuple(out)
    except (TypeError, ValueError, IndexError):
        _fail(field_name, f"cannot parse amplitudes from {value!r}")


def _parse_terms(raw, field_name: str) -> tuple:
    terms = []
    for item in raw:
        try:
            if isinstance(item, str):
                coef_s, axes = item.split()
                terms.append(PauliTerm(float(coef_s), axes))
            else:
                coef, axes = item
                terms.append(PauliTerm(float(coef), str(axes)))
        except (ValueError, TypeError) as exc:
            _fail(field_name, f"bad Pauli term {item!r} ({exc})")
    return tuple((t.coefficient, t.axes) for t in terms)


def _parse_mask_entries(raw, field_name: str) -> tuple:
    entries = []
    for item in raw:
        try:
            parts = list(item)
            row, col = _as_int(parts[0], field_name), _as_int(parts[1], field_name)
            re = float(parts[2])
            im = float(parts[3]) if len(parts) > 3 else 0.0
            entries.append((row, col, complex(re, im)))
        except (ValueError, TypeError, IndexError):
            _fail(field_name, f"bad mask entry {item!r}; expected row,col,re[,im]")
    return tuple(entries)


def _mask_entries_to_json(entries) -> list:
    return [[int(r), int(c), float(complex(v).real), float(complex(v).imag)] for r, c, v in entries]


def _parse_ratios(raw, field_name: str) -> tuple:
    ratios = [raw] if isinstance(raw, (int, float)) else raw
    return tuple(_as_float(r, field_name) for r in ratios)


def _dotted(block: str, key: str) -> str:
    return f"{block}.{key}" if block else key


def _build(cls, table: dict, raw, block: str, **extra):
    """One config block as a `cls`: reject keys outside `table`, name a
    missing required field, parse the keys present. Defaults and kind checks
    are `cls`'s own."""
    if not isinstance(raw, dict):
        _fail(block, "must be a mapping")
    for key in raw:
        if key not in table:
            _fail(_dotted(block, key), "unknown field")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            _fail(_dotted(block, f.name), "missing required key")
    nullable = {f.name for f in fields(cls) if f.default is None}
    parsed = {
        key: _parse(parse, raw[key], _dotted(block, key), key in nullable)
        for key, (parse, _) in table.items()
        if key in raw
    }
    return cls(**parsed, **extra)


def _parse(parse, value, field_name: str, nullable: bool):
    """A null stays null where the field's default is null. A value of the
    wrong shape (a scalar for a list, text for numbers) is a config error,
    not a traceback."""
    if value is None and nullable:
        return None
    try:
        return parse(value, field_name)
    except (TypeError, ValueError) as exc:
        _fail(field_name, f"cannot parse {value!r} ({exc})")


def _dump(table: dict, obj) -> dict:
    """The JSON layout of a block: its table's keys in order, each non-null
    value through the table's writer; keys without a writer are not written."""
    return {
        key: None if getattr(obj, key) is None else write(getattr(obj, key))
        for key, (_, write) in table.items()
        if write is not None
    }


def _block(cls, table: dict):
    return partial(_build, cls, table), partial(_dump, table)


def _same(value):
    return value


# Each table maps every key its block accepts to (parse, write): parse takes
# the raw value and the dotted field name, write turns the field back into
# JSON (None: accepted, never written). A nested block's entry is `_block`'s.
_TEXT = (lambda value, name: str(value), _same)
_INT = (_as_int, _same)
_NUMBER = (_as_float, _same)
_AMPLITUDES = (parse_amplitudes, _amplitudes_to_json)

_PROBLEM = {
    "kind": _TEXT,
    "terms": (_parse_terms, lambda terms: [[c, a] for c, a in terms]),
    "path": _TEXT,
    "preset": _TEXT,
}
_DELTA = {
    "kind": _TEXT,
    "scale": _NUMBER,
    "entries": (_parse_mask_entries, _mask_entries_to_json),
    "state": _AMPLITUDES,
}
_WEIGHT = {"kind": _TEXT, "policy": _TEXT, "eta": _NUMBER}
_QPE = {"m": _INT, "shift": _NUMBER, "scale": _NUMBER, "mode": _TEXT}
_INITIAL_STATE = {
    "kind": _TEXT,
    "seed": _INT,
    "amplitudes": (
        lambda value, name: tuple(map(complex, parse_amplitudes(value, name))),
        _amplitudes_to_json,
    ),
}
_ETH = {
    "dt": _NUMBER,
    "num_steps": _INT,
    "sampling": _TEXT,
    "shots": _INT,
    "repetitions": _INT,
    "initial_state": _block(InitialState, _INITIAL_STATE),
    # derived from the top-level seed; a contradicting value is rejected
    "seed": (_as_int, None),
}
_OUTPUTS = {"out_dir": _TEXT, "format": _TEXT, "basename": _TEXT}
_SWEEP = {"ratios": (_parse_ratios, list), "seed": _INT, "n_qubits": _INT}
_ROOT = {
    "name": _TEXT,
    "target": _TEXT,
    "form": _TEXT,
    "seed": _INT,
    "problem": _block(ProblemSpec, _PROBLEM),
    "delta": _block(DeltaSpec, _DELTA),
    "phi": _AMPLITUDES,
    "weight": _block(WeightSpec, _WEIGHT),
    "qpe": _block(QpeConfig, _QPE),
    "eth": _block(EthConfig, _ETH),
    "expected": _NUMBER,
    "tolerance": _NUMBER,
    "outputs": _block(OutputSpec, _OUTPUTS),
    "sweep": _block(SweepSpec, _SWEEP),
}


def from_dict(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig.

    A preset reference (problem.kind = preset) reads as the preset's data
    with the reference's own outputs block. Raises ConfigError naming the
    offending field on any problem.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    if isinstance(data.get("problem"), dict) and data["problem"].get("kind") == "preset":
        # a preset reference carries only these root keys; the preset's data supplies every other
        for key in data:
            if key not in ("name", "problem", "outputs"):
                _fail(key, "a preset reference takes only name, problem and outputs; the preset sets the rest")
        if "name" not in data:
            _fail("name", "missing required key")
        # presets parses its data with this function, so config and presets
        # import each other; this import runs at call time to break the cycle
        from .presets import preset_data

        problem = _build(ProblemSpec, _PROBLEM, data["problem"], "problem")
        data = {**preset_data(problem.preset), "outputs": data.get("outputs", {})}
    # eth.seed is the top-level seed unless the file repeats it
    if isinstance(data.get("eth"), dict) and "seed" in data:
        data = {**data, "eth": {"seed": data["seed"], **data["eth"]}}
    return _build(ExperimentConfig, _ROOT, data, "", base_dir=base_dir)


def _parse_text_value(raw: str):
    raw = raw.strip()
    if ";" in raw or "," in raw or (" " in raw and not raw.startswith('"')):
        items = [it.strip() for it in raw.split(";") if it.strip()]
        out = []
        for item in items:
            if "," in item:
                out.append([_parse_scalar(tok) for tok in item.split(",")])
            elif " " in item:
                out.append([_parse_scalar(tok) for tok in item.split()])
            else:
                out.append(_parse_scalar(item))
        return out
    return _parse_scalar(raw)


def _parse_scalar(tok: str):
    tok = tok.strip()
    try:
        return json.loads(tok)
    except (json.JSONDecodeError, ValueError):
        return tok


def parse_keyvalue_text(text: str) -> dict:
    """Parse `dotted.key = value` lines into a nested mapping."""
    root: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: key {key!r} conflicts with an earlier scalar")
        if parts[-1] in node:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        node[parts[-1]] = _parse_text_value(value)
    return root


def _format_text_value(value) -> str:
    if isinstance(value, (list, tuple)):
        items = []
        for item in value:
            if isinstance(item, (list, tuple)):
                items.append(",".join(_format_scalar(x) for x in item))
            else:
                items.append(_format_scalar(item))
        return "; ".join(items)
    return _format_scalar(value)


def _format_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_keyvalue_text(config: ExperimentConfig) -> str:
    """Serialize to the key-value text format; round-trips through load."""
    data = config.to_dict()
    lines = []

    def emit(prefix: str, node):
        if isinstance(node, dict):
            for key, value in node.items():
                emit(f"{prefix}.{key}" if prefix else key, value)
        else:
            if node in (None, "", []) or node == []:
                return
            lines.append(f"{prefix} = {_format_text_value(node)}")

    emit("", data)
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    """Load a config file; `.json` parses as JSON, anything else as text."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    else:
        data = parse_keyvalue_text(text)
    return from_dict(data, base_dir=str(path.parent))

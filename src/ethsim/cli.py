"""Command-line entry point.

    ethsim run <config> [--seed N] [--out-dir DIR] [--format csv|json]
    ethsim preset <name> [--emit-config] [--seed N] [--out-dir DIR] [--format ...]
    ethsim compare <summary-a> <summary-b>

Exit codes: 0 success, 2 config error, 3 singularity, 4 domain error (also
numpy's LinAlgError and MemoryError).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import SERIES_FORMATS, load_config, to_keyvalue_text
from .errors import DomainError, SimulationError
from .fileio import atomic_write_text, read_summary
from .presets import PRESET_NAMES, build_preset
from .reporting import compare_summaries
from .runner import ExecutionResult, execute_experiment


def _add_output_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out-dir", default=None, help="directory for series and summary files")
    parser.add_argument(
        "--format", choices=SERIES_FORMATS, default=None, help="series file format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ethsim",
        description="Time-average estimators for weighted spectral quantities, with exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config", help="path to a key-value text or JSON config")
    _add_output_flags(p_run)

    p_preset = sub.add_parser("preset", help="run (or emit) a built-in recipe")
    p_preset.add_argument("name", help=f"one of: {', '.join(PRESET_NAMES)}")
    p_preset.add_argument(
        "--emit-config",
        action="store_true",
        help="write the preset's config file instead of running it",
    )
    _add_output_flags(p_preset)

    p_cmp = sub.add_parser("compare", help="z-score two run summaries")
    p_cmp.add_argument("summary_a")
    p_cmp.add_argument("summary_b")

    return parser


def _apply_overrides(config, args):
    if args.seed is not None:
        config = config.with_seed(args.seed)
    overrides = {}
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.format is not None:
        overrides["format"] = args.format
    if overrides:
        config = config.with_outputs(**overrides)
    return config


def _print_result(result: ExecutionResult):
    if "runs" in result.summary:
        for row in result.summary["runs"]:
            print(
                f"{row['name']}: ratio={row['ratio']:g} estimate={row['estimate']:.12g} "
                f"oracle={row['oracle_value']:.12g} gap={row['oracle_gap']:.3e}"
            )
    else:
        s = result.summary
        print(
            f"{s['name']}: estimate={s['estimate']:.12g} oracle={s['oracle_value']:.12g} "
            f"gap={s['oracle_gap']:.3e} verdict={s['thermalization']['verdict']}"
        )
    print(f"summary: {result.summary_path}")


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    _print_result(execute_experiment(config))
    return 0


def _cmd_preset(args) -> int:
    config = _apply_overrides(build_preset(args.name), args)
    if args.emit_config:
        out_dir = Path(config.outputs.out_dir)
        path = atomic_write_text(out_dir / f"{args.name}.cfg", to_keyvalue_text(config))
        print(f"config: {path}")
        return 0
    _print_result(execute_experiment(config))
    return 0


def _cmd_compare(args) -> int:
    result = compare_summaries(read_summary(args.summary_a), read_summary(args.summary_b))
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "preset": _cmd_preset, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except SimulationError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except (np.linalg.LinAlgError, MemoryError) as exc:
        # numerical failure or a problem too large for memory: bad input, not a crash
        print(f"error [{DomainError.category}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DomainError.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload {presets,dense,circuit} --seed N --seconds S --trace {0,1}

ethsim is imported from the src/ directory next to perfbench/, so run it in
a source checkout; without one it exits with code 2. The benchmark writes
the workload's inputs under .perfbench-work/, then starts one sample
process (see sample.py). It makes passes over the workload until the next
one would end after S seconds, at least two, and checks every run (see
measure.py). Between runs, it times fresh imports of ethsim (see
measure.Prober), so the set-up times spread over the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with --trace 0, the per-layer metrics of the traced passes with --trace 1.
The line before it carries the quartiles, counts and raw values, and the
facts of the machine the numbers come from.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# every run must end within 180 s, whatever the machine
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "output_bytes": "bytes",
}


def _quartiles(values: list) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _loadavg() -> list:
    return Path("/proc/loadavg").read_text().split()[:3]


def _filesystem(path: Path) -> str:
    """Type and mount point of the filesystem holding path."""
    best = ("", "unknown")
    path = str(path.resolve())
    for line in Path("/proc/self/mounts").read_text().splitlines():
        fields = line.split()
        mount, fstype = fields[1], fields[2]
        if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best[0]):
            best = (mount, fstype)
    return f"{best[1]} on {best[0]}"


def _environment(work: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": threads or "unset (library default)",
        "filesystem": _filesystem(work),
    }


def _sample(request: dict, path: Path, timeout: float) -> dict:
    """Run the sample process and return its measurements."""
    path.write_text(json.dumps(request))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), str(path), repr(spawned)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"benchmark: sample process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(sample: dict) -> tuple:
    stats = {
        "wall_s": _quartiles(sample["walls"]),
        "setup_s": _quartiles(sample["setups"]),
        "peak_rss_mib": _quartiles([sample["peak_rss_mib"]]),
        "output_bytes": _quartiles(sample["output_bytes"]),
    }
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, stats


def _per_layer(sample: dict) -> tuple:
    from tracing import METRICS

    layers = sample["layers"]
    traced = [w for w, t in zip(sample["walls"], sample["traced"]) if t]
    untraced = [w for w, t in zip(sample["walls"], sample["traced"]) if not t]
    values = {name: statistics.fmean(layer[name] for layer in layers) for name in METRICS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
    stats = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    return metrics, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "ethsim" / "__init__.py").is_file():
        print(f"benchmark: no ethsim sources under {SRC}; run it inside a source checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = workloads.build(args.workload, args.seed)
    workloads.write_inputs(spec, work / "inputs")

    load_before = _loadavg()
    probe_request = work / "probe.json"
    probe_request.write_text(json.dumps({"src": str(SRC), "setup_only": True}))
    request = {
        "src": str(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "inputs": str(work / "inputs"),
        "out": str(work / "out"),
        "trace": bool(args.trace),
        "trace_file": str(work / "spans.jsonl"),
        "probe_request": str(probe_request),
    }
    request["deadline"] = time.monotonic() + args.seconds
    sample = _sample(request, work / "request.json", DEADLINE_S - (time.monotonic() - started))

    if args.trace:
        metrics, stats = _per_layer(sample)
    else:
        metrics, stats = _end_to_end(sample)
    attempted, failed = sample["attempted"], sample["failed"]
    for failure in sample["failures"]:
        print(f"benchmark: FAILED {failure}", file=sys.stderr)

    env = _environment(work)
    env["loadavg_before"] = load_before
    env["loadavg_after"] = _loadavg()
    env["os_threads"] = sample["os_threads"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(sample["walls"]),
        "failed_frac": failed / attempted,
        "stats": stats,
        "pass_walls": sample["walls"],
        "setups": sample["setups"],
        "sample_setup_s": sample["setup_s"],
        "env": env,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

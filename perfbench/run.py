"""Benchmark of sgoal's run loop and exact verifier.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
run_es_rastrigin, run_sa_sphere, verify_onemax, bound_onemax_chain.

This parent process writes the workload's inputs from the seed, times
``import sgoal.cli`` in fresh processes, then starts one fresh workload
process (``worker.py``) that calls sgoal's public entry points for S
seconds and checks every output.  It imports sgoal only from the
checkout's ``src``; without it the benchmark exits 2 and prints no
result.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s      median of three fresh-process timings of ``import sgoal.cli``
    wall_s       median wall seconds of one round of the workload's timed calls
    work_per_s   work per second of those calls: objective evaluations (the
                 final ``evals`` of each trace CSV) on run_*, chain states
                 verified on verify_onemax and bound_onemax_chain
    peak_rss_mb  ``ru_maxrss`` of the workload process

and ``failed / attempted`` is the error rate, an operation being one
replicate or one verification.  With ``--trace 1`` the metrics are the
per-layer ones of ``layer_map.json``, from rounds that alternate with
untraced ones.  The line before the result records the machine, the
settings and every round's wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_SAMPLES = 3  # fresh-process import timings per run, the workload's own included
DEADLINE_S = 170  # the whole run, set-up and input generation included

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

UNITS = {
    entry["name"]: entry["unit"]
    for entry in json.loads(tracing.LAYER_MAP.read_text(encoding="ascii"))["per_layer"]
}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def blas_threads() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SGOAL_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(blas_threads())
    return env


def machine(seed: int) -> dict:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(pages / 2**30, 2),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def worker(args: list, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the workload started")
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail("workload process timed out and was killed")


def import_seconds(deadline: float) -> float:
    proc = worker(["--import-only"], deadline)
    if proc.returncode != 0:
        fail(f"cannot import sgoal from {SRC}")
    return float(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "sgoal" / "cli.py").is_file():
        fail(f"no sgoal sources under {SRC}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.write_inputs(args.workload, args.seed, work)
        spec.update(
            seconds=args.seconds, trace=args.trace,
            spans=str(OUT / f"spans-{args.workload}-seed{args.seed}.csv"),
        )
        spec_path, result_path = work / "spec.json", work / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="ascii")
        imports = [import_seconds(deadline) for _ in range(IMPORT_SAMPLES - 1)]
        proc = worker([str(spec_path), str(result_path)], deadline)
        if proc.returncode != 0 or not result_path.is_file():
            fail(f"workload process exited with {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="ascii"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not Path(result["sgoal_file"]).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported sgoal from {result['sgoal_file']}, not from {SRC}")
    setup_s = statistics.median(imports + [result["import_s"]])
    if args.trace:
        layers = {"setup.import_s": setup_s, **result["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(result["traced_walls"]) - statistics.median(result["walls"])
        )
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "work_per_s": {"value": result["work"] / sum(result["walls"]), "unit": "1/s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024, "unit": "MB"},
        }
    info = {
        "machine": machine(args.seed),
        "walls": result["walls"],
        "traced_walls": result["traced_walls"],
        "absent": result["absent"],
        "spans_file": result.get("spans_file"),
        "failures": result["failures"],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

"""One workload in a fresh process: import sgoal, run timed rounds, check them.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json
       python3 perfbench/worker.py --import-only

The first thing this process does is time ``import sgoal.cli``, so only
the standard library is loaded before it.  With ``--import-only`` it
prints that time and exits; otherwise it reads the spec written by
``run.py``, runs rounds for the given seconds (alternately untraced and
traced when tracing is on) and writes a JSON result.
"""

import sys
import time

_start = time.perf_counter()
import sgoal.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_rounds(workload, seconds: float, tracer=None) -> tuple[list, list, list]:
    """(untraced rounds, traced rounds, per-layer metrics of each traced round).

    Rounds run until ``seconds`` have passed, at least one.  With a tracer
    every untraced round is followed by a traced one, so that both see
    the same machine load.
    """
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(workload.round())
        if tracer is not None:
            tracer.install()
            tracer.reset()
            traced.append(workload.round())
            layers.append(tracing.layer_metrics(tracer))
            tracer.uninstall()
    return untraced, traced, layers


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="ascii"))
    workload = workloads.make_workload(spec)
    precheck = getattr(workload, "precheck", None)
    problem = precheck() if precheck else None
    failures = [f"precheck: {problem}"] if problem else []
    tracer = tracing.Tracer() if spec["trace"] else None
    untraced, traced, layers = run_rounds(workload, spec["seconds"], tracer)
    for r in untraced + traced:
        failures += r.failures
    result = {
        "import_s": IMPORT_S,
        "sgoal_file": sgoal.cli.__file__,
        "walls": [r.wall for r in untraced],
        "work": sum(r.work for r in untraced),
        "traced_walls": [r.wall for r in traced],
        "attempted": (precheck is not None) + sum(r.ops for r in untraced + traced),
        "failed": len(failures),
        "failures": failures[:20],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": {
            name: statistics.median(row[name] for row in layers) for name in layers[0]
        } if layers else {},
        "absent": sorted(tracer.absent) if tracer else [],
    }
    if tracer is not None:
        spans = Path(spec["spans"])
        tracer.write_spans(spans, {"workload": spec["workload"], "seed": spec["seed"]})
        result["spans_file"] = str(spans)
    Path(result_path).write_text(json.dumps(result), encoding="ascii")


if __name__ == "__main__":
    if sys.argv[1:] == ["--import-only"]:
        print(repr(IMPORT_S))
    else:
        main(*sys.argv[1:])

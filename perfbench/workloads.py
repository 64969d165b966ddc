"""The four workloads: their generated inputs, their timed calls and their oracles.

``write_inputs`` runs in the parent process and writes everything a
workload needs (configs, matrix files, oracle values) into a work
directory.  ``make_workload`` runs in the workload process, after
``sgoal`` is imported, and returns an object whose ``round()`` makes the
workload's timed calls into sgoal's public entry points and checks every
output.  Every round of one run repeats the same calls on the same
inputs, so per-round counts repeat exactly for a fixed seed.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chains

EXACT_TOL = 1e-12

# Run-loop sizes: a round is one short `sgoal run` call, so a run holds many rounds.
ES_RUN = {"replicates": 1, "budget": 50}
SA_RUN = {"replicates": 1, "budget": 20000}
# Verifier sizes.
SA_VERIFY_T_MAX = 10
ES_VERIFY_T_MAX = 5
BOUND_DIM = 10
BOUND_T_MAX = 50
CHECK_DIM = 6  # closed-form chain is compared with extract_chain at this size

ES_RUN_CFG = """\
algorithm = es
problem = rastrigin
dim = 10
budget = {budget}
replicates = {replicates}
seed = {seed}
eps = 0.1
es.mu = 15
es.rho = 2
es.lambda = 100
es.mode = comma
es.recomb_y = discrete
es.recomb_s = intermediate
"""

SA_RUN_CFG = """\
algorithm = sa
problem = sphere
dim = 10
budget = {budget}
replicates = {replicates}
seed = {seed}
eps = 0.1
sa.T0 = 1.0
sa.cooling = geometric
sa.gamma = 0.999
sa.elitist = true
"""

# The README's anneal.cfg; verify ignores the seed.
ANNEAL_CFG = """\
algorithm = sa
problem   = onemax
dim       = 8
budget    = 200
replicates = 20
seed      = {seed}
eps       = 0.5
sa.T0      = 2.0
sa.cooling = geometric
sa.gamma   = 0.99
sa.elitist = true
"""

ES_VERIFY_CFG = """\
algorithm = es
problem = onemax
dim = 3
seed = {seed}
eps = 0.5
es.mu = 2
es.rho = 1
es.lambda = 3
es.mode = plus
"""

NAMES = ("run_es_rastrigin", "run_sa_sphere", "verify_onemax", "bound_onemax_chain")
ES_REFERENCE = Path(__file__).resolve().parent / "ref" / "es_onemax3_plus_t5_bound.json"


def write_inputs(name: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work``; return the spec its process reads."""
    spec = {"workload": name, "seed": seed, "work": str(work)}
    if name == "run_es_rastrigin":
        spec.update(ES_RUN, config=_write(work / "es.cfg", ES_RUN_CFG.format(seed=seed, **ES_RUN)))
    elif name == "run_sa_sphere":
        spec.update(SA_RUN, config=_write(work / "sa.cfg", SA_RUN_CFG.format(seed=seed, **SA_RUN)))
    elif name == "verify_onemax":
        spec["sa_config"] = _write(work / "anneal.cfg", ANNEAL_CFG.format(seed=seed))
        spec["es_config"] = _write(work / "es.cfg", ES_VERIFY_CFG.format(seed=seed))
        m, eps_set = chains.elitist_onemax_chain(8)
        spec["sa_states"] = m.shape[0]
        spec["sa_min_mass"] = chains.min_mass_oracle(m, eps_set, SA_VERIFY_T_MAX).tolist()
        spec["es_states"] = 8**2
    elif name == "bound_onemax_chain":
        m, eps_set = chains.permuted(*chains.elitist_onemax_chain(BOUND_DIM), seed=seed)
        path = work / "chain.txt"
        chains.write_matrix(path, m)
        spec.update(
            matrix=str(path),
            eps_set=eps_set,
            states=m.shape[0],
            min_mass=chains.min_mass_oracle(m, eps_set, BOUND_T_MAX).tolist(),
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    return spec


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="ascii")
    return str(path)


@dataclass
class Round:
    """One round: wall seconds of the timed calls, operations attempted,
    work done, and one message per failed operation."""

    wall: float
    ops: int
    work: float
    failures: list = field(default_factory=list)


def make_workload(spec: dict):
    name = spec["workload"]
    if name in ("run_es_rastrigin", "run_sa_sphere"):
        return RunWorkload(spec)
    if name == "verify_onemax":
        return VerifyWorkload(spec)
    return BoundWorkload(spec)


def _timed(fn, *args):
    """(result or raised exception, seconds)."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a raised call is a failed operation, not a crash
        result = exc
    return result, time.perf_counter() - start


def _check(fn, *args) -> str | None:
    """The first problem ``fn`` finds in an output, or why it could not be read."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


class RunWorkload:
    """`sgoal run` on a box problem; each replicate is one operation."""

    def __init__(self, spec: dict) -> None:
        import sgoal.cli

        self.main = sgoal.cli.main
        self.spec = spec
        self.out = Path(spec["work"]) / "out"

    def round(self) -> Round:
        spec = self.spec
        rc, wall = _timed(self.main, ["run", "--config", spec["config"], "--out", str(self.out)])
        reps = spec["replicates"]
        problem = f"sgoal run returned {rc!r}" if rc != 0 else _check(self._summary_problem)
        if problem:
            return Round(wall, reps, 0.0, [problem] * reps)
        failures, work = [], 0.0
        for i in range(reps):
            path = self.out / f"trace_{spec['seed'] + i}.csv"
            evals = []
            problem = _check(check_trace, path, spec["budget"], evals)
            work += sum(evals)
            if problem:
                failures.append(f"{path.name}: {problem}")
        return Round(wall, reps, work, failures)

    def _summary_problem(self) -> str | None:
        median_d = _read_json(self.out / "summary.json")["median_d"]
        if not median_d[-1] < median_d[0]:
            return f"final median D {median_d[-1]} is not below initial {median_d[0]}"
        return None


def check_trace(path: Path, budget: int, evals_out: list) -> str | None:
    """The first violated property of one trace CSV, or None.

    A trace has budget+1 rows, D >= 0, a nonincreasing f_best (the box
    problems minimize) and a nondecreasing evals column.  The final
    evals value is appended to ``evals_out``.
    """
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != budget + 1:
        return f"{len(rows)} rows, expected {budget + 1}"
    d = [float(r["D"]) for r in rows]
    f_best = [float(r["f_best"]) for r in rows]
    evals = [int(r["evals"]) for r in rows]
    evals_out.append(evals[-1])
    if any(not v >= 0 for v in d):
        return "negative or NaN D"
    if any(b > a for a, b in zip(f_best, f_best[1:])):
        return "f_best got worse"
    if any(b < a for a, b in zip(evals, evals[1:])):
        return "evals decreased"
    return None


def bound_problem(report: dict, delta: float, min_mass) -> str | None:
    """The first way a bound report misses its expected delta and min_mass."""
    if not (report["premise_absorbing"] and report["premise_reach"]):
        return "premises reported false"
    if abs(report["delta"] - delta) > EXACT_TOL:
        return f"delta {report['delta']!r}, expected {delta!r}"
    rows = report["per_t"]
    if len(rows) != len(min_mass):
        return f"{len(rows)} rows, expected {len(min_mass)}"
    worst = max(abs(row["min_mass"] - want) for row, want in zip(rows, min_mass))
    if worst > EXACT_TOL:
        return f"min_mass off by {worst:.3e}"
    if any(row["margin"] < -EXACT_TOL for row in rows):
        return "negative margin"
    return None


def reference_problem(report: dict, reference: dict) -> str | None:
    """The first way a bound report differs from a stored reference, to 1e-12."""
    want = reference["per_t"]
    problem = bound_problem(report, reference["delta"], [row["min_mass"] for row in want])
    if problem:
        return problem
    for got, ref in zip(report["per_t"], want):
        if got["t"] != ref["t"] or any(
            abs(got[k] - ref[k]) > EXACT_TOL for k in ("bound", "margin")
        ):
            return f"row t={ref['t']} differs from the reference"
    return None


class VerifyWorkload:
    """`sgoal verify` on the README's annealer and on a (2+3) strategy;
    each verification is one operation."""

    def __init__(self, spec: dict) -> None:
        import sgoal.cli

        self.main = sgoal.cli.main
        self.spec = spec
        work = Path(spec["work"])
        self.out_sa, self.out_es = work / "out_sa", work / "out_es"
        self.reference = _read_json(ES_REFERENCE)

    def round(self) -> Round:
        spec = self.spec
        rc_sa, wall_sa = _timed(
            self.main,
            ["verify", "--config", spec["sa_config"], "--out", str(self.out_sa),
             f"verify.t_max={SA_VERIFY_T_MAX}"],
        )
        rc_es, wall_es = _timed(
            self.main,
            ["verify", "--config", spec["es_config"], "--out", str(self.out_es),
             f"verify.t_max={ES_VERIFY_T_MAX}"],
        )
        annealer = f"returned {rc_sa!r}" if rc_sa != 0 else _check(
            lambda: bound_problem(
                _read_json(self.out_sa / "bound.json"),
                1.0 / spec["sa_states"],
                spec["sa_min_mass"],
            )
        )
        strategy = f"returned {rc_es!r}" if rc_es != 0 else _check(
            lambda: reference_problem(_read_json(self.out_es / "bound.json"), self.reference)
        )
        failures = [f"{what} verify: {problem}"
                    for what, problem in (("annealer", annealer), ("strategy", strategy))
                    if problem]
        work = spec["sa_states"] + spec["es_states"]
        return Round(wall_sa + wall_es, 2, float(work), failures)


class BoundWorkload:
    """chain_from_files + check_bound on a closed-form onemax chain;
    each verification is one operation."""

    def __init__(self, spec: dict) -> None:
        import sgoal.verify

        self.verify = sgoal.verify
        self.spec = spec

    def precheck(self) -> str | None:
        """The closed-form chain must be the chain sgoal extracts."""
        return _check(closed_form_problem, CHECK_DIM)

    def _call(self):
        chain = self.verify.chain_from_files([self.spec["matrix"]], self.spec["eps_set"])
        return self.verify.check_bound(chain, BOUND_T_MAX)

    def round(self) -> Round:
        spec = self.spec
        report, wall = _timed(self._call)
        if isinstance(report, Exception):
            problem = f"raised {report!r}"
        else:
            problem = _check(
                bound_problem, report.to_json_dict(), 1.0 / spec["states"], spec["min_mass"]
            )
        return Round(wall, 1, float(spec["states"]), [f"chain: {problem}"] if problem else [])


def closed_form_problem(dim: int) -> str | None:
    """How ``extract_chain`` of the elitist onemax annealer differs from the
    closed-form chain, or None; exact equality is required."""
    from sgoal.bench import make_benchmark
    from sgoal.sa import SAConfig, geometric, make_sa
    from sgoal.verify import extract_chain

    problem = make_benchmark("onemax", dim).problem
    algo = make_sa(problem, SAConfig(schedule=geometric(t0=2.0, gamma=0.99)))
    chain = extract_chain(algo, eps=0.5, t_max=3)
    m, eps_set = chains.elitist_onemax_chain(dim)
    if [point for (point,) in chain.states] != chains.onemax_states(dim):
        return "extracted state order differs from the closed form"
    if len(chain.matrices) != 1 or not np.array_equal(chain.matrices[0], m):
        return "extracted matrix differs from the closed form"
    if sorted(chain.eps_set) != eps_set:
        return "extracted eps set differs from the closed form"
    return None


def _read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="ascii"))

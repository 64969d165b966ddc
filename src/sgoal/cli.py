"""Experiment runner and verification driver.

Subcommands: ``run`` (replicated optimizer runs with CSV traces and a
JSON summary), ``verify`` (exact finite-space premise and bound report),
``select-test`` (exact selection probabilities against sampled
frequencies).  Configuration is a flat key=value file, then KEY=VALUE
overrides, then the ``--seed``/``--replicates``/``--out`` flags, each value
parsed at load by its key's type.  Every setting, the trace-bytes cap and
``rho = 1`` on a finite problem included, is checked before the benchmark
is enumerated; only the chain caps of ``verify`` need the built kernel.
The four report files share one writer, which writes over the old file in
place; the CSVs share one ``%.17g`` formatter, the JSON files one encoder.

Exit codes: 0 success/verified, 1 runtime or verification failure,
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import es as es_mod
from . import sa as sa_mod
from .bench import BENCHMARKS, FINITE_BENCHMARKS, make_benchmark
from .core import Algorithm, Relation, exceedance, max_iters, run_algorithm
from .errors import ConfigError, SgoalError, UsageError, check_cap
from .selection import SCHEMES, SelectionScheme, exact_probs, select_many
from .stats import chisquare_gof
from .verify import MATRIX_BYTES_CAP, T_MAX_CAP, BoundReport, check_bound, extract_chain

_DEFAULTS = {
    "replicates": 1,
    "seed": 0,
    "budget": 100,
    "eps": (0.1,),
    "out": "out",
    "verify.t_max": 50,
    "sa.T0": 1.0,
    "sa.cooling": "geometric",
    "sa.gamma": 0.95,
    "sa.step": 0.01,
    "sa.floor": 0.0,
    "sa.c": 1.0,
    "sa.sigma": 0.1,
    "sa.elitist": True,
    "es.mu": 5,
    "es.rho": 1,
    "es.lambda": 10,
    "es.mode": "plus",
    "es.sigma_min": 1e-8,
    "es.sigma_max": 1e3,
    "es.sigma_init": 1.0,
    "es.recomb_y": "discrete",
    "es.recomb_s": "intermediate",
}
_REQUIRED = {"algorithm": str, "problem": str, "dim": int}
# The type of every config key: a defaulted key's is its default's type.
# ``es.tau`` has no default: when unset, the strategy derives it from dim.
_ALL_KEYS = {
    **_REQUIRED,
    "es.tau": float,
    **{key: type(default) for key, default in _DEFAULTS.items()},
}


def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key in ("1", "true", "yes", "on"):
        return True
    if key in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_thresholds(text: str) -> tuple[float, ...]:
    out = []
    for token in filter(None, (part.strip() for part in text.split(","))):
        try:
            out.append(float(token))
        except ValueError as exc:
            raise ConfigError(f"bad eps threshold {token!r}") from exc
        if not 0 < out[-1] < math.inf:
            raise ConfigError("eps thresholds must be positive and finite")
    if not out:
        raise ConfigError("at least one eps threshold is required")
    return tuple(out)


def _assign(values: dict, item: str, where: str = "") -> None:
    """Store one ``key=value`` item in ``values``, parsed by its key's type (or
    that type's parser); ``where`` prefixes the unknown-key error with its location."""
    key, raw = (part.strip() for part in item.split("=", 1))
    if key not in _ALL_KEYS:
        raise ConfigError(f"{where}unknown config key {key!r}")
    kind = _ALL_KEYS[key]
    try:
        value = {bool: _parse_bool, tuple: _parse_thresholds}.get(kind, kind)(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    values[key] = value


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys rejected."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        _assign(values, stripped, where=f"line {lineno}: ")
    return values


def load_config(path: str | None, overrides: list[str]) -> dict:
    values = dict(_DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
        values.update(parse_config_text(text))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        _assign(values, item)
    return values


def _cooling(values: dict) -> sa_mod.Cooling:
    """The configured schedule; each kind reads only its own keys.

    ``geometric`` reads ``sa.T0`` and ``sa.gamma``; ``linear`` reads
    ``sa.T0``, ``sa.step`` and ``sa.floor``; ``log`` reads only ``sa.c``
    and starts at ``c / ln 2``, so ``sa.T0`` is not read.  Keys the kind
    does not read are ignored, so a base file's keys may stay in place
    under a command-line cooling override.
    """
    kind = values["sa.cooling"].strip().lower()
    if kind == "geometric":
        return sa_mod.geometric(values["sa.T0"], values["sa.gamma"])
    if kind == "linear":
        return sa_mod.linear(values["sa.T0"], values["sa.step"], values["sa.floor"])
    if kind in ("log", "logarithmic"):
        return sa_mod.logarithmic(values["sa.c"])
    raise ConfigError(f"unknown cooling {values['sa.cooling']!r}")


def build_algorithm(values: dict) -> Algorithm:
    """Assemble the configured algorithm on a fresh benchmark problem; every
    setting, the bytes of a run's traces included, is checked first."""
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required config key {key!r}")
    if values["problem"] not in BENCHMARKS:
        raise ConfigError(
            f"unknown problem {values['problem']!r}; choose from {', '.join(BENCHMARKS)}"
        )
    if values["replicates"] < 1:
        raise ConfigError("replicates must be >= 1")
    if values["budget"] < 1:
        raise ConfigError("budget must be >= 1")
    if values["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    if not 1 <= values["verify.t_max"] <= T_MAX_CAP:
        raise ConfigError(f"verify.t_max must lie in [1, {T_MAX_CAP}]")
    algorithm = values["algorithm"].strip().lower()
    if algorithm not in ("sa", "es"):
        raise ConfigError(f"unknown algorithm {values['algorithm']!r} (expected sa or es)")
    entries = values["dim"]  # numbers in the largest population or child batch
    if algorithm == "es":
        entries *= max(1, values["es.mu"], values["es.lambda"] * values["es.rho"])
    check_cap(8 * entries, MATRIX_BYTES_CAP, "bytes of population arrays")
    if algorithm == "sa":
        config = sa_mod.SAConfig(
            schedule=_cooling(values),
            sigma=values["sa.sigma"],
            elitist=values["sa.elitist"],
        )
    else:
        config = es_mod.ESConfig(
            mu=values["es.mu"],
            rho=values["es.rho"],
            lam=values["es.lambda"],
            mode=values["es.mode"],
            tau=values.get("es.tau"),
            sigma_init=values["es.sigma_init"],
            sigma_min=values["es.sigma_min"],
            sigma_max=values["es.sigma_max"],
            recomb_y=values["es.recomb_y"],
            recomb_s=values["es.recomb_s"],
        )
        if config.rho != 1 and values["problem"] in FINITE_BENCHMARKS:  # as es.child_kernel
            raise ConfigError("finite-space strategies support rho = 1 only")
    # bytes held per step, at the peak of a run or of the summary: the
    # closeness rows (stacked, and copied for the median, in the summary);
    # the last trace's 5 columns; a run's fitness buffer (3 rows of the
    # step's population while it doubles) and 8 arrays at its end; 40-byte
    # list items (slot and number), 2 in a run and 3 + len(eps) in the summary
    arity = config.mu if algorithm == "es" else 2 if config.elitist else 1
    run_bytes = 8 * (values["replicates"] + 5 + 3 * arity + 8) + 40 * 2
    summary_bytes = 8 * (3 * values["replicates"] + 5) + 40 * (3 + len(values["eps"]))
    per_step = max(run_bytes, summary_bytes)
    check_cap(per_step * (values["budget"] + 1), MATRIX_BYTES_CAP, "bytes of traces")
    make = sa_mod.make_sa if algorithm == "sa" else es_mod.make_es
    return make(make_benchmark(values["problem"], values["dim"]).problem, config)


BLOCK = 2048  # CSV rows or JSON list items formatted per write; bounds the text held at once
_CELLS = json.JSONEncoder(check_circular=False, separators=("\n", ": ")).encode


def _write_blocks(path, blocks: Iterable[str]) -> None:
    """Write ``blocks`` over the file at ``path`` in place, cut to length even
    if a block fails: on ext4 a truncating open starts writeback at close."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            for block in blocks:
                fh.write(block.encode("ascii"))
        finally:
            fh.truncate()


def _csv_blocks(header: str, row: str, columns) -> Iterator[str]:
    """Yield ``header``, then the rows of ``columns`` as ``row % cells``, ``BLOCK`` at a time."""
    yield header
    for start in range(0, len(columns[0]), BLOCK):
        cells = (c[start : start + BLOCK].tolist() for c in columns)
        yield "".join([row % r for r in zip(*cells)])


def _json_blocks(value, newline: str) -> Iterator[str]:
    """Yield the text of ``json.dumps(value, indent=2, sort_keys=True)``, its
    lines after the first starting with ``newline``'s indent.

    Keys are strings; a list holds scalars and empty containers, or flat
    dicts that share the first one's keys (rows).  One call of json's C
    encoder spells the keys and scalars of a dict, or of all rows, split at
    its newline separator, which no scalar's text holds; a list of scalars
    is spelled ``BLOCK`` items at a time.  ``json.dump`` with an indent
    would spell each item in Python.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        keys = sorted(value)
        nested = [isinstance(value[k], (dict, list)) and bool(value[k]) for k in keys]
        cells = _CELLS(keys + [None if n else value[k] for k, n in zip(keys, nested)])
        cells, text = cells[1:-1].split("\n"), "{"
        for i, key in enumerate(keys):
            text += ("," if i else "") + inner + cells[i] + ": "
            if nested[i]:
                yield text
                yield from _json_blocks(value[key], inner)
                text = ""
            else:
                text += cells[len(keys) + i]
        yield text + newline + "}"
    elif isinstance(value, list) and value and isinstance(value[0], dict) and value[0]:
        keys = sorted(value[0])
        cells = _CELLS(keys + [r[k] for r in value for k in keys])[1:-1].split("\n")
        row = ",".join([inner + "  " + c.replace("%", "%%") + ": %s" for c in cells[: len(keys)]])
        rows = ("," + inner).join(["{" + row + inner + "}"] * len(value))
        yield "[" + inner + rows % tuple(cells[len(keys) :]) + newline + "]"
    elif isinstance(value, list) and value:
        encode = json.JSONEncoder(check_circular=False, separators=("," + inner, ": ")).encode
        yield "["
        for start in range(0, len(value), BLOCK):
            yield ("," if start else "") + inner + encode(value[start : start + BLOCK])[1:-1]
        yield newline + "]"
    else:
        yield json.dumps(value)


def _write_json(path, value: dict) -> None:
    """The bytes of ``json.dump(value, fh, indent=2, sort_keys=True)`` and a newline."""
    _write_blocks(path, itertools.chain(_json_blocks(value, "\n"), ("\n",)))


def _write_trace_csv(path: Path, trace) -> None:
    """A ``ConvergenceTrace`` as ``t,D,f_best,evals,T_or_sigma`` rows, every
    float as ``%.17g``, which reads back as the same double."""
    columns = (trace.t, trace.d, trace.f_best, trace.evals, trace.param)
    header, row = "t,D,f_best,evals,T_or_sigma\n", "%d,%.17g,%.17g,%d,%.17g\n"
    _write_blocks(path, _csv_blocks(header, row, columns))


def write_bound_json(report: BoundReport, path) -> None:
    _write_json(path, report.to_json_dict())


def write_bound_csv(report: BoundReport, path) -> None:
    """``t,min_mass,bound,margin`` rows in csv.writer's bytes: ``\\r\\n``, no quotes."""
    names = ("t", "min_mass", "bound", "margin")
    columns = [np.array([getattr(r, name) for r in report.per_t]) for name in names]
    _write_blocks(path, _csv_blocks(",".join(names) + "\r\n", "%d,%.17g,%.17g,%.17g\r\n", columns))


def cmd_run(values: dict) -> int:
    algo = build_algorithm(values)  # a run resets its count: one serves every replicate
    eps_list = values["eps"]
    replicates = values["replicates"]
    base_seed = values["seed"]
    budget = values["budget"]
    out_dir = Path(values["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    closeness = []
    for seed in range(base_seed, base_seed + replicates):
        trace = run_algorithm(algo, max_iters(budget), seed=seed).trace
        _write_trace_csv(out_dir / f"trace_{seed}.csv", trace)
        closeness.append(trace.d)

    stacked = np.stack(closeness)
    summary = {
        "algorithm": values["algorithm"],
        "problem": values["problem"],
        "dim": values["dim"],
        "replicates": replicates,
        "seed": base_seed,
        "budget": budget,
        "t": trace.t.tolist(),
        "mean_d": stacked.mean(axis=0).tolist(),
        "median_d": np.median(stacked, axis=0).tolist(),
        "pr_d_above": {f"{eps:.17g}": exceedance(stacked, eps).tolist() for eps in eps_list},
    }
    _write_json(out_dir / "summary.json", summary)
    print(f"wrote {replicates} trace file(s) and summary.json to {out_dir}")
    return 0


def cmd_verify(values: dict) -> int:
    """Exact report at the first ``eps`` threshold; later ones are ignored."""
    algo = build_algorithm(values)
    eps = values["eps"][0]
    t_max = values["verify.t_max"]
    chain = extract_chain(algo, eps, t_max=t_max, lump=True)
    report = check_bound(chain, t_max)
    out_dir = Path(values["out"])
    out_dir.mkdir(parents=True, exist_ok=True)  # a rejected config leaves no directory
    write_bound_json(report, out_dir / "bound.json")
    write_bound_csv(report, out_dir / "bound.csv")
    worst = min((row.margin for row in report.per_t), default=math.nan)
    print(
        f"delta={report.delta:.6g} absorbing={report.premise_absorbing} "
        f"reach={report.premise_reach} worst_margin={worst:.3e} "
        f"verified={report.verified()} states={report.states} lumped={report.lumped}"
    )
    return 0 if report.verified() else 1


def cmd_select_test(args) -> int:
    try:
        fitness = np.array([float(v) for v in args.fitness.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise UsageError(f"fitness values must be numbers: {args.fitness!r}") from exc
    if fitness.size == 0:
        raise UsageError("empty fitness vector")
    relation = Relation.parse(args.relation)
    scheme = SelectionScheme(args.scheme, m=args.m)
    rng = np.random.default_rng(args.seed)
    draws = select_many(scheme, fitness, relation, args.samples, rng)  # caps before exact_probs
    probs = exact_probs(scheme, fitness, relation)
    counts = np.bincount(draws, minlength=fitness.size)
    result = chisquare_gof(counts, probs, alpha=0.001)
    print(f"scheme={args.scheme} relation={relation.value} samples={args.samples}")
    print(f"{'idx':>4} {'fitness':>12} {'exact':>12} {'empirical':>12}")
    for i, (f, p) in enumerate(zip(fitness, probs)):
        print(f"{i:>4} {f:>12.6g} {p:>12.6g} {counts[i] / args.samples:>12.6g}")
    verdict = "pass" if result.passed else "FAIL"
    print(
        f"chi-square={result.statistic:.4f} dof={result.dof} "
        f"p-value={result.pvalue:.4g} alpha={result.alpha} -> {verdict}"
    )
    return 0 if result.passed else 1


@functools.cache  # built at first use, not at import; parse_args leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgoal",
        description="Run and verify composable stochastic optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--replicates", type=int, help="number of independent runs")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument(
            "overrides", nargs="*", metavar="KEY=VALUE", help="config overrides"
        )

    add_config_flags(sub.add_parser("run", help="run replicates, write traces + summary"))
    add_config_flags(sub.add_parser("verify", help="exact premise/bound report"))

    st = sub.add_parser("select-test", help="exact vs sampled selection probabilities")
    st.add_argument("--scheme", required=True, choices=SCHEMES)
    st.add_argument("--fitness", required=True, help="comma-separated fitness values")
    st.add_argument("--relation", default="min", help="min or max (default min)")
    st.add_argument("--samples", type=int, default=100_000)
    st.add_argument("--m", type=int, default=2, help="tournament size")
    st.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "select-test":
            return cmd_select_test(args)
        flags = [f"{key}={getattr(args, key)}" for key in ("seed", "replicates", "out")
                 if getattr(args, key) is not None]  # last: a flag wins over KEY=VALUE
        values = load_config(args.config, [*args.overrides, *flags])
        if args.command == "run":
            return cmd_run(values)
        return cmd_verify(values)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SgoalError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

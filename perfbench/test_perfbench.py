"""Checks of the benchmark's own generators, oracles and tracer.

Run from the root of the checkout:  python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import chains  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sgoal.verify import FiniteChain, check_bound  # noqa: E402


@pytest.mark.parametrize("dim", [3, 6])
def test_closed_form_chain_is_the_extracted_chain(dim):
    assert workloads.closed_form_problem(dim) is None


def test_closed_form_check_catches_a_different_chain(monkeypatch):
    real = chains.elitist_onemax_chain

    def off_by_one(dim):
        m, eps_set = real(dim)
        m[[0, 1]] = m[[1, 0]]
        return m, eps_set

    monkeypatch.setattr(chains, "elitist_onemax_chain", off_by_one)
    assert workloads.closed_form_problem(4) == "extracted matrix differs from the closed form"


@pytest.mark.parametrize("seed", [None, 7])
def test_oracle_matches_check_bound(seed):
    m, eps_set = chains.elitist_onemax_chain(6)
    if seed is not None:
        m, eps_set = chains.permuted(m, eps_set, seed)
    chain = FiniteChain(states=tuple(range(m.shape[0])), eps_set=eps_set, matrices=(m,))
    report = check_bound(chain, 20).to_json_dict()
    oracle = chains.min_mass_oracle(m, eps_set, 20)
    assert workloads.bound_problem(report, 1.0 / m.shape[0], oracle) is None


def test_bound_problem_catches_a_wrong_mass():
    m, eps_set = chains.elitist_onemax_chain(4)
    chain = FiniteChain(states=tuple(range(m.shape[0])), eps_set=eps_set, matrices=(m,))
    report = check_bound(chain, 5).to_json_dict()
    oracle = chains.min_mass_oracle(m, eps_set, 5)
    oracle[2] += 1e-9
    assert workloads.bound_problem(report, 1.0 / 16, oracle).startswith("min_mass off")


def test_matrix_file_round_trips(tmp_path):
    from sgoal.kernels import load_matrix

    m, _ = chains.permuted(*chains.elitist_onemax_chain(4), seed=3)
    chains.write_matrix(tmp_path / "m.txt", m)
    assert np.array_equal(load_matrix(tmp_path / "m.txt"), m)


def test_check_trace_flags_a_worse_f_best(tmp_path):
    path = tmp_path / "trace_1.csv"
    path.write_text("t,D,f_best,evals,T_or_sigma\n0,2,2,1,1\n1,1,1,2,1\n2,1,1.5,3,1\n")
    assert workloads.check_trace(path, 2, []) == "f_best got worse"
    path.write_text("t,D,f_best,evals,T_or_sigma\n0,2,2,1,1\n1,1,1,2,1\n")
    assert workloads.check_trace(path, 2, []) == "2 rows, expected 3"


def _small_sa_run(tmp_path, seed=1):
    cfg = tmp_path / "sa.cfg"
    cfg.write_text(workloads.SA_RUN_CFG.format(seed=seed, budget=300, replicates=1))
    spec = {"workload": "run_sa_sphere", "seed": seed, "work": str(tmp_path),
            "config": str(cfg), "replicates": 1, "budget": 300}
    return workloads.make_workload(spec)


@pytest.fixture
def tracer():
    tracer = tracing.Tracer(span_cap=50)
    yield tracer
    tracer.uninstall()


def test_traced_counts_repeat_exactly(tmp_path, tracer):
    workload = _small_sa_run(tmp_path)
    rows = []
    for _ in range(2):
        tracer.install()
        tracer.reset()
        assert workload.round().failures == []
        rows.append(tracing.layer_metrics(tracer))
        tracer.uninstall()
    counts = [e["name"] for e in _layer_map() if e["unit"] == "count"]
    assert {name: rows[0][name] for name in counts} == {name: rows[1][name] for name in counts}
    assert rows[0]["cli.trace_rows"] == 301
    assert rows[0]["sa.replace_calls"] == 300
    assert rows[0]["bench.objective_calls"] == 301
    assert tracer.spans_seen > tracer.span_cap == len(tracer.span_start)


def test_uninstall_restores_every_target(tracer):
    import sgoal.core
    import sgoal.kernels

    before = (sgoal.kernels.Kernel.sample, sgoal.core.Problem.evaluate, sgoal.core.run_sgoal)
    tracer.install()
    assert sgoal.core.Problem.evaluate is not before[1]
    tracer.uninstall()
    assert (sgoal.kernels.Kernel.sample, sgoal.core.Problem.evaluate, sgoal.core.run_sgoal) == before


def test_absent_layers_are_left_out(monkeypatch, tracer):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("verify.gone", "sgoal.verify", "no_such_function", None),),
    )
    monkeypatch.delattr("sgoal.verify.iterated_products")
    tracer.install()
    assert tracer.absent == {"verify.gone", "kernels.products"}
    assert workloads.closed_form_problem(3) is None  # the run goes on
    metrics = tracing.layer_metrics(tracer)
    assert "kernels.products_s" not in metrics and "kernels.product_bytes" not in metrics
    assert metrics["kernels.matrix_calls"] == 3


def _layer_map():
    return json.loads(tracing.LAYER_MAP.read_text())["per_layer"]


def test_layer_map_matches_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [{k: e[k] for k in ("name", "unit", "better")} for e in _layer_map()]
    assert bench["per_layer"] == declared
    end_to_end = {e["name"] for e in bench["end_to_end"]}
    names = {w["name"] for w in bench["workloads"]}
    assert names == set(workloads.NAMES)
    for entry in _layer_map():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= names


def test_every_layer_metric_is_mapped():
    mapped = {e["name"] for e in _layer_map()}
    produced = set(tracing.layer_metrics(tracing.Tracer()))
    assert produced | {"setup.import_s", "trace.overhead_s"} == mapped

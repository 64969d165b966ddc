"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion (add ``-s`` for the detail lines printed on success).
Every tolerance is pinned here: exact linear algebra at 1e-12,
chi-square goodness of fit at significance 0.001, Monte Carlo bands at
three binomial standard errors.
"""

import math
import time

import numpy as np
import pytest

from conftest import brute_tournament_probs, transition_counts

from sgoal.bench import make_benchmark
from sgoal.cli import main as cli_main
from sgoal.core import Relation, max_iters, run_algorithm
from sgoal.es import ESConfig, make_es
from sgoal.kernels import FiniteSpace
from sgoal.sa import SAConfig, fixed, geometric, make_sa, metropolis_accept
from sgoal.selection import (
    exact_probs,
    proportional,
    ranking,
    roulette,
    select_many,
    tournament,
    uniform,
)
from sgoal.stats import binomial_se, chisquare_gof
from sgoal.verify import (
    FiniteChain,
    check_bound,
    check_premises,
    estimate_convergence,
    extract_chain,
)

EXACT = 1e-12
ALPHA = 0.001


def report(criterion: int, detail: str) -> None:
    print(f"\ncriterion {criterion}: PASS - {detail}")


def test_criterion_1_lemma_bound_exact_two_state():
    started = time.perf_counter()
    for delta in (0.1, 0.5, 0.9):
        chain = FiniteChain(
            states=(0, 1),
            eps_set={0},
            matrices=(np.array([[1.0, 0.0], [delta, 1.0 - delta]]),),
        )
        rep = check_bound(chain, 50)
        assert rep.premises_hold
        assert rep.delta == pytest.approx(delta, abs=EXACT)
        for row in rep.per_t:
            closed_form = 1.0 - (1.0 - delta) ** row.t
            assert abs(row.min_mass - closed_form) <= EXACT
            assert abs(row.margin) <= EXACT
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"two-state absorption exact to 1e-12 for t<=50 ({elapsed:.3f}s)")


def test_criterion_2_lemma_bound_nonstationary_random_instances():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_margin = math.inf
    for _ in range(100):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(1, n))
        eps_states = rng.choice(n, size=k, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[eps_states] = True
        matrices = []
        for _ in range(10):
            m = rng.dirichlet(np.ones(n), size=n)
            for i in np.flatnonzero(mask):
                row = np.zeros(n)
                row[mask] = rng.dirichlet(np.ones(k))
                m[i] = row  # eps states keep all mass inside: absorbing
            matrices.append(m)
        chain = FiniteChain(tuple(range(n)), set(int(i) for i in eps_states), tuple(matrices))
        rep = check_bound(chain, 10)
        assert rep.premises_hold
        for row in rep.per_t:
            assert row.margin >= -EXACT
            worst_margin = min(worst_margin, row.margin)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, f"100 random non-stationary chains, worst margin {worst_margin:.3e} ({elapsed:.2f}s)")


def _conformance_case(algo, kernel, samples_total):
    chain = extract_chain(algo, eps=0.5, t_max=1)
    matrix = chain.matrices[0]
    assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= EXACT)
    space = FiniteSpace.from_problem(algo.problem)
    per_row = samples_total // len(chain.states)
    rng = np.random.default_rng(314159)
    worst_p = 1.0
    for i, start in enumerate(chain.states):
        counts = transition_counts(kernel, space, start, per_row, rng)
        result = chisquare_gof(counts, matrix[i], alpha=ALPHA)
        assert result.passed, f"row {i}: chi2={result.statistic:.2f} p={result.pvalue:.2e}"
        worst_p = min(worst_p, result.pvalue)
    return worst_p


def test_criterion_3_algorithm_to_chain_conformance():
    # The strategy and the non-elitist annealer run the very kernel that is
    # verified, so their running next_pop is sampled.  The elitist annealer
    # runs a (walker, best) pair; its verified chain is the arity-1 greedy
    # chain.  The cooling schedule also checks that sampling never ticks it:
    # the samples must fit the t = 0 matrix.
    bench = make_benchmark("onemax", 4)
    sa_algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(1.0)))
    worst_sa = _conformance_case(sa_algo, sa_algo.chain_kernel, 100_000)
    hot_algo = make_sa(
        bench.problem.copy(), SAConfig(schedule=geometric(2.0, 0.5), elitist=False)
    )
    assert hot_algo.chain_kernel is hot_algo.next_pop
    worst_hot = _conformance_case(hot_algo, hot_algo.next_pop, 100_000)
    es_algo = make_es(
        bench.problem.copy(), ESConfig(mu=1, rho=1, lam=1, mode="plus")
    )
    assert es_algo.chain_kernel is es_algo.next_pop
    worst_es = _conformance_case(es_algo, es_algo.next_pop, 100_000)
    report(
        3,
        "10^5 sampled transitions match exact rows per chi-square: "
        f"worst p-values sa={worst_sa:.3f} sa-metropolis={worst_hot:.3f} "
        f"es={worst_es:.3f}",
    )


def test_criterion_4_elitism_zero_violations():
    checked = 0
    for name, dim in (("sphere", 2), ("onemax", 16)):
        bench = make_benchmark(name, dim)
        for seed in range(100):
            algo = make_sa(
                bench.problem.copy(),
                SAConfig(schedule=geometric(2.0, 0.95), sigma=0.5),
            )
            trace = run_algorithm(algo, max_iters(60), seed=seed).trace
            assert np.all(np.diff(trace.d) <= 0.0)
            checked += 1
        for seed in range(100):
            rho = 2 if name == "sphere" else 1
            algo = make_es(
                bench.problem.copy(),
                ESConfig(mu=5, rho=rho, lam=10, mode="plus"),
            )
            trace = run_algorithm(algo, max_iters(60), seed=seed).trace
            assert np.all(np.diff(trace.d) <= 0.0)
            checked += 1
    report(4, f"D non-increasing at every step of {checked} elitist runs")


def test_criterion_5_non_elitism_witness():
    bench = make_benchmark("trap5", 5)
    comma_increases = 0
    for seed in range(100):
        algo = make_es(
            bench.problem.copy(), ESConfig(mu=5, rho=1, lam=10, mode="comma")
        )
        trace = run_algorithm(algo, max_iters(40), seed=seed).trace
        comma_increases += int(np.any(np.diff(trace.d) > 0))
    assert comma_increases > 0

    bench = make_benchmark("onemax", 4)
    sa_increases = 0
    for seed in range(100):
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=fixed(10.0), elitist=False))
        trace = run_algorithm(algo, max_iters(40), seed=seed).trace
        sa_increases += int(np.any(np.diff(trace.d) > 0))
    assert sa_increases > 0
    report(
        5,
        f"D increases observed in {comma_increases}/100 comma-ES runs and "
        f"{sa_increases}/100 hot Metropolis runs",
    )


def test_criterion_6_metropolis_acceptance_frequencies():
    problem = make_benchmark("onemax", 1).problem  # fitness 0 vs 1, maximize
    trials = 100_000
    details = []
    for temperature in (0.1, 1.0, 10.0):
        rng = np.random.default_rng(int(temperature * 1000) + 17)
        # candidate (0,) is the delta-f = 1 worsening of incumbent (1,)
        f_cand = problem.evaluate((0,))
        f_inc = problem.evaluate((1,))
        hits = sum(
            metropolis_accept(problem, f_cand, f_inc, temperature, rng)
            for _ in range(trials)
        )
        frequency = hits / trials
        target = math.exp(-1.0 / temperature)
        band = 3.0 * binomial_se(target, trials)
        assert abs(frequency - target) <= band + EXACT, (
            f"T={temperature}: {frequency} vs {target} +- {band}"
        )
        details.append(f"T={temperature}: {frequency:.5f}~{target:.5f}")
    report(6, "; ".join(details))


def _scheme_cases(rng):
    lam = int(rng.integers(1, 7))
    if rng.random() < 0.4:
        fitness = rng.choice([1.0, 2.0, 3.0], size=lam)  # force ties
    else:
        fitness = np.round(rng.uniform(0.1, 9.9, size=lam), 3)
    relation = Relation.MINIMIZE if rng.random() < 0.5 else Relation.MAXIMIZE
    return fitness, relation


def _assert_monotone(kind, probs, fitness, relation, strict):
    for i in range(fitness.size):
        for j in range(fitness.size):
            if fitness[i] == fitness[j]:
                assert abs(probs[i] - probs[j]) <= EXACT, kind
            elif strict and relation.better(fitness[j], fitness[i]):
                assert probs[i] < probs[j], kind


def test_criterion_7_selection_exactness():
    rng = np.random.default_rng(777)
    checks = 0
    for scheme_name in ("uniform", "proportional", "roulette", "ranking", "tournament"):
        for _ in range(50):
            fitness, relation = _scheme_cases(rng)
            if scheme_name == "uniform":
                scheme, strict = uniform(), False
            elif scheme_name == "proportional":
                scheme, strict = proportional(), True
            elif scheme_name == "ranking":
                scheme, strict = ranking(), True
            elif scheme_name == "roulette":
                scheme, strict = roulette(), True
                relation = Relation.MAXIMIZE
                fitness = np.abs(fitness) + 0.1  # raw-rate roulette: f >= 0, maximize
            else:
                m = int(rng.integers(1, 4))
                scheme, strict = tournament(m), m >= 2
            probs = exact_probs(scheme, fitness, relation)
            assert abs(probs.sum() - 1.0) <= EXACT
            if scheme_name == "uniform":
                assert np.all(np.abs(probs - 1.0 / fitness.size) <= EXACT)
            _assert_monotone(scheme_name, probs, fitness, relation, strict)
            if scheme_name == "tournament":
                oracle = brute_tournament_probs(fitness, relation, scheme.m)
                assert np.allclose(probs, oracle, atol=EXACT)
            draws = select_many(scheme, fitness, relation, 100_000, rng)
            counts = np.bincount(draws, minlength=fitness.size)
            result = chisquare_gof(counts, probs, alpha=ALPHA)
            assert result.passed, (
                f"{scheme_name} {fitness} {relation}: p={result.pvalue:.2e}"
            )
            checks += 1
    report(7, f"{checks} scheme/vector cases exact, monotone, and chi-square clean")


def test_criterion_8_convergence_trend_links_lemma_to_theorem():
    started = time.perf_counter()
    bench = make_benchmark("onemax", 8)
    algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(2.0, 0.99)))
    chain = extract_chain(algo, eps=0.5, t_max=1)
    delta, absorbing = check_premises(chain)
    assert absorbing and delta > 0
    assert delta == pytest.approx(1.0 / 256.0, abs=EXACT)

    seeds = 200
    horizon = 200
    traces = []
    for seed in range(seeds):
        run_algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(2.0, 0.99)))
        traces.append(run_algorithm(run_algo, max_iters(horizon), seed=seed).trace)
    # closeness is integer-valued on onemax, so {D > 0.5} is exactly {D > 0}
    exceed = estimate_convergence(traces, eps=0.5).p

    for t in range(1, horizon + 1):
        bound = (1.0 - delta) ** t
        band = 3.0 * binomial_se(bound, seeds)
        assert exceed[t] <= bound + band + EXACT, (
            f"t={t}: {exceed[t]} > {bound} + {band}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        8,
        f"Pr{{D_t>0}} within (1-{delta:.5f})^t + 3se for t<=200 ({elapsed:.1f}s)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "algorithm = sa\nproblem = onemax\ndim = 4\nbudget = 40\n"
        "replicates = 2\nseed = 21\neps = 0.5\n"
        "sa.T0 = 2.0\nsa.cooling = geometric\nsa.gamma = 0.9\n"
    )
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report(9, f"repeated cli runs byte-identical across {len(names)} files")

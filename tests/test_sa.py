import math
import tracemalloc

import numpy as np
import pytest

from conftest import brute_sa_matrix, line_problem, state_at

from sgoal.bench import make_benchmark
from sgoal.core import Relation, max_iters, run_algorithm
from sgoal.errors import ConfigError
from sgoal.kernels import FiniteSpace, ScheduleState, compose, identity, join, projection, sort_kernel
from sgoal.sa import (
    Cooling,
    SAConfig,
    acceptance_probability,
    fixed,
    geometric,
    linear,
    logarithmic,
    make_sa,
    metropolis_accept,
    replace_sa,
    sa_proposal,
)
from sgoal.stats import binomial_se
from sgoal.verify import extract_chain


class TestCooling:
    def test_geometric_closed_form_exact(self):
        # the kernel at step k reads T = 2 * 0.9^k: its matrix is the one
        # built at that fixed temperature, bit for bit
        problem = line_problem([0.0, 1.0, 2.5])
        space = FiniteSpace(problem.space.points)
        cooling = make_sa(problem, SAConfig(schedule=geometric(2.0, 0.9), elitist=False))
        for k in range(25):
            at_k = make_sa(problem, SAConfig(schedule=fixed(2.0 * 0.9**k), elitist=False))
            assert np.array_equal(
                cooling.next_pop.exact_matrix(space, state_at(k)),
                at_k.next_pop.exact_matrix(space),
            )

    def test_linear_hits_floor(self):
        schedule = linear(1.0, step=0.4, floor=0.3)
        temps = [schedule.temperature(t) for t in range(5)]
        assert temps == [1.0, 0.6, 0.3, 0.3, 0.3]

    def test_logarithmic_decreasing_from_c_over_log2(self):
        schedule = logarithmic(2.0)
        assert schedule.temperature(0) == pytest.approx(2.0 / math.log(2.0))
        temps = [schedule.temperature(t) for t in range(20)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_fixed_stays_constant(self):
        schedule = fixed(10.0)
        assert [schedule.temperature(t) for t in range(4)] == [10.0] * 4

    def test_alpha_stays_within_zero_and_current(self):
        kinds = (geometric(3.0, 0.5), linear(3.0, 1.0), linear(3.0, 0.4, floor=3.0),
                 logarithmic(1.0), fixed(2.0))
        for schedule in kinds:
            assert schedule.temperature(0) == schedule.t0
            for t in range(30):
                assert 0.0 <= schedule.temperature(t + 1) <= schedule.temperature(t)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: geometric(0.0, 0.5),
            lambda: geometric(1.0, 1.0),
            lambda: linear(1.0, 0.0),
            lambda: linear(1.0, 0.5, floor=-1.0),
            lambda: logarithmic(0.0),
            lambda: Cooling("boltzmann", 1.0),
            lambda: linear(1.0, 0.4, floor=5.0),
        ],
    )
    def test_invalid_schedules(self, bad):
        with pytest.raises(ConfigError):
            bad()


class TestVariate:
    def test_uniform_mutation_rows(self):
        problem = line_problem([0, 1, 2, 3, 4], f_star=0.0)
        config = SAConfig(schedule=geometric(1.0))
        kernel = sa_proposal(problem, config)
        m = kernel.exact_matrix(FiniteSpace(problem.space.points))
        assert np.allclose(m, 0.2, atol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ConfigError):
            SAConfig(schedule=geometric(1.0), sigma=0.0)

    def test_custom_mutation_needs_positive_mass(self):
        problem = line_problem([0, 1, 2])
        config = SAConfig(schedule=geometric(1.0), mutation=[0.5, 0.5, 0.0])
        with pytest.raises(ConfigError):
            sa_proposal(problem, config)

    def test_continuous_step_reflects_into_box(self):
        bench = make_benchmark("sphere", 2)
        config = SAConfig(schedule=geometric(1.0), sigma=50.0)
        rng = np.random.default_rng(5)
        proposal = sa_proposal(bench.problem, config)
        x = bench.problem.space.upper.copy()  # start on the boundary
        for _ in range(100):
            (x,) = proposal.sample((x,), ScheduleState(), rng)
            assert bench.problem.space.contains(x)


class TestMetropolis:
    def test_improvement_always_accepted(self, rng):
        p = line_problem([1.0, 0.0])
        assert metropolis_accept(p, 0.0, 1.0, 1e-9, rng)
        assert acceptance_probability(p, 0.0, 1.0, 0.0) == 1.0

    def test_acceptance_frequency_matches_closed_form(self):
        p = line_problem([0.0, 1.0])
        rng = np.random.default_rng(21)
        n = 100_000
        hits = sum(metropolis_accept(p, 1.0, 0.0, 1.0, rng) for _ in range(n))
        assert hits / n == pytest.approx(math.exp(-1.0), abs=0.01)

    def test_greedy_limit_rejects_all_worsening(self, rng):
        p = line_problem([0.0, 1.0])
        assert not metropolis_accept(p, 1.0, 0.0, 0.0, rng)
        assert not metropolis_accept(p, 0.5, 0.0, 0.0, rng)

    def test_equal_fitness_accepted_at_positive_temperature(self, rng):
        p = line_problem([0.0, 0.0])
        assert metropolis_accept(p, 0.0, 0.0, 1.0, rng)
        assert acceptance_probability(p, 0.0, 0.0, 1.0) == 1.0
        assert not metropolis_accept(p, 0.0, 0.0, 0.0, rng)

    def test_sign_convention_for_maximize(self):
        p = line_problem([0.0, 1.0], relation=Relation.MAXIMIZE)
        # candidate 0 is worse than incumbent 1 when maximizing
        assert acceptance_probability(p, 0.0, 1.0, 2.0) == pytest.approx(math.exp(-0.5))
        assert acceptance_probability(p, 1.0, 0.0, 2.0) == 1.0


class TestReplace:
    def test_nonelitist_returns_point(self, rng):
        p = line_problem([1.0, 0.0])
        assert replace_sa(p, 1, 0, 1.0, rng) == 1  # improving candidate accepted

    def test_elitist_carries_best(self, rng):
        p = line_problem([1.0, 0.0, 2.0])
        nxt, best_pt = replace_sa(p, 2, 1, 100.0, rng, elitist=True, best=1)
        assert best_pt == 1  # candidate 2 is worse, best stays
        nxt, best_pt = replace_sa(p, 1, 0, 100.0, rng, elitist=True, best=0)
        assert best_pt == 1  # candidate 1 improves on best 0


class TestRuns:
    @pytest.mark.parametrize("seed", range(20))
    def test_elitist_trace_monotone_on_onemax(self, seed):
        bench = make_benchmark("onemax", 4)
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(2.0, 0.95)))
        res = run_algorithm(algo, max_iters(60), seed=seed)
        assert np.all(np.diff(res.trace.d) <= 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_elitist_trace_monotone_on_five_state_landscape(self, seed):
        problem = line_problem([4.0, 1.0, 3.0, 0.0, 2.0], f_star=0.0)
        algo = make_sa(problem.copy(), SAConfig(schedule=geometric(1.0, 0.98)))
        res = run_algorithm(algo, max_iters(100), seed=seed)
        assert np.all(np.diff(res.trace.d) <= 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_elitist_trace_monotone_on_sphere(self, seed):
        bench = make_benchmark("sphere", 2)
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(1.0, 0.9), sigma=0.5))
        res = run_algorithm(algo, max_iters(60), seed=seed)
        assert np.all(np.diff(res.trace.d) <= 0.0)

    def test_nonelitist_shows_an_increase_at_high_temperature(self):
        # two-state landscape; hot Metropolis accepts the uphill move often
        increases = 0
        for seed in range(100):
            problem = line_problem([0.0, 1.0], f_star=0.0)
            algo = make_sa(problem, SAConfig(schedule=fixed(10.0), elitist=False))
            res = run_algorithm(algo, max_iters(30), seed=seed)
            increases += int(np.any(np.diff(res.trace.d) > 0))
        assert increases > 0

    def test_temperature_column_follows_schedule(self):
        bench = make_benchmark("onemax", 3)
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(4.0, 0.5)))
        res = run_algorithm(algo, max_iters(5), seed=0)
        assert np.allclose(res.trace.param, [4.0 * 0.5**k for k in range(6)])

    def test_elitist_init_pair_costs_one_evaluation(self):
        bench = make_benchmark("onemax", 3)
        problem = bench.problem.copy()
        algo = make_sa(problem, SAConfig(schedule=geometric(1.0)))
        res = run_algorithm(algo, max_iters(0), seed=0)
        assert res.trace.evals[0] == 1
        assert res.final_population.n == 2


class TestChainKernel:
    def test_elitist_chain_equals_algebra_composition(self):
        # brute-force enumeration vs join/sort/projection combinators, 5 states,
        # uniform and state-dependent proposals
        problem = line_problem([3.0, 1.0, 4.0, 1.0, 5.0], f_star=1.0)
        space = FiniteSpace(problem.space.points)
        skewed = [[0.5, 0.2, 0.1, 0.1, 0.1], [0.1, 0.1, 0.6, 0.1, 0.1], [0.2] * 5,
                  [0.05, 0.05, 0.05, 0.05, 0.8], [0.3, 0.1, 0.2, 0.2, 0.2]]
        for mutation in (None, skewed):
            config = SAConfig(schedule=geometric(1.0), mutation=mutation)
            direct = brute_sa_matrix(problem, mutation, elitist=True, temperature=1.0)
            chain = make_sa(problem, config).chain_kernel
            explicit = compose(
                compose(projection(2, [0]), sort_kernel(problem, 2)),
                join([sa_proposal(problem, config), identity(1)]),
            )
            assert np.allclose(chain.exact_matrix(space), direct, atol=1e-12)
            assert np.array_equal(chain.exact_matrix(space), explicit.exact_matrix(space))

    def test_nonelitist_chain_matches_metropolis_mixture(self):
        problem = line_problem([0.0, 1.0], f_star=0.0)
        config = SAConfig(schedule=fixed(1.0), elitist=False)
        algo = make_sa(problem, config)
        assert algo.chain_kernel is algo.next_pop
        m = algo.chain_kernel.exact_matrix(FiniteSpace((0, 1)))
        a = math.exp(-1.0)
        expected = np.array([[1.0 - 0.5 * a, 0.5 * a], [0.5, 0.5]])
        assert np.allclose(m, expected, atol=1e-12)
        assert np.allclose(m, brute_sa_matrix(problem, None, False, 1.0), atol=1e-12)

    def test_delta_equals_eps_mass_for_uniform_mutation(self):
        # uniform proposals: one-step mass into the eps set is its size share
        problem = line_problem([0.0, 0.2, 1.0, 2.0], f_star=0.0)
        config = SAConfig(schedule=geometric(1.0))
        chain = make_sa(problem, config).chain_kernel
        m = chain.exact_matrix(FiniteSpace(problem.space.points))
        eps_states = [0, 1]  # closeness < 0.5
        outside = [2, 3]
        into = m[:, eps_states].sum(axis=1)
        assert np.allclose(into[outside], 2 / 4, atol=1e-12)
        assert np.allclose(into[eps_states], 1.0, atol=1e-12)

    def test_chain_requires_finite_space(self):
        bench = make_benchmark("sphere", 2)
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(1.0)))
        assert not algo.chain_kernel.has_matrix
        with pytest.raises(ConfigError):
            extract_chain(algo, eps=0.5)

    def test_onemax_d10_matrix_peak_memory(self):
        # 1024 states: the composed kernel never holds more than a few blocks
        # next to the 8 MB dense output
        problem = make_benchmark("onemax", 10).problem
        chain = make_sa(problem, SAConfig(schedule=geometric(1.0))).chain_kernel
        space = FiniteSpace.from_problem(problem)
        tracemalloc.start()
        try:
            m = chain.exact_matrix(space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.shape == (1024, 1024)
        assert peak < 3 * m.nbytes


class TestAcceptanceBands:
    @pytest.mark.parametrize("temperature", [0.1, 1.0, 10.0])
    def test_three_sigma_band_small(self, temperature):
        # smaller-n version of the acceptance-suite criterion
        p = line_problem([0.0, 1.0])
        rng = np.random.default_rng(int(temperature * 1000) + 3)
        n = 20_000
        hits = sum(metropolis_accept(p, 1.0, 0.0, temperature, rng) for _ in range(n))
        target = math.exp(-1.0 / temperature)
        assert abs(hits / n - target) <= 3.0 * binomial_se(target, n) + 1e-12

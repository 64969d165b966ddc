import math
import tracemalloc

import numpy as np
import pytest

from conftest import binomial_se, brute_sa_matrix, in_box, line_problem, population

from sgoal.bench import make_benchmark
from sgoal.core import Relation, max_iters, run_algorithm
from sgoal.errors import ConfigError
from sgoal.kernels import FiniteSpace, ScheduleState, compose, identity, join, projection, sort_kernel
from sgoal.mutation import proposal_kernel
from sgoal.sa import (
    Cooling,
    SAConfig,
    acceptance_probability,
    fixed,
    gaussian_move,
    geometric,
    linear,
    logarithmic,
    make_sa,
    metropolis_accept,
    metropolis_kernel,
    replace_sa,
    sa_proposal,
)
from sgoal.verify import extract_chain


class TestCooling:
    def test_geometric_closed_form_exact(self):
        # the kernel at step k reads T = 2 * 0.9^k: its matrix is the one
        # built at that fixed temperature, bit for bit
        problem = line_problem([0.0, 1.0, 2.5])
        space = problem.space
        cooling = make_sa(problem, SAConfig(schedule=geometric(2.0, 0.9), elitist=False))
        for k in range(25):
            at_k = make_sa(problem, SAConfig(schedule=fixed(2.0 * 0.9**k), elitist=False))
            assert np.array_equal(
                cooling.next_pop.exact_matrix(space, k),
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
        m = kernel.exact_matrix(problem.space)
        assert np.allclose(m, 0.2, atol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ConfigError):
            SAConfig(schedule=geometric(1.0), sigma=0.0)

    def test_custom_mutation_needs_positive_mass(self):
        problem = line_problem([0, 1, 2])
        config = SAConfig(schedule=geometric(1.0), mutation=[0.5, 0.5, 0.0])
        with pytest.raises(ConfigError):
            sa_proposal(problem, config)

    @pytest.mark.parametrize(
        "spec",
        [[math.nan, 0.5, 0.5], [[math.nan, 0.5, 0.5], [0.2, 0.3, 0.5], [0.2, 0.3, 0.5]]],
        ids=["vector", "matrix"],
    )
    def test_nan_mutation_rejected(self, spec):
        # NaN fails every comparison, so a check phrased as "reject if bad" passes it
        with pytest.raises(ConfigError):
            proposal_kernel(line_problem([0, 1, 2]), spec)

    @pytest.mark.parametrize(
        "shape",
        [(5,), (4, 5), (1, 4), (4, 4, 4)],
        ids=["long-vector", "wide-matrix", "one-row-matrix", "3-d"],
    )
    def test_mutation_shape_refused(self, shape):
        # only a vector of length n or an n x n matrix is a spec on n points;
        # a (1, n) matrix is not the vector it would broadcast to
        spec = np.full(shape, 1.0 / shape[-1])
        with pytest.raises(ConfigError, match="vector of length 4 or a 4 x 4 matrix"):
            proposal_kernel(line_problem([0, 1, 2, 3]), spec)

    def test_continuous_step_reflects_into_box(self):
        bench = make_benchmark("sphere", 2)
        config = SAConfig(schedule=geometric(1.0), sigma=50.0)
        rng = np.random.default_rng(5)
        proposal = sa_proposal(bench.problem, config)
        pop = population((bench.problem.space.upper.copy(),), bench.problem)  # on the boundary
        for _ in range(100):
            pop = proposal.sample(pop, ScheduleState(), rng)
            assert in_box(bench.problem.space, pop.members[0])
            assert pop.fitness[0] == bench.problem.objective(pop.members[0])

    def test_box_step_is_the_point_move(self):
        # the kernel and the elitist walker make the same draws and points
        problem = make_benchmark("sphere", 3).problem
        move = gaussian_move(problem, 0.7)
        proposal = sa_proposal(problem, SAConfig(schedule=geometric(1.0), sigma=0.7))
        x = np.array([0.5, -1.0, 2.0])
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(20):
            y, f_y = move(x, a)
            out = proposal.sample(population((x,), problem), ScheduleState(), b)
            assert y.tobytes() == out.members[0].tobytes() and f_y == out.fitness[0]
            assert f_y == problem.objective(y)
            x = y


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("relation", [Relation.MINIMIZE, Relation.MAXIMIZE])
    def test_subnormal_temperature_is_the_greedy_limit(self, relation):
        # -|df| / 5e-324 overflows to -inf: every worsening is refused, as
        # metropolis_accept refuses it, and no overflow warning is printed
        p = line_problem([0.0, 1.0, 1.0, 3.0], relation=relation)
        f = np.array([0.0, 1.0, 1.0, 3.0])
        f_cand, f_inc = np.meshgrid(f, f, indexing="ij")
        got = acceptance_probability(p, f_cand, f_inc, 5e-324)
        assert np.array_equal(got, np.where(p.relation.better_eq(f_cand, f_inc), 1.0, 0.0))
        rng = np.random.default_rng(0)
        # the run loop hands it Python floats; direct callers may pass numpy scalars
        for values in (f.tolist(), list(f)):
            accepted = [[metropolis_accept(p, a, b, 5e-324, rng) for b in values] for a in values]
            assert np.array_equal(got, np.array(accepted, dtype=float))

    @pytest.mark.filterwarnings("error")
    def test_underflowed_schedule_builds_greedy_rows(self):
        # geometric(1, 0.5) reaches 2**-1074 = 5e-324 at step 1074
        problem = make_benchmark("onemax", 3).problem
        config = SAConfig(schedule=geometric(1.0, 0.5), elitist=False)
        assert config.schedule.temperature(1074) == 5e-324
        space = problem.space
        m = metropolis_kernel(problem, config).exact_matrix(space, 1074)
        f = space.fitness(problem)[space.digits(np.arange(space.n_tuples(2)), 2)]
        accept = np.where(problem.relation.better_eq(f[:, 0], f[:, 1]), 1.0, 0.0)
        want = np.zeros_like(m)
        rows = np.arange(m.shape[0])
        want[rows, space.digits(rows, 2)[:, 0]] += accept
        want[rows, space.digits(rows, 2)[:, 1]] += 1.0 - accept
        assert np.array_equal(m, want)


class TestReplace:
    def test_nonelitist_returns_point(self, rng):
        p = line_problem([1.0, 0.0])
        assert replace_sa(p, 0.0, 1.0, 1.0, rng) == 0  # improving candidate kept

    def test_elitist_carries_best(self):
        # the elitist step's best-so-far takes the candidate exactly when the
        # candidate beats it; replaying the stream names the candidate drawn
        p = line_problem([1.0, 0.0, 2.0])
        config = SAConfig(schedule=fixed(100.0))
        step, proposal = make_sa(p, config).next_pop, sa_proposal(p, config)
        outcomes = set()
        for seed in range(20):
            for current, best_pt in ((1, 1), (0, 0)):
                replay = np.random.default_rng(seed)
                start = population((current, best_pt), p)
                (candidate,) = proposal.sample(start.take([0]), ScheduleState(), replay).members
                out = step.sample(start, ScheduleState(), np.random.default_rng(seed))
                improves = p.objective(candidate) < p.objective(best_pt)
                assert out.members[1] == (candidate if improves else best_pt)
                assert out.fitness[1] == p.objective(out.members[1])
                outcomes.add(improves)
        assert outcomes == {True, False}


class TestRuns:
    @pytest.mark.parametrize("seed", range(20))
    def test_elitist_trace_monotone_on_onemax(self, seed):
        bench = make_benchmark("onemax", 4)
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(2.0, 0.95)))
        res = run_algorithm(algo, max_iters(60), seed=seed)
        assert np.all(np.diff(res.trace.d) <= 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_elitist_trace_monotone_on_five_state_landscape(self, seed):
        problem = line_problem([4.0, 1.0, 3.0, 0.0, 2.0], f_star=0.0)
        algo = make_sa(problem, SAConfig(schedule=geometric(1.0, 0.98)))
        res = run_algorithm(algo, max_iters(100), seed=seed)
        assert np.all(np.diff(res.trace.d) <= 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_elitist_trace_monotone_on_sphere(self, seed):
        bench = make_benchmark("sphere", 2)
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(1.0, 0.9), sigma=0.5))
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
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(4.0, 0.5)))
        res = run_algorithm(algo, max_iters(5), seed=0)
        assert np.allclose(res.trace.param, [4.0 * 0.5**k for k in range(6)])

    def test_elitist_init_pair_costs_one_evaluation(self):
        bench = make_benchmark("onemax", 3)
        problem = bench.problem
        algo = make_sa(problem, SAConfig(schedule=geometric(1.0)))
        res = run_algorithm(algo, max_iters(0), seed=0)
        assert res.trace.evals[0] == 1
        assert res.final_population.n == 2


class TestChainKernel:
    def test_elitist_chain_equals_algebra_composition(self):
        # brute-force enumeration vs join/sort/projection combinators, 5 states,
        # uniform and state-dependent proposals
        problem = line_problem([3.0, 1.0, 4.0, 1.0, 5.0], f_star=1.0)
        space = problem.space
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
        m = chain.exact_matrix(problem.space)
        eps_states = [0, 1]  # closeness < 0.5
        outside = [2, 3]
        into = m[:, eps_states].sum(axis=1)
        assert np.allclose(into[outside], 2 / 4, atol=1e-12)
        assert np.allclose(into[eps_states], 1.0, atol=1e-12)

    def test_chain_requires_finite_space(self):
        bench = make_benchmark("sphere", 2)
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(1.0)))
        assert algo.chain_kernel.matrix_fn is None
        with pytest.raises(ConfigError):
            extract_chain(algo, eps=0.5)

    def test_onemax_d10_matrix_peak_memory(self):
        # 1024 states: the composed kernel never holds more than a few blocks
        # next to the 8 MB dense output
        problem = make_benchmark("onemax", 10).problem
        chain = make_sa(problem, SAConfig(schedule=geometric(1.0))).chain_kernel
        space = problem.space
        tracemalloc.start()
        try:
            m = chain.exact_matrix(space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.shape == (1024, 1024)
        assert peak < 3 * m.nbytes


class TestOneProposal:
    @pytest.mark.parametrize("elitist", [True, False])
    @pytest.mark.parametrize("name, dim", [("onemax", 3), ("sphere", 2)])
    def test_make_sa_builds_one_proposal(self, monkeypatch, name, dim, elitist):
        # the run step and the verified chain share one proposal kernel
        import sgoal.sa

        calls = []

        def counted(problem, config):
            calls.append(problem)
            return sa_proposal(problem, config)

        monkeypatch.setattr(sgoal.sa, "sa_proposal", counted)
        problem = make_benchmark(name, dim).problem
        make_sa(problem, SAConfig(schedule=geometric(1.0), elitist=elitist))
        assert calls == [problem]

    def test_make_sa_keeps_one_proposal_table(self):
        # onemax d10 with a 1024 x 1024 mutation matrix: the elitist annealer
        # keeps one normalized 8 MiB row table, not one per kernel
        problem = make_benchmark("onemax", 10).problem
        rows = np.random.default_rng(0).random((1024, 1024)) + 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        tracemalloc.start()
        try:
            algo = make_sa(problem, SAConfig(schedule=geometric(1.0), mutation=rows))
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert algo.chain_kernel is not algo.next_pop
        assert kept < 1.5 * rows.nbytes


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

import math

import numpy as np
import pytest

from conftest import brute_es_matrix, line_problem, proposal_rows, transition_counts

from sgoal.bench import make_benchmark
from sgoal.core import ContinuousBox, Problem, max_iters, run_algorithm
from sgoal.errors import ConfigError, UsageError
from sgoal.es import (
    ESConfig,
    ESIndividual,
    es_next_pop,
    init_es_population,
    make_es,
    mutate_y,
    next_sub_pop,
    recombine,
    replace_es,
    update_strategies,
    variate_es,
)
from sgoal.kernels import FiniteSpace, ScheduleState, compose, join, projection, sort_kernel
from sgoal.mutation import proposal_kernel
from sgoal.sa import SAConfig, geometric, make_sa
from sgoal.selection import selection_kernel, uniform
from sgoal.stats import chisquare_gof
from sgoal.verify import check_premises, extract_chain


def individual(y, s, f=0.0):
    return ESIndividual(np.asarray(y, float), np.asarray(s, float), f)


class TestTypes:
    def test_step_sizes_must_be_positive(self):
        with pytest.raises(UsageError):
            individual([0.0], [0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            individual([0.0, 1.0], [1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0, rho=1, lam=1),
            dict(mu=2, rho=3, lam=4),
            dict(mu=3, rho=1, lam=2, mode="comma"),
            dict(mu=1, rho=1, lam=1, mode="steady"),
            dict(mu=1, rho=1, lam=1, sigma_min=0.0),
            dict(mu=1, rho=1, lam=1, sigma_min=2.0, sigma_max=1.0),
            dict(mu=1, rho=1, lam=1, recomb_y="blend"),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ESConfig(**kwargs)

    def test_default_tau_scales_with_dimension(self):
        config = ESConfig(mu=1, rho=1, lam=1)
        assert config.tau_for(8) == pytest.approx(1.0 / math.sqrt(16.0))


SKEWED3 = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]


def es_child(problem, config):
    """The finite-space child: the proposal after uniform selection of a parent."""
    return compose(
        proposal_kernel(problem.space.points, config.mutation),
        selection_kernel(problem, uniform(), config.mu),
    )


class TestPickParents:
    def test_single_parent_identity(self):
        # mu = 1: the child row is the proposal row of the only parent
        problem = line_problem([2.0, 0.0, 1.0], f_star=0.0)
        config = ESConfig(mu=1, rho=1, lam=1, mutation=SKEWED3)
        m = es_child(problem, config).exact_matrix(FiniteSpace(problem.space.points))
        assert np.array_equal(m, proposal_rows(3, SKEWED3))

    def test_uniform_frequencies(self):
        # the sampled parent pick must be uniform for the mean-row matrix to hold
        problem = line_problem([2.0, 0.0, 1.0], f_star=0.0)
        kernel = es_child(problem, ESConfig(mu=2, rho=1, lam=1, mutation=SKEWED3))
        space = FiniteSpace(problem.space.points)
        row = kernel.exact_matrix(space)[space.tuple_index((0, 2))]
        assert np.allclose(row, [0.45, 0.1, 0.45], atol=1e-12)
        counts = transition_counts(kernel, space, (0, 2), 20_000, np.random.default_rng(31))
        assert chisquare_gof(counts, row, alpha=0.001).passed

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_parent_pick_stream(self, mu):
        # one rng.integers(mu) parent pick (no draw for mu = 1), then the proposal draw
        problem = line_problem([3.0, 1.0, 2.0, 0.0])
        parents = (3, 1, 2)[:mu]
        kernel = es_child(problem, ESConfig(mu=mu, rho=1, lam=1))
        rng, replay = np.random.default_rng(47), np.random.default_rng(47)
        for _ in range(50):
            child = kernel.sample(parents, ScheduleState(), rng)
            if mu > 1:
                replay.integers(mu)
            assert child == (int(replay.integers(4)),)

    def test_ordered_pairs_quarter_each(self):
        # rho = 2 draws with replacement: (a,a), (a,b), (b,a), (b,b) a quarter each,
        # seen through intermediate recombination as a / midpoint / b
        rng = np.random.default_rng(32)
        box = ContinuousBox(np.array([-5.0]), np.array([5.0]))
        problem = Problem(box, lambda v: 0.0)
        config = ESConfig(mu=2, rho=2, lam=1, tau=0.0, recomb_y="intermediate",
                          sigma_min=1e-9, sigma_max=1e-9)
        parents = (individual([0.0], [1e-9]), individual([1.0], [1e-9]))
        counts = np.zeros(3)
        n = 20_000
        for _ in range(n):
            child = next_sub_pop(problem, parents, config, ScheduleState(), rng)
            counts[int(round(child.y[0] * 2.0))] += 1
        assert np.all(np.abs(counts / n - [0.25, 0.5, 0.25]) < 0.02)

    def test_rho_cannot_exceed_population(self):
        with pytest.raises(ConfigError):
            ESConfig(mu=1, rho=2, lam=1)


class TestRecombine:
    def test_single_parent_is_identity(self, rng):
        parent = individual([1.0, 2.0], [0.5, 0.5])
        y, s = recombine((parent,), "discrete", "intermediate", rng)
        assert np.array_equal(y, parent.y)
        assert np.array_equal(s, parent.s)

    def test_intermediate_mean(self, rng):
        a = individual([0.0, 0.0], [1.0, 1.0])
        b = individual([2.0, 4.0], [3.0, 1.0])
        y, s = recombine((a, b), "intermediate", "intermediate", rng)
        assert np.array_equal(y, [1.0, 2.0])
        assert np.array_equal(s, [2.0, 1.0])

    def test_discrete_copies_each_coordinate_uniformly(self):
        rng = np.random.default_rng(33)
        a = individual([0.0], [1.0])
        b = individual([1.0], [1.0])
        n = 30_000
        from_a = 0
        for _ in range(n):
            y, _ = recombine((a, b), "discrete", "intermediate", rng)
            from_a += int(y[0] == 0.0)
        assert abs(from_a / n - 0.5) < 0.02

    def test_discrete_coordinates_independent(self):
        rng = np.random.default_rng(34)
        a = individual([0.0, 0.0], [1.0, 1.0])
        b = individual([1.0, 1.0], [1.0, 1.0])
        mixed = 0
        n = 20_000
        for _ in range(n):
            y, _ = recombine((a, b), "discrete", "intermediate", rng)
            mixed += int(y[0] != y[1])
        assert abs(mixed / n - 0.5) < 0.02


class TestUpdateStrategies:
    def test_zero_tau_keeps_sigma(self, rng):
        s = np.array([0.5, 2.0])
        out = update_strategies(s, 0.0, 1e-8, 1e3, rng)
        assert np.array_equal(out, s)

    def test_clamped_at_maximum(self):
        rng = np.random.default_rng(35)
        s = np.array([1.0])
        out = update_strategies(s, 50.0, 1e-8, 1.0, rng)
        assert out[0] <= 1.0

    def test_positive_input_required(self, rng):
        with pytest.raises(UsageError):
            update_strategies(np.array([0.0]), 0.1, 1e-8, 1e3, rng)

    def test_median_ratio_near_one(self):
        # log-normal multiplier has median exp(0) = 1
        rng = np.random.default_rng(36)
        ratios = np.empty(20_000)
        s = np.array([1.0])
        for i in range(ratios.size):
            ratios[i] = update_strategies(s, 0.3, 1e-12, 1e12, rng)[0]
        assert abs(np.median(ratios) - 1.0) < 0.02

    def test_outputs_within_bounds_always(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            out = update_strategies(np.array([1.0, 1.0, 1.0]), 2.0, 1e-2, 1e2, rng)
            assert np.all(out >= 1e-2) and np.all(out <= 1e2)


class TestMutateY:
    def test_deviation_scale_matches_sigma(self):
        # one call with a wide vector exercises the per-coordinate draws
        from sgoal.core import ContinuousBox, Problem

        rng = np.random.default_rng(38)
        sigma = 0.01
        y = np.zeros(100_000)
        box = ContinuousBox(np.full(y.size, -5.12), np.full(y.size, 5.12))
        p = Problem(box, lambda v: 0.0)
        out = mutate_y(p, y, np.full(y.size, sigma), rng)
        deviations = out - y
        assert abs(float(np.std(deviations)) - sigma) < 0.05 * sigma
        assert abs(float(np.mean(deviations))) <= 3.0 * sigma / math.sqrt(y.size)

    def test_output_inside_box(self):
        bench = make_benchmark("sphere", 2)
        rng = np.random.default_rng(39)
        y = bench.problem.space.upper.copy()
        for _ in range(200):
            out = mutate_y(bench.problem, y, np.array([50.0, 50.0]), rng)
            assert bench.problem.space.contains(out)


class TestNextSubPop:
    def test_pipeline_collapse_with_tau_zero(self):
        bench = make_benchmark("sphere", 2)
        problem = bench.problem.copy()
        config = ESConfig(mu=1, rho=1, lam=1, tau=0.0, sigma_init=1e-6,
                          sigma_min=1e-6, sigma_max=1e-6)
        rng = np.random.default_rng(40)
        parent = individual([1.0, 1.0], [1e-6, 1e-6], problem.evaluate(np.array([1.0, 1.0])))
        child = next_sub_pop(problem, (parent,), config, ScheduleState(), rng)
        assert np.array_equal(child.s, parent.s)
        assert np.all(np.abs(child.y - parent.y) < 1e-5 * 6)

    def test_exactly_one_evaluation_per_call(self):
        bench = make_benchmark("sphere", 2)
        problem = bench.problem.copy()
        config = ESConfig(mu=1, rho=1, lam=1)
        rng = np.random.default_rng(41)
        pop = init_es_population(problem, config, rng)
        before = problem.evals
        next_sub_pop(problem, pop.members, config, ScheduleState(), rng)
        assert problem.evals == before + 1

    def test_variate_with_single_child_reduces_to_next_sub_pop(self):
        bench = make_benchmark("sphere", 2)
        problem = bench.problem.copy()
        config = ESConfig(mu=2, rho=1, lam=1)
        rng = np.random.default_rng(46)
        pop = init_es_population(problem, config, rng)
        children = variate_es(problem, pop.members, config, ScheduleState(), rng)
        assert len(children) == 1
        assert isinstance(children[0], ESIndividual)

    def test_variate_evaluates_lambda_times(self):
        bench = make_benchmark("sphere", 2)
        problem = bench.problem.copy()
        config = ESConfig(mu=2, rho=1, lam=5)
        rng = np.random.default_rng(42)
        pop = init_es_population(problem, config, rng)
        before = problem.evals
        children = variate_es(problem, pop.members, config, ScheduleState(), rng)
        assert len(children) == 5
        assert problem.evals == before + 5

    def test_children_exchangeable_across_slots(self):
        # per-slot marginal fitness distributions agree (same mean within noise)
        bench = make_benchmark("sphere", 2)
        problem = bench.problem.copy()
        config = ESConfig(mu=3, rho=2, lam=4)
        rng = np.random.default_rng(43)
        pop = init_es_population(problem, config, rng)
        slot_values = np.zeros((300, config.lam))
        for r in range(slot_values.shape[0]):
            children = variate_es(problem, pop.members, config, ScheduleState(), rng)
            slot_values[r] = [c.f for c in children]
        means = slot_values.mean(axis=0)
        pooled_sd = slot_values.std() / math.sqrt(slot_values.shape[0])
        assert np.all(np.abs(means - means.mean()) < 6.0 * pooled_sd)


class TestReplace:
    def test_plus_sort_and_take(self):
        problem = line_problem([5.0, 1.0, 3.0, 0.0, 4.0], f_star=0.0)
        parents = (0, 1)     # fitness 5, 1
        children = (2, 3, 4)  # fitness 3, 0, 4
        survivors = replace_es(problem, parents, children, "plus")
        assert [problem.evaluate(s) for s in survivors] == [0.0, 1.0]

    def test_comma_takes_best_children_only(self):
        problem = line_problem([9.0, 3.0, 4.0], f_star=3.0)
        survivors = replace_es(problem, (0,), (1, 2), "comma")
        assert [problem.evaluate(s) for s in survivors] == [3.0]

    def test_comma_requires_enough_children(self):
        problem = line_problem([1.0, 2.0])
        with pytest.raises(ConfigError):
            replace_es(problem, (0, 1), (0,), "comma")

    def test_deterministic(self):
        problem = line_problem([2.0, 2.0, 1.0, 1.0], f_star=1.0)
        args = ((0, 1), (2, 3), "plus")
        assert replace_es(problem, *args) == replace_es(problem, *args)

    def test_ties_favor_parents_in_plus(self):
        problem = line_problem([1.0, 1.0], f_star=1.0)
        survivors = replace_es(problem, (0,), (1,), "plus")
        assert survivors == (0,)

    @pytest.mark.parametrize("seed", range(10))
    def test_plus_elitism_never_loses_best(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=8).tolist()
        problem = line_problem(values)
        parents = tuple(range(3))
        children = tuple(rng.integers(0, 8, size=4).tolist())
        survivors = replace_es(problem, parents, children, "plus")
        best_parent = min(problem.evaluate(p) for p in parents)
        best_survivor = min(problem.evaluate(s) for s in survivors)
        assert best_survivor <= best_parent


class TestFiniteKernels:
    def test_variate_matrix_equals_join_of_children(self):
        # two i.i.d. children: each row is the Kronecker square of the mean parent row
        problem = line_problem([2.0, 0.0, 1.0], f_star=0.0)
        config = ESConfig(mu=2, rho=1, lam=2, mutation=SKEWED3)
        space = FiniteSpace(problem.space.points)
        rows = proposal_rows(3, SKEWED3)
        direct = np.stack([
            np.kron(mix, mix) for mix in (rows[list(pop)].mean(axis=0) for pop in space.tuples(2))
        ])
        joined = join([es_child(problem, config)] * 2).exact_matrix(space)
        assert np.allclose(direct, joined, atol=1e-12)

    def test_chain_equals_full_algebra_composition(self):
        # plus replacement as join(parents..., children...) then sort then project
        problem = line_problem([2.0, 0.0, 1.0], f_star=0.0)
        config = ESConfig(mu=1, rho=1, lam=1, mode="plus")
        space = FiniteSpace(problem.space.points)
        direct = brute_es_matrix(problem, 1, 1, "plus")
        algebra = compose(
            compose(projection(2, [0]), sort_kernel(problem, 2)),
            join([projection(1, [0]), es_child(problem, config)]),
        ).exact_matrix(space)
        assert np.allclose(direct, algebra, atol=1e-12)
        algo = make_es(problem, config)
        assert algo.chain_kernel is algo.next_pop
        assert np.array_equal(algo.next_pop.exact_matrix(space), algebra)

    def test_chain_mu2_lambda2_composition(self):
        problem = line_problem([1.0, 0.0], f_star=0.0)
        config = ESConfig(mu=2, rho=1, lam=2, mode="plus")
        space = FiniteSpace(problem.space.points)
        direct = brute_es_matrix(problem, 2, 2, "plus")
        parts = [projection(2, [0]), projection(2, [1])] + [es_child(problem, config)] * 2
        algebra = compose(
            compose(projection(4, [0, 1]), sort_kernel(problem, 4)),
            join(parts),
        ).exact_matrix(space)
        assert np.allclose(direct, algebra, atol=1e-12)
        assert np.array_equal(es_next_pop(problem, config).exact_matrix(space), algebra)

    def test_child_distribution_has_uniform_floor(self):
        problem = line_problem([3.0, 1.0, 2.0, 0.0], f_star=0.0)
        config = ESConfig(mu=2, rho=1, lam=1)
        m = es_child(problem, config).exact_matrix(FiniteSpace(problem.space.points))
        assert np.all(m >= 0.25 - 1e-12)  # uniform mutation over 4 states

    def test_child_tuple_cap(self):
        # 32^3 child tuples per population exceed the enumeration cap
        bench = make_benchmark("onemax", 5)
        algo = make_es(bench.problem.copy(), ESConfig(mu=1, rho=1, lam=3, mode="plus"))
        with pytest.raises(UsageError, match="exact-enumeration cap"):
            extract_chain(algo, eps=0.5)

    def test_finite_requires_rho_one(self):
        problem = line_problem([1.0, 2.0])
        with pytest.raises(ConfigError):
            es_next_pop(problem, ESConfig(mu=2, rho=2, lam=2))

    def test_plus_chain_premises_on_onemax(self):
        bench = make_benchmark("onemax", 2)
        algo = make_es(bench.problem.copy(), ESConfig(mu=1, rho=1, lam=1, mode="plus"))
        chain = extract_chain(algo, eps=0.5, t_max=1)
        delta, absorbing = check_premises(chain)
        assert absorbing
        assert delta == pytest.approx(0.25, abs=1e-12)  # uniform mass on the optimum


class TestRuns:
    @pytest.mark.parametrize("seed", range(10))
    def test_plus_mode_trace_monotone(self, seed):
        bench = make_benchmark("sphere", 2)
        algo = make_es(bench.problem.copy(), ESConfig(mu=3, rho=2, lam=6, mode="plus"))
        res = run_algorithm(algo, max_iters(40), seed=seed)
        assert np.all(np.diff(res.trace.d) <= 0.0)

    def test_comma_mode_shows_increases_on_trap(self):
        bench = make_benchmark("trap5", 5)
        increases = 0
        for seed in range(60):
            algo = make_es(bench.problem.copy(), ESConfig(mu=2, rho=1, lam=4, mode="comma"))
            res = run_algorithm(algo, max_iters(30), seed=seed)
            increases += int(np.any(np.diff(res.trace.d) > 0))
        assert increases > 0

    def test_population_size_constant(self):
        bench = make_benchmark("sphere", 2)
        algo = make_es(bench.problem.copy(), ESConfig(mu=4, rho=2, lam=9, mode="comma"))
        res = run_algorithm(algo, max_iters(10), seed=0)
        assert res.final_population.n == 4

    def test_sigma_stays_within_bounds_over_run(self):
        bench = make_benchmark("sphere", 2)
        problem = bench.problem.copy()
        config = ESConfig(mu=3, rho=2, lam=6, sigma_min=1e-3, sigma_max=2.0, tau=1.0)
        kernel = es_next_pop(problem, config)
        rng = np.random.default_rng(44)
        members = init_es_population(problem, config, rng).members
        state = ScheduleState()
        for _ in range(40):
            members = kernel.sample(members, state, rng)
            for m in members:
                assert np.all(m.s >= 1e-3) and np.all(m.s <= 2.0)

    def test_schedule_clock_advances_once_per_generation(self):
        # sampling a kernel is the step-t transition only; the run loop ticks
        rng = np.random.default_rng(45)
        bench = make_benchmark("sphere", 2)
        es = make_es(bench.problem.copy(), ESConfig(mu=2, rho=1, lam=3))
        sa = [
            make_sa(make_benchmark("onemax", 3).problem.copy(),
                    SAConfig(schedule=geometric(4.0, 0.5), elitist=elitist))
            for elitist in (True, False)
        ]
        for algo in [es] + sa:
            state = algo.schedule_factory()
            algo.next_pop.sample(algo.init(rng).members, state, rng)
            assert state.t == 0
        for algo in sa:
            trace = run_algorithm(algo, max_iters(6), seed=0).trace
            assert np.array_equal(trace.param, [4.0 * 0.5**t for t in range(7)])

import math

import numpy as np
import pytest

from conftest import (
    brute_es_matrix,
    concat,
    in_box,
    line_problem,
    population,
    proposal_rows,
    reference_es_children,
    transition_counts,
    tuple_index,
)

from sgoal.bench import make_benchmark, rastrigin, sphere
from sgoal.core import ContinuousBox, Problem, max_iters, run_algorithm
from sgoal.errors import ConfigError, UsageError
from sgoal.es import (
    TAU_MAX,
    ESConfig,
    es_next_pop,
    init_es_population,
    make_es,
    mean_sigma,
    mutate_y,
    next_sub_pop,
    recombine,
    replace_es,
    update_strategies,
)
from sgoal.kernels import Population, ScheduleState, compose, join, projection, sort_kernel
from sgoal.mutation import proposal_kernel
from sgoal.sa import SAConfig, geometric, linear, logarithmic, make_sa
from sgoal.selection import selection_kernel, uniform
from sgoal.stats import chisquare_gof
from sgoal.verify import check_premises, extract_chain


def box_population(y, s, f=None):
    """Box members ``[y; s]`` from (k, d) object and step-size rows, with
    fitness ``f`` (zero by default)."""
    y = np.asarray(y, float)
    f = np.zeros(len(y)) if f is None else f
    return Population(np.stack([y, np.asarray(s, float)], axis=1), f)


def rows(pop):
    """The (k, d) object and step-size rows of a box population."""
    stacked = np.stack(pop.members)
    return stacked[:, 0], stacked[:, 1]


def zero_objective(x):
    return np.zeros(len(x))


class TestTypes:
    def test_step_sizes_must_be_positive(self):
        # a member with a zero step size cannot breed: the strategy update refuses it
        problem = Problem(ContinuousBox(np.array([-1.0]), np.array([1.0])), zero_objective)
        parents = box_population([[0.0]], [[0.0]])
        with pytest.raises(UsageError):
            next_sub_pop(problem, parents, ESConfig(mu=1, rho=1, lam=1),
                         np.random.default_rng(0), 1)

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
            dict(mu=1, rho=1, lam=1, tau=math.nan),
            dict(mu=1, rho=1, lam=1, tau=math.inf),
            dict(mu=1, rho=1, lam=1, tau=1e308),
            dict(mu=1, rho=1, lam=1, tau=math.nextafter(TAU_MAX, math.inf)),
            dict(mu=1, rho=1, lam=1, sigma_init=math.nan),
            dict(mu=1, rho=1, lam=1, sigma_init=-1.0),
            dict(mu=1, rho=1, lam=1, sigma_init=0.0),
            dict(mu=1, rho=1, lam=1, sigma_min=math.nan),
            dict(mu=1, rho=1, lam=1, sigma_init=5000.0),
            dict(mu=1, rho=1, lam=1, sigma_init=1e-12),
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
        proposal_kernel(problem, config.mutation),
        selection_kernel(problem, uniform(), config.mu),
    )


class TestPickParents:
    def test_single_parent_identity(self):
        # mu = 1: the child row is the proposal row of the only parent
        problem = line_problem([2.0, 0.0, 1.0], f_star=0.0)
        config = ESConfig(mu=1, rho=1, lam=1, mutation=SKEWED3)
        m = es_child(problem, config).exact_matrix(problem.space)
        assert np.array_equal(m, proposal_rows(3, SKEWED3))

    def test_uniform_frequencies(self):
        # the sampled parent pick must be uniform for the mean-row matrix to hold
        problem = line_problem([2.0, 0.0, 1.0], f_star=0.0)
        kernel = es_child(problem, ESConfig(mu=2, rho=1, lam=1, mutation=SKEWED3))
        space = problem.space
        row = kernel.exact_matrix(space)[tuple_index(space, (0, 2))]
        assert np.allclose(row, [0.45, 0.1, 0.45], atol=1e-12)
        counts = transition_counts(kernel, space, population((0, 2), problem), 20_000,
                                   np.random.default_rng(31))
        assert chisquare_gof(counts, row, alpha=0.001).passed

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_parent_pick_stream(self, mu):
        # one rng.integers(mu) parent pick (no draw for mu = 1), then the proposal draw
        problem = line_problem([3.0, 1.0, 2.0, 0.0])
        parents = population((3, 1, 2)[:mu], problem)
        kernel = es_child(problem, ESConfig(mu=mu, rho=1, lam=1))
        rng, replay = np.random.default_rng(47), np.random.default_rng(47)
        for _ in range(50):
            child = kernel.sample(parents, ScheduleState(), rng)
            if mu > 1:
                replay.integers(mu)
            assert child.members == (int(replay.integers(4)),)

    def test_ordered_pairs_quarter_each(self):
        # rho = 2 draws with replacement: (a,a), (a,b), (b,a), (b,b) a quarter each,
        # seen through intermediate recombination as a / midpoint / b
        rng = np.random.default_rng(32)
        box = ContinuousBox(np.array([-5.0]), np.array([5.0]))
        problem = Problem(box, zero_objective)
        config = ESConfig(mu=2, rho=2, lam=1, tau=0.0, recomb_y="intermediate",
                          sigma_init=1e-9, sigma_min=1e-9, sigma_max=1e-9)
        parents = box_population([[0.0], [1.0]], [[1e-9], [1e-9]])
        n = 20_000
        y, _ = rows(next_sub_pop(problem, parents, config, rng, n))
        counts = np.bincount(np.rint(y[:, 0] * 2.0).astype(int), minlength=3)
        assert np.all(np.abs(counts / n - [0.25, 0.5, 0.25]) < 0.02)

    def test_rho_cannot_exceed_population(self):
        with pytest.raises(ConfigError):
            ESConfig(mu=1, rho=2, lam=1)


class TestRecombine:
    # parents arrive as (k, rho, d) rows: k children, rho parents each
    def test_single_parent_is_identity(self, rng):
        ys = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
        ss = np.full(ys.shape, 0.5)
        y, s = recombine(ys, ss, "discrete", "intermediate", rng)
        assert np.array_equal(y, ys[:, 0])
        assert np.array_equal(s, ss[:, 0])

    def test_intermediate_mean(self, rng):
        ys = np.array([[[0.0, 0.0], [2.0, 4.0]]])
        ss = np.array([[[1.0, 1.0], [3.0, 1.0]]])
        y, s = recombine(ys, ss, "intermediate", "intermediate", rng)
        assert np.array_equal(y, [[1.0, 2.0]])
        assert np.array_equal(s, [[2.0, 1.0]])

    def test_discrete_copies_each_coordinate_uniformly(self):
        rng = np.random.default_rng(33)
        n = 30_000
        ys = np.broadcast_to([[0.0], [1.0]], (n, 2, 1))
        y, _ = recombine(ys, np.ones(ys.shape), "discrete", "intermediate", rng)
        assert abs(np.mean(y[:, 0] == 0.0) - 0.5) < 0.02

    def test_discrete_coordinates_independent(self):
        rng = np.random.default_rng(34)
        n = 20_000
        ys = np.broadcast_to([[0.0, 0.0], [1.0, 1.0]], (n, 2, 2))
        y, _ = recombine(ys, np.ones(ys.shape), "discrete", "intermediate", rng)
        assert abs(np.mean(y[:, 0] != y[:, 1]) - 0.5) < 0.02


class TestUpdateStrategies:
    def test_zero_tau_keeps_sigma(self, rng):
        s = np.array([[0.5, 2.0], [1.0, 3.0]])
        out = update_strategies(s, 0.0, 1e-8, 1e3, rng)
        assert np.array_equal(out, s)

    def test_clamped_at_maximum(self):
        rng = np.random.default_rng(35)
        out = update_strategies(np.ones((20_000, 1)), 50.0, 1e-8, 1.0, rng)
        assert np.all(out <= 1.0)

    @pytest.mark.filterwarnings("error")
    def test_huge_tau_clips_to_the_bounds_silently(self):
        # exp overflows to inf (clipped to sigma_max) or underflows to 0
        # (clipped to sigma_min), without numpy's overflow warning
        tau = ESConfig(mu=1, rho=1, lam=1, tau=TAU_MAX).tau_for(4)
        s = np.full((50, 4), 2.0)
        out = update_strategies(s, tau, 1e-3, 10.0, np.random.default_rng(39))
        draws = np.random.default_rng(39)
        g = draws.standard_normal((50, 1))
        local = draws.standard_normal((50, 4))
        want = np.where(tau * g + tau * local > 0, 10.0, 1e-3)
        assert np.array_equal(out, want)
        assert 0 < (out == 10.0).sum() < out.size
        # the limit's margin: finite for draws far beyond any numpy makes
        assert math.isfinite(TAU_MAX * 8e7 + TAU_MAX * 8e7)

    def test_positive_input_required(self, rng):
        for bad in (0.0, math.nan):
            with pytest.raises(UsageError):
                update_strategies(np.array([[1.0], [bad]]), 0.1, 1e-8, 1e3, rng)

    def test_median_ratio_near_one(self):
        # log-normal multiplier has median exp(0) = 1
        rng = np.random.default_rng(36)
        ratios = update_strategies(np.ones((20_000, 1)), 0.3, 1e-12, 1e12, rng)[:, 0]
        assert abs(np.median(ratios) - 1.0) < 0.02

    def test_outputs_within_bounds_always(self):
        rng = np.random.default_rng(37)
        out = update_strategies(np.ones((200, 3)), 2.0, 1e-2, 1e2, rng)
        assert np.all(out >= 1e-2) and np.all(out <= 1e2)

    def test_global_draw_shared_within_a_row(self):
        # log s' = log s + tau * (g + z_j): one g per row, so two coordinates of
        # a row correlate at var(g) / (var(g) + var(z)) = 1/2, across rows at 0
        rng = np.random.default_rng(48)
        logs = np.log(update_strategies(np.ones((20_000, 2)), 0.3, 1e-12, 1e12, rng))
        within = np.corrcoef(logs[:, 0], logs[:, 1])[0, 1]
        across = np.corrcoef(logs[:-1, 0], logs[1:, 0])[0, 1]
        assert abs(within - 0.5) < 0.03
        assert abs(across) < 0.03


class TestMutateY:
    def test_deviation_scale_matches_sigma(self):
        rng = np.random.default_rng(38)
        sigma = 0.01
        y = np.zeros((20_000, 5))
        box = ContinuousBox(np.full(5, -5.12), np.full(5, 5.12))
        p = Problem(box, zero_objective)
        out = mutate_y(p, y, np.full(y.shape, sigma), rng)
        deviations = out - y
        assert abs(float(np.std(deviations)) - sigma) < 0.05 * sigma
        assert abs(float(np.mean(deviations))) <= 3.0 * sigma / math.sqrt(y.size)

    def test_output_inside_box(self):
        bench = make_benchmark("sphere", 2)
        rng = np.random.default_rng(39)
        y = np.tile(bench.problem.space.upper, (200, 1))
        out = mutate_y(bench.problem, y, np.full(y.shape, 50.0), rng)
        assert all(in_box(bench.problem.space, row) for row in out)


class TestNextSubPop:
    def test_pipeline_collapse_with_tau_zero(self):
        bench = make_benchmark("sphere", 2)
        problem = bench.problem
        config = ESConfig(mu=1, rho=1, lam=1, tau=0.0, sigma_init=1e-6,
                          sigma_min=1e-6, sigma_max=1e-6)
        rng = np.random.default_rng(40)
        parent = box_population([[1.0, 1.0]], [[1e-6, 1e-6]], [2.0])
        y, s = rows(next_sub_pop(problem, parent, config, rng, 20_000))
        assert np.all(s == 1e-6)
        assert np.all(np.abs(y - 1.0) < 1e-5 * 6)

    def test_exactly_one_evaluation_per_call(self):
        # k children cost k evaluations and one objective call
        shapes = []

        def objective(x):
            shapes.append(np.shape(x))
            return sphere(x)

        space = make_benchmark("sphere", 2).problem.space
        problem = Problem(space, objective, f_star=0.0)
        config = ESConfig(mu=1, rho=1, lam=1)
        rng = np.random.default_rng(41)
        pop = init_es_population(problem, config, rng)
        before = problem.evals
        children = next_sub_pop(problem, pop, config, rng, 7)
        assert problem.evals == before + 7
        assert shapes == [(1, 2), (7, 2)]
        assert np.array_equal(children.fitness, sphere(rows(children)[0]))

    def test_variate_with_single_child_reduces_to_next_sub_pop(self):
        # lambda = 1, comma: the one survivor is the next_sub_pop child
        bench = make_benchmark("sphere", 2)
        problem = bench.problem
        config = ESConfig(mu=1, rho=1, lam=1, mode="comma")
        pop = init_es_population(problem, config, np.random.default_rng(0))
        rng, replay = np.random.default_rng(46), np.random.default_rng(46)
        out = es_next_pop(problem, config).sample(pop, ScheduleState(), rng)
        child = next_sub_pop(problem, pop, config, replay, 1)
        (survivor,) = out.members
        assert survivor.shape == (2, 2)  # [y; s]
        assert np.array_equal(survivor, child.members[0])
        assert out.fitness[0] == child.fitness[0]

    def test_variate_evaluates_lambda_times(self):
        bench = make_benchmark("sphere", 2)
        problem = bench.problem
        config = ESConfig(mu=2, rho=1, lam=5)
        rng = np.random.default_rng(42)
        pop = init_es_population(problem, config, rng)
        before = problem.evals
        out = es_next_pop(problem, config).sample(pop, ScheduleState(), rng)
        assert out.n == 2
        assert problem.evals == before + 5

    def test_children_exchangeable_across_slots(self):
        # per-slot marginal fitness distributions agree (same mean within noise)
        bench = make_benchmark("sphere", 2)
        problem = bench.problem
        config = ESConfig(mu=3, rho=2, lam=4)
        rng = np.random.default_rng(43)
        pop = init_es_population(problem, config, rng)
        children = next_sub_pop(problem, pop, config, rng, 5000 * config.lam)
        slot_values = children.fitness.reshape(-1, config.lam)
        means = slot_values.mean(axis=0)
        pooled_sd = slot_values.std() / math.sqrt(slot_values.shape[0])
        assert np.all(np.abs(means - means.mean()) < 6.0 * pooled_sd)

    @pytest.mark.parametrize("recomb_y", ["discrete", "intermediate"])
    def test_children_match_per_child_reference(self, recomb_y):
        # one coordinate of the batched children against children drawn one at a time
        from scipy.stats import ks_2samp

        box = ContinuousBox(np.full(3, -2.5), np.full(3, 2.5))
        problem = Problem(box, sphere, f_star=0.0)
        config = ESConfig(mu=3, rho=2, lam=1, recomb_y=recomb_y)
        parents = box_population(
            [[-1.0, 0.5, 2.0], [0.3, -2.0, 1.0], [1.5, 1.0, -0.5]],
            [[0.2, 0.2, 0.2], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]],
        )
        n = 4000
        y, s = rows(next_sub_pop(problem, parents, config, np.random.default_rng(49), n))
        ref_y, ref_s = reference_es_children(
            *rows(parents), config, box, n, np.random.default_rng(50)
        )
        assert ks_2samp(y[:, 0], ref_y[:, 0]).pvalue > 0.001
        assert ks_2samp(s[:, 0], ref_s[:, 0]).pvalue > 0.001


def survivors(problem, pool, mu):
    """The survivor kernel's one draw from the pool population ``pool``."""
    kernel = replace_es(problem, pool.n, mu)
    return kernel.sample(pool, ScheduleState(), np.random.default_rng(0))


class TestReplace:
    def test_plus_sort_and_take(self):
        problem = line_problem([5.0, 1.0, 3.0, 0.0, 4.0], f_star=0.0)
        parents = population((0, 1), problem)      # fitness 5, 1
        children = population((2, 3, 4), problem)  # fitness 3, 0, 4
        kept = survivors(problem, concat(parents, children), 2)
        assert kept.members == (3, 1) and kept.fitness.tolist() == [0.0, 1.0]

    def test_comma_takes_best_children_only(self):
        problem = line_problem([9.0, 3.0, 4.0], f_star=3.0)
        kept = survivors(problem, population((1, 2), problem), 1)
        assert kept.members == (1,) and kept.fitness.tolist() == [3.0]

    def test_comma_requires_enough_children(self):
        # the survivors cannot outnumber the pool; ESConfig refuses lambda < mu
        problem = line_problem([1.0, 2.0])
        with pytest.raises(ConfigError):
            replace_es(problem, 1, 2)
        with pytest.raises(ConfigError):
            ESConfig(mu=2, rho=1, lam=1, mode="comma")

    def test_deterministic(self):
        problem = line_problem([2.0, 2.0, 1.0, 1.0], f_star=1.0)
        pool = population((0, 1, 2, 3), problem)
        assert survivors(problem, pool, 2).members == survivors(problem, pool, 2).members

    def test_ties_favor_parents_in_plus(self):
        # the generation pools the parent first: a tied child never displaces it
        problem = line_problem([1.0, 1.0], f_star=1.0)
        kernel = es_next_pop(problem, ESConfig(mu=1, rho=1, lam=1, mode="plus"))
        assert np.array_equal(kernel.exact_matrix(problem.space), np.eye(2))
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = kernel.sample(population((0,), problem), ScheduleState(), rng)
            assert out.members == (0,)

    @pytest.mark.parametrize("seed", range(10))
    def test_plus_elitism_never_loses_best(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=8).tolist()
        problem = line_problem(values)
        parents = population(range(3), problem)
        kernel = es_next_pop(problem, ESConfig(mu=3, rho=1, lam=4, mode="plus"))
        out = kernel.sample(parents, ScheduleState(), rng)
        assert out.fitness.min() <= parents.fitness.min()

    def test_batch_ties_favor_parents_in_plus(self):
        problem = make_benchmark("sphere", 1).problem
        parents = box_population([[1.0], [2.0]], [[1.0], [1.0]], [1.0, 4.0])
        children = box_population([[-1.0], [0.5]], [[2.0], [2.0]], [1.0, 0.25])
        plus = survivors(problem, concat(parents, children), 2)
        assert np.array_equal(plus.fitness, [0.25, 1.0])
        assert np.array_equal(rows(plus)[0], [[0.5], [1.0]])
        comma = survivors(problem, children, 2)
        assert np.array_equal(comma.fitness, [0.25, 1.0])
        assert np.array_equal(rows(comma)[0], [[0.5], [-1.0]])

    @pytest.mark.parametrize("mode", ["plus", "comma"])
    @pytest.mark.parametrize("seed", range(5))
    def test_batch_survivors_equal_tuple_oracle(self, seed, mode):
        # box members carry their pool index in y; tied fitness values exercise
        # stability against Python's stable sorted over the same indices
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 3, size=9).astype(float)
        problem = make_benchmark("sphere", 1).problem
        pop = box_population(np.arange(9.0)[:, None], np.ones((9, 1)), values)
        pool = range(9) if mode == "plus" else range(3, 9)
        kept = survivors(problem, pop.take(list(pool)), 3)
        oracle = sorted(pool, key=lambda i: values[i])[:3]
        assert rows(kept)[0][:, 0].astype(int).tolist() == oracle


class TestFiniteKernels:
    def test_variate_matrix_equals_join_of_children(self):
        # two i.i.d. children: each row is the Kronecker square of the mean parent row
        problem = line_problem([2.0, 0.0, 1.0], f_star=0.0)
        config = ESConfig(mu=2, rho=1, lam=2, mutation=SKEWED3)
        space = problem.space
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
        space = problem.space
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
        space = problem.space
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
        m = es_child(problem, config).exact_matrix(problem.space)
        assert np.all(m >= 0.25 - 1e-12)  # uniform mutation over 4 states

    def test_child_tuple_cap(self):
        # 32^3 child tuples per population exceed the enumeration cap
        bench = make_benchmark("onemax", 5)
        algo = make_es(bench.problem, ESConfig(mu=1, rho=1, lam=3, mode="plus"))
        with pytest.raises(UsageError, match="exact-enumeration cap"):
            extract_chain(algo, eps=0.5)

    def test_finite_requires_rho_one(self):
        problem = line_problem([1.0, 2.0])
        with pytest.raises(ConfigError):
            es_next_pop(problem, ESConfig(mu=2, rho=2, lam=2))

    def test_plus_chain_premises_on_onemax(self):
        bench = make_benchmark("onemax", 2)
        algo = make_es(bench.problem, ESConfig(mu=1, rho=1, lam=1, mode="plus"))
        chain = extract_chain(algo, eps=0.5, t_max=1)
        delta, absorbing = check_premises(chain)
        assert absorbing
        assert delta == pytest.approx(0.25, abs=1e-12)  # uniform mass on the optimum


def floor_sphere(x):
    """A box objective with many tied values, so survivor order shows."""
    return np.floor(sphere(x))


class TestBoxGeneration:
    @pytest.mark.parametrize("recomb", [("discrete", "intermediate"), ("intermediate", "discrete")])
    @pytest.mark.parametrize("rho", [1, 2])
    @pytest.mark.parametrize("mode", ["plus", "comma"])
    def test_generation_replays_bit_for_bit(self, mode, rho, recomb):
        # one sample of the generation kernel is next_sub_pop, then a stable
        # best-first argsort of parents + children (plus) or children (comma)
        problem = Problem(ContinuousBox(np.full(6, -2.0), np.full(6, 2.0)), floor_sphere)
        config = ESConfig(mu=5, rho=rho, lam=30, mode=mode, recomb_y=recomb[0],
                          recomb_s=recomb[1], tau=0.5)
        kernel = es_next_pop(problem, config)
        pop = init_es_population(problem, config, np.random.default_rng(3))
        rng, replay = np.random.default_rng(51), np.random.default_rng(51)
        for _ in range(3):
            out = kernel.sample(pop, ScheduleState(), rng)
            children = next_sub_pop(problem, pop, config, replay, config.lam)
            pool = concat(pop, children) if mode == "plus" else children
            keep = np.argsort(pool.fitness, kind="stable")[: config.mu]
            expected = np.stack(pool.members)[keep]
            assert np.stack(out.members).tobytes() == expected.tobytes()
            assert out.fitness.tobytes() == pool.fitness[keep].tobytes()
            assert rng.bit_generator.state == replay.bit_generator.state
            # the mean step size of the per-individual rows, as a contiguous list
            era = np.mean([row for row in np.ascontiguousarray(expected[:, 1])])
            assert mean_sigma(out) == float(era)
            pop = out

    def test_mean_sigma_reads_the_member_rows_in_order(self):
        # past numpy's 8192-element reduction buffer a strided (k, d) view of the
        # step sizes sums in another order than the list of member rows does
        problem = Problem(ContinuousBox(np.full(100, -2.0), np.full(100, 2.0)), sphere)
        config = ESConfig(mu=2, rho=2, lam=120, tau=0.5)
        rng = np.random.default_rng(52)
        parents = init_es_population(problem, config, rng)
        for _ in range(10):
            children = next_sub_pop(problem, parents, config, rng, config.lam)
            s = np.ascontiguousarray(rows(children)[1])
            assert mean_sigma(children) == float(np.mean([row for row in s]))


class TestTracerContract:
    def test_es_layers_are_looked_up_per_call(self, monkeypatch):
        # the benchmark's tracer wraps these module globals: a kernel that bound
        # them when it was built would leave their per-layer metrics at zero
        import sgoal.es

        algo = make_es(make_benchmark("sphere", 3).problem,
                       ESConfig(mu=3, rho=2, lam=6, mode="comma"))
        calls = dict.fromkeys(["next_sub_pop", "recombine", "update_strategies", "mutate_y"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sgoal.es, name, counted(name, getattr(sgoal.es, name)))
        run_algorithm(algo, max_iters(5), seed=0)
        assert calls == dict.fromkeys(calls, 5)


class TestRuns:
    @pytest.mark.parametrize("seed", range(10))
    def test_plus_mode_trace_monotone(self, seed):
        bench = make_benchmark("sphere", 2)
        algo = make_es(bench.problem, ESConfig(mu=3, rho=2, lam=6, mode="plus"))
        res = run_algorithm(algo, max_iters(40), seed=seed)
        assert np.all(np.diff(res.trace.d) <= 0.0)

    def test_comma_mode_shows_increases_on_trap(self):
        bench = make_benchmark("trap5", 5)
        increases = 0
        for seed in range(60):
            algo = make_es(bench.problem, ESConfig(mu=2, rho=1, lam=4, mode="comma"))
            res = run_algorithm(algo, max_iters(30), seed=seed)
            increases += int(np.any(np.diff(res.trace.d) > 0))
        assert increases > 0

    def test_population_size_constant(self):
        bench = make_benchmark("sphere", 2)
        algo = make_es(bench.problem, ESConfig(mu=4, rho=2, lam=9, mode="comma"))
        res = run_algorithm(algo, max_iters(10), seed=0)
        assert res.final_population.n == 4

    def test_sigma_stays_within_bounds_over_run(self):
        bench = make_benchmark("sphere", 2)
        problem = bench.problem
        config = ESConfig(mu=3, rho=2, lam=6, sigma_min=1e-3, sigma_max=2.0, tau=1.0)
        kernel = es_next_pop(problem, config)
        rng = np.random.default_rng(44)
        pop = init_es_population(problem, config, rng)
        state = ScheduleState()
        for _ in range(40):
            pop = kernel.sample(pop, state, rng)
            for m in pop.members:
                assert np.all(m[1] >= 1e-3) and np.all(m[1] <= 2.0)

    def test_schedule_clock_advances_once_per_generation(self):
        # sampling a kernel is the step-t transition only; the run loop hands
        # step t ScheduleState(t), so the trace's T_or_sigma column is
        # temperature(t), exactly
        rng = np.random.default_rng(45)
        problems = {"sphere": 2, "onemax": 3}
        es = [make_es(make_benchmark(name, dim).problem, ESConfig(mu=2, rho=1, lam=3))
              for name, dim in problems.items()]
        sa = [
            (make_sa(make_benchmark(name, dim).problem,
                     SAConfig(schedule=schedule, elitist=elitist)), schedule)
            for name, dim in problems.items()
            for schedule in (geometric(4.0, 0.5), linear(4.0, 0.7, floor=0.5), logarithmic(2.0))
            for elitist in (True, False)
        ]
        for algo in es + [algo for algo, _ in sa]:
            state = ScheduleState()
            algo.next_pop.sample(algo.init(rng), state, rng)
            assert state.t == 0
        for algo, schedule in sa:
            trace = run_algorithm(algo, max_iters(6), seed=0).trace
            assert np.array_equal(trace.param, [schedule.temperature(t) for t in range(7)])

    def test_box_run_evaluation_contract(self):
        # one objective call per generation, no memo, f_best over every child
        base = make_benchmark("rastrigin", 10).problem
        returned = []

        def objective(x):
            values = rastrigin(x)
            returned.append(np.atleast_1d(values))
            return values

        problem = Problem(base.space, objective, base.relation, base.f_star)
        config = ESConfig(mu=15, rho=2, lam=100, mode="comma")
        res = run_algorithm(make_es(problem, config), max_iters(50), seed=7)
        assert res.trace.evals[-1] == 15 + 50 * 100
        assert problem._cache == {}
        assert len(returned) == 51
        assert res.trace.f_best[-1] == np.concatenate(returned).min()

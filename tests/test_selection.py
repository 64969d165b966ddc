import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_selection_probs,
    brute_tournament_probs,
    line_problem,
    population,
    transition_counts,
    tuple_index,
)

from sgoal.core import Relation
from sgoal.errors import ConfigError, UsageError
from sgoal.kernels import ScheduleState, compose, identity, join
from sgoal.selection import (
    SelectionScheme,
    exact_probs,
    proportional,
    ranking,
    ranking_rates,
    roulette,
    select_many,
    selection_kernel,
    tournament,
    uniform,
)
from sgoal.stats import chisquare_gof

MIN, MAX = Relation.MINIMIZE, Relation.MAXIMIZE


def random_fitness(rng, lam=None, ties=True):
    lam = int(rng.integers(1, 7)) if lam is None else lam
    if ties and rng.random() < 0.5:
        return rng.choice([1.0, 2.0, 3.0], size=lam)  # integer pool forces ties
    return rng.normal(size=lam)


class TestExactProbs:
    def test_uniform_quarters(self):
        assert np.allclose(exact_probs(uniform(), [5, 1, 9, 2], MIN), 0.25, atol=1e-12)

    def test_roulette_raw_rates(self):
        p = exact_probs(roulette(), np.array([1.0, 3.0]), MAX)
        assert np.allclose(p, [0.25, 0.75], atol=1e-12)

    def test_ranking_example(self):
        p = exact_probs(ranking(), np.array([1.0, 2.0, 3.0]), MIN)
        assert np.allclose(p, [0.5, 1 / 3, 1 / 6], atol=1e-12)

    def test_tournament_two_of_two(self):
        p = exact_probs(tournament(2), np.array([1.0, 2.0]), MIN)
        assert np.allclose(p, [7 / 12, 5 / 12], atol=1e-12)

    def test_tournament_m1_is_uniform(self):
        f = np.array([4.0, 1.0, 3.0])
        p = exact_probs(tournament(1), f, MIN)
        assert np.allclose(p, 1 / 3, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_tournament_matches_brute_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        f = random_fitness(rng)
        m = int(rng.integers(1, 4))
        relation = MIN if rng.random() < 0.5 else MAX
        ours = exact_probs(tournament(m), f, relation)
        oracle = brute_tournament_probs(f, relation, m)
        assert np.allclose(ours, oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(100 + seed)
        f = random_fitness(rng)
        schemes = [uniform(), proportional(), ranking(), tournament(2), tournament(3)]
        for scheme in schemes:
            assert abs(exact_probs(scheme, f, MIN).sum() - 1.0) <= 1e-12
        assert abs(exact_probs(roulette(), np.abs(f) + 0.1, MAX).sum() - 1.0) <= 1e-12


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(20))
    def test_better_fitness_strictly_larger_probability(self, seed):
        rng = np.random.default_rng(200 + seed)
        f = random_fitness(rng, lam=int(rng.integers(2, 7)))
        relation = MIN if rng.random() < 0.5 else MAX
        cases = [(proportional(), relation), (ranking(), relation)]
        if np.all(f >= 0) and f.sum() > 0:
            cases.append((roulette(), MAX))
        for scheme, rel in cases:
            p = exact_probs(scheme, f, rel)
            for i in range(f.size):
                for j in range(f.size):
                    if rel.better(f[j], f[i]):
                        assert p[i] < p[j]
                    elif f[i] == f[j]:
                        assert p[i] == pytest.approx(p[j], abs=1e-12)

    def test_ranking_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_fitness(rng)
            g = np.exp(f) + 5.0  # strictly increasing transform
            assert np.allclose(
                exact_probs(ranking(), f, MIN), exact_probs(ranking(), g, MIN), atol=1e-12
            )

    def test_ranking_rates_definition(self):
        rates = ranking_rates(np.array([1.0, 2.0, 3.0]), MIN)
        assert np.array_equal(rates, [3.0, 2.0, 1.0])
        rates = ranking_rates(np.array([2.0, 1.0, 1.0]), MIN)
        assert np.array_equal(rates, [1.0, 2.0, 2.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 1.0, 2.5, np.inf])
            | st.floats(allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([MIN, MAX]),
    )
    def test_ranking_rates_equal_the_pairwise_count(self, values, relation):
        # oracle: compare every pair, with ties, infinities and signed zeros
        f = np.array(values, dtype=float)
        pairwise = 1.0 + relation.better(f[:, None], f[None, :]).sum(axis=1)
        assert ranking_rates(f, relation).tobytes() == pairwise.astype(float).tobytes()

    @pytest.mark.parametrize("relation", [MIN, MAX])
    def test_ranking_rates_memory_is_linear(self, relation):
        # a (lambda, lambda) comparison matrix over 10^4 values is 100 MB
        f = np.random.default_rng(7).choice(np.arange(500.0), size=10_000)
        tracemalloc.start()
        try:
            rates = ranking_rates(f, relation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert rates.min() == 1.0 and np.unique(rates).size == 500


class TestErrors:
    def test_negative_rate_rejected(self):
        with pytest.raises(UsageError):
            exact_probs(roulette(rate_fn=lambda v: v - 10.0), np.array([1.0, 2.0]), MAX)

    def test_zero_total_rate_rejected(self):
        with pytest.raises(UsageError):
            exact_probs(roulette(), np.array([0.0, 0.0]), MAX)

    def test_roulette_raw_requires_maximize(self):
        with pytest.raises(UsageError):
            exact_probs(roulette(), np.array([1.0, 2.0]), MIN)

    def test_tournament_size_validated(self):
        with pytest.raises(UsageError):
            tournament(0)

    @pytest.mark.parametrize("kind", ["uniform", "ranking", "tournament"])
    def test_rate_fn_refused_where_unread(self, kind):
        with pytest.raises(UsageError, match="rate_fn"):
            SelectionScheme(kind, rate_fn=lambda v: v)

    @pytest.mark.parametrize("kind", ["roulette", "proportional"])
    def test_rate_fn_taken_where_read(self, kind):
        scheme = SelectionScheme(kind, rate_fn=lambda v: v * v)
        assert exact_probs(scheme, np.array([1.0, 2.0]), MIN).tolist() == [0.2, 0.8]

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            SelectionScheme("lottery")

    def test_nan_fitness_rejected(self):
        with pytest.raises(UsageError):
            exact_probs(uniform(), np.array([1.0, float("nan")]), MIN)

    def test_non_finite_rate_rejected(self):
        with pytest.raises(UsageError, match="finite"):
            exact_probs(roulette(), np.array([1.0, float("inf")]), MAX)
        with pytest.raises(UsageError, match="finite"):
            exact_probs(proportional(rate_fn=lambda v: float("nan")), np.array([1.0, 2.0]), MIN)


class TestSampling:
    def test_caps_are_checked_before_any_work(self, monkeypatch, rng):
        # 3 classes, m = 3: C(5, 3) = 10 multisets; 10 tournaments of 3 compare
        # 10 * 3 * 3 = 90 entrant pairs; 90 uniform draws take one entry each
        f = np.array([1.0, 2.0, 3.0])
        for extra, fails in ((0, False), (-1, True)):
            monkeypatch.setattr("sgoal.selection.MULTISET_CAP", 10 + extra)
            monkeypatch.setattr("sgoal.selection.DRAW_CAP", 90 + extra)
            for call in (lambda: exact_probs(tournament(3), f, MIN),
                         lambda: select_many(tournament(3), f, MIN, 10, rng),
                         lambda: select_many(uniform(), f, MIN, 90, rng)):
                if fails:
                    with pytest.raises(UsageError, match="over the cap"):
                        call()
                else:
                    call()

    def test_tournament_enumeration_costs_per_class(self):
        # one class, m = 10**6 entrants: a single multiset, held as one class
        # count, not as a tuple of m entrants
        tracemalloc.start()
        try:
            probs = exact_probs(tournament(10**6), np.array([1.0, 1.0]), MIN)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.tolist() == [0.5, 0.5]
        assert peak < 2**20

    def test_singleton_always_zero(self, rng):
        problem = line_problem([3.0])
        for scheme in (uniform(), tournament(3)):
            kernel = selection_kernel(problem, scheme, 1)
            out = kernel.sample(population((0,), problem), ScheduleState(), rng)
            assert out.members == (0,) and out.fitness.tolist() == [3.0]
            assert np.all(select_many(scheme, np.array([3.0]), MIN, 10, rng) == 0)

    def test_select_one_uniform_frequencies(self):
        # one draw of the uniform kernel from the tuple (1, 0)
        problem = line_problem([1.0, 2.0])
        kernel = selection_kernel(problem, uniform(), 2)
        counts = transition_counts(kernel, problem.space, population((1, 0), problem), 10_000,
                                   np.random.default_rng(11))
        assert chisquare_gof(counts, [0.5, 0.5], alpha=0.001).passed

    def test_select_one_ranking_frequencies(self):
        problem = line_problem([1.0, 2.0, 3.0])
        kernel = selection_kernel(problem, ranking(), 3)
        counts = transition_counts(kernel, problem.space, population((0, 1, 2), problem),
                                   10_000, np.random.default_rng(12))
        assert chisquare_gof(counts, [0.5, 1 / 3, 1 / 6], alpha=0.001).passed

    @pytest.mark.parametrize(
        "scheme", [uniform(), proportional(), ranking(), tournament(2), tournament(3)]
    )
    def test_select_many_matches_exact_probs(self, scheme):
        rng = np.random.default_rng(13)
        f = np.array([1.0, 2.0, 2.0, 5.0])
        probs = exact_probs(scheme, f, MIN)
        draws = select_many(scheme, f, MIN, 100_000, rng)
        counts = np.bincount(draws, minlength=f.size)
        result = chisquare_gof(counts, probs, alpha=0.001)
        assert result.passed, f"{scheme.kind}: p={result.pvalue}"

    def test_select_many_tournament_mechanism_matches_scalar(self):
        # the kernel's one-draw path and a select_many batch follow one law
        f = [3.0, 1.0, 2.0]
        rng = np.random.default_rng(14)
        problem = line_problem(f)
        kernel = selection_kernel(problem, tournament(2), 3)
        start = population((0, 1, 2), problem)
        scalar_counts = transition_counts(kernel, problem.space, start, 10_000, rng)
        vector_counts = np.bincount(
            select_many(tournament(2), f, MIN, 20_000, rng), minlength=3
        )
        probs = exact_probs(tournament(2), f, MIN)
        assert chisquare_gof(scalar_counts, probs, alpha=0.001).passed
        assert chisquare_gof(vector_counts, probs, alpha=0.001).passed


SCHEMES = [uniform(), proportional(), ranking(), roulette(), tournament(1),
           tournament(2), tournament(3)]


@st.composite
def selection_instances(draw):
    """(problem, scheme, arity) on 2-5 points with tied fitness values;
    roulette maximizes positive values."""
    n = draw(st.integers(2, 5))
    scheme = draw(st.sampled_from(SCHEMES))
    if scheme.kind == "roulette":
        relation, pool = MAX, [0.5, 1.0, 2.5]
    else:
        relation, pool = draw(st.sampled_from([MIN, MAX])), [-1.0, 0.0, 2.5]
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return line_problem(values, relation=relation), scheme, draw(st.integers(1, 4))


class TestSelectionKernel:
    @settings(max_examples=60, deadline=None)
    @given(selection_instances())
    def test_rows_equal_brute_force(self, instance):
        # every row puts the definition's probabilities on the tuple's points
        problem, scheme, arity = instance
        space = problem.space
        f = space.fitness(problem)
        by_pattern = {}
        oracle = np.zeros((space.n_tuples(arity), len(space)))
        for r, members in enumerate(space.tuples(arity)):
            pattern = tuple(f[list(members)])
            if pattern not in by_pattern:
                by_pattern[pattern] = brute_selection_probs(scheme, pattern, problem.relation)
            np.add.at(oracle[r], list(members), by_pattern[pattern])
        kernel = selection_kernel(problem, scheme, arity)
        for built in (kernel, compose(identity(1), kernel)):
            assert np.max(np.abs(built.exact_matrix(space) - oracle)) <= 1e-12

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    @pytest.mark.parametrize("relation", [MIN, MAX])
    def test_uniform_rows_equal_the_per_pattern_probabilities(self, arity, relation):
        # uniform selection reads no fitness, so its rows skip the per-pattern
        # pass; they must still hold exact_probs' values bit for bit
        problem = line_problem([1.0, 0.0, 1.0, 2.5], relation=relation)
        space = problem.space
        idx = np.arange(space.n_tuples(arity))
        digits = space.digits(idx, arity)
        patterns = space.fitness(problem)[digits]
        want = np.stack([exact_probs(uniform(), f, relation) for f in patterns])
        cols, mass = selection_kernel(problem, uniform(), arity).matrix_fn(
            space, ScheduleState(), idx
        )
        assert np.array_equal(cols, digits) and np.array_equal(mass, want)

    @pytest.mark.parametrize(
        "scheme", SCHEMES, ids=lambda s: s.kind + (str(s.m) if s.kind == "tournament" else "")
    )
    def test_sampler_fits_own_row(self, scheme):
        problem = line_problem([2.0, 0.5, 1.0, 3.0], relation=MAX)
        space = problem.space
        kernel = selection_kernel(problem, scheme, 3)
        m = kernel.exact_matrix(space)
        rng = np.random.default_rng(18)
        for members in ((0, 1, 2), (3, 3, 1), (2, 0, 2)):
            counts = transition_counts(kernel, space, population(members, problem), 3_000, rng)
            result = chisquare_gof(counts, m[tuple_index(space, members)], alpha=0.001)
            assert result.passed, f"{scheme.kind} {members}: p={result.pvalue}"


class TestSelectGroup:
    def test_single_draw_reduces_to_select_one(self):
        problem = line_problem([1.0, 2.0])
        kernel = selection_kernel(problem, uniform(), 2)
        assert join([kernel]) is kernel
        out = kernel.sample(population((0, 1), problem), ScheduleState(),
                            np.random.default_rng(15))
        assert out.n == 1 and out.members[0] in (0, 1)

    def test_group_size_validated(self):
        with pytest.raises(ConfigError):
            join([])
        with pytest.raises(ConfigError):
            selection_kernel(line_problem([1.0]), uniform(), 0)

    def test_uniform_pairs_quarter_each(self):
        problem = line_problem([1.0, 2.0])
        pair = join([selection_kernel(problem, uniform(), 2)] * 2)
        space = problem.space
        row = pair.exact_matrix(space)[tuple_index(space, (0, 1))]
        assert np.array_equal(row, [0.25] * 4)
        counts = transition_counts(pair, space, population((0, 1), problem), 8_000,
                                   np.random.default_rng(16))
        assert chisquare_gof(counts, row, alpha=0.001).passed

    def test_pair_frequencies_factorize(self):
        # two selections from one tuple are independent: the join row is the
        # outer product of the two selection rows, exactly
        problem = line_problem([1.0, 2.0, 3.0])
        space = problem.space
        sel = selection_kernel(problem, ranking(), 3)
        pair = join([sel, sel])
        single = sel.exact_matrix(space)
        joint = pair.exact_matrix(space)
        outer = np.einsum("ri,rj->rij", single, single).reshape(joint.shape)
        assert np.max(np.abs(joint - outer)) <= 1e-12
        counts = transition_counts(pair, space, population((0, 1, 2), problem), 20_000,
                                   np.random.default_rng(17))
        assert chisquare_gof(counts, joint[tuple_index(space, (0, 1, 2))], alpha=0.001).passed

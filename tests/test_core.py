import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import EpsClass, classify_eps, fold_into, in_box, line_problem, tuple_index

from sgoal.core import (
    ContinuousBox,
    Population,
    Problem,
    Relation,
    best,
    closeness,
    max_iters,
    run_sgoal,
)
from sgoal.errors import ConfigError, UsageError
from sgoal.kernels import FiniteSpace, Kernel, ScheduleState, identity, sort_kernel
from sgoal.verify import eps_inside


def pop_of(fitness):
    f = np.asarray(fitness, dtype=float)
    return Population(tuple(range(f.size)), f)


class TestBest:
    def test_unique_minimum(self):
        assert best(pop_of([3, 1, 2]), Relation.MINIMIZE) == 1

    def test_tie_goes_to_first_occurrence(self):
        assert best(pop_of([2, 1, 1]), Relation.MINIMIZE) == 1

    def test_singleton_maximize(self):
        assert best(pop_of([5]), Relation.MAXIMIZE) == 0

    def test_empty_population_rejected(self):
        with pytest.raises(UsageError):
            Population((), np.array([]))

    @pytest.mark.parametrize("seed", range(5))
    def test_argmin_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=8)
        f[rng.integers(8)] = f.min()  # occasionally force a tie
        pop = pop_of(f)
        transformed = pop_of(np.exp(2.0 * f) + 1.0)
        assert best(pop, Relation.MINIMIZE) == best(transformed, Relation.MINIMIZE)


class TestArgbest:
    @pytest.mark.parametrize("relation", [Relation.MINIMIZE, Relation.MAXIMIZE])
    @pytest.mark.parametrize("as_array", [True, False], ids=["array", "list"])
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0]), min_size=1, max_size=6))
    def test_ties_go_to_the_earliest_index(self, relation, as_array, values):
        # -0.0 and 0.0 compare equal, so they tie as well
        earliest = min(
            i for i, v in enumerate(values) if not any(relation.better(w, v) for w in values)
        )
        got = relation.argbest(np.array(values) if as_array else values)
        assert type(got) is int
        assert got == earliest


def insertion_order(values, relation):
    """Stable best-first order by insertion: a value moves ahead only of
    values it is strictly better than, so ties keep their input order."""
    order = []
    for i, v in enumerate(values):
        j = len(order)
        while j > 0 and relation.better(v, values[order[j - 1]]):
            j -= 1
        order.insert(j, i)
    return order


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=2, max_size=4),
    st.lists(st.integers(0, 3), min_size=2, max_size=4),
    st.sampled_from([Relation.MINIMIZE, Relation.MAXIMIZE]),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_fitness_order_matches_independent_oracles(values, picks, relation, eps):
    # a tuple of arity 2-4 over a line problem whose points share fitness
    # values, and which may repeat a point: both give ties
    f_star = 0.0 if relation is Relation.MINIMIZE else 2.5
    problem = line_problem(values, relation=relation, f_star=f_star)
    space, arity = problem.space, len(picks)
    members = tuple(p % len(values) for p in picks)
    fitness = [values[m] for m in members]
    oracle = insertion_order(fitness, relation)

    pop = Population(members, np.array(fitness))
    kernel = sort_kernel(problem, arity)
    out = kernel.sample(pop, ScheduleState(), np.random.default_rng(0))
    assert out.members == tuple(members[i] for i in oracle)
    assert out.fitness.tolist() == [fitness[i] for i in oracle]
    row = kernel.exact_matrix(space)[tuple_index(space, members)]
    assert np.flatnonzero(row).tolist() == [tuple_index(space, out.members)]

    assert best(pop, relation) == oracle[0]
    f_best = fitness[oracle[0]]
    d = f_best - f_star if relation is Relation.MINIMIZE else f_star - f_best
    assert closeness(pop, problem) == d

    def explicit_d(f):
        return f - f_star if relation is Relation.MINIMIZE else f_star - f

    expected = [any(explicit_d(values[m]) < eps for m in t) for t in space.tuples(arity)]
    assert eps_inside(space, problem, eps, arity).tolist() == expected


class TestCloseness:
    def test_direct_subtraction(self):
        p = line_problem([0.5, 2.0], f_star=0.0)
        assert closeness(pop_of([0.5]), p) == 0.5

    def test_optimum_reached(self):
        p = line_problem([0.0, 1.0], f_star=0.0)
        assert closeness(pop_of([0.0]), p) == 0.0

    def test_sign_flipped_for_maximize(self):
        p = line_problem([7.0, 10.0], relation=Relation.MAXIMIZE, f_star=10.0)
        assert closeness(pop_of([7.0]), p) == 3.0

    def test_requires_known_optimum(self):
        p = line_problem([1.0, 2.0])
        with pytest.raises(UsageError):
            closeness(pop_of([1.0]), p)

    def test_nonnegative_on_random_populations(self):
        rng = np.random.default_rng(0)
        p = line_problem([0.0, 1.0], f_star=0.0)
        for _ in range(50):
            f = rng.uniform(0.0, 5.0, size=4)
            assert closeness(pop_of(f), p) >= 0.0


class TestClassifyEps:
    """The eps oracle that ``eps_inside`` is checked against."""

    @pytest.mark.parametrize(
        "d, expected",
        [(0.1, EpsClass.INSIDE), (0.5, EpsClass.BOUNDARY), (0.9, EpsClass.OUTSIDE)],
    )
    def test_examples(self, d, expected):
        p = line_problem([0.0, 1.0], f_star=0.0)
        assert classify_eps(pop_of([d]), p, 0.5) is expected

    def test_nonpositive_eps_rejected(self):
        p = line_problem([0.0], f_star=0.0)
        pop = Population((0,), np.array([0.3]))
        with pytest.raises(UsageError):
            classify_eps(pop, p, 0.0)

    def test_partition(self):
        p = line_problem([0.0, 1.0], f_star=0.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.5]))
            hits = [
                classify_eps(pop_of([d]), p, 0.5) is cls
                for cls in (EpsClass.INSIDE, EpsClass.BOUNDARY, EpsClass.OUTSIDE)
            ]
            assert sum(hits) == 1


class TestProblem:
    def test_declared_optimum_guard(self):
        p = Problem(FiniteSpace((0, 1)), lambda i: -1.0 if i else 0.0, f_star=0.0)
        p.evaluate(0)
        with pytest.raises(UsageError):
            p.evaluate(1)

    def test_evaluation_cached_and_counted(self):
        calls = []
        p = Problem(FiniteSpace((0, 1)), lambda i: calls.append(i) or float(i))
        for _ in range(3):
            p.evaluate(0)
        p.evaluate(1)
        assert p.evals == 2
        assert calls == [0, 1]

    def test_copy_resets_counters(self):
        p = line_problem([1.0, 2.0])
        p.evaluate(0)
        fresh = p.copy()
        assert fresh.evals == 0 and p.evals == 1

    def test_best_seen_tracks_all_evaluations(self):
        p = line_problem([3.0, 1.0, 2.0])
        for i in (0, 1, 2):
            p.evaluate(i)
        assert p.best_seen_point == 1
        assert p.best_seen_fitness == 1.0

    def test_nan_objective_rejected(self):
        p = Problem(FiniteSpace((0,)), lambda i: float("nan"))
        with pytest.raises(UsageError):
            p.evaluate(0)

    @pytest.mark.parametrize(
        "objective, f_star, message",
        [
            (lambda i: float("nan") if i == 2 else 0.0, None, "NaN at 2"),
            (lambda i: -1.0 if i == 1 else 0.0, 0.0, "beats declared optimum"),
        ],
    )
    def test_values_check_like_evaluate(self, objective, f_star, message):
        p = Problem(FiniteSpace((0, 1, 2)), objective, f_star=f_star)
        with pytest.raises(UsageError, match=message):
            p.values((0, 1, 2))
        with pytest.raises(UsageError, match=message):
            for i in (0, 1, 2):
                p.evaluate(i)

    def test_values_leave_memo_and_counters_alone(self):
        calls = []
        p = Problem(FiniteSpace((0, 1)), lambda i: calls.append(i) or float(i), f_star=0.0)
        assert p.values((0, 1)).tolist() == [0.0, 1.0]
        assert p.evals == 0 and p.best_seen_point is None
        p.evaluate(1)
        assert calls == [0, 1, 1]


    def test_batch_is_one_call_counted_without_memo(self):
        box = ContinuousBox(np.full(2, -1.0), np.full(2, 1.0))
        calls = []

        def objective(x):
            calls.append(x.shape)
            return np.sum(x * x, axis=-1)

        p = Problem(box, objective, f_star=0.0)
        first = np.array([[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]])
        assert p.evaluate_batch(first).tolist() == [0.5, 0.25, 0.25]
        assert calls == [(3, 2)] and p.evals == 3 and p._cache == {}
        assert np.array_equal(p.best_seen_point, first[1]) and p.best_seen_fitness == 0.25
        p.evaluate_batch(np.array([[-0.5, 0.0], [1.0, 0.0]]))  # a tie does not replace
        assert np.array_equal(p.best_seen_point, first[1]) and p.evals == 5
        p.evaluate_batch(np.array([[1.0, 0.0], [0.0, 0.25]]))
        assert np.array_equal(p.best_seen_point, [0.0, 0.25]) and p.best_seen_fitness == 0.0625

    @pytest.mark.parametrize(
        "objective, message",
        [
            (lambda x: np.full(len(x), np.nan), "NaN"),
            (lambda x: np.full(len(x), -1.0), "mis-declared"),
            (lambda x: 0.0, "shape"),
            (lambda x: np.zeros((len(x), 1)), "shape"),
        ],
    )
    def test_batch_checks(self, objective, message):
        box = ContinuousBox(np.full(2, -1.0), np.full(2, 1.0))
        p = Problem(box, objective, f_star=0.0)
        with pytest.raises(UsageError, match=message):
            p.evaluate_batch(np.zeros((4, 2)))
        assert p.evals == 0


class TestBox:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(UsageError):
            ContinuousBox(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_reflection_matches_folding_oracle(self, seed):
        rng = np.random.default_rng(seed)
        box = ContinuousBox(np.array([-1.0, 0.0]), np.array([2.0, 0.5]))
        for _ in range(200):
            x = rng.normal(scale=10.0, size=2)
            folded = box.reflect(x)
            assert in_box(box, folded)
            for j in range(2):
                oracle = fold_into(x[j], box.lower[j], box.upper[j])
                assert folded[j] == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        lower=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
        widths=st.lists(st.floats(1e-6, 1e3), min_size=4, max_size=4),
        rows=st.sampled_from([None, 1, 3]),
        data=st.data(),
    )
    def test_reflection_is_bitwise_the_per_call_formula(self, lower, widths, rows, data):
        # the box's precomputed constants are the same expressions the
        # per-call formula evaluates, so the result is the same bits
        lo = np.array(lower)
        hi = lo + np.array(widths[: lo.size])
        assume(np.all(lo < hi))
        box = ContinuousBox(lo, hi)
        shape = lo.shape if rows is None else (rows, lo.size)
        far = st.floats(-1e12, 1e12) | st.sampled_from([-0.0, 5e-324, 1e300, -1e300])
        x = data.draw(arrays(float, shape, elements=far))
        span = box.upper - box.lower
        want = box.lower + span - np.abs(np.mod(x - box.lower, 2.0 * span) - span)
        assert box.reflect(x).tobytes() == want.tobytes()


def const_kernel(n=1):
    return identity(n)


class TestRunSgoal:
    def test_immediate_stop_returns_best_of_initial(self):
        p = line_problem([3.0, 1.0, 2.0], f_star=1.0)
        init = lambda rng: Population.evaluated((0, 1, 2), p)
        res = run_sgoal(p, init, identity(3), lambda pop, t: True, seed=0)
        assert len(res.trace) == 1
        assert res.best_point == 1
        assert res.best_fitness == 1.0

    def test_identity_kernel_constant_trace(self):
        p = line_problem([3.0, 1.0], f_star=1.0)
        init = lambda rng: Population.evaluated((0,), p)
        res = run_sgoal(p, init, identity(1), max_iters(5), seed=0)
        assert len(res.trace) == 6
        assert np.all(res.trace.d == res.trace.d[0])

    def test_arity_mismatch_is_config_error(self):
        p = line_problem([3.0, 1.0], f_star=1.0)
        init = lambda rng: Population.evaluated((0, 1), p)
        with pytest.raises(ConfigError):
            run_sgoal(p, init, identity(1), max_iters(1), seed=0)

    def test_reproducible_traces(self):
        p = line_problem([4.0, 3.0, 2.0, 1.0], f_star=1.0)

        def one():
            prob = p.copy()
            init = lambda rng: Population.evaluated((0,), prob)
            kernel = Kernel(
                1, 1, lambda pop, state, rng: Population.evaluated((int(rng.integers(4)),), prob)
            )
            return run_sgoal(prob, init, kernel, max_iters(20), seed=42).trace

        a, b = one(), one()
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.evals, b.evals)

    def test_stopping_predicates(self):
        p = line_problem([2.0, 1.0], f_star=1.0)
        init = lambda rng: Population.evaluated((0,), p)

        by_evals = run_sgoal(p.copy(), lambda rng: Population.evaluated((0,), p), identity(1),
                             lambda pop, t: p.evals >= 1, seed=0)
        assert by_evals.iterations == 0

        jump = Kernel(1, 1, lambda pop, state, rng: Population.evaluated((1,), p))
        res = run_sgoal(p, init, jump,
                        lambda pop, t: closeness(pop, p) < 0.5 or t >= 10, seed=0)
        assert res.iterations == 1
        assert res.trace.d[-1] == 0.0


class TestTraceCloseness:
    """The trace's ``d``, computed from the recorded fitness rows after the
    loop, equals ``closeness`` of every step's population bit for bit."""

    @staticmethod
    def run(values, relation, f_star, n, steps, seed):
        problem = line_problem(values, relation=relation, f_star=f_star)
        seen = []  # every population the loop records, in order

        def draw(rng):
            seen.append(Population.evaluated(rng.integers(len(values), size=n).tolist(), problem))
            return seen[-1]

        kernel = Kernel(n, n, lambda pop, state, rng: draw(rng))
        result = run_sgoal(problem, draw, kernel, max_iters(steps), seed=seed)
        return problem, seen, result.trace

    @pytest.mark.parametrize("steps", [0, 2, 3, 4, 5, 8, 17])
    @pytest.mark.parametrize("n", [1, 2, 15])
    @pytest.mark.parametrize("relation", [Relation.MINIMIZE, Relation.MAXIMIZE])
    def test_equals_the_per_step_closeness(self, monkeypatch, relation, n, steps):
        # a 4-row buffer doubles at 4, 8 and 16 recorded rows
        monkeypatch.setattr("sgoal.core.TRACE_ROWS_INIT", 4)
        values = [1.0, -0.0, 2.5, 1.0, 0.0, 2.5]  # ties, and -0.0 ties 0.0
        f_star = 0.0 if relation is Relation.MINIMIZE else 2.5
        problem, seen, trace = self.run(values, relation, f_star, n, steps, seed=steps + n)
        oracle = np.array([closeness(pop, problem) for pop in seen])
        assert len(trace) == len(seen) == steps + 1
        assert trace.d.tobytes() == oracle.tobytes()
        assert trace.t.tolist() == list(range(steps + 1))

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]), min_size=1, max_size=5),
        relation=st.sampled_from([Relation.MINIMIZE, Relation.MAXIMIZE]),
        n=st.sampled_from([1, 2, 15]),
        steps=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_step_closeness_on_random_lines(self, values, relation, n, steps, seed):
        f_star = min(values) if relation is Relation.MINIMIZE else max(values)
        problem, seen, trace = self.run(values, relation, f_star, n, steps, seed)
        oracle = np.array([closeness(pop, problem) for pop in seen])
        assert trace.d.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("relation", [Relation.MINIMIZE, Relation.MAXIMIZE])
    def test_nan_without_a_known_optimum(self, monkeypatch, relation):
        monkeypatch.setattr("sgoal.core.TRACE_ROWS_INIT", 4)
        _, _, trace = self.run([1.0, 2.0, 2.0], relation, None, 2, 9, seed=1)
        assert len(trace) == 10
        assert np.isnan(trace.d).all()


def test_public_names_resolve():
    # a stale export would only surface on ``from sgoal import *``
    import sgoal

    missing = [name for name in sgoal.__all__ if not hasattr(sgoal, name)]
    assert missing == []

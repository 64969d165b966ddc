import dataclasses
import gc
import importlib.util
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    counting_builds,
    line_problem,
    matrix_kernel,
    population,
    random_stochastic,
    transition_counts,
    tuple_index,
)

from sgoal.core import Problem, Relation
from sgoal.errors import ConfigError, UsageError
from sgoal.kernels import (
    FiniteSpace,
    Kernel,
    Population,
    ScheduleState,
    compose,
    dense_rows,
    identity,
    iterated_products,
    join,
    load_matrix,
    projection,
    save_matrix,
    sort_kernel,
)
from sgoal.stats import chisquare_gof


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPECIAL_TOKENS = ["inf", "-inf", "Infinity", "nan", "-nan", "NaN", "-0", "+0", "5e-324",
                  "2.5e-324", "1e400", "-1e400", "1e-400", ".5", "5.", "+1", "1E5"]


@pytest.fixture
def space2():
    return FiniteSpace(("a", "b"))


class TestScheduleState:
    def test_reading_t_is_recorded(self):
        # the step is all a state carries; kernels read it as state.t
        state = ScheduleState()
        assert not state.read_t
        assert state.t == 0 and state.read_t
        assert ScheduleState(3).t == 3


class TestPopulation:
    def test_equality_and_hash_do_not_raise(self):
        p, q = Population((1, 2), (1.0, 2.0)), Population((1, 2), (1.0, 2.0))
        assert p == p and p != q
        assert hash(p) == hash(p)
        assert len({p, q}) == 2


class TestFiniteSpace:
    def test_tuple_enumeration_order(self):
        sp = FiniteSpace((0, 1))
        assert sp.tuples(2) == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert tuple_index(sp, (1, 0)) == 2
        assert sp.n_tuples(3) == 8

    @pytest.mark.parametrize(
        "points, message",
        [((), "at least one point"), ((0, 1, 0), "distinct"), (([0], [1]), "hashable")],
        ids=["empty", "duplicate", "unhashable"],
    )
    def test_invalid_points_rejected(self, points, message):
        with pytest.raises(UsageError, match=message):
            FiniteSpace(points)

    def test_fitness_table_keeps_only_the_last_problem(self):
        # one table per space, so a loop over many objectives on one space
        # holds one table and keeps no earlier problem alive
        space = FiniteSpace(range(4))
        first = Problem(space, float)
        assert np.array_equal(space.fitness(first), [0.0, 1.0, 2.0, 3.0])
        gone = weakref.ref(first)
        del first
        second = Problem(space, lambda x: -float(x))
        assert np.array_equal(space.fitness(second), [0.0, -1.0, -2.0, -3.0])
        assert space.fitness(second) is space.fitness(second)
        gc.collect()
        assert gone() is None


class TestCompose:
    def test_identity_is_neutral(self, space2, rng):
        m = np.array([[0.3, 0.7], [0.9, 0.1]])
        k = matrix_kernel(m, space2)
        left = compose(identity(1), k)
        right = compose(k, identity(1))
        assert np.allclose(left.exact_matrix(space2), m, atol=1e-12)
        assert np.allclose(right.exact_matrix(space2), m, atol=1e-12)
        assert left.sample(population(("a",)), ScheduleState(), rng).members[0] in ("a", "b")

    def test_hand_matrix_product(self, space2):
        m1 = np.array([[0.5, 0.5], [0.0, 1.0]])
        m2 = np.array([[1.0, 0.0], [0.25, 0.75]])
        composed = compose(matrix_kernel(m2, space2), matrix_kernel(m1, space2))
        expected = np.array([[0.625, 0.375], [0.25, 0.75]])
        assert np.allclose(composed.exact_matrix(space2), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        sp = FiniteSpace(tuple(range(n)))
        k1, k2, k3 = (matrix_kernel(random_stochastic(rng, n), sp) for _ in range(3))
        left = compose(compose(k3, k2), k1)
        right = compose(k3, compose(k2, k1))
        assert np.allclose(left.exact_matrix(sp), right.exact_matrix(sp), atol=1e-12)

    def test_arity_mismatch(self, space2):
        with pytest.raises(ConfigError):
            compose(projection(2, [0]), projection(3, [0, 1, 2]))

    def test_wide_rows_fold_into_dense_rows_in_order(self):
        # a composed row never lists more columns than the output space has states
        rng = np.random.default_rng(6)
        sp = FiniteSpace(tuple(range(3)))
        m1, m2 = random_stochastic(rng, 3), random_stochastic(rng, 3)
        composed = compose(matrix_kernel(m2, sp), matrix_kernel(m1, sp))
        cols, mass = composed.matrix_fn(sp, ScheduleState(), np.arange(3))
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i] += m1[i, j] * m2[j]
        assert cols.shape == (3, 3)
        assert np.array_equal(mass, expected)
        assert np.array_equal(composed.exact_matrix(sp), expected)


class TestJoin:
    def test_single_kernel_join_is_that_kernel(self, space2):
        k = matrix_kernel(np.array([[0.5, 0.5], [0.5, 0.5]]), space2)
        assert join([k]) is k

    def test_two_uniforms_give_quarter_pairs(self, space2):
        u = matrix_kernel(np.full((2, 2), 0.5), space2)
        joint = join([u, u]).exact_matrix(space2)
        assert joint.shape == (2, 4)
        assert np.allclose(joint, 0.25, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_marginalization_recovers_component(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        sp = FiniteSpace(tuple(range(n)))
        k1 = matrix_kernel(random_stochastic(rng, n), sp)
        k2 = matrix_kernel(random_stochastic(rng, n), sp)
        joint = join([k1, k2]).exact_matrix(sp)
        marginal_1 = joint.reshape(n, n, n).sum(axis=2)
        marginal_2 = joint.reshape(n, n, n).sum(axis=1)
        assert np.allclose(marginal_1, k1.exact_matrix(sp), atol=1e-12)
        assert np.allclose(marginal_2, k2.exact_matrix(sp), atol=1e-12)

    def test_heterogeneous_input_arity_rejected(self):
        with pytest.raises(ConfigError):
            join([projection(2, [0]), projection(3, [0])])

    def test_multi_output_component_is_join_of_its_outputs(self):
        # a multi-output component contributes its members in order, as the
        # join of single-output components would, whatever its position
        for seed in range(5):
            rng = np.random.default_rng(seed)
            problem = line_problem(rng.normal(size=3))
            sp = problem.space
            k1, k2 = (
                compose(matrix_kernel(random_stochastic(rng, 3), sp), projection(3, [i]))
                for i in (1, 2)
            )
            cases = [
                (join([projection(3, [0, 1]), k1]),
                 join([projection(3, [0]), projection(3, [1]), k1])),
                (join([k1, join([k2, projection(3, [0, 2])])]),
                 join([k1, k2, projection(3, [0]), projection(3, [2])])),
            ]
            start = population(rng.integers(0, 3, size=3).tolist(), problem)
            for nested, flat in cases:
                assert nested.arity_out == flat.arity_out
                assert np.array_equal(nested.exact_matrix(sp), flat.exact_matrix(sp))
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(50):
                    x = nested.sample(start, ScheduleState(), a)
                    y = flat.sample(start, ScheduleState(), b)
                    assert x.members == y.members
                    assert np.array_equal(x.fitness, y.fitness)
                assert a.bit_generator.state == b.bit_generator.state


class TestJoinRepeatedComponent:
    """A component joined more than once is realized once per block."""

    def test_repeated_kernel_builds_its_rows_once_per_block(self, monkeypatch):
        monkeypatch.setattr("sgoal.kernels.BLOCK_ENTRIES", 27)  # one input row per block
        rng = np.random.default_rng(11)
        sp = FiniteSpace(tuple(range(3)))
        m = random_stochastic(rng, 3)
        base = matrix_kernel(m, sp)
        calls, blocks = [], []

        def counted(space, state, idx):
            calls.append(idx.tolist())
            return base.matrix_fn(space, state, idx)

        joint = join([dataclasses.replace(base, matrix_fn=counted)] * 3)

        def counted_joint(space, state, idx):
            blocks.append(idx.tolist())
            return joint.matrix_fn(space, state, idx)

        got = dataclasses.replace(joint, matrix_fn=counted_joint).exact_matrix(sp)
        assert blocks == [[0], [1], [2]] and calls == blocks
        distinct = join([matrix_kernel(m, sp) for _ in range(3)]).exact_matrix(sp)
        assert np.array_equal(got, distinct)

    def test_repeated_kernel_that_reads_t_marks_the_matrix(self, space2):
        decay = Kernel(1, 1, lambda pop, state, rng: pop, TestStationaryMemo.decaying)
        joint = join([decay] * 2)
        at_0, at_1 = joint.exact_matrix(space2, 0), joint.exact_matrix(space2, 1)
        assert at_0.flags.writeable and at_1.flags.writeable  # neither was kept
        assert at_0[0, 0] == 1.0 and at_1[0, 0] == 0.25

    def test_sampler_draws_every_copy_independently(self):
        rng = np.random.default_rng(12)
        sp = FiniteSpace(tuple(range(3)))
        k = matrix_kernel(random_stochastic(rng, 3), sp)
        joint = join([k] * 3)
        row = joint.exact_matrix(sp)[2]
        assert np.allclose(row, np.einsum("i,j,k->ijk", *[k.exact_matrix(sp)[2]] * 3).ravel())
        counts = transition_counts(joint, sp, population((2,)), 20_000, rng)
        assert chisquare_gof(counts, row, alpha=0.001).passed


class TestProjectionAndSort:
    def test_projection_examples(self, rng):
        state = ScheduleState()
        out = projection(2, [0]).sample(population(("x", "y")), state, rng)
        assert out.members == ("x",)
        out = projection(3, [0, 1]).sample(population(("a", "b", "c")), state, rng)
        assert out.members == ("a", "b")

    def test_projection_matrix_rows_one_hot(self, space2):
        m = projection(2, [1]).exact_matrix(space2)
        assert m.shape == (4, 2)
        assert np.all(m.sum(axis=1) == 1.0)
        assert set(np.unique(m)) == {0.0, 1.0}

    def test_out_of_range_index(self):
        with pytest.raises(ConfigError):
            projection(2, [2])

    def test_sort_simple(self, rng):
        p = line_problem([3.0, 1.0, 2.0])
        k = sort_kernel(p, 3)
        assert k.sample(population((0, 1, 2), p), ScheduleState(), rng).members == (1, 2, 0)

    def test_sort_stable_on_ties(self, rng):
        # states 0,1 share fitness 1.0; state 2 is best
        p = line_problem([1.0, 1.0, 0.0])
        out = sort_kernel(p, 3).sample(population((0, 1, 2), p), ScheduleState(), rng)
        oracle = tuple(sorted((0, 1, 2), key=lambda i: [1.0, 1.0, 0.0][i]))
        assert out.members == (2, 0, 1) == oracle
        assert out.fitness.tolist() == [0.0, 1.0, 1.0]

    def test_sort_idempotent(self, rng):
        p = line_problem([5.0, 4.0, 4.0, 1.0])
        k = sort_kernel(p, 4)
        once = k.sample(population((0, 1, 2, 3), p), ScheduleState(), rng)
        twice = k.sample(once, ScheduleState(), rng)
        assert twice.members == once.members
        assert np.array_equal(twice.fitness, once.fitness)

    def test_sort_maximize(self, rng):
        p = line_problem([3.0, 1.0, 2.0], relation=Relation.MAXIMIZE)
        out = sort_kernel(p, 3).sample(population((0, 1, 2), p), ScheduleState(), rng)
        assert out.members == (0, 2, 1)


class TestRowStochasticityPreserved:
    @pytest.mark.parametrize("seed", range(5))
    def test_combinators_keep_rows_normalized(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        sp = FiniteSpace(tuple(range(n)))
        p = line_problem(rng.normal(size=n).tolist())
        k = matrix_kernel(random_stochastic(rng, n), sp)
        candidates = [
            compose(k, k),
            join([k, k]),
            projection(2, [1]),
            sort_kernel(p, 2),
            compose(projection(2, [0]), join([k, k])),
        ]
        for kernel in candidates:
            m = kernel.exact_matrix(sp)
            assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)


class TestSamplingConformance:
    def test_chi_square_against_matrix_rows(self):
        # 10^5 one-step samples spread over the rows of a random 4-state kernel
        rng = np.random.default_rng(7)
        n = 4
        sp = FiniteSpace(tuple(range(n)))
        k = matrix_kernel(random_stochastic(rng, n), sp)
        m = k.exact_matrix(sp)
        per_row = 100_000 // n
        for i, start in enumerate(sp.points):
            counts = transition_counts(k, sp, population((start,)), per_row, rng)
            result = chisquare_gof(counts, m[i], alpha=0.001)
            assert result.passed, f"row {i}: p={result.pvalue}"

    def test_composed_kernel_samples_match_product_matrix(self):
        rng = np.random.default_rng(8)
        n = 3
        sp = FiniteSpace(tuple(range(n)))
        k1 = matrix_kernel(random_stochastic(rng, n), sp)
        k2 = matrix_kernel(random_stochastic(rng, n), sp)
        composed = compose(k2, k1)
        m = composed.exact_matrix(sp)
        counts = transition_counts(composed, sp, population((0,)), 30_000, rng)
        assert chisquare_gof(counts, m[0], alpha=0.001).passed

    def test_joined_kernel_samples_match_kron_row(self):
        rng = np.random.default_rng(9)
        n = 3
        sp = FiniteSpace(tuple(range(n)))
        k1 = matrix_kernel(random_stochastic(rng, n), sp)
        k2 = matrix_kernel(random_stochastic(rng, n), sp)
        joined = join([k1, k2])
        m = joined.exact_matrix(sp)
        counts = transition_counts(joined, sp, population((1,)), 30_000, rng)
        assert chisquare_gof(counts, m[1], alpha=0.001).passed


class TestIteratedProducts:
    def test_t1_is_the_first_kernel(self):
        m = np.array([[1.0, 0.0], [0.5, 0.5]])
        (product,) = iterated_products([m], 1)
        assert np.array_equal(product, m)

    def test_stationary_square_by_hand(self):
        m = np.array([[1.0, 0.0], [0.5, 0.5]])
        product = iterated_products([m], 2)[-1]
        assert product[1, 0] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("order", ["recursion", "composition"])
    def test_nonstationary_hand_product(self, order, space2):
        m1 = np.array([[1.0, 0.0], [0.3, 0.7]])
        m2 = np.array([[1.0, 0.0], [0.6, 0.4]])
        if order == "recursion":
            product = iterated_products([m1, m2], 2)[-1]
        else:
            k1, k2 = matrix_kernel(m1, space2), matrix_kernel(m2, space2)
            product = compose(k2, k1).exact_matrix(space2)
        assert product[1, 0] == pytest.approx(0.72, abs=1e-12)

    def test_products_are_time_ordered(self):
        # M_1 moves 2 -> 1, M_2 moves 1 -> 0: only M_1 M_2 carries 2 to 0
        m1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        m2 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        products = iterated_products([m1, m2], 2)
        assert np.array_equal(products[0], m1)
        assert np.array_equal(products[1], m1 @ m2)
        assert products[1][2, 0] == 1.0

    def test_constant_sequence_equals_repeated_compose(self, space2):
        m = np.array([[0.2, 0.8], [0.6, 0.4]])
        k = matrix_kernel(m, space2)
        threefold = compose(k, compose(k, k)).exact_matrix(space2)
        product = iterated_products([m, m, m], 3)[-1]
        assert np.allclose(threefold, product, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            iterated_products([np.eye(2), np.eye(3)], 1)

    def test_sequence_shorter_than_horizon(self):
        m = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(UsageError):
            iterated_products([m, m], 3)

    def test_not_row_stochastic_rejected(self):
        with pytest.raises(UsageError):
            iterated_products([np.array([[0.5, 0.4], [0.0, 1.0]])], 1)


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        m = np.array([[0.125, 0.875], [1.0, 0.0]])
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        text = path.read_text()
        assert text.splitlines()[0] == "2 2"
        assert np.array_equal(load_matrix(path), m)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0.5 0.5 1.0\n")
        with pytest.raises(UsageError):
            load_matrix(path)

    @pytest.mark.parametrize(
        "text",
        [
            "2 2\n0.5 0.5 1.0 x\n",
            "2 two\n0.5 0.5 1.0 0.0\n",
            "-1 -2\n0.5 0.5\n",
            "",
            "2\n",
            "2 2 0.5\n0.5 0.5 0.5\n",
            "2 2\n0.5 0.5 0.5\n0.5\n",
            "2 2\n0.5 0.5\n0.5 0.\u00e9\n",
        ],
        ids=["entry", "header", "negative", "empty", "one-token-header",
             "three-token-header", "ragged", "non-ascii"],
    )
    def test_malformed_file_rejected_by_name(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(UsageError, match="bad.txt"):
            load_matrix(path)

    def test_special_values_parse_like_float(self, tmp_path):
        tokens = ["inf", "-inf", "nan", "-0", "5e-324", "1e400", "0.1", "1.0000000000000002"]
        path = tmp_path / "m.txt"
        path.write_text("2 4\n" + " ".join(tokens) + "\n")
        expected = np.array([float(v) for v in tokens]).reshape(2, 4)
        assert load_matrix(path).tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equal_width_layouts_parse_like_float(self, tmp_path, data):
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        tokens = data.draw(st.lists(st.one_of(finite, st.sampled_from(SPECIAL_TOKENS)),
                                    min_size=rows * cols, max_size=rows * cols))
        width = data.draw(st.sampled_from([w for w in range(1, rows * cols + 1)
                                           if (rows * cols) % w == 0]))
        sep = data.draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        lines = [sep.join(tokens[i:i + width]) for i in range(0, len(tokens), width)]
        path = tmp_path / "m.txt"
        path.write_text(f"{rows} {cols}\n" + "\n".join(lines) + "\n")
        expected = np.array([float(t) for t in tokens]).reshape(rows, cols)
        assert load_matrix(path).tobytes() == expected.tobytes()

    def test_save_writes_the_per_value_text(self, tmp_path):
        m = np.array([[np.nan, np.inf, -np.inf], [-0.0, 5e-324, 1 / 3]])
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        text = "2 3\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in m)
        assert path.read_bytes() == text.encode("ascii")
        assert load_matrix(path).tobytes() == m.tobytes()

    def test_load_peak_memory_is_near_the_result(self, tmp_path):
        spec = importlib.util.spec_from_file_location("chains", PERFBENCH / "chains.py")
        chains = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(chains)
        m, _ = chains.permuted(*chains.elitist_onemax_chain(9), seed=3)  # 512 states
        chains.write_matrix(tmp_path / "m.txt", m)
        tracemalloc.start()
        try:
            result = load_matrix(tmp_path / "m.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(result, m)
        assert peak <= 3 * result.nbytes


class TestKernelValidation:
    def test_sample_arity_checked(self, rng):
        with pytest.raises(UsageError):
            identity(2).sample(population(("a",)), ScheduleState(), rng)

    def test_exact_matrix_absent(self, rng):
        k = Kernel(1, 1, lambda pop, state, rng: pop)
        with pytest.raises(UsageError):
            k.exact_matrix(FiniteSpace((0, 1)))

    def test_bad_matrix_caught(self, space2):
        k = Kernel(
            1, 1,
            lambda pop, state, rng: pop,
            lambda space, state, idx: dense_rows(np.array([[0.5, 0.4], [0.0, 1.0]])[idx]),
        )
        with pytest.raises(UsageError):
            k.exact_matrix(space2)


class TestStationaryMemo:
    """A kernel whose rows never read ``state.t`` builds its matrix once per space."""

    @staticmethod
    def decaying(space, state, idx):
        stay = 1.0 / (state.t + 1)
        return dense_rows(np.tile([stay, 1.0 - stay], (idx.size, 1)))

    def test_t_free_kernel_builds_once_per_space(self, rng):
        m = random_stochastic(rng, 3)
        space = FiniteSpace((0, 1, 2))
        kernel, builds = counting_builds(matrix_kernel(m, space))
        first = kernel.exact_matrix(space)
        for t in range(1, 50):
            assert kernel.exact_matrix(space, t) is first
        assert builds == [space] and np.array_equal(first, m)
        other = FiniteSpace((0, 1, 2))  # equal points, another space object
        assert kernel.exact_matrix(other) is not first
        assert builds == [space, other]

    def test_kernel_that_reads_t_builds_every_step(self, space2):
        kernel, builds = counting_builds(Kernel(1, 1, lambda pop, state, rng: pop, self.decaying))
        for t in range(50):
            m = kernel.exact_matrix(space2, t)
            assert m[0, 0] == 1.0 / (t + 1) and m.flags.writeable
        assert len(builds) == 50

    def test_combinators_pass_the_read_down(self, space2):
        # one component reads t, deep inside a composition and a join
        decay = Kernel(1, 1, lambda pop, state, rng: pop, self.decaying)
        kernels = [
            compose(identity(1), decay),
            compose(decay, identity(1)),
            compose(projection(2, [1]), join([identity(1), decay])),
        ]
        for kernel in kernels:
            at_0 = kernel.exact_matrix(space2, 0)
            at_1 = kernel.exact_matrix(space2, 1)
            assert at_0[0, 0] == 1.0 and at_1[0, 0] == 0.5

    def test_memoized_matrix_refuses_writes(self, space2):
        m = identity(1).exact_matrix(space2)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.5

    def test_failed_build_is_not_kept(self, space2):
        k = Kernel(
            1, 1,
            lambda pop, state, rng: pop,
            lambda space, state, idx: dense_rows(np.array([[0.5, 0.4], [0.0, 1.0]])[idx]),
        )
        for _ in range(2):
            with pytest.raises(UsageError):
                k.exact_matrix(space2)

    def test_replace_starts_without_the_memo(self, space2):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        kernel = identity(1)
        kernel.exact_matrix(space2)
        other = dataclasses.replace(kernel, matrix_fn=lambda sp, st, idx: dense_rows(swap[idx]))
        assert np.array_equal(other.exact_matrix(space2), swap)

import numpy as np
import pytest

from conftest import line_problem, matrix_kernel, random_stochastic, transition_counts

from sgoal.core import Relation
from sgoal.errors import ConfigError, UsageError
from sgoal.kernels import (
    FiniteSpace,
    Kernel,
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


@pytest.fixture
def space2():
    return FiniteSpace(("a", "b"))


class TestScheduleState:
    def test_tick_applies_rules_then_increments(self):
        # the time index is all a schedule carries; kernels read it as state.t
        state = ScheduleState()
        assert state.t == 0
        for expected_t in (1, 2, 3):
            state.tick()
            assert state.t == expected_t


class TestFiniteSpace:
    def test_tuple_enumeration_order(self):
        sp = FiniteSpace((0, 1))
        assert sp.tuples(2) == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert sp.tuple_index((1, 0)) == 2
        assert sp.n_tuples(3) == 8

    def test_unknown_point_rejected(self):
        sp = FiniteSpace((0, 1))
        with pytest.raises(UsageError):
            sp.index(7)


class TestCompose:
    def test_identity_is_neutral(self, space2, rng):
        m = np.array([[0.3, 0.7], [0.9, 0.1]])
        k = matrix_kernel(m, space2)
        left = compose(identity(1), k)
        right = compose(k, identity(1))
        state = ScheduleState()
        assert np.allclose(left.exact_matrix(space2, state), m, atol=1e-12)
        assert np.allclose(right.exact_matrix(space2, state), m, atol=1e-12)
        assert left.sample(("a",), state, rng)[0] in ("a", "b")

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

    def test_multi_output_component_rejected(self):
        with pytest.raises(ConfigError):
            join([projection(2, [0, 1]), projection(2, [0])])


class TestProjectionAndSort:
    def test_projection_examples(self, rng):
        state = ScheduleState()
        assert projection(2, [0]).sample(("x", "y"), state, rng) == ("x",)
        assert projection(3, [0, 1]).sample(("a", "b", "c"), state, rng) == ("a", "b")

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
        assert k.sample((0, 1, 2), ScheduleState(), rng) == (1, 2, 0)

    def test_sort_stable_on_ties(self, rng):
        # states 0,1 share fitness 1.0; state 2 is best
        p = line_problem([1.0, 1.0, 0.0])
        out = sort_kernel(p, 3).sample((0, 1, 2), ScheduleState(), rng)
        oracle = tuple(sorted((0, 1, 2), key=lambda i: [1.0, 1.0, 0.0][i]))
        assert out == (2, 0, 1) == oracle

    def test_sort_idempotent(self, rng):
        p = line_problem([5.0, 4.0, 4.0, 1.0])
        k = sort_kernel(p, 4)
        once = k.sample((0, 1, 2, 3), ScheduleState(), rng)
        assert k.sample(once, ScheduleState(), rng) == once

    def test_sort_maximize(self, rng):
        p = line_problem([3.0, 1.0, 2.0], relation=Relation.MAXIMIZE)
        assert sort_kernel(p, 3).sample((0, 1, 2), ScheduleState(), rng) == (0, 2, 1)


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
            counts = transition_counts(k, sp, (start,), per_row, rng)
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
        counts = transition_counts(composed, sp, (0,), 30_000, rng)
        assert chisquare_gof(counts, m[0], alpha=0.001).passed

    def test_joined_kernel_samples_match_kron_row(self):
        rng = np.random.default_rng(9)
        n = 3
        sp = FiniteSpace(tuple(range(n)))
        k1 = matrix_kernel(random_stochastic(rng, n), sp)
        k2 = matrix_kernel(random_stochastic(rng, n), sp)
        joined = join([k1, k2])
        m = joined.exact_matrix(sp)
        counts = transition_counts(joined, sp, (1,), 30_000, rng)
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
        ["2 2\n0.5 0.5 1.0 x\n", "2 two\n0.5 0.5 1.0 0.0\n", "-1 -2\n0.5 0.5\n"],
        ids=["entry", "header", "negative"],
    )
    def test_malformed_file_rejected_by_name(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(UsageError, match="bad.txt"):
            load_matrix(path)

    def test_special_values_parse_like_float(self, tmp_path):
        tokens = ["inf", "-inf", "nan", "-0", "5e-324", "1e400", "0.1", "1.0000000000000002"]
        path = tmp_path / "m.txt"
        path.write_text("2 4\n" + " ".join(tokens) + "\n")
        expected = np.array([float(v) for v in tokens]).reshape(2, 4)
        assert load_matrix(path).tobytes() == expected.tobytes()


class TestKernelValidation:
    def test_sample_arity_checked(self, rng):
        with pytest.raises(UsageError):
            identity(2).sample(("a",), ScheduleState(), rng)

    def test_exact_matrix_absent(self, rng):
        k = Kernel(1, 1, lambda members, state, rng: members)
        with pytest.raises(UsageError):
            k.exact_matrix(FiniteSpace((0, 1)))

    def test_bad_matrix_caught(self, space2):
        k = Kernel(
            1, 1,
            lambda members, state, rng: members,
            lambda space, state, idx: dense_rows(np.array([[0.5, 0.4], [0.0, 1.0]])[idx]),
        )
        with pytest.raises(UsageError):
            k.exact_matrix(space2)

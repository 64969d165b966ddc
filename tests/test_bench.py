import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgoal.bench import BENCHMARKS, make_benchmark, rastrigin, rosenbrock, sphere, trap5
from sgoal.core import ContinuousBox, Relation
from sgoal.errors import UsageError


class TestDefinitions:
    def test_sphere_at_origin(self):
        assert sphere(np.zeros(2)) == 0.0
        assert make_benchmark("sphere", 2).problem.evaluate(np.zeros(2)) == 0.0

    def test_onemax_counts_bits(self):
        b = make_benchmark("onemax", 4)
        assert b.problem.evaluate((1, 1, 1, 1)) == 4.0
        assert b.problem.evaluate((0, 1, 0, 1)) == 2.0
        assert b.problem.relation is Relation.MAXIMIZE

    def test_rastrigin_values(self):
        assert rastrigin(np.zeros(2)) == 0.0
        assert rastrigin(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-9)

    def test_rosenbrock_at_ones(self):
        assert rosenbrock(np.ones(3)) == 0.0

    def test_trap_blocks(self):
        assert trap5((1, 1, 1, 1, 1)) == 5.0
        assert trap5((0, 0, 0, 0, 0)) == 4.0
        assert trap5((1, 1, 1, 1, 0)) == 0.0
        assert trap5((1,) * 10) == 10.0

    def test_optimum_attained_at_declared_optimizer(self):
        for name, dim in [("sphere", 3), ("rastrigin", 2), ("rosenbrock", 4),
                          ("onemax", 5), ("trap5", 5)]:
            b = make_benchmark(name, dim)
            assert b.problem.evaluate(b.x_star) == b.f_star


class TestValidation:
    def test_unknown_name(self):
        with pytest.raises(UsageError):
            make_benchmark("ackley", 2)

    def test_trap_needs_multiple_of_five(self):
        with pytest.raises(UsageError):
            make_benchmark("trap5", 7)

    def test_bit_dimension_cap(self):
        with pytest.raises(UsageError):
            make_benchmark("onemax", 21)

    def test_dim_positive(self):
        with pytest.raises(UsageError):
            make_benchmark("sphere", 0)


class TestNeverBeatsOptimum:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_random_points_never_better_than_f_star(self, name):
        dim = 5 if name in ("onemax", "trap5") else 3
        b = make_benchmark(name, dim)
        problem = b.problem
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(10_000):
            if isinstance(problem.space, ContinuousBox):
                x = problem.space.sample_uniform(rng)
            else:
                x = problem.space.sample_uniform(rng)
            value = problem.objective(x)
            assert not problem.relation.better(value, b.f_star)


batches = st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(
    lambda shape: arrays(float, shape, elements=st.floats(-10.0, 10.0))
)


# The objectives as written with ``np.sum``: the reductions must be the same bits.
SUM_FORMS = {
    sphere: lambda x: np.sum(x * x, axis=-1),
    rastrigin: lambda x: 10.0 * x.shape[-1]
    + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1),
    rosenbrock: lambda x: np.sum(
        100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (1.0 - x[..., :-1]) ** 2, axis=-1
    ),
}
# up to 300 columns, past numpy's 8-wide unrolled and 128-long pairwise blocks
wide_batches = st.tuples(st.integers(1, 4), st.integers(1, 300)).flatmap(
    lambda shape: arrays(float, shape, elements=st.floats(-1e6, 1e6))
)


class TestBatches:
    @pytest.mark.parametrize("objective", [sphere, rastrigin, rosenbrock])
    @settings(max_examples=60, deadline=None)
    @given(x=wide_batches)
    def test_bitwise_the_np_sum_form(self, objective, x):
        assert objective(x).tobytes() == SUM_FORMS[objective](x).tobytes()
        for row in x:
            assert np.float64(objective(row)).tobytes() == SUM_FORMS[objective](row).tobytes()

    @pytest.mark.parametrize("objective", [sphere, rastrigin, rosenbrock])
    @settings(max_examples=60, deadline=None)
    @given(x=batches)
    def test_row_i_is_the_scalar_value_of_row_i(self, objective, x):
        values = objective(x)
        assert values.shape == (x.shape[0],)
        for row, value in zip(x, values):
            scalar = objective(row)
            assert type(scalar) is float
            assert abs(value - scalar) <= 1e-12 * max(1.0, abs(scalar))

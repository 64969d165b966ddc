import csv
import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    backward_bound,
    binomial_se,
    counting_builds,
    population,
    random_stochastic,
)

from sgoal.bench import make_benchmark
from sgoal.cli import _write_json, _write_trace_csv, build_algorithm, load_config
from sgoal.cli import main as cli_main
from sgoal.cli import write_bound_csv, write_bound_json
from sgoal.core import ConvergenceTrace, exceedance, max_iters, run_algorithm
from sgoal.errors import ConfigError, UsageError
from sgoal.es import ESConfig, make_es
from sgoal.kernels import ScheduleState, iterated_products, save_matrix
from sgoal.sa import SAConfig, fixed, geometric, linear, logarithmic, make_sa
from sgoal.verify import (
    MATRIX_BYTES_CAP,
    STATE_CAP,
    BoundReport,
    BoundRow,
    FiniteChain,
    KernelSteps,
    chain_from_files,
    check_bound,
    check_premises,
    extract_chain,
)


@st.composite
def nonstationary_chains(draw):
    """A chain of 2-8 random steps over 2-6 states; each step keeps the
    eps set's mass inside, or not, at random."""
    n = draw(st.integers(2, 6))
    eps = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = []
    for _ in range(draw(st.integers(2, 8))):
        m = random_stochastic(rng, n)
        if draw(st.booleans()):
            m[eps] = 0.0
            m[np.ix_(eps, eps)] = rng.dirichlet(np.ones(len(eps)), size=len(eps))
        matrices.append(m)
    return FiniteChain(tuple(range(n)), set(eps), tuple(matrices))


def two_state_chain(delta):
    return FiniteChain(
        states=(0, 1),
        eps_set={0},
        matrices=(np.array([[1.0, 0.0], [delta, 1.0 - delta]]),),
    )


class TestFiniteChainValidation:
    def test_eps_set_must_be_proper(self):
        with pytest.raises(UsageError):
            FiniteChain((0, 1), {0, 1}, (np.eye(2),))
        with pytest.raises(UsageError):
            FiniteChain((0, 1), set(), (np.eye(2),))

    def test_matrices_must_be_row_stochastic(self):
        with pytest.raises(UsageError):
            FiniteChain((0, 1), {0}, (np.array([[0.9, 0.0], [0.5, 0.5]]),))

    def test_matrix_shape_checked(self):
        with pytest.raises(UsageError):
            FiniteChain((0, 1), {0}, (np.eye(3),))

    def test_nan_matrix_file_rejected(self, tmp_path):
        # a NaN row sum fails every comparison; it must not pass as stochastic
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 0\nnan 0.5\n")
        with pytest.raises(UsageError, match="rows must sum to 1"):
            chain_from_files([path], {0})


class TestPremises:
    def test_absorbing_chain_read_off(self):
        delta, absorbing = check_premises(two_state_chain(0.5))
        assert delta == 0.5 and absorbing

    def test_leaky_eps_state_detected(self):
        chain = FiniteChain(
            (0, 1), {0}, (np.array([[0.9, 0.1], [0.5, 0.5]]),)
        )
        delta, absorbing = check_premises(chain)
        assert not absorbing
        assert delta == 0.5

    def test_nonstationary_delta_is_the_minimum(self):
        m1 = np.array([[1.0, 0.0], [0.3, 0.7]])
        m2 = np.array([[1.0, 0.0], [0.6, 0.4]])
        chain = FiniteChain((0, 1), {0}, (m1, m2))
        delta, absorbing = check_premises(chain)
        assert absorbing and delta == pytest.approx(0.3, abs=1e-15)

    def test_zero_reach_reported_as_failure(self):
        chain = FiniteChain((0, 1), {0}, (np.array([[1.0, 0.0], [0.0, 1.0]]),))
        delta, absorbing = check_premises(chain)
        assert absorbing and delta == 0.0
        report = check_bound(chain, 3)
        assert not report.premise_reach
        assert not report.verified()


class TestBound:
    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
    def test_two_state_equality(self, delta):
        report = check_bound(two_state_chain(delta), 50)
        assert report.premises_hold
        for row in report.per_t:
            assert row.min_mass == pytest.approx(1.0 - (1.0 - delta) ** row.t, abs=1e-12)
            assert abs(row.margin) <= 1e-12

    def test_t1_reduces_to_delta(self):
        report = check_bound(two_state_chain(0.37), 1)
        assert report.per_t[0].min_mass == pytest.approx(0.37, abs=1e-15)
        assert report.per_t[0].bound == pytest.approx(0.37, abs=1e-15)

    def test_nonstationary_hand_case(self):
        m1 = np.array([[1.0, 0.0], [0.3, 0.7]])
        m2 = np.array([[1.0, 0.0], [0.6, 0.4]])
        chain = FiniteChain((0, 1), {0}, (m1, m2))
        report = check_bound(chain, 2)
        assert report.delta == pytest.approx(0.3)
        assert report.per_t[1].min_mass == pytest.approx(0.72, abs=1e-12)
        assert report.per_t[1].bound == pytest.approx(1.0 - 0.7**2, abs=1e-12)
        assert report.verified()

    def test_nonstationary_kernels_act_in_time_order(self):
        # M_1 moves 2 -> 1, M_2 moves 1 -> 0: in time order every state is
        # in eps = {0} after two steps; in reverse order state 2 never is
        m1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        m2 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        report = check_bound(FiniteChain((0, 1, 2), {0}, (m1, m2)), 2)
        assert [row.min_mass for row in report.per_t] == [0.0, 1.0]

    def test_sequence_shorter_than_horizon(self):
        m1 = np.array([[1.0, 0.0], [0.3, 0.7]])
        m2 = np.array([[1.0, 0.0], [0.6, 0.4]])
        with pytest.raises(UsageError):
            check_bound(FiniteChain((0, 1), {0}, (m1, m2)), 3)

    @settings(max_examples=150, deadline=None)
    @given(chain=nonstationary_chains(), data=st.data())
    def test_forward_product_equals_backward_passes(self, chain, data):
        t_max = data.draw(st.integers(1, len(chain.matrices)))
        report = check_bound(chain, t_max)
        delta, absorbing, masses = backward_bound(chain.matrices, chain.eps_set, t_max)
        assert report.delta == delta and report.premise_absorbing == absorbing
        assert [row.t for row in report.per_t] == list(range(1, t_max + 1))
        for row, mass in zip(report.per_t, masses):
            assert abs(row.min_mass - mass) <= 1e-12

    def test_cooling_annealer_matches_sampled_runs(self):
        bench = make_benchmark("onemax", 6)
        algo = make_sa(
            bench.problem, SAConfig(schedule=geometric(3.0, 0.7), elitist=False)
        )
        t, runs = 8, 20_000
        chain = extract_chain(algo, eps=0.5, t_max=t)
        assert len(chain.matrices) == t
        min_mass = check_bound(chain, t).per_t[-1].min_mass
        start = population(chain.states[0], algo.problem)  # all zeros, a worst start
        row = iterated_products(chain.matrices, t)[-1][0]
        assert row[list(chain.eps_set)].sum() == pytest.approx(min_mass, abs=1e-12)
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(runs):
            pop = start
            for s in range(t):  # step s samples with ScheduleState(s), as run_sgoal does
                pop = algo.next_pop.sample(pop, ScheduleState(s), rng)
            hits += pop.members == (bench.x_star,)
        assert abs(hits / runs - min_mass) <= 3.0 * binomial_se(min_mass, runs)

    def test_no_dense_product_is_formed(self):
        # the closed-form elitist onemax d10 chain: uniform proposal, keep
        # the candidate when it is no worse
        fitness = np.array([bin(i).count("1") for i in range(1024)], dtype=float)
        keep = fitness[None, :] >= fitness[:, None]
        m = np.where(keep, 1.0 / 1024, 0.0)
        m[np.diag_indices(1024)] = (1.0 + np.count_nonzero(~keep, axis=1)) / 1024
        chain = FiniteChain(tuple(range(1024)), {1023}, (m,))
        tracemalloc.start()
        try:
            report = check_bound(chain, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verified()
        assert peak < m.nbytes

    @pytest.mark.parametrize("seed", range(10))
    def test_min_mass_monotone_for_absorbing_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        eps = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        m = random_stochastic(rng, n)
        for i in eps:
            row = np.zeros(n)
            weights = rng.dirichlet(np.ones(len(eps)))
            row[eps] = weights
            m[i] = row
        chain = FiniteChain(tuple(range(n)), set(eps), (m,))
        report = check_bound(chain, 50)
        masses = [row.min_mass for row in report.per_t]
        assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
        assert report.verified()

    def test_single_transient_state_achieves_equality(self):
        # two absorbing eps states, one transient state
        m = np.array([
            [1.0, 0.0, 0.0],
            [0.3, 0.7, 0.0],
            [0.2, 0.3, 0.5],
        ])
        chain = FiniteChain((0, 1, 2), {0, 1}, (m,))
        report = check_bound(chain, 30)
        for row in report.per_t:
            assert abs(row.margin) <= 1e-12


class TestExtractChain:
    def test_elitist_sa_chain_absorbing_on_onemax(self):
        bench = make_benchmark("onemax", 3)
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(1.0)))
        chain = extract_chain(algo, eps=0.5, t_max=4)
        assert len(chain.matrices) == 1  # greedy replacement is stationary
        delta, absorbing = check_premises(chain)
        assert absorbing
        assert delta == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_plus_es_chain_premises(self):
        bench = make_benchmark("onemax", 2)
        algo = make_es(bench.problem, ESConfig(mu=1, rho=1, lam=2, mode="plus"))
        chain = extract_chain(algo, eps=0.5, t_max=1)
        delta, absorbing = check_premises(chain)
        assert absorbing
        # two uniform children: P(at least one hits the optimum) = 1 - (3/4)^2
        assert delta == pytest.approx(1.0 - 0.75**2, abs=1e-12)

    def test_nonelitist_high_temperature_not_absorbing(self):
        bench = make_benchmark("onemax", 2)
        algo = make_sa(bench.problem, SAConfig(schedule=fixed(10.0), elitist=False))
        chain = extract_chain(algo, eps=0.5, t_max=2)
        delta, absorbing = check_premises(chain)
        assert not absorbing
        assert delta > 0

    def test_cooling_chain_is_nonstationary(self):
        bench = make_benchmark("onemax", 2)
        algo = make_sa(
            bench.problem,
            SAConfig(schedule=geometric(5.0, 0.5), elitist=False),
        )
        chain = extract_chain(algo, eps=0.5, t_max=3)
        assert len(chain.matrices) == 3
        assert not np.array_equal(chain.matrices[0], chain.matrices[1])

    def test_state_cap_enforced(self):
        bench = make_benchmark("onemax", 13)  # 8192 > 4096
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(1.0)))
        with pytest.raises(UsageError):
            extract_chain(algo, eps=0.5)

    def test_continuous_algorithm_rejected(self):
        bench = make_benchmark("sphere", 2)
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(1.0)))
        with pytest.raises(ConfigError):
            extract_chain(algo, eps=0.5)

    def test_eps_covering_everything_rejected(self):
        bench = make_benchmark("onemax", 2)
        algo = make_sa(bench.problem, SAConfig(schedule=geometric(1.0)))
        with pytest.raises(UsageError):
            extract_chain(algo, eps=100.0)


SA_COOLINGS = (
    ["sa.cooling=geometric", "sa.T0=2", "sa.gamma=0.8"],
    ["sa.cooling=linear", "sa.T0=2", "sa.step=0.3", "sa.floor=0.1"],
    ["sa.cooling=log", "sa.c=1.5"],
)
TOY_CONFIGS = [
    *(["algorithm=sa", f"sa.elitist={elitist}", *cooling]
      for elitist in (True, False) for cooling in SA_COOLINGS),
    *(["algorithm=es", f"es.mode={mode}", f"es.mu={mu}", f"es.lambda={lam}"]
      for mode in ("plus", "comma") for mu in (1, 2)
      for lam in range(1 if mode == "plus" else mu, 4)),
]


def toy_algorithm(overrides):
    return build_algorithm(load_config(None, ["problem=onemax", "dim=3", *overrides]))


def with_counted_builds(algo):
    """``algo`` with its chain kernel's matrix builds counted."""
    kernel, builds = counting_builds(algo.chain_kernel)
    return dataclasses.replace(algo, chain_kernel=kernel), builds


class TestStationaryExtraction:
    """A chain whose kernel never reads ``t`` is built once and held once."""

    @pytest.mark.parametrize("overrides", TOY_CONFIGS, ids=" ".join)
    def test_kept_matrix_equals_a_fresh_build(self, overrides):
        algo = toy_algorithm(overrides)
        space = algo.problem.space
        for t in range(6):
            kept = algo.chain_kernel.exact_matrix(space, t)
            fresh = toy_algorithm(overrides).chain_kernel
            assert np.array_equal(kept, fresh.exact_matrix(space, t))

    @pytest.mark.parametrize("overrides", TOY_CONFIGS, ids=" ".join)
    def test_lumped_then_full_chain_equal_fresh_builds(self, overrides):
        algo = toy_algorithm(overrides)
        for lump in (True, False):
            chain = extract_chain(algo, eps=0.5, t_max=4, lump=lump)
            fresh = extract_chain(toy_algorithm(overrides), eps=0.5, t_max=4, lump=lump)
            assert chain.states == fresh.states and chain.lumped == fresh.lumped
            assert len(chain.matrices) == len(fresh.matrices)
            for m, f in zip(chain.matrices, fresh.matrices):
                assert np.array_equal(m, f)

    def test_t_free_chain_builds_once(self):
        algo, builds = with_counted_builds(toy_algorithm(TOY_CONFIGS[-1]))
        chain = extract_chain(algo, eps=0.5, t_max=50)
        assert len(builds) == 1 and len(chain.matrices) == 1

    def test_metropolis_chain_builds_every_step(self):
        algo, builds = with_counted_builds(
            toy_algorithm(["algorithm=sa", "sa.elitist=false", *SA_COOLINGS[0]])
        )
        chain = extract_chain(algo, eps=0.5, t_max=50)
        assert len(builds) == 1 and len(chain.matrices) == 50  # step 0 shows it reads t
        builds.clear()
        check_bound(chain, 50)
        assert len(builds) == 49  # each later step once; step 0 is handed over


class TestStreamedChain:
    """A chain whose kernel reads ``t`` builds each step's matrix when the
    check reads it, and keeps none."""

    @staticmethod
    def cooling_algorithm(dim):
        problem = make_benchmark("onemax", dim).problem
        return make_sa(problem, SAConfig(schedule=geometric(2.0, 0.99), elitist=False))

    @pytest.mark.parametrize("lump", [True, False])
    def test_streamed_chain_equals_the_held_chain(self, lump):
        chain = extract_chain(self.cooling_algorithm(4), eps=0.5, t_max=8, lump=lump)
        assert isinstance(chain.matrices, KernelSteps) and chain.lumped == lump
        held = dataclasses.replace(chain, matrices=tuple(chain.matrices))
        assert check_bound(chain, 8) == check_bound(held, 8)
        delta, absorbing, masses = backward_bound(held.matrices, held.eps_set, 8)
        report = check_bound(chain, 8)
        assert (report.delta, report.premise_absorbing) == (delta, absorbing)
        assert max(abs(row.min_mass - m) for row, m in zip(report.per_t, masses)) <= 1e-12

    def test_steps_index_and_slice_as_a_tuple(self):
        steps = extract_chain(self.cooling_algorithm(3), eps=0.5, t_max=5).matrices
        held = tuple(steps)
        assert len(held) == 5 and not np.array_equal(held[0], held[1])
        assert all(np.array_equal(steps[s], held[s]) for s in range(-5, 5))
        assert all(np.array_equal(a, b) for a, b in zip(steps[1:4], held[1:4]))
        with pytest.raises(IndexError):
            steps[5]

    @pytest.mark.parametrize(
        "schedule", [geometric(2.0, 0.5), linear(2.0, 0.3), logarithmic(1.5)],
        ids=["geometric", "linear", "logarithmic"],
    )
    def test_step_s_is_the_annealer_at_the_step_s_temperature(self, schedule):
        # step s is the one run_sgoal samples with ScheduleState(s)
        problem = make_benchmark("onemax", 4).problem
        cooling = make_sa(problem, SAConfig(schedule=schedule, elitist=False))
        steps = extract_chain(cooling, eps=0.5, t_max=6, lump=True).matrices
        for s in range(6):
            config = SAConfig(schedule=fixed(schedule.temperature(s)), elitist=False)
            at_s = extract_chain(make_sa(problem, config), eps=0.5, lump=True).matrices[0]
            assert np.array_equal(steps[s], at_s)

    def test_a_short_extraction_is_not_checked_as_stationary(self):
        # a chain that reads t, extracted for one step, covers that step only
        problem = make_benchmark("onemax", 4).problem
        algo = make_sa(problem, SAConfig(schedule=geometric(2.0, 0.5), elitist=False))
        short = extract_chain(algo, eps=0.5, t_max=1, lump=True)
        with pytest.raises(UsageError, match="t_max=20"):
            check_bound(short, 20)
        full = check_bound(extract_chain(algo, eps=0.5, t_max=20, lump=True), 20)
        assert check_bound(short, 1).per_t[0].min_mass == full.per_t[0].min_mass

    def test_check_holds_a_few_matrices_whatever_t_max(self):
        # onemax d8, full chain: 256 states; holding all 50 steps would
        # take 50 * 256 * 256 * 8 bytes
        algo, n = self.cooling_algorithm(8), 256
        tracemalloc.start()
        try:
            report = check_bound(extract_chain(algo, eps=0.5, t_max=50), 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.states == n and len(report.per_t) == 50
        assert peak < 6 * n * n * 8

    def test_steps_give_up_the_step_0_matrix_at_the_first_read(self):
        steps = extract_chain(self.cooling_algorithm(3), eps=0.5, t_max=5).matrices
        first = steps[0]
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is None  # the chain holds no matrix once step 0 is read
        again = steps[0]  # built anew
        assert again.flags.writeable and np.array_equal(again, steps[0])

    def test_the_streamed_arrays_fit_the_byte_cap(self):
        # the forward product, one step matrix and their product at the
        # state cap: so a chain of allowed size is never refused for memory
        assert 3 * STATE_CAP**2 * 8 <= MATRIX_BYTES_CAP


class TestExceedance:
    def test_all_optimal_rows_give_zero(self):
        assert np.array_equal(exceedance(np.zeros((30, 10)), eps=0.5), np.zeros(10))

    def test_always_outside_rows_give_one(self):
        assert np.array_equal(exceedance(np.ones((30, 40)), eps=0.5), np.ones(40))

    def test_closeness_equal_to_eps_does_not_exceed(self):
        d = np.array([[1.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        assert exceedance(d, eps=1.0).tolist() == [0.0, 0.0, 0.5]
        assert exceedance(d, eps=np.nextafter(1.0, 0.0)).tolist() == [1.0, 0.5, 1.0]

    def test_nan_closeness_raises(self):
        d = np.zeros((3, 4))
        d[1, 2] = np.nan
        with pytest.raises(UsageError, match="NaN"):
            exceedance(d, eps=0.5)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan])
    def test_nonpositive_eps_raises(self, eps):
        with pytest.raises(UsageError, match="eps"):
            exceedance(np.zeros((3, 4)), eps=eps)

    @pytest.mark.parametrize("shape", [(4,), (), (2, 3, 4)])
    def test_input_must_be_two_dimensional(self, shape):
        with pytest.raises(UsageError, match="replicates, steps"):
            exceedance(np.zeros(shape), eps=0.5)

    def test_elitist_runs_never_increase(self):
        bench = make_benchmark("onemax", 3)
        rows = []
        for seed in range(30):
            algo = make_sa(bench.problem, SAConfig(schedule=geometric(1.0)))
            rows.append(run_algorithm(algo, max_iters(20), seed=seed).trace.d)
        p = exceedance(np.stack(rows), eps=0.5)
        assert p.shape == (21,)
        assert np.all(np.diff(p) <= 0.0)  # elitist runs only improve

    def test_equals_the_run_summary(self, tmp_path):
        # onemax gaps are integers, so eps=1 puts runs at D == eps
        out = tmp_path / "out"
        args = ["run", "--out", str(out), "--replicates", "3", "algorithm=sa",
                "problem=onemax", "dim=6", "budget=30", "eps=0.5,1", "sa.elitist=false"]
        assert cli_main(args) == 0
        d = np.stack([
            np.loadtxt(out / f"trace_{seed}.csv", delimiter=",", skiprows=1, usecols=1)
            for seed in range(3)
        ])
        assert np.any(d == 1.0)
        summary = json.loads((out / "summary.json").read_text())
        for eps in (0.5, 1.0):
            assert summary["pr_d_above"][f"{eps:.17g}"] == exceedance(d, eps).tolist()


def steps_trace(steps: int) -> ConvergenceTrace:
    ones = np.ones(steps)
    return ConvergenceTrace(np.arange(steps), ones / 3, ones, np.arange(steps), ones)


# each report's writer, called with a path and a number of steps
REPORT_WRITERS = {
    "bound.json": lambda path, t: write_bound_json(check_bound(two_state_chain(0.5), t), path),
    "bound.csv": lambda path, t: write_bound_csv(check_bound(two_state_chain(0.5), t), path),
    "trace.csv": lambda path, t: _write_trace_csv(path, steps_trace(t)),
    "summary.json": lambda path, t: _write_json(path, {"t": list(range(t)), "d": [1 / 3] * t}),
}


class TestReports:
    def test_json_fields(self, tmp_path):
        report = check_bound(two_state_chain(0.5), 3)
        path = tmp_path / "bound.json"
        write_bound_json(report, path)
        data = json.loads(path.read_text())
        assert set(data) == {
            "delta", "premise_absorbing", "premise_reach", "states", "lumped", "per_t"
        }
        assert data["delta"] == 0.5
        assert data["states"] == 2 and data["lumped"] is False
        assert len(data["per_t"]) == 3
        assert set(data["per_t"][0]) == {"t", "min_mass", "bound", "margin"}

    def test_csv_rows(self, tmp_path):
        report = check_bound(two_state_chain(0.5), 2)
        path = tmp_path / "bound.csv"
        write_bound_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,min_mass,bound,margin"
        assert len(lines) == 3

    def test_bytes_equal_the_csv_and_json_modules(self, tmp_path):
        rows = [(1, 0.1, 1 / 3, -0.0), (2, float("nan"), float("inf"), -float("inf")),
                (3, 5e-324, 1.0, 1e300)]
        # state 0 leaks to 1, and 2 never reaches the set: both premises fail
        neither = FiniteChain((0, 1, 2), {0}, (np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                                         [0.0, 0.0, 1.0]]),))
        reports = [
            BoundReport(0.25, True, False, tuple(BoundRow(*r) for r in rows), 7, True),
            check_bound(two_state_chain(0.01), 1000),
            check_bound(neither, 4),
        ]
        assert not reports[2].premise_absorbing and not reports[2].premise_reach
        for report in reports:
            write_bound_json(report, tmp_path / "bound.json")
            write_bound_csv(report, tmp_path / "bound.csv")
            with open(tmp_path / "json.ref", "w", encoding="ascii") as fh:
                json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            with open(tmp_path / "csv.ref", "w", encoding="ascii", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "min_mass", "bound", "margin"])
                writer.writerows([r.t, *(f"{v:.17g}" for v in (r.min_mass, r.bound, r.margin))]
                                 for r in report.per_t)
            for name, ref in (("bound.json", "json.ref"), ("bound.csv", "csv.ref")):
                assert (tmp_path / name).read_bytes() == (tmp_path / ref).read_bytes()

    def test_a_new_row_field_needs_no_writer_edit(self, tmp_path):
        names = [field.name for field in dataclasses.fields(BoundRow)] + ["gap"]
        Row = dataclasses.make_dataclass("Row", names, frozen=True)
        base = check_bound(two_state_chain(0.25), 4)
        rows = tuple(Row(*dataclasses.astuple(r), gap=1.0 - r.min_mass) for r in base.per_t)
        report = dataclasses.replace(base, per_t=rows)
        write_bound_json(report, tmp_path / "bound.json")
        expected = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert '"gap": ' in expected
        assert (tmp_path / "bound.json").read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("report", sorted(REPORT_WRITERS))
    def test_rewrite_cuts_a_longer_report_to_length(self, tmp_path, report):
        write = REPORT_WRITERS[report]
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        write(fresh, 1)
        write(reused, 9)
        write(reused, 1)
        assert reused.read_bytes() == fresh.read_bytes()

    def test_chain_from_matrix_files(self, tmp_path):
        m1 = np.array([[1.0, 0.0], [0.3, 0.7]])
        m2 = np.array([[1.0, 0.0], [0.6, 0.4]])
        paths = []
        for i, m in enumerate((m1, m2)):
            p = tmp_path / f"k{i}.txt"
            save_matrix(p, m)
            paths.append(p)
        chain = chain_from_files(paths, {0})
        report = check_bound(chain, 2)
        assert report.per_t[1].min_mass == pytest.approx(0.72, abs=1e-12)

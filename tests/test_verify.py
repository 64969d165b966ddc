import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_stochastic

from sgoal.bench import make_benchmark
from sgoal.core import max_iters, run_algorithm
from sgoal.errors import ConfigError, UsageError
from sgoal.es import ESConfig, make_es
from sgoal.kernels import ScheduleState, iterated_products, save_matrix
from sgoal.sa import SAConfig, fixed, geometric, make_sa
from sgoal.stats import binomial_se
from sgoal.verify import (
    FiniteChain,
    chain_from_files,
    check_bound,
    check_premises,
    estimate_convergence,
    extract_chain,
    write_bound_csv,
    write_bound_json,
)


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

    def test_cooling_annealer_matches_sampled_runs(self):
        bench = make_benchmark("onemax", 6)
        algo = make_sa(
            bench.problem.copy(), SAConfig(schedule=geometric(3.0, 0.7), elitist=False)
        )
        t, runs = 8, 20_000
        chain = extract_chain(algo, eps=0.5, t_max=t)
        assert len(chain.matrices) == t
        min_mass = check_bound(chain, t).per_t[-1].min_mass
        start = chain.states[0]  # all zeros, a worst start
        row = iterated_products(chain.matrices, t)[-1][0]
        assert row[list(chain.eps_set)].sum() == pytest.approx(min_mass, abs=1e-12)
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(runs):
            schedule, members = ScheduleState(), start
            for _ in range(t):  # sample, then tick, as run_sgoal does
                members = algo.next_pop.sample(members, schedule, rng)
                schedule.tick()
            hits += members == (bench.x_star,)
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

    def test_supplied_delta_override(self):
        chain = two_state_chain(0.5)
        report = check_bound(chain, 5, delta=0.2)  # looser but valid bound
        assert report.delta == 0.2
        assert all(row.margin >= -1e-12 for row in report.per_t)
        with pytest.raises(UsageError):
            check_bound(chain, 5, delta=0.7)  # tighter than the matrices support
        with pytest.raises(UsageError):
            check_bound(chain, 5, delta=0.0)

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
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(1.0)))
        chain = extract_chain(algo, eps=0.5, t_max=4)
        assert len(chain.matrices) == 1  # greedy replacement is stationary
        delta, absorbing = check_premises(chain)
        assert absorbing
        assert delta == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_plus_es_chain_premises(self):
        bench = make_benchmark("onemax", 2)
        algo = make_es(bench.problem.copy(), ESConfig(mu=1, rho=1, lam=2, mode="plus"))
        chain = extract_chain(algo, eps=0.5, t_max=1)
        delta, absorbing = check_premises(chain)
        assert absorbing
        # two uniform children: P(at least one hits the optimum) = 1 - (3/4)^2
        assert delta == pytest.approx(1.0 - 0.75**2, abs=1e-12)

    def test_nonelitist_high_temperature_not_absorbing(self):
        bench = make_benchmark("onemax", 2)
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=fixed(10.0), elitist=False))
        chain = extract_chain(algo, eps=0.5, t_max=2)
        delta, absorbing = check_premises(chain)
        assert not absorbing
        assert delta > 0

    def test_cooling_chain_is_nonstationary(self):
        bench = make_benchmark("onemax", 2)
        algo = make_sa(
            bench.problem.copy(),
            SAConfig(schedule=geometric(5.0, 0.5), elitist=False),
        )
        chain = extract_chain(algo, eps=0.5, t_max=3)
        assert len(chain.matrices) == 3
        assert not np.array_equal(chain.matrices[0], chain.matrices[1])

    def test_state_cap_enforced(self):
        bench = make_benchmark("onemax", 13)  # 8192 > 4096
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(1.0)))
        with pytest.raises(UsageError):
            extract_chain(algo, eps=0.5)

    def test_continuous_algorithm_rejected(self):
        bench = make_benchmark("sphere", 2)
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(1.0)))
        with pytest.raises(ConfigError):
            extract_chain(algo, eps=0.5)

    def test_eps_covering_everything_rejected(self):
        bench = make_benchmark("onemax", 2)
        algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(1.0)))
        with pytest.raises(UsageError):
            extract_chain(algo, eps=100.0)


class TestEstimateConvergence:
    def make_traces(self, arrays):
        return [np.asarray(a, dtype=float) for a in arrays]

    def test_all_optimal_runs(self):
        traces = self.make_traces([[0.0] * 10] * 30)
        est = estimate_convergence(traces, eps=0.5)
        assert np.all(est.p == 0.0)
        assert np.all(est.partial_sums == 0.0)
        assert est.plateaued

    def test_geometric_decay_partial_sums_approach_two(self):
        # synthetic exceedance with P(D_t > eps) = 0.5^t sums to 2
        rng = np.random.default_rng(50)
        n_traces, length = 600, 25
        traces = []
        p = 0.5 ** np.arange(length)
        for _ in range(n_traces):
            traces.append((rng.random(length) < p).astype(float) * 2.0)
        est = estimate_convergence(traces, eps=1.0)
        assert est.partial_sums[-1] == pytest.approx(2.0, abs=0.2)
        assert est.plateaued

    def test_identity_outside_never_converges(self):
        traces = self.make_traces([[1.0] * 40] * 30)
        est = estimate_convergence(traces, eps=0.5)
        assert np.all(est.p == 1.0)
        assert not est.plateaued
        assert est.partial_sums[-1] == pytest.approx(40.0)

    def test_needs_thirty_traces(self):
        with pytest.raises(UsageError):
            estimate_convergence(self.make_traces([[0.0]] * 29), eps=0.5)

    def test_common_length_required(self):
        traces = self.make_traces([[0.0, 0.0]] * 29 + [[0.0]])
        with pytest.raises(UsageError):
            estimate_convergence(traces, eps=0.5)

    def test_accepts_run_traces(self):
        bench = make_benchmark("onemax", 3)
        traces = []
        for seed in range(30):
            algo = make_sa(bench.problem.copy(), SAConfig(schedule=geometric(1.0)))
            traces.append(run_algorithm(algo, max_iters(20), seed=seed).trace)
        est = estimate_convergence(traces, eps=0.5)
        assert est.p.shape == (21,)
        assert np.all(np.diff(est.p) <= 1e-12)  # elitist runs only improve


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

"""The fitness-class quotient chain and its lumping certificate.

Every kernel that ``sgoal verify`` composes reads only positions and
fitness, apart from the proposal; when the proposal lumps onto fitness
classes, so does the whole population chain.  These tests check the
quotient against the full chain with its class columns summed, the eps
classification against the ``classify_eps`` oracle, and that a proposal that does not
lump is refused and the full chain is verified instead.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    EpsClass,
    brute_es_matrix,
    brute_sa_matrix,
    classify_eps,
    instances,
    proposal_rows,
    schedule_at,
)

import sgoal.cli
import sgoal.verify
from sgoal.bench import make_benchmark
from sgoal.core import Population, Problem
from sgoal.errors import NotLumpable, UsageError
from sgoal.es import ESConfig, make_es
from sgoal.kernels import ClassSpace
from sgoal.mutation import proposal_kernel
from sgoal.sa import SAConfig, fixed, geometric, make_sa
from sgoal.verify import eps_inside, extract_chain

EXACT = 1e-12


def state_classes(chain, quotient, problem):
    """Quotient state index of every full state, checked to be the tuple of
    its members' fitness values."""
    space = problem.space
    classes = ClassSpace(space, problem)
    arity = len(chain.states[0])
    digits = space.digits(np.arange(chain.size), arity)
    labels = classes.encode(classes.labels[digits])
    assert [quotient.states[i] for i in labels] == [
        tuple(problem.evaluate(m) for m in members) for members in chain.states
    ]
    return labels


def assert_quotient_of(full, quotient, problem):
    """Summing the full matrices' class columns gives the quotient rows of
    every full state's class, and the eps sets agree."""
    assert not full.lumped and quotient.lumped
    labels = state_classes(full, quotient, problem)
    onehot = np.zeros((full.size, quotient.size))
    onehot[np.arange(full.size), labels] = 1.0
    assert len(full.matrices) == len(quotient.matrices)
    for m, q in zip(full.matrices, quotient.matrices):
        assert np.max(np.abs(m @ onehot - q[labels])) <= EXACT
    assert np.array_equal(full.eps_mask(), quotient.eps_mask()[labels])


def bit_flip_matrix(dim: int, rate: float) -> np.ndarray:
    """Standard bit mutation: each bit flips independently with ``rate``."""
    points = np.array(list(itertools.product((0, 1), repeat=dim)))
    flips = (points[:, None, :] != points[None, :, :]).sum(axis=2)
    return rate**flips * (1.0 - rate) ** (dim - flips)


def non_lumping_matrix(n: int) -> np.ndarray:
    """Uniform rows, except that point 1 favours the last point.

    On onemax d3, point 1 = (0, 0, 1) and point 2 = (0, 1, 0) share a
    class but put different mass on the optimum's class.
    """
    m = np.full((n, n), 1.0)
    m[1, -1] = 5.0
    return m / m.sum(axis=1, keepdims=True)


CASES = {
    "sa-elitist": lambda p: make_sa(p, SAConfig(schedule=geometric(2.0, 0.9))),
    "sa-cooling": lambda p: make_sa(p, SAConfig(schedule=geometric(3.0, 0.7), elitist=False)),
    "es-plus-1+2": lambda p: make_es(p, ESConfig(mu=1, rho=1, lam=2, mode="plus")),
    "es-plus-2+2": lambda p: make_es(p, ESConfig(mu=2, rho=1, lam=2, mode="plus")),
    "es-comma-2,2": lambda p: make_es(p, ESConfig(mu=2, rho=1, lam=2, mode="comma")),
}


class TestEpsInside:
    @pytest.mark.parametrize(
        "name, dim, arity",
        [("onemax", 2, 2), ("onemax", 4, 1), ("onemax", 6, 1), ("onemax", 6, 2),
         ("trap5", 5, 1), ("trap5", 5, 2)],
    )
    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 2.0])  # 1.0 and 2.0 sit on a class
    def test_mask_equals_classify_eps(self, name, dim, arity, eps):
        problem = make_benchmark(name, dim).problem
        space = problem.space
        mask = eps_inside(space, problem, eps, arity)
        want = [
            classify_eps(Population.evaluated(members, problem), problem, eps) is EpsClass.INSIDE
            for members in space.tuples(arity)
        ]
        assert mask.tolist() == want
        classes = ClassSpace(space, problem)
        mask = eps_inside(classes, problem, eps, arity)
        want = [
            classify_eps(Population(members, members), problem, eps) is EpsClass.INSIDE
            for members in classes.tuples(arity)
        ]
        assert mask.tolist() == want

    def test_errors_match_classify_eps(self):
        problem = make_benchmark("onemax", 2).problem
        space = problem.space
        with pytest.raises(UsageError, match="eps must be positive"):
            eps_inside(space, problem, 0.0, 1)
        blind = Problem(problem.space, problem.objective, problem.relation)
        with pytest.raises(UsageError, match="known optimum"):
            eps_inside(space, blind, 0.5, 1)


class TestQuotientExactness:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("name, dim", [("onemax", 4), ("trap5", 5)])
    def test_quotient_is_the_lumped_full_chain(self, case, name, dim):
        problem = make_benchmark(name, dim).problem
        algo = CASES[case](problem)
        full = extract_chain(algo, eps=0.5, t_max=4)
        quotient = extract_chain(algo, eps=0.5, t_max=4, lump=True)
        assert_quotient_of(full, quotient, problem)
        assert quotient.size == (dim + 1 if name == "onemax" else 6) ** len(full.states[0])

    @pytest.mark.parametrize("dim", [5, 6])
    def test_cooling_annealer_quotient_on_onemax(self, dim):
        problem = make_benchmark("onemax", dim).problem
        algo = CASES["sa-cooling"](problem)
        full = extract_chain(algo, eps=0.5, t_max=6)
        quotient = extract_chain(algo, eps=0.5, t_max=6, lump=True)
        assert len(quotient.matrices) == 6  # non-stationary, as the full chain
        assert_quotient_of(full, quotient, problem)

    def test_bit_flip_mutation_lumps(self):
        # state-dependent, yet every point of a weight class reaches each
        # weight class with the same mass (Droste, Jansen & Wegener 2002)
        problem = make_benchmark("onemax", 4).problem
        config = SAConfig(schedule=fixed(1.0), mutation=bit_flip_matrix(4, 0.25))
        algo = make_sa(problem, config)
        full = extract_chain(algo, eps=0.5)
        quotient = extract_chain(algo, eps=0.5, lump=True)
        assert_quotient_of(full, quotient, problem)

    def test_table_leaves_the_memo_alone(self):
        problem = make_benchmark("onemax", 4).problem
        extract_chain(CASES["es-plus-1+2"](problem), eps=0.5, lump=True)
        assert problem.evals == 0 and problem._cache == {}


def lumps(rows: np.ndarray, values: list) -> bool:
    """Oracle: every pair of points with equal value puts equal mass on
    every value, within EXACT."""
    for i, j in itertools.combinations(range(len(values)), 2):
        if values[i] != values[j]:
            continue
        for v in set(values):
            cols = [c for c, w in enumerate(values) if w == v]
            if abs(rows[i, cols].sum() - rows[j, cols].sum()) > EXACT:
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    instances(),
    st.sampled_from(["sa", "sa-elitist", "es"]),
    st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
    st.integers(1, 2),
    st.integers(1, 3),
    st.sampled_from(["plus", "comma"]),
)
def test_line_problems_with_ties(instance, kind, temperature, mu, lam, mode):
    base, mutation = instance
    values = [base.evaluate(p) for p in base.space.points]
    assume(len(set(values)) > 1)
    best = min(values) if base.relation.value == "minimize" else max(values)
    problem = Problem(base.space, base.objective, base.relation, f_star=best)
    if kind == "es":
        lam = max(lam, mu) if mode == "comma" else lam
        algo = make_es(problem, ESConfig(mu=mu, rho=1, lam=lam, mode=mode, mutation=mutation))
        brute, t = brute_es_matrix(problem, mu, lam, mode, mutation), 0
    else:
        elitist = kind == "sa-elitist"
        schedule, t = schedule_at(temperature)
        config = SAConfig(schedule=schedule, mutation=mutation, elitist=elitist)
        algo = make_sa(problem, config)
        brute = brute_sa_matrix(problem, mutation, elitist, temperature)
    full = replace(extract_chain(algo, eps=0.5), matrices=(brute,))
    chain = extract_chain(algo, eps=0.5, t_max=t + 1, lump=True)
    chain = replace(chain, matrices=chain.matrices[-1:])  # the step-t matrix
    assert chain.lumped == lumps(proposal_rows(len(values), mutation), values)
    if chain.lumped:
        assert_quotient_of(full, chain, problem)
    else:
        assert chain.states == full.states and chain.eps_set == full.eps_set
        assert np.max(np.abs(chain.matrices[0] - brute)) <= EXACT


class TestRefusal:
    def setup_method(self):
        self.problem = make_benchmark("onemax", 3).problem
        self.mutation = non_lumping_matrix(8)

    def test_certificate_refuses_the_proposal(self):
        space = self.problem.space
        proposal = proposal_kernel(self.problem, self.mutation)
        with pytest.raises(NotLumpable):
            proposal.exact_matrix(ClassSpace(space, self.problem))
        with pytest.raises(NotLumpable):
            ClassSpace(space, self.problem).lump(self.mutation)

    @pytest.mark.parametrize("elitist", [True, False])
    def test_extract_falls_back_to_the_full_chain(self, elitist):
        config = SAConfig(schedule=geometric(2.0, 0.9), mutation=self.mutation, elitist=elitist)
        algo = make_sa(self.problem, config)
        chain = extract_chain(algo, eps=0.5, t_max=3, lump=True)
        full = extract_chain(algo, eps=0.5, t_max=3)
        assert not chain.lumped and chain.size == 8
        assert chain.states == full.states and chain.eps_set == full.eps_set
        assert all(np.array_equal(a, b) for a, b in zip(chain.matrices, full.matrices))

    def test_fallback_over_the_cap_says_why(self, monkeypatch):
        algo = make_sa(self.problem, SAConfig(schedule=fixed(1.0), mutation=self.mutation))
        monkeypatch.setattr(sgoal.verify, "STATE_CAP", 4)
        with pytest.raises(UsageError, match="does not lump onto fitness classes"):
            extract_chain(algo, eps=0.5, lump=True)

    def test_quotient_over_the_cap_names_both_counts(self, monkeypatch):
        algo = make_es(self.problem, ESConfig(mu=2, rho=1, lam=1, mode="plus"))
        monkeypatch.setattr(sgoal.verify, "STATE_CAP", 15)
        with pytest.raises(UsageError, match="64 population states lump onto 16 fitness-class"):
            extract_chain(algo, eps=0.5, lump=True)
        monkeypatch.setattr(sgoal.verify, "STATE_CAP", 16)
        assert extract_chain(algo, eps=0.5, lump=True).size == 16

    def test_verify_reports_the_fallback(self, tmp_path, monkeypatch, capsys):
        real = sgoal.cli.build_algorithm

        def with_mutation(values):
            algo = real(values)
            return make_sa(algo.problem, SAConfig(schedule=fixed(2.0), mutation=self.mutation))

        monkeypatch.setattr(sgoal.cli, "build_algorithm", with_mutation)
        cfg = tmp_path / "sa.cfg"
        cfg.write_text("algorithm = sa\nproblem = onemax\ndim = 3\neps = 0.5\n")
        out = tmp_path / "v"
        assert sgoal.cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("states=8 lumped=False")
        data = json.loads((out / "bound.json").read_text())
        assert data["states"] == 8 and data["lumped"] is False
        lines = (out / "bound.csv").read_text().splitlines()
        assert lines[0] == "t,min_mass,bound,margin"

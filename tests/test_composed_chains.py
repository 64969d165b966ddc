"""Property tests: every composed chain matrix equals brute-force enumeration.

Random spaces of 2-6 points with many fitness ties, both relations,
uniform, state-independent and state-dependent positive proposals, and
small mu/lambda.  Exact to 1e-12, rows summing to 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_es_matrix, brute_sa_matrix, instances, schedule_at

from sgoal.es import ESConfig, make_es
from sgoal.sa import SAConfig, make_sa

EXACT = 1e-12


def assert_exact(m, oracle):
    assert m.shape == oracle.shape
    assert np.max(np.abs(m - oracle)) <= EXACT
    assert np.all(np.abs(m.sum(axis=1) - 1.0) <= EXACT)


@settings(max_examples=80, deadline=None)
@given(
    instances(),
    st.booleans(),
    st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
)
def test_annealer_chain_equals_enumeration(instance, elitist, temperature):
    problem, mutation = instance
    schedule, t = schedule_at(temperature)
    config = SAConfig(schedule=schedule, mutation=mutation, elitist=elitist)
    m = make_sa(problem, config).chain_kernel.exact_matrix(problem.space, t)
    assert_exact(m, brute_sa_matrix(problem, mutation, elitist, temperature))


@settings(max_examples=40, deadline=None)
@given(
    instances(),
    st.integers(1, 2),
    st.integers(1, 3),
    st.sampled_from(["plus", "comma"]),
)
def test_strategy_chain_equals_enumeration(instance, mu, lam, mode):
    problem, mutation = instance
    if mode == "comma" and lam < mu:
        lam = mu
    config = ESConfig(mu=mu, rho=1, lam=lam, mode=mode, mutation=mutation)
    m = make_es(problem, config).next_pop.exact_matrix(problem.space)
    assert_exact(m, brute_es_matrix(problem, mu, lam, mode, mutation))

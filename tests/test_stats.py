import numpy as np
import pytest
from scipy.stats import chi2

from sgoal.stats import chi2_sf, chisquare_gof


@pytest.mark.parametrize("dofs", [range(1, 51), range(51, 101), range(101, 151), range(151, 201)])
def test_chi2_sf_matches_scipy(dofs):
    # both branches (series below a + 1, continued fraction above) and the
    # switch between them, out to 10 dof and one far tail point
    for dof in dofs:
        xs = np.append(np.linspace(0.0, 10.0 * dof, 101), [dof - 2.0, dof, dof + 2.0, 1e300])
        xs = np.maximum(xs, 0.0)
        got = np.array([chi2_sf(float(x), dof) for x in xs])
        np.testing.assert_allclose(got, chi2.sf(xs, dof), rtol=0.0, atol=1e-12)


def test_chi2_sf_limits():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(float("inf"), 3) == 0.0


def test_chisquare_gof_pvalue_is_chi2_sf():
    counts, probs = np.array([30.0, 50.0, 20.0]), np.array([0.25, 0.5, 0.25])
    result = chisquare_gof(counts, probs)
    expected = probs * counts.sum()
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    assert (result.statistic, result.dof) == (statistic, 2)
    assert result.pvalue == chi2_sf(statistic, 2)
    assert result.pvalue == pytest.approx(float(chi2.sf(statistic, 2)), abs=1e-12)

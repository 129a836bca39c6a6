"""Power-law fit checks against closed forms and a brute-force search."""

import numpy as np
import pytest

from diskflow.ratefit import RateFit, fit_rate
from diskflow.errors import ConfigError, DegenerateFitError


def test_exact_power_law_recovered():
    x = np.array([0.4, 0.2, 0.1, 0.05])
    y = 3.0 * x ** 1.7
    fit = fit_rate(x, y)
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert fit.constant == pytest.approx(3.0, rel=1e-12)
    assert fit.residual <= 1e-13
    assert fit.points == tuple(zip(x.tolist(), y.tolist()))


def test_matches_brute_force_grid_search():
    rng = np.random.default_rng(3)
    x = np.geomspace(0.02, 0.5, 6)
    y = 2.1 * x ** -0.48 * np.exp(rng.normal(scale=0.05, size=6))
    fit = fit_rate(x, y)

    slopes = np.linspace(fit.slope - 0.2, fit.slope + 0.2, 801)
    logks = np.linspace(np.log(fit.constant) - 0.2,
                        np.log(fit.constant) + 0.2, 801)
    lx, ly = np.log(x), np.log(y)
    cost = ((ly[None, None, :] - slopes[:, None, None] * lx[None, None, :]
             - logks[None, :, None]) ** 2).sum(axis=2)
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    assert slopes[i] == pytest.approx(fit.slope, abs=1e-3)
    assert logks[j] == pytest.approx(np.log(fit.constant), abs=1e-3)


def test_evaluate_reproduces_fit():
    fit = fit_rate([0.4, 0.2, 0.1], [4.0, 2.0, 1.0])
    assert fit.constant * 0.2 ** fit.slope == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("xs,ys,exc", [
    ([0.1, 0.2], [1.0, 2.0], DegenerateFitError),
    ([0.1, 0.2, 0.3], [1.0, 0.0, 2.0], DegenerateFitError),
    ([0.1, 0.2, 0.3], [1.0, -1.0, 2.0], DegenerateFitError),
    ([0.1, 0.1, 0.1], [1.0, 2.0, 3.0], DegenerateFitError),
    ([0.1, 0.2, np.nan], [1.0, 2.0, 3.0], DegenerateFitError),
    ([0.1, 0.2, 0.3], [1.0, 2.0], ConfigError),
])
def test_rejects_unusable_inputs(xs, ys, exc):
    with pytest.raises(exc):
        fit_rate(xs, ys)


def test_degenerate_fit_error_is_value_error():
    assert issubclass(DegenerateFitError, ValueError)

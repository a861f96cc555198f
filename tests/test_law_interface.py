"""The law interface: every law answers quantile on a float or an array,
the laws that are only atoms share one atom search, the closed-form
stop-loss overrides agree with the generic route, and the transforms
return laws."""

import numpy as np
import pytest

from steinbounds.distributions import (Distribution, DistributionError,
                                       Exponential, Gamma, Gaussian,
                                       GeometricCount, Uniform, centered, make,
                                       random_sum, standardized_bernoulli,
                                       sum_of_independents, two_point)
from steinbounds.kernels import smooth
from steinbounds.numerics import rng_stream
from steinbounds.transforms import equilibrium, zero_bias

LEVELS = np.array([[1e-6, 0.01, 0.3], [0.5, 0.77, 0.999]])

LAWS = {
    "gaussian": lambda: make("gaussian", (0.5, 2.0)),
    "beta": lambda: make("beta", (4.0, 8.0)),
    "gamma": lambda: make("gamma", (2.0, 1.5)),
    "inverse-gamma": lambda: make("inverse-gamma", (5.0, 3.0)),
    "pareto": lambda: make("pareto", (3.0, 1.0)),
    "exponential": lambda: make("exponential", (1.5,)),
    "uniform": lambda: make("uniform", (-1.0, 2.0)),
    "two-point": lambda: make("two-point", (1.0, 2.0)),
    "standardized-bernoulli": lambda: make("standardized-bernoulli", (0.3, 5)),
    "point-mass": lambda: make("point-mass", (2.0,)),
    "discrete-empirical": lambda: make("discrete-empirical",
                                       (-1.0, 0.2, 0.5, 0.3, 3.0, 0.5)),
    "geometric": lambda: make("geometric", (0.5,)),
    "centered-gamma": lambda: centered(Gamma(2.0, 1.5)),
    "bernoulli-sum": lambda: sum_of_independents(
        [standardized_bernoulli(0.3, 4)] * 4),
    "geometric-exponential": lambda: random_sum(GeometricCount(0.5),
                                                Exponential(2.0)),
    "zero-bias-continuous": lambda: zero_bias(centered(Gamma(3.0, 2.0))),
    "zero-bias-discrete": lambda: zero_bias(two_point(1.0, 2.0)),
    "equilibrium": lambda: equilibrium(Gamma(2.0, 1.0)),
}


@pytest.mark.parametrize("name", LAWS)
def test_quantile_of_an_array_is_the_scalar_quantiles(name):
    d = LAWS[name]()
    q = d.quantile(LEVELS)
    assert q.shape == LEVELS.shape
    assert np.array_equal(q, [[d.quantile(float(p)) for p in row]
                              for row in LEVELS])
    assert type(d.quantile(0.3)) is float


@pytest.mark.parametrize("name", ["two-point", "standardized-bernoulli",
                                  "point-mass", "discrete-empirical",
                                  "geometric", "bernoulli-sum"])
def test_quantile_of_atoms_lands_on_an_atom(name):
    d = LAWS[name]()
    assert np.all(np.isin(d.quantile(LEVELS), d.atoms()[0]))


def test_geometric_quantile_is_an_integer():
    assert GeometricCount(0.5).quantile(0.9) == 3.0


def test_sum_without_atoms_has_no_quantile():
    with pytest.raises(DistributionError, match="no cdf"):
        sum_of_independents([Gaussian(0.0, 1.0)] * 2).quantile(0.5)


@pytest.mark.parametrize("d", [Exponential(1.5), Uniform(-1.0, 2.0),
                               random_sum(GeometricCount(0.5), Exponential(2.0))],
                         ids=["exponential", "uniform", "geometric-exponential"])
def test_closed_stop_loss_matches_the_generic_route(d):
    t = np.linspace(d.support.lo - 1.0, d.quantile(1.0 - 1e-9) + 1.0, 101)
    assert type(d).stop_loss is not Distribution.stop_loss
    np.testing.assert_allclose(d.stop_loss(t), Distribution.stop_loss(d, t),
                               rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("name", ["zero-bias-continuous", "zero-bias-discrete",
                                  "equilibrium"])
def test_transformed_laws_sample_by_their_quantile(name):
    d = LAWS[name]()
    u = rng_stream(7, 0).uniform(size=50)
    assert np.array_equal(d.sample(rng_stream(7, 0), 50), d.quantile(u))


def test_transforms_return_laws():
    for law in (zero_bias(two_point(1.0, 2.0)), equilibrium(Exponential(1.0)),
                smooth(two_point(1.0, 1.0), 0.5)):
        assert isinstance(law, Distribution)

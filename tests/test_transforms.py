import math

import numpy as np
import pytest
from scipy.stats import gamma, norm

from steinbounds import distributions, kernels, numerics, transforms
from steinbounds.distributions import (Exponential, Gamma, Gaussian, Uniform,
                                       centered, point_mass,
                                       standardized_bernoulli,
                                       sum_of_independents, two_point)
from steinbounds.kernels import integral_kernel
from steinbounds.numerics import rng_stream
from steinbounds.transforms import (EquilibriumDistribution, NotCentered,
                                    ZeroBiasDistribution, equilibrium,
                                    stop_loss, zero_bias, zero_bias_sum)


def test_zero_bias_requires_centered():
    with pytest.raises(NotCentered):
        zero_bias(Exponential(1.0))


def test_zero_bias_gaussian_is_fixed_point():
    star = zero_bias(Gaussian(0.0, 1.0)).star
    for x in (-2.0, -0.5, 0.0, 1.0, 2.5):
        assert star.density(x) == pytest.approx(norm.pdf(x), abs=1e-6)


def test_zero_bias_two_point_is_uniform():
    a, b = 1.0, 2.0
    spec = zero_bias(two_point(a, b))
    assert spec.sigma2 == pytest.approx(a * b)
    star = spec.star
    assert star.density(0.0) == pytest.approx(1.0 / (a + b), abs=1e-12)
    assert star.cdf(b) == pytest.approx(1.0, abs=1e-9)
    assert star.cdf(-a) == pytest.approx(0.0, abs=1e-9)
    # cdf is linear on (-a, b)
    assert star.cdf(0.5) == pytest.approx(1.5 / 3.0, abs=1e-9)


def test_zero_bias_mean_is_third_moment_over_2sigma2():
    d = two_point(1.0, 2.0)  # skewed
    spec = zero_bias(d)
    m3 = d.expect(lambda x: x ** 3)
    assert spec.star.expect(lambda x: x) == pytest.approx(
        m3 / (2.0 * spec.sigma2), rel=1e-8)


@pytest.mark.parametrize("base", [Gamma(3.0, 2.0), two_point(1.0, 2.0)],
                         ids=["continuous", "discrete"])
def test_zero_bias_expect_takes_vector_integrands(base):
    zb = zero_bias(centered(base)).star
    both = zb.expect(lambda x: np.stack([np.cos(x), x * x], -1))
    assert both == pytest.approx([zb.expect(np.cos), zb.expect(lambda x: x * x)],
                                 rel=1e-9)


def test_zero_bias_identity_mc():
    # E[W phi(W)] = sigma^2 E[phi'(W*)] checked for phi = sin
    d = centered(Uniform(0.0, 2.0))
    spec = zero_bias(d)
    lhs = d.expect(lambda x: x * np.sin(x), rel_tol=1e-10)
    rhs = spec.sigma2 * spec.star.expect(lambda x: np.cos(x), rel_tol=1e-10)
    # the zero-bias density is tabulated; its stated accuracy budget is 1e-6
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_zero_bias_sampling():
    spec = zero_bias(Gaussian(0.0, 1.0))
    x = spec.star.sample(rng_stream(3, 0), 100000)
    assert np.mean(x) == pytest.approx(0.0, abs=0.02)
    assert np.var(x) == pytest.approx(1.0, abs=0.03)


def test_stop_loss_point_mass():
    d = point_mass(3.0)
    for t in (0.0, 2.0, 3.0, 5.0):
        assert stop_loss(d, t) == pytest.approx(max(3.0 - t, 0.0), abs=1e-12)


def test_stop_loss_uniform():
    d = Uniform(0.0, 1.0)
    # E(X - t)+ = (1 - t)^2 / 2 on [0, 1]
    for t in (0.0, 0.25, 0.9):
        assert stop_loss(d, t) == pytest.approx((1 - t) ** 2 / 2.0, abs=1e-9)


def test_stop_loss_gamma_closed_form():
    # E(X - t)+ = (k/b) SF_{k+1}(t) - t SF_k(t) for X ~ Gamma(k, rate b)
    k, b = 2.0, 1.5
    t = np.array([-1.0, 0.0, 0.3, 1.0, 2.5, 8.0, 30.0])
    expected = np.where(t < 0, k / b - t,
                        k / b * gamma.sf(t, k + 1, scale=1 / b)
                        - t * gamma.sf(t, k, scale=1 / b))
    np.testing.assert_allclose(stop_loss(Gamma(k, b), t), expected,
                               rtol=1e-7, atol=1e-10)


def test_tables_make_no_quadrature_calls(monkeypatch):
    # building and reading the tail-moment tables is vectorised: the number
    # of adaptive quadrature calls depends on neither the node count nor
    # the number of points read
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (numerics, distributions, kernels, transforms):
        for name in ("integrate", "integrate_soft"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(getattr(module, name)))
    d = Gamma(2.0, 1.0)

    def count(nodes, points):
        calls.clear()
        xs = np.linspace(0.0, 8.0, points)
        integral_kernel(d, grid_points=nodes)(xs)
        star = ZeroBiasDistribution(centered(d), cdf_grid=nodes)
        star.density(xs - 2.0)
        star.cdf(xs - 2.0)
        eq = EquilibriumDistribution(d, cdf_grid=nodes)
        eq.survival(xs)
        eq.quantile(0.5)
        return len(calls)

    assert count(128, 16) == count(1024, 256)


def test_stop_loss_of_zero_bias_two_point():
    # W* is uniform on (-a, b): closed stop-loss (b - t)^2 / (2 (a + b))
    star = zero_bias(two_point(1.0, 2.0)).star
    for t in (-0.5, 0.0, 1.0):
        assert stop_loss(star, t) == pytest.approx(
            (2.0 - t) ** 2 / 6.0, abs=1e-9)


def test_equilibrium_exponential_fixed_point():
    spec = equilibrium(Exponential(2.0))
    assert spec.lam == pytest.approx(2.0)
    xs = np.linspace(0.0, 5.0, 20)
    assert np.max(np.abs(np.asarray(spec.eq.cdf(xs))
                         - (1 - np.exp(-2 * xs)))) <= 1e-9


def test_equilibrium_uniform():
    # density of the equilibrium law of U[0,2] is (1 - x/2), cdf x - x^2/4
    spec = equilibrium(Uniform(0.0, 2.0))
    for x in (0.2, 1.0, 1.7):
        assert spec.eq.density(x) == pytest.approx(1 - x / 2.0, rel=1e-9)
        assert spec.eq.cdf(x) == pytest.approx(x - x * x / 4.0, abs=1e-9)


def test_equilibrium_rejects_nonpositive_mean():
    with pytest.raises(Exception):
        equilibrium(centered(Uniform(0.0, 2.0)))


def test_zero_bias_sum_gap_closed_form():
    n, p = 30, 0.3
    q = 1.0 - p
    coup = zero_bias_sum([standardized_bernoulli(p, n)] * n)
    gap, se = coup.mean_abs_gap(rng_stream(42, 0), 200000)
    expected = (p * p + q * q) / (2.0 * math.sqrt(n * p * q))
    assert gap == pytest.approx(expected, abs=4 * se)


def test_zero_bias_sum_variance_matches():
    n, p = 10, 0.5
    parts = [standardized_bernoulli(p, n)] * n
    coup = zero_bias_sum(parts)
    w = sum_of_independents(parts)
    assert w.var() == pytest.approx(1.0, rel=1e-12)
    assert coup.sigma2 == pytest.approx(1.0, rel=1e-12)

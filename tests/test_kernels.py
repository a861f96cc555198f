import math

import numpy as np
import pytest
from scipy.stats import norm

from steinbounds.distributions import (Beta, Exponential, Gamma, Gaussian,
                                       Pareto, Uniform, two_point)
from steinbounds.kernels import (UnsupportedFamily, integral_kernel,
                                 kernel_identity_residual, pearson_kernel,
                                 pearson_ode_residual, smooth,
                                 smoothed_kernel)


def test_pearson_closed_forms():
    xs = np.array([0.2, 0.5, 0.8])
    assert np.allclose(pearson_kernel(Gaussian(0.0, 1.0))(xs), 1.0)
    assert np.allclose(pearson_kernel(Beta(4.0, 8.0))(xs),
                       xs * (1 - xs) / 12.0)
    assert np.allclose(pearson_kernel(Gamma(2.0, 3.0))(xs), xs / 3.0)
    assert np.allclose(pearson_kernel(Exponential(1.0))(xs), xs)
    assert np.allclose(pearson_kernel(Uniform(0.0, 1.0))(xs),
                       xs * (1 - xs) / 2.0)
    xs = np.array([1.5, 2.0, 5.0])
    assert np.allclose(pearson_kernel(Pareto(3.0, 1.0))(xs),
                       xs * (xs - 1.0) / 2.0)


def test_pearson_rejects_discrete():
    with pytest.raises(UnsupportedFamily):
        pearson_kernel(two_point(1.0, 1.0))


def test_integral_kernel_nonnegative():
    d = Gamma(2.0, 1.0)
    k = integral_kernel(d)
    xs = np.linspace(d.quantile(0.01), d.quantile(0.99), 50)
    assert np.all(np.asarray(k(xs)) >= 0.0)


def test_integral_kernel_needs_density():
    from steinbounds.kernels import KernelError
    with pytest.raises(KernelError):
        integral_kernel(two_point(1.0, 1.0))


def test_identity_residual_small():
    d = Beta(4.0, 8.0)
    k = pearson_kernel(d)
    r = kernel_identity_residual(k, np.sin, np.cos, rel_tol=1e-10)
    assert abs(r) <= 1e-9


def test_pearson_ode_residual():
    d = Gaussian(0.0, 1.0)
    k = pearson_kernel(d)
    xs = np.array([-1.0, 0.5, 2.0])
    assert np.max(np.abs(pearson_ode_residual(k, xs, d))) <= 1e-4


def test_smoothed_moment_identity():
    for base, var in ((two_point(1.0, 1.0), 1.0), (Uniform(0.0, 1.0),
                                                   1.0 / 12.0)):
        for eps in (0.25, 1.0):
            s = smooth(base, eps)
            k = smoothed_kernel(s)
            e_tau = s.expect(lambda x: k(x), rel_tol=1e-9)
            assert e_tau == pytest.approx(var + eps * eps, abs=1e-6)


def test_smoothed_rademacher_origin():
    k = smoothed_kernel(smooth(two_point(1.0, 1.0), 1.0))
    expected = 1.0 + (2.0 * norm.cdf(1.0) - 1.0) / (2.0 * norm.pdf(1.0))
    assert float(k(0.0)) == pytest.approx(expected, abs=1e-9)


def test_smoothed_density_is_mixture_of_gaussians():
    s = smooth(two_point(1.0, 2.0), 0.5)
    x = 0.3
    w_minus, w_plus = 2.0 / 3.0, 1.0 / 3.0
    expect = (w_minus * norm.pdf(x, -1.0, 0.5) + w_plus * norm.pdf(x, 2.0, 0.5))
    assert s.density(x) == pytest.approx(expect, rel=1e-12)


def test_smooth_rejects_bad_epsilon():
    with pytest.raises(Exception):
        smooth(two_point(1.0, 1.0), -1.0)


def test_smoothed_law_with_tiny_epsilon():
    # the Gaussian factor is far narrower than the base's panels: each
    # point gets its own cuts, and the mix returns the base's own law
    conv = smooth(Gaussian(0.0, 1.0), 1e-6)
    x = np.array([-1.0, 0.0, 0.5])
    np.testing.assert_allclose(conv.density(x), norm.pdf(x), rtol=1e-8)
    np.testing.assert_allclose(conv.cdf(x), norm.cdf(x), rtol=1e-8)
    # over atoms the panels are cut around each bump, not every epsilon
    conv = smooth(two_point(1.0, 2.0), 1e-6)
    assert conv.expect(lambda x: x * x) == pytest.approx(2.0 + 1e-12, rel=1e-9)


def test_smoothed_expect_takes_vector_integrands():
    conv = smooth(two_point(1.0, 2.0), 0.5)
    both = conv.expect(lambda x: np.stack([x, x * x], -1))
    assert both == pytest.approx([conv.expect(lambda x: x),
                                  conv.expect(lambda x: x * x)], rel=1e-9)


def test_kernel_mean_property():
    d = Gamma(2.0, 1.0)
    assert pearson_kernel(d).expected_value() == pytest.approx(2.0, rel=1e-9)

import math

import numpy as np
import pytest
from scipy.stats import norm

from steinbounds import distributions, numerics
from steinbounds.distributions import (Beta, Exponential, Gamma, Gaussian,
                                       GeometricCount, InverseGamma, Pareto,
                                       Uniform, random_sum, two_point)
from steinbounds.kernels import (UnsupportedFamily, integral_kernel,
                                 pearson_kernel, smooth, smoothed_kernel)
from steinbounds.numerics import Interval, integrate
from steinbounds.transforms import stop_loss


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


def test_integral_kernel_refuses_atoms():
    # an atom at 0 of mass 1/2 next to a density: tau = excess / p would
    # leave the atom out, E[tau] = 2.307 against Var[W] = 3
    from steinbounds.kernels import KernelError
    with pytest.raises(KernelError, match="no atoms"):
        integral_kernel(random_sum(GeometricCount(0.5), Exponential(1.0)))


def kernel_identity_residual(kernel, phi, dphi, rel_tol):
    """Cov[W, phi(W)] - E[tau(W) phi'(W)] by quadrature."""
    d = kernel.base
    mu = d.mean()
    cov = d.expect(lambda x: (x - mu) * phi(x), rel_tol=rel_tol)
    return cov - d.expect(lambda x: kernel(x) * dphi(x), rel_tol=rel_tol)


def pearson_ode_residual(kernel, x, d, h=1e-6):
    """p'(x)/p(x) + ((2 d1 + 1)(x - mu) + d2) / tau(x); zero for Pearson laws."""
    d1, d2, _, mu = kernel.pearson_coeffs
    logp = (np.log(d.density(x + h)) - np.log(d.density(x - h))) / (2 * h)
    return logp + ((2 * d1 + 1) * (x - mu) + d2) / kernel(x)


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
    # a density unbounded at a support edge, and a base with atoms only
    for base, eps in ((Gamma(0.5, 1.0), 0.3), (two_point(1.0, 2.0), 0.5)):
        s = smooth(base, eps)
        k = smoothed_kernel(s)
        e_tau = s.expect(lambda x: k(x), rel_tol=1e-9)
        assert e_tau == pytest.approx(base.var() + eps * eps, rel=1e-9)
    # N(0, 1) + N(0, 1) is N(0, 2), whose kernel is 2 everywhere
    s = smooth(Gaussian(0.0, 1.0), 1.0)
    x = np.linspace(*s.quantile([1e-9, 1.0 - 1e-9]), 101)
    np.testing.assert_allclose(smoothed_kernel(s)(x), 2.0, rtol=1e-8)


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


def test_smoothed_gaussian_matches_closed_form():
    # N(0, v) + N(0, eps^2) is N(0, v + eps^2): a base far narrower than eps
    # (cut at its quantiles), and a wider one, whose density is read directly
    # away from any support edge (by parts it would be off by about 1e-9)
    for var, eps in ((1e-4, 1.0), (1.0, 0.5)):
        conv = smooth(Gaussian(0.0, var), eps)
        x, sd = np.array([-3.0, 0.0, 0.3, 3.0]), math.sqrt(var + eps * eps)
        np.testing.assert_allclose(conv.density(x), norm.pdf(x, scale=sd), rtol=1e-11)
        np.testing.assert_allclose(conv.cdf(x), norm.cdf(x, scale=sd), atol=1e-11)


def test_smoothed_expect_takes_vector_integrands():
    conv = smooth(two_point(1.0, 2.0), 0.5)
    both = conv.expect(lambda x: np.stack([x, x * x], -1))
    assert both == pytest.approx([conv.expect(lambda x: x),
                                  conv.expect(lambda x: x * x)], rel=1e-9)


def test_smoothed_gaussian_table_is_the_sum_law():
    # N(0, 1) + N(0, 0.25) is N(0, 1.25): the smoothed law's own table, its
    # kernel and its stop-loss against the closed forms
    s, var = smooth(Gaussian(0.0, 1.0), 0.5), 1.25
    sd, x = math.sqrt(var), np.linspace(-6.0, 6.0, 1201)
    cdf, sf, pdf = norm.cdf(x, scale=sd), norm.sf(x, scale=sd), norm.pdf(x, scale=sd)
    exact = [cdf, -var * pdf, var * (cdf - x * pdf), sf, var * pdf, var * (sf + x * pdf)]
    assert np.max(np.abs(s.tail_moments()(x) - exact)) <= 2e-9
    np.testing.assert_allclose(smoothed_kernel(s)(x), var, rtol=1e-8)
    for t in (-1.0, 0.3, 2.0):
        closed = sd * norm.pdf(t / sd) - t * norm.sf(t / sd)
        assert stop_loss(s, t) == pytest.approx(closed, abs=1e-9)


def test_smoothed_heavy_tail_identity():
    # E[tau] = Var[S] takes the excess beyond the table's last node too
    s = smooth(Pareto(2.5, 1.0), 0.5)
    assert smoothed_kernel(s).expected_value() == pytest.approx(s.var(), rel=1e-6)


def test_kernel_mean_property():
    d = Gamma(2.0, 1.0)
    assert pearson_kernel(d).expected_value() == pytest.approx(2.0, rel=1e-9)


# the six kernel laws of the transform-tables benchmark workload, at its 128
# nodes, two laws with steep or heavy edges, and three smoothed laws
CLOSED_FORM_KERNELS = {
    **{f"integral-{name}": (lambda d=d: integral_kernel(d, 128)) for name, d in (
        ("pareto:3,1", Pareto(3.0, 1.0)), ("invgamma:5,3", InverseGamma(5.0, 3.0)),
        ("gamma:2,1", Gamma(2.0, 1.0)), ("gamma:3,1", Gamma(3.0, 1.0)),
        ("beta:3,5", Beta(3.0, 5.0)), ("gamma:4,1", Gamma(4.0, 1.0)))},
    "integral-beta:0.5,0.7": lambda: integral_kernel(Beta(0.5, 0.7)),
    "integral-pareto:2.5,1": lambda: integral_kernel(Pareto(2.5, 1.0)),
    **{f"smoothed-{name}": (lambda d=d: smoothed_kernel(smooth(d, 0.5))) for name, d in (
        ("normal:0,1", Gaussian(0.0, 1.0)), ("two-point:1,1.5", two_point(1.0, 1.5)),
        ("pareto:2.5,1", Pareto(2.5, 1.0)))},
}


@pytest.mark.parametrize("make", CLOSED_FORM_KERNELS.values(), ids=CLOSED_FORM_KERNELS)
def test_table_kernel_mean_is_the_exact_integral_of_its_cubics(make):
    # the reference integrates the excess that tau reads between the nodes
    # by quadrature, and adds the same closed-form tails beyond them
    k = make()
    table, mu = k.table, k.base.mean()
    lo, hi = table.xs[0], table.xs[-1]
    inner = integrate(lambda x: table.excess(x, mu), Interval(lo, hi),
                      rel_tol=1e-13, points=table.xs).value
    l0, l1, l2, _, _, _ = table(lo)
    _, _, _, u0, u1, u2 = table(hi)
    tails = (u2 - hi * u1) - mu * (u1 - hi * u0) + mu * (lo * l0 - l1) - (lo * l1 - l2)
    var = k.base.var()
    assert abs(k.expected_value() - (inner + tails)) <= 1e-14 * var


def test_table_kernel_mean_calls_no_quadrature_and_no_density(monkeypatch):
    d = Gamma(2.0, 1.0)
    k = integral_kernel(d, 128)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (numerics, distributions):
        monkeypatch.setattr(module, "integrate", counted("integrate", module.integrate))
    monkeypatch.setattr(numerics, "integrate_soft",
                        counted("integrate_soft", numerics.integrate_soft))
    monkeypatch.setattr(d, "density", counted("density", d.density))
    assert k.expected_value() == pytest.approx(2.0, rel=1e-4)
    assert calls == []

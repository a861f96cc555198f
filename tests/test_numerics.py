import math

import numpy as np
import pytest
from scipy.stats import norm

from steinbounds import numerics
from steinbounds.bounds import bound_zero_bias
from steinbounds.distributions import Pareto, centered
from steinbounds.exprfn import make_test_function
from steinbounds.numerics import (MAX_EVALS, REAL_LINE, IntegrationError,
                                  Interval, NonFiniteError, integrate,
                                  integrate_soft, inverse_cdf, rng_stream,
                                  sign_changes)
from steinbounds.transforms import zero_bias


def test_interval_basics():
    iv = Interval(0.0, 2.0)
    assert iv.lo_finite and iv.hi_finite
    assert iv.contains(1.0) and not iv.contains(3.0)
    assert iv.contains(2.0 + 1e-9, slack=1e-6)
    assert float(iv.clip(5.0)) == 2.0
    whole = Interval(-math.inf, math.inf)
    assert not whole.lo_finite and not whole.hi_finite


def test_integrate_gaussian_density():
    r = integrate(norm.pdf, Interval(-math.inf, math.inf), rel_tol=1e-10)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.evaluations > 0


def test_integrate_with_breakpoints():
    # |x| has a kink at 0; the breakpoint lets quad resolve it exactly
    r = integrate(abs, Interval(-1.0, 1.0), rel_tol=1e-12, points=[0.0])
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_integrate_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        integrate(lambda x: np.where(x < 0.5, math.inf, 1.0),
                  Interval(0.0, 1.0), rel_tol=1e-6)


def test_integrate_never_converging_raises_within_budget():
    rng = np.random.default_rng(0)
    evaluated = []

    def noise(x):
        evaluated.append(len(x))
        return rng.standard_normal(len(x))

    with pytest.raises(IntegrationError):
        integrate(noise, Interval(0.0, 1.0), rel_tol=1e-6)
    assert 0 < sum(evaluated) <= MAX_EVALS


def test_integrate_breakpoint_on_infinite_interval():
    # a jump at 2: with the cut there the first pass is exact, without it
    # the panel holding the jump must be bisected again and again
    def f(x):
        return np.where(x > 2.0, np.exp(-np.maximum(x, 2.0)), 0.0)

    cut = integrate(f, REAL_LINE, rel_tol=1e-10, points=[2.0])
    assert cut.value == pytest.approx(math.exp(-2.0), rel=1e-13)
    assert cut.evaluations < integrate_soft(f, REAL_LINE, rel_tol=1e-10).evaluations


def test_integrate_constant_and_vector_integrands():
    assert integrate(lambda x: 2.0, Interval(0.0, 3.0)).value == \
        pytest.approx(6.0, rel=1e-14)
    r = integrate(lambda x: norm.pdf(x)[:, None] * np.stack([x**0, x, x * x], -1),
                  REAL_LINE, rel_tol=1e-10)
    assert r.err.shape == (3,)
    np.testing.assert_allclose(r.value, [1.0, 0.0, 1.0], atol=1e-10)


def test_integrate_slow_tail_is_summed_to_infinity():
    # int_1^inf x^-1.5 dx = 2: the part past the fixed tail panels is
    # ~1e-7 of it, and must be in the value, not left out
    r = integrate(lambda x: x ** -1.5, Interval(1.0, math.inf), rel_tol=1e-11)
    assert r.value == pytest.approx(2.0, rel=1e-11)
    assert integrate(lambda x: 1.0 / (1.0 + x * x), REAL_LINE,
                     rel_tol=1e-11).value == pytest.approx(math.pi, rel=1e-11)


@pytest.mark.parametrize("f", [lambda x: 1.0 / (1.0 + x), lambda x: 1.0 - 1.0 / x],
                         ids=["log-divergent", "not-decaying"])
def test_integrate_divergent_tail_raises(f):
    with pytest.raises(IntegrationError):
        integrate(f, Interval(1.0, math.inf))


def test_zero_bias_pareto_sin_returns_or_raises_within_budget(monkeypatch):
    # g'(W*)^2 = cos^2 oscillates undamped far into the zero-bias law's
    # heavy tail: the quadrature must give up within its budget
    evaluations = []
    soft = numerics.integrate_soft

    def counted(*args, **kwargs):
        res = soft(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(numerics, "integrate_soft", counted)
    dc = centered(Pareto(3.0, 1.0))
    g = make_test_function("sin(x)", dc.effective_interval(1e-9))
    try:
        rep = bound_zero_bias(zero_bias(dc), g, n_mc=10**4, seed=0)
    except IntegrationError:
        pass
    else:
        assert rep.lower <= rep.upper
    assert evaluations and max(evaluations) <= MAX_EVALS


def test_integrate_rejects_bad_rel_tol():
    with pytest.raises(ValueError):
        integrate(norm.pdf, Interval(-1.0, 1.0), rel_tol=0.5)


def test_inverse_cdf_matches_ppf():
    iv = Interval(-math.inf, math.inf)
    for p in (0.01, 0.3, 0.5, 0.9, 0.999):
        x = inverse_cdf(norm.cdf, p, iv)
        assert x == pytest.approx(norm.ppf(p), abs=1e-9)


def test_rng_stream_reproducible_and_independent():
    a = rng_stream(7, 3).standard_normal(5)
    b = rng_stream(7, 3).standard_normal(5)
    c = rng_stream(7, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sign_changes_bisects_each_panel():
    # f jumps at 1, so the first panel's right end is read below it; the
    # second panel keeps its sign
    def f(x):
        return np.where(x < 1.0, x - 0.3, x - 2.5)

    roots = sign_changes(f, np.array([0.0, 1.0, 2.0, 3.0]))
    assert roots == pytest.approx([0.3, 2.5], abs=2.0**-31)

import math

import numpy as np
import pytest
from scipy.stats import norm

from steinbounds.numerics import (Interval, NonFiniteError, central_diff,
                                  integrate, inverse_cdf, linear_grid,
                                  rng_stream)


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
        integrate(lambda x: math.inf if x < 0.5 else 1.0,
                  Interval(0.0, 1.0), rel_tol=1e-6)


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


def test_grids():
    lg = linear_grid(0.0, 1.0, 11)
    assert np.allclose(lg, np.linspace(0.0, 1.0, 11))


def test_central_diff():
    assert central_diff(np.sin, 0.3) == pytest.approx(math.cos(0.3), abs=1e-8)

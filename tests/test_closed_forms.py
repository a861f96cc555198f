"""The closed-form continuous families against scipy.stats, their oracle.

Each family copies scipy's formulas, so every value must equal scipy's
frozen law exactly, not just closely.  The one deliberate departure is
the inverse-gamma sampler, checked here by its law instead.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import PCG64, Generator
from scipy import stats

from steinbounds.distributions import (PROB_LEVELS, Beta, Exponential, Gamma,
                                       Gaussian, InverseGamma, Pareto, Uniform)

# (law, the same law frozen in scipy.stats)
LAWS = {
    "gaussian-0-1": (Gaussian(0.0, 1.0), stats.norm(0.0, 1.0)),
    "gaussian-1.5-0.3": (Gaussian(1.5, 0.3), stats.norm(1.5, math.sqrt(0.3))),
    "beta-4-8": (Beta(4.0, 8.0), stats.beta(4.0, 8.0)),
    "beta-0.5-0.7": (Beta(0.5, 0.7), stats.beta(0.5, 0.7)),
    "gamma-4-1": (Gamma(4.0, 1.0), stats.gamma(4.0, scale=1.0)),
    "gamma-0.5-2.5": (Gamma(0.5, 2.5), stats.gamma(0.5, scale=1.0 / 2.5)),
    "inverse-gamma-5.3-3": (InverseGamma(5.3, 3.0), stats.invgamma(5.3, scale=3.0)),
    "inverse-gamma-1.5-1": (InverseGamma(1.5, 1.0), stats.invgamma(1.5, scale=1.0)),
    "pareto-3-1": (Pareto(3.0, 1.0), stats.pareto(3.0, scale=1.0)),
    "pareto-2.5-0.7": (Pareto(2.5, 0.7), stats.pareto(2.5, scale=0.7)),
    "exponential-1": (Exponential(1.0), stats.expon(scale=1.0)),
    "exponential-2.5": (Exponential(2.5), stats.expon(scale=1.0 / 2.5)),
    "uniform-0-1": (Uniform(0.0, 1.0), stats.uniform(0.0, 1.0)),
    "uniform-0.1-0.3": (Uniform(0.1, 0.3), stats.uniform(0.1, 0.3 - 0.1)),
}

# Laws whose method is this library's own closed form, not scipy's, and so
# equal to scipy's only up to rounding.
OWN = {("pareto", "mean"), ("pareto", "var"), ("exponential", "survival")}


def grid(law, frozen):
    """Points outside the support, on and next to its edges, through the
    bulk (the quantiles of PROB_LEVELS), in the far tails, and NaN; no
    subnormal point, which the scalar checks take one at a time."""
    pts = [-np.inf, -1e300, -1e10, -50.0, -3.0, -1.0, -1e-300, -0.0, 0.0,
           1e-300, 1e-10, 0.5, 1.0, 3.0, 50.0, 1e10, 1e300, np.inf, np.nan]
    for edge in (law.support.lo, law.support.hi):
        if math.isfinite(edge):
            pts += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    pts = [p for p in pts if not 0 < abs(p) < np.finfo(float).tiny]
    return np.concatenate([pts, frozen.ppf(PROB_LEVELS)])


def outcome(f, x):
    """f(x), or the type of the error it raises: scipy's beta density, for
    one, overflows at a subnormal point next to 0 when a < 1."""
    try:
        return f(x)
    except OverflowError as e:
        return type(e)


def same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b, equal_nan=True) and np.shape(a) == np.shape(b)


METHODS = [("density", "pdf"), ("cdf", "cdf"), ("survival", "sf")]


@pytest.mark.parametrize("name", LAWS)
@np.errstate(all="ignore")  # the formulas overflow alike at x = 1e300
def test_values_equal_scipy_exactly(name):
    law, frozen = LAWS[name]
    x = grid(law, frozen)
    for ours, theirs in METHODS:
        want = getattr(frozen, theirs)(x)
        got = getattr(law, ours)(x)
        if (law.family, ours) in OWN:
            assert np.allclose(got, want, rtol=1e-14, atol=0.0,
                               equal_nan=True), ours
            continue
        assert same(got, want), (ours, x[got != want])
        square = x[:len(x) // 2 * 2].reshape(2, -1)
        assert same(getattr(law, ours)(square), getattr(frozen, theirs)(square))
        # a scalar point gives the scalar scipy gives, subnormal ones too
        for xi in np.concatenate([x[:22], [5e-324, -5e-324, 1e-310]]):
            one = outcome(getattr(law, ours), xi)
            assert type(one) is type(outcome(getattr(frozen, theirs), xi))
            assert same(one, outcome(getattr(frozen, theirs), xi)), (ours, xi)


@pytest.mark.parametrize("name", LAWS)
def test_moments_equal_scipy_exactly(name):
    law, frozen = LAWS[name]
    for m in ("mean", "var"):
        want = float(getattr(frozen, m)())
        got = getattr(law, m)()
        if (law.family, m) in OWN:
            assert math.isclose(got, want, rel_tol=1e-14), m
        else:
            assert type(got) is float and got == want, (m, got, want)


@pytest.mark.parametrize("name", LAWS)
def test_quantile_equals_scipy_exactly(name):
    law, frozen = LAWS[name]
    p = np.concatenate([PROB_LEVELS, [0.0, 1.0, -0.5, 1.5, np.nan]])
    assert same(law.quantile(p), frozen.ppf(p))
    for pi in (0.0, 1.0, 0.3, 1e-12):
        got = law.quantile(pi)
        assert type(got) is float and got == frozen.ppf(pi), pi


@pytest.mark.parametrize("name", [n for n in LAWS if "inverse-gamma" not in n])
@pytest.mark.parametrize("seed", [0, 7])
def test_sample_stream_equals_scipy(name, seed):
    """The same draws, byte for byte, and the generator left in the same
    state."""
    law, frozen = LAWS[name]
    ours, theirs = Generator(PCG64(seed)), Generator(PCG64(seed))
    got = law.sample(ours, 1000)
    want = frozen.rvs(1000, random_state=theirs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert ours.random() == theirs.random()


def test_inverse_gamma_sampler_law():
    """InverseGamma(5, 3) draws as b / G: the KS distance to the law and the
    sample mean agree with the law at one fixed seed."""
    a, b, n = 5.0, 3.0, 10**5
    x = np.sort(InverseGamma(a, b).sample(Generator(PCG64(20191)), n))
    cdf = stats.invgamma(a, scale=b).cdf(x)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 1.63 / math.sqrt(n)
    mean, var = b / (a - 1), b * b / ((a - 1) ** 2 * (a - 2))
    assert abs(x.mean() - mean) < 4 * math.sqrt(var / n)


def test_import_loads_no_scipy_stats_or_optimize():
    """The package and its CLI parser load scipy.special only, and so does a
    smoothed bound, whose law inverts its tabulated cdf."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for run in ("steinbounds.cli.build_parser()",
                "steinbounds.cli.main(['bound', '--dist', 'two-point:1.3,0.7', "
                "'--g', 'x', '--method', 'smoothed-i', '--epsilon', '0.6', "
                "'--n-mc', '1000'])"):
        code = ("import sys, steinbounds, steinbounds.cli; "
                f"{run}; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('scipy.stats', 'scipy.optimize'))))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip().splitlines()[-1] == "[]"

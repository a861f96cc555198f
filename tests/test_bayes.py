import math

import numpy as np
import pytest

from steinbounds.bayes import (PAIRS, InvalidSummary, UnknownPair,
                               posterior_bounds, summarize, update)
from steinbounds.exprfn import make_test_function
from steinbounds.numerics import Interval
from steinbounds.verify import CONJUGATE_SETTINGS


def test_pairs_catalog():
    assert len(PAIRS) == 9
    assert "binomial-beta" in PAIRS and "uniform-pareto" in PAIRS


def test_unknown_pair():
    with pytest.raises(UnknownPair):
        update("nonesuch", {}, {})


def test_invalid_summaries():
    with pytest.raises(InvalidSummary):
        update("binomial-beta", {"alpha": 1.0, "beta": 1.0},
               {"n": 5, "x": 7})  # successes exceed trials
    with pytest.raises(InvalidSummary):
        update("binomial-beta", {"alpha": 1.0, "beta": 1.0}, {"n": 5})
    with pytest.raises(InvalidSummary):
        update("poisson-gamma", {"alpha": -1.0, "beta": 1.0},
               {"n": 3, "sum": 4.0})


def test_binomial_beta_display_case():
    m = update("binomial-beta", {"alpha": 1.0, "beta": 1.0},
               {"n": 10, "x": 3})
    assert m.posterior.family == "beta"
    assert m.posterior.params == (4.0, 8.0)
    g = make_test_function("x", Interval(0.0, 1.0))
    rep = posterior_bounds(m, g, n_mc=10**4, seed=0)
    # linear g makes the sandwich collapse to the posterior variance
    var = m.posterior.var()
    assert rep.lower == pytest.approx(var, rel=1e-12)
    assert rep.upper == pytest.approx(var, rel=1e-12)


def test_sequential_equals_pooled():
    first = update("binomial-beta", {"alpha": 1.0, "beta": 1.0},
                   {"n": 4, "x": 2})
    second = update("binomial-beta",
                    dict(zip(("alpha", "beta"), first.posterior.params)),
                    {"n": 6, "x": 1})
    pooled = update("binomial-beta", {"alpha": 1.0, "beta": 1.0},
                    {"n": 10, "x": 3})
    assert second.posterior.params == pooled.posterior.params


def test_summarize_matches_manual():
    data = [1.0, 2.0, 3.0]
    s = summarize("poisson-gamma", data)
    assert s == {"n": 3, "sum": 6.0}
    s = summarize("uniform-pareto", data)
    assert s == {"n": 3, "max": 3.0}
    s = summarize("gaussian-mean", data)
    assert s["n"] == 3 and s["mean"] == pytest.approx(2.0)


DATA = np.array([0.5, 1.2, 2.0, 3.1])
COUNTS = np.array([1.0, 0.0, 3.0, 2.0])  # for the count likelihoods

# The posteriors of the bayes module docstring, written out by hand from
# the data x, its size n and the prior fields p.
DOCSTRING_POSTERIORS = {
    "gaussian-mean": lambda x, n, p: (
        (p["sigma"] ** 2 * p["mu"] + n * p["delta"] ** 2 * x.mean())
        / (n * p["delta"] ** 2 + p["sigma"] ** 2),
        p["sigma"] ** 2 * p["delta"] ** 2
        / (n * p["delta"] ** 2 + p["sigma"] ** 2)),
    "gaussian-var": lambda x, n, p: (
        n / 2 + p["alpha"], np.sum((x - p["mu"]) ** 2) / 2 + p["beta"]),
    "negbinomial-beta": lambda x, n, p: (
        x.sum() + p["alpha"], n * p["r"] + p["beta"]),
    "weibull-inverse-gamma": lambda x, n, p: (
        n + p["alpha"], np.sum(x ** p["k"]) + p["beta"]),
    "gamma-gamma": lambda x, n, p: (
        n * p["k"] + p["alpha"], x.sum() + p["beta"]),
    "laplace-inverse-gamma": lambda x, n, p: (
        n + p["alpha"], np.sum(np.abs(x - p["mu"])) + p["beta"]),
    "poisson-gamma": lambda x, n, p: (x.sum() + p["alpha"], n + p["beta"]),
    "uniform-pareto": lambda x, n, p: (
        n + p["alpha"], max(x.max(), p["beta"])),
}


@pytest.mark.parametrize("pair, prior", [
    pytest.param(pair, {**prior, "mu": 0.5} if "mu" in prior and
                 pair != "gaussian-mean" else prior, id=pair)
    for pair, prior, _ in CONJUGATE_SETTINGS if pair != "binomial-beta"])
def test_update_of_summary_is_docstring_posterior(pair, prior):
    # every raw-data pair, with a nonzero location mu where summarize reads it
    x = COUNTS if pair in ("negbinomial-beta", "poisson-gamma") else DATA
    m = update(pair, prior, summarize(pair, x, prior))
    assert m.posterior.params == pytest.approx(
        DOCSTRING_POSTERIORS[pair](x, len(x), prior), rel=1e-12)


def test_statistic_is_read_only_with_data_but_x_always():
    # with n = 0 a statistic of the data is not read, while binomial-beta's
    # success count is read and checked whatever n is
    m = update("poisson-gamma", {"alpha": 2.0, "beta": 1.0}, {"n": 0})
    assert m.posterior.params == (2.0, 1.0)
    prior = {"alpha": 1.0, "beta": 1.0}
    with pytest.raises(InvalidSummary, match="missing field 'x'"):
        update("binomial-beta", prior, {"n": 0})
    with pytest.raises(InvalidSummary, match="exceed trials"):
        update("binomial-beta", prior, {"n": 0, "x": 1})


def test_binomial_beta_has_no_raw_summary():
    with pytest.raises(InvalidSummary, match="binomial-beta takes"):
        summarize("binomial-beta", [1.0, 0.0, 1.0])


@pytest.mark.parametrize("pair, prior, summary", CONJUGATE_SETTINGS,
                         ids=[row[0] for row in CONJUGATE_SETTINGS])
def test_missing_field_is_named(pair, prior, summary):
    for key in [*prior, *summary]:
        args = ({k: v for k, v in prior.items() if k != key},
                {k: v for k, v in summary.items() if k != key})
        if (pair, key) == ("gaussian-var", "mu"):
            update(pair, *args)  # the known mean is summarize's alone
            continue
        with pytest.raises(InvalidSummary, match=f"missing field '{key}'"):
            update(pair, *args)


@pytest.mark.parametrize("pair, prior, summary", CONJUGATE_SETTINGS,
                         ids=[row[0] for row in CONJUGATE_SETTINGS])
def test_non_finite_field_is_named(pair, prior, summary):
    # n = nan once raised a bare ValueError from int(nan), and alpha = nan
    # or inf one from an empty interval, which the CLI ended in a traceback
    for key in [*prior, *summary]:
        if (pair, key) == ("gaussian-var", "mu"):
            continue  # the known mean is summarize's alone
        for bad in (math.nan, math.inf, -math.inf):
            fields = {**prior, **summary, key: bad}
            with pytest.raises(InvalidSummary, match=f"^{key} must be"):
                update(pair, {k: fields[k] for k in prior},
                       {k: fields[k] for k in summary})


def test_pareto_sign_note_attached():
    m = update("uniform-pareto", {"alpha": 3.0, "beta": 1.0},
               {"n": 5, "max": 2.0})
    assert "nonnegative form" in m.note


def test_lower_withheld_when_variance_undefined():
    # posterior Pareto shape n + alpha = 2 has no finite variance
    m = update("uniform-pareto", {"alpha": 1.0, "beta": 1.0},
               {"n": 1, "max": 2.0})
    # g with a decaying derivative keeps the upper integrable even though
    # the posterior has no finite variance
    g = make_test_function("x/(1+x^2)", m.posterior.effective_interval(1e-6))
    rep = posterior_bounds(m, g, n_mc=10**4, seed=0)
    assert rep.lower is None
    assert rep.upper is not None
    assert "lower_note" in rep.meta


def test_poisson_gamma_sandwich_closed_form():
    # posterior Gamma(13, 6), tau(t) = t/6; g = x + x^2/8 has g' = 1 + x/4
    m = update("poisson-gamma", {"alpha": 2.0, "beta": 1.0},
               {"n": 5, "sum": 11.0})
    assert m.posterior.params == (13.0, 6.0)
    g = make_test_function("x + x^2/8",
                           m.posterior.effective_interval(1e-9))
    rep = posterior_bounds(m, g, n_mc=10**4, seed=0)
    a, b = 13.0, 6.0
    raw = [1.0]  # E[T^k] = a (a+1) ... (a+k-1) / b^k
    for k in range(4):
        raw.append(raw[-1] * (a + k) / b)
    var_t = raw[2] - raw[1] ** 2
    upper = (raw[1] + raw[2] / 2 + raw[3] / 16) / 6
    lower = (raw[1] + raw[2] / 4) ** 2 / (36 * var_t)
    e_g = raw[1] + raw[2] / 8
    var_g = raw[2] + raw[3] / 4 + raw[4] / 64 - e_g ** 2
    assert rep.upper == pytest.approx(upper, rel=1e-9)
    assert rep.lower == pytest.approx(lower, rel=1e-9)
    assert rep.lower <= var_g <= rep.upper
    assert rep.method == "posterior-poisson-gamma"


def test_kernel_mean_is_posterior_variance():
    for pair, prior, summary in (
            ("gaussian-mean", {"mu": 0.0, "delta": 1.0, "sigma": 1.0},
             {"n": 4, "mean": 1.0}),
            ("gamma-gamma", {"alpha": 2.0, "beta": 1.0, "k": 1.5},
             {"n": 4, "sum": 7.0}),
            ("weibull-inverse-gamma", {"alpha": 3.0, "beta": 2.0, "k": 1.5},
             {"n": 5, "sum_pow": 6.0})):
        m = update(pair, prior, summary)
        e_tau = m.posterior.expect(lambda t: m.kernel(t), rel_tol=1e-9)
        assert e_tau == pytest.approx(m.posterior.var(), rel=1e-8)

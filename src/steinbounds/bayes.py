"""Conjugate posterior updates with posterior variance bounds.

Nine data/prior pairs are supported.  Each update consumes the pair's
sufficient summary (not raw data; summarize() computes summaries when raw
data is at hand), produces the conjugate posterior together with its
Pearson Stein kernel tau, and posterior_bounds() evaluates the Cacoullos
sandwich on the posterior (bounds.bound_cacoullos)

    E[tau(T) g'(T)]^2 / Var[T]  <=  Var[g(T)]  <=  E[tau(T) g'(T)^2],

withholding the lower side where Var[T] is undefined.

Pairs and updates (prior parameters alpha, beta unless noted):

  gaussian-mean          N(mu, delta^2) prior, known noise sd sigma
                         -> N((sigma^2 mu + n delta^2 xbar)/(n delta^2 + sigma^2),
                              sigma^2 delta^2 / (n delta^2 + sigma^2))
  gaussian-var           IG prior, known mean mu -> IG(n/2 + a, ss/2 + b)
  binomial-beta          -> Beta(x + a, n - x + b)
  negbinomial-beta       fixed r -> Beta(sum + a, n r + b)
  weibull-inverse-gamma  fixed k -> IG(n + a, sum_k + b), sum_k = sum x_i^k
  gamma-gamma            fixed k -> Gam(n k + a, sum + b)
  laplace-inverse-gamma  fixed mu -> IG(n + a, sum_abs + b)
  poisson-gamma          -> Gam(sum + a, n + b)
  uniform-pareto         -> Par(n + a, max(m, b)), m = max of the data

The uniform-pareto kernel is the nonnegative form t (t - M) / (n + a - 1);
reports for that pair carry a sign-convention note (see the kernels module
docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import DEFAULT_N_MC, BoundReport, bound_cacoullos
from .distributions import (Beta, Distribution, Gamma, Gaussian,
                            InverseGamma, Pareto)
from .exprfn import TestFunction
from .kernels import SteinKernel, pearson_kernel

PAIRS = (
    "gaussian-mean",
    "gaussian-var",
    "binomial-beta",
    "negbinomial-beta",
    "weibull-inverse-gamma",
    "gamma-gamma",
    "laplace-inverse-gamma",
    "poisson-gamma",
    "uniform-pareto",
)

PARETO_SIGN_NOTE = ("pareto kernel in nonnegative form t(t - M)/(n + alpha - 1); "
                    "bounds agree with the displayed sandwich up to that sign "
                    "convention inside the expectations")


class BayesError(Exception):
    pass


class UnknownPair(BayesError):
    pass


class InvalidSummary(BayesError):
    pass


@dataclass
class PosteriorModel:
    """A conjugate posterior with its Pearson Stein kernel."""

    pair: str
    prior_params: dict
    data_summary: dict
    posterior: Distribution
    kernel: SteinKernel
    note: str = ""

    def describe(self):
        return {
            "pair": self.pair,
            "prior_params": {k: float(v) for k, v in self.prior_params.items()},
            "data_summary": {k: float(v) for k, v in self.data_summary.items()},
            "posterior": self.posterior.describe(),
            "note": self.note,
        }


# ------------------------------------------------------------------ updates

def _pos(params, key):
    v = float(params[key])
    if v <= 0:
        raise InvalidSummary(f"{key} must be > 0, got {v}")
    return v


def _count(summary, key="n"):
    v = float(summary[key])
    if v < 0 or v != int(v):
        raise InvalidSummary(f"{key} must be a nonnegative integer, got {v}")
    return v


def _nonneg(summary, key):
    v = float(summary[key])
    if v < 0:
        raise InvalidSummary(f"{key} must be >= 0, got {v}")
    return v


def update(pair: str, prior_params: dict, data_summary: dict) -> PosteriorModel:
    """Conjugate update from a sufficient data summary.

    prior_params and data_summary use the pair-specific field names from
    the module docstring (alpha/beta, plus fixed quantities like sigma,
    r, k, mu, which travel with the prior parameters).
    """
    if pair not in PAIRS:
        raise UnknownPair(f"unknown pair {pair!r}; expected one of {PAIRS}")
    note = ""
    try:
        if pair == "gaussian-mean":
            mu = float(prior_params["mu"])
            delta = _pos(prior_params, "delta")
            sigma = _pos(prior_params, "sigma")
            n = _count(data_summary)
            xbar = float(data_summary["mean"]) if n else 0.0
            s2, d2 = sigma * sigma, delta * delta
            post = Gaussian((s2 * mu + n * d2 * xbar) / (n * d2 + s2),
                            s2 * d2 / (n * d2 + s2))
        elif pair == "gaussian-var":
            a, b = _pos(prior_params, "alpha"), _pos(prior_params, "beta")
            n = _count(data_summary)
            ss = _nonneg(data_summary, "sum_sq") if n else 0.0
            post = InverseGamma(n / 2.0 + a, ss / 2.0 + b)
        elif pair == "binomial-beta":
            a, b = _pos(prior_params, "alpha"), _pos(prior_params, "beta")
            n = _count(data_summary)
            x = _count(data_summary, "x")
            if x > n:
                raise InvalidSummary(f"successes x={x:g} exceed trials n={n:g}")
            post = Beta(x + a, n - x + b)
        elif pair == "negbinomial-beta":
            a, b = _pos(prior_params, "alpha"), _pos(prior_params, "beta")
            r = _pos(prior_params, "r")
            n = _count(data_summary)
            s = _nonneg(data_summary, "sum") if n else 0.0
            post = Beta(s + a, n * r + b)
        elif pair == "weibull-inverse-gamma":
            a, b = _pos(prior_params, "alpha"), _pos(prior_params, "beta")
            _pos(prior_params, "k")
            n = _count(data_summary)
            sk = _nonneg(data_summary, "sum_pow") if n else 0.0
            post = InverseGamma(n + a, sk + b)
        elif pair == "gamma-gamma":
            a, b = _pos(prior_params, "alpha"), _pos(prior_params, "beta")
            k = _pos(prior_params, "k")
            n = _count(data_summary)
            s = _nonneg(data_summary, "sum") if n else 0.0
            post = Gamma(n * k + a, s + b)
        elif pair == "laplace-inverse-gamma":
            a, b = _pos(prior_params, "alpha"), _pos(prior_params, "beta")
            float(prior_params["mu"])
            n = _count(data_summary)
            sa = _nonneg(data_summary, "sum_abs") if n else 0.0
            post = InverseGamma(n + a, sa + b)
        elif pair == "poisson-gamma":
            a, b = _pos(prior_params, "alpha"), _pos(prior_params, "beta")
            n = _count(data_summary)
            s = _nonneg(data_summary, "sum") if n else 0.0
            post = Gamma(s + a, n + b)
        else:  # uniform-pareto
            a, b = _pos(prior_params, "alpha"), _pos(prior_params, "beta")
            n = _count(data_summary)
            m = _nonneg(data_summary, "max") if n else 0.0
            post = Pareto(n + a, max(m, b))
            note = PARETO_SIGN_NOTE
    except KeyError as exc:
        raise InvalidSummary(f"{pair}: missing field {exc.args[0]!r}") from None
    return PosteriorModel(pair=pair, prior_params=dict(prior_params),
                          data_summary=dict(data_summary),
                          posterior=post, kernel=pearson_kernel(post),
                          note=note)


def summarize(pair: str, data, prior_params: dict | None = None) -> dict:
    """Sufficient summary of raw data for the given pair."""
    if pair not in PAIRS:
        raise UnknownPair(f"unknown pair {pair!r}; expected one of {PAIRS}")
    x = np.asarray(data, dtype=float)
    n = len(x)
    p = prior_params or {}
    if pair == "gaussian-mean":
        return {"n": n, "mean": float(x.mean()) if n else 0.0}
    if pair == "gaussian-var":
        mu = float(p.get("mu", 0.0))
        return {"n": n, "sum_sq": float(np.sum((x - mu) ** 2))}
    if pair == "binomial-beta":
        raise InvalidSummary("binomial-beta takes (n, x) directly, not raw data")
    if pair == "negbinomial-beta":
        return {"n": n, "sum": float(x.sum())}
    if pair == "weibull-inverse-gamma":
        k = float(p.get("k", 1.0))
        return {"n": n, "sum_pow": float(np.sum(x ** k))}
    if pair == "gamma-gamma":
        return {"n": n, "sum": float(x.sum())}
    if pair == "laplace-inverse-gamma":
        mu = float(p.get("mu", 0.0))
        return {"n": n, "sum_abs": float(np.sum(np.abs(x - mu)))}
    if pair == "poisson-gamma":
        return {"n": n, "sum": float(x.sum())}
    return {"n": n, "max": float(x.max()) if n else 0.0}


def flat_prior_model(pair: str, data_summary: dict) -> PosteriorModel:
    """Posterior under the flat (uninformative) prior, where it is proper.

    Only the Beta pairs admit a proper flat prior within the conjugate
    family (Beta(1, 1) is the uniform law on [0, 1]); the other pairs have
    improper flat priors and are rejected.
    """
    if pair == "binomial-beta":
        return update(pair, {"alpha": 1.0, "beta": 1.0}, data_summary)
    if pair == "negbinomial-beta":
        raise BayesError("negbinomial-beta needs the fixed r; pass it via "
                         "update() with alpha=beta=1 instead")
    if pair not in PAIRS:
        raise UnknownPair(f"unknown pair {pair!r}; expected one of {PAIRS}")
    raise BayesError(f"{pair}: flat prior is improper within the conjugate family")


# ------------------------------------------------------------------- bounds

def posterior_bounds(m: PosteriorModel, g: TestFunction,
                     rel_tol: float = 1e-9, n_mc: int = DEFAULT_N_MC,
                     seed: int = 0) -> BoundReport:
    """The Cacoullos sandwich on the posterior with its Pearson kernel,
    E[tau g']^2 / Var[T] <= Var[g(T)] <= E[tau (g')^2], reported as method
    posterior-<pair>.  The lower side is withheld where the posterior
    variance is undefined."""
    report = bound_cacoullos(m.posterior, m.kernel, g, rel_tol=rel_tol,
                             n_mc=n_mc, seed=seed)
    report.method = f"posterior-{m.pair}"
    report.meta.update(pair=m.pair, posterior=repr(m.posterior),
                       **({"note": m.note} if m.note else {}))
    return report

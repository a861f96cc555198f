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

PAIR_TABLE is the one list of the pairs and of the fields each reads: one
row per pair, which update() and summarize() read, and from which the CLI
builds its posterior flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DEFAULT_N_MC, BoundReport, bound_cacoullos
from .distributions import (Beta, Distribution, Gamma, Gaussian,
                            InverseGamma, Pareto)
from .exprfn import TestFunction
from .kernels import SteinKernel, pearson_kernel

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

def _reader(bad, what):
    """The reader float(fields[key]), rejected where it is not finite or
    where bad(value)."""
    def read(fields, key):
        v = float(fields[key])
        if not math.isfinite(v) or bad(v):
            raise InvalidSummary(f"{key} must be {what}, got {v}")
        return v
    return read


_real = _reader(lambda v: False, "a finite number")
_pos = _reader(lambda v: v <= 0, "finite and > 0")
_count = _reader(lambda v: v < 0 or v != int(v), "a nonnegative integer")
_nonneg = _reader(lambda v: v < 0, "finite and >= 0")


def _gaussian_mean(mu, delta, sigma, n, xbar):
    s2, d2 = sigma * sigma, delta * delta
    return Gaussian((s2 * mu + n * d2 * xbar) / (n * d2 + s2),
                    s2 * d2 / (n * d2 + s2))


def _binomial_beta(a, b, n, x):
    if x > n:
        raise InvalidSummary(f"successes x={x:g} exceed trials n={n:g}")
    return Beta(x + a, n - x + b)


def _sum(x, p):
    return float(x.sum())


_AB = (("alpha", _pos), ("beta", _pos))

# One row per pair: the prior fields with their readers, in reading order;
# the summary statistic beside n, with its reader; the posterior from the
# prior values, n and the statistic; the statistic of raw data x given the
# prior fields p, or None where the summary is counts; and the note its
# reports carry.  gaussian-var's mu is read by summarize alone.
PAIR_TABLE = {
    "gaussian-mean": (
        (("mu", _real), ("delta", _pos), ("sigma", _pos)), ("mean", _real),
        _gaussian_mean, lambda x, p: float(x.mean()) if len(x) else 0.0, ""),
    "gaussian-var": (
        _AB, ("sum_sq", _nonneg),
        lambda a, b, n, ss: InverseGamma(n / 2.0 + a, ss / 2.0 + b),
        lambda x, p: float(np.sum((x - float(p.get("mu", 0.0))) ** 2)), ""),
    "binomial-beta": (_AB, ("x", _count), _binomial_beta, None, ""),
    "negbinomial-beta": (
        _AB + (("r", _pos),), ("sum", _nonneg),
        lambda a, b, r, n, s: Beta(s + a, n * r + b), _sum, ""),
    "weibull-inverse-gamma": (
        _AB + (("k", _pos),), ("sum_pow", _nonneg),
        lambda a, b, k, n, sk: InverseGamma(n + a, sk + b),
        lambda x, p: float(np.sum(x ** float(p.get("k", 1.0)))), ""),
    "gamma-gamma": (
        _AB + (("k", _pos),), ("sum", _nonneg),
        lambda a, b, k, n, s: Gamma(n * k + a, s + b), _sum, ""),
    "laplace-inverse-gamma": (
        _AB + (("mu", _real),), ("sum_abs", _nonneg),
        lambda a, b, mu, n, sa: InverseGamma(n + a, sa + b),
        lambda x, p: float(np.sum(np.abs(x - float(p.get("mu", 0.0))))), ""),
    "poisson-gamma": (
        _AB, ("sum", _nonneg), lambda a, b, n, s: Gamma(s + a, n + b), _sum,
        ""),
    "uniform-pareto": (
        _AB, ("max", _nonneg), lambda a, b, n, m: Pareto(n + a, max(m, b)),
        lambda x, p: float(x.max()) if len(x) else 0.0, PARETO_SIGN_NOTE),
}

PAIRS = tuple(PAIR_TABLE)


def _row(pair):
    if pair not in PAIRS:
        raise UnknownPair(f"unknown pair {pair!r}; expected one of {PAIRS}")
    return PAIR_TABLE[pair]


def update(pair: str, prior_params: dict, data_summary: dict) -> PosteriorModel:
    """Conjugate update from a sufficient data summary, in the field names
    of the pair's PAIR_TABLE row (fixed quantities such as sigma, r, k, mu
    travel with the prior parameters).  The statistic is read only when
    n > 0, except binomial-beta's success count x, read and checked at any n.
    """
    prior, (stat, read), posterior, _, note = _row(pair)
    try:
        values = [read_field(prior_params, f) for f, read_field in prior]
        n = _count(data_summary, "n")
        s = read(data_summary, stat) if n or read is _count else 0.0
        post = posterior(*values, n, s)
    except KeyError as exc:
        raise InvalidSummary(f"{pair}: missing field {exc.args[0]!r}") from None
    return PosteriorModel(pair=pair, prior_params=dict(prior_params),
                          data_summary=dict(data_summary),
                          posterior=post, kernel=pearson_kernel(post),
                          note=note)


def summarize(pair: str, data, prior_params: dict | None = None) -> dict:
    """Sufficient summary of raw data for the given pair."""
    _, (stat, _), _, raw, _ = _row(pair)
    if raw is None:
        raise InvalidSummary(f"{pair} takes (n, {stat}) directly, not raw data")
    x = np.asarray(data, dtype=float)
    return {"n": len(x), stat: raw(x, prior_params or {})}


# ------------------------------------------------------------------- bounds

def posterior_bounds(m: PosteriorModel, g: TestFunction,
                     n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """The Cacoullos sandwich on the posterior with its Pearson kernel,
    E[tau g']^2 / Var[T] <= Var[g(T)] <= E[tau (g')^2], reported as method
    posterior-<pair>.  The lower side is withheld where the posterior
    variance is undefined."""
    report = bound_cacoullos(m.posterior, m.kernel, g, rel_tol=1e-9,
                             n_mc=n_mc, seed=seed)
    report.method = f"posterior-{m.pair}"
    report.meta.update(pair=m.pair, posterior=repr(m.posterior),
                       **({"note": m.note} if m.note else {}))
    return report

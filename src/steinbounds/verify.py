"""Independent verification oracles and end-to-end scenario runners.

run_scenario / run_all run the scenario catalog, each entry executing the
full pipeline (construct -> check hypotheses -> bound -> oracle -> assert)
and returning a ScenarioResult whose serialized payload is deterministic
for a fixed seed.

The Monte-Carlo oracle is bounds.mc_variance, whose 99% confidence
halfwidth comes from the asymptotic normality of the sample variance,
with the law's own moments of g(W) in its standard error.
Tolerances: quadrature comparisons at 1e-6 relative, MC comparisons at
4 standard errors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bayes
from .bounds import (bound_convex_order, bound_equilibrium,
                     bound_smoothed, bound_zero_bias_remainder)
from .distributions import (Exponential, Gaussian,
                            GeometricCount, PermutationStatistic, random_sum,
                            standardized_bernoulli, sum_of_independents,
                            two_point)
from .exprfn import make_test_function
from .kernels import smooth, smoothed_kernel
from .numerics import Interval, rng_stream
from .orderings import check_counting_condition, check_nbue_nwue
from .transforms import zero_bias_sum

QUAD_TOL = 1e-6   # relative tolerance for quadrature-vs-closed-form asserts
MC_SIGMAS = 4.0   # MC comparisons pass within this many standard errors


class VerifyError(Exception):
    pass


class UnknownScenario(VerifyError):
    pass


# --------------------------------------------------------------- scenarios

@dataclass
class Assertion:
    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float

    def to_dict(self):
        return {"name": self.name,
                "passed": bool(self.passed),
                "observed": float(self.observed),
                "expected": float(self.expected),
                "tolerance": float(self.tolerance)}


@dataclass
class ScenarioResult:
    scenario: str
    inputs: dict
    assertions: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # serialized BoundReports
    oracle: dict = field(default_factory=dict)
    runtime: float = 0.0

    @property
    def passed(self):
        return all(a.passed for a in self.assertions)

    def to_dict(self):
        """Serialized payload; runtime is left out so identical runs
        produce byte-identical payloads."""
        return {
            "scenario": self.scenario,
            "inputs": {k: (v if isinstance(v, str) else float(v))
                       for k, v in self.inputs.items()},
            "passed": bool(self.passed),
            "assertions": [a.to_dict() for a in self.assertions],
            "reports": self.reports,
            "oracle": {k: float(v) for k, v in self.oracle.items()},
        }

    def check(self, name, observed, expected, tolerance, two_sided=True):
        """Record |observed - expected| <= tol (two-sided) or
        observed <= expected + tol (one-sided)."""
        if two_sided:
            ok = abs(observed - expected) <= tolerance
        else:
            ok = observed <= expected + tolerance
        self.assertions.append(Assertion(name, ok, float(observed),
                                         float(expected), float(tolerance)))
        return ok


def scenario_bernoulli_sum(params, seed):
    """Sum of n standardized Bernoulli(p): the remainder upper bound vs MC,
    and its Wasserstein-1 gap and the MC gap E|X*_I - X_I| of the sum
    coupling against the closed form (p^2 + q^2) / (2 sqrt(npq))."""
    n = int(params.get("n", 30))
    p = float(params.get("p", 0.3))
    g_src = str(params.get("g", "sin(x)"))
    n_mc = int(params.get("n_mc", 10**6))
    q = 1.0 - p
    part = standardized_bernoulli(p, n)
    w = sum_of_independents([part] * n)
    g = make_test_function(g_src, Interval(w.support.lo, w.support.hi))
    res = ScenarioResult("bernoulli-sum",
                         {"n": n, "p": p, "g": g_src, "n_mc": n_mc})

    report = bound_zero_bias_remainder(w, g, seed=seed, n_mc=n_mc)
    res.reports.append(report.to_dict())
    res.oracle = {"mc_variance": report.mc_variance,
                  "mc_ci99": report.mc_ci99, "upper": report.upper}
    res.check("upper-bound-holds-with-margin",
              report.mc_variance + MC_SIGMAS * report.mc_se, report.upper,
              0.0, two_sided=False)

    gap_expected = (p * p + q * q) / (2.0 * math.sqrt(n * p * q))
    res.check("w1-gap-matches-closed-form", report.diagnostics["e_abs_gap"],
              gap_expected, 1e-9 * gap_expected)
    coup = zero_bias_sum([part] * n)
    gap, gap_se = coup.mean_abs_gap(rng_stream(seed, 11), n_mc)
    res.oracle["e_abs_gap"] = gap
    res.check("mean-abs-gap-matches-closed-form", gap, gap_expected,
              MC_SIGMAS * gap_se)
    return res


def scenario_permutation(params, seed):
    """Permutation statistic W = sum_i a[i, pi(i)]: the variance of its n!
    values against the closed formula, and the remainder bound on Z = (W -
    E[W]) / sigma against the exact and the MC variance, with its
    Wasserstein-1 gap below the coupling bound E|Z* - Z| <= 8 C / sigma."""
    n = int(params.get("n", 8))
    n_mc = int(params.get("n_mc", 10**5))
    if n > 9:
        raise VerifyError("enumeration limited to n <= 9")
    rng = rng_stream(seed, 20)
    a = rng.integers(0, 10, size=(n, n)).astype(float)
    stat = PermutationStatistic(a)
    res = ScenarioResult("permutation", {"n": n, "n_mc": n_mc})

    vals, probs = stat.atoms()
    enum_var = float(probs @ (vals - probs @ vals) ** 2)
    res.oracle = {"sigma2_formula": stat.var(), "sigma2_enumerated": enum_var,
                  "C": stat.C}
    res.check("enumerated-variance-matches-formula", enum_var, stat.var(),
              1e-12 * max(1.0, stat.var()))

    z = stat.standardized()
    z_vals = z.atoms()[0]
    for g_src in ("x", "sin(x)"):
        g = make_test_function(g_src, Interval(z_vals[0] - 1.0, z_vals[-1] + 1.0))
        report = bound_zero_bias_remainder(z, g, seed=seed, n_mc=n_mc)
        res.reports.append(report.to_dict())
        y = np.asarray(g(z_vals))
        var_exact = float(probs @ (y - probs @ y) ** 2)
        res.oracle[f"var[{g_src}]"] = var_exact
        res.oracle[f"upper[{g_src}]"] = report.upper
        res.check(f"remainder-bound-holds[{g_src}]", var_exact, report.upper,
                  1e-12, two_sided=False)
        res.check(f"mc-matches-enumeration[{g_src}]", report.mc_variance,
                  var_exact, MC_SIGMAS * report.mc_se)
    res.check("w1-gap-below-coupling-bound", report.diagnostics["e_abs_gap"],
              8.0 * stat.C / math.sqrt(stat.var()), 0.0, two_sided=False)
    return res


# Two-point parts for the convex-order scenario: skewed parts appear in
# mirrored pairs so the third moments cancel.  This keeps E[W*] = E[W] = 0
# (E[W*] = E[W^3]/(2 sigma^2)), without which the convex order cannot hold.
_CX_PARTS = ((1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (1.5, 1.5), (0.8, 0.8),
             (1.3, 1.3), (0.6, 1.1), (1.1, 0.6))


def scenario_two_point_cx(params, seed):
    """Sum of mean-zero two-point laws: W* <=_cx W, so the convex-order
    upper bound applies for g with convex g'^2."""
    n = int(params.get("n", 5))
    g_src = str(params.get("g", "x^3/3"))
    n_mc = int(params.get("n_mc", 10**6))
    if not 2 <= n <= len(_CX_PARTS):
        raise VerifyError(f"two-point-cx supports 2 <= n <= {len(_CX_PARTS)}")
    chosen = _CX_PARTS[:n]
    if abs(sum(a * b * (b - a) for a, b in chosen)) > 1e-12:
        raise VerifyError(f"n={n} leaves the part third moments unbalanced; "
                          "pick an n whose skewed parts come in mirrored pairs")
    parts = [two_point(a, b) for a, b in chosen]
    w = sum_of_independents(parts)
    g = make_test_function(g_src, Interval(w.support.lo, w.support.hi))
    res = ScenarioResult("two-point-cx", {"n": n, "g": g_src, "n_mc": n_mc})

    report = bound_convex_order(w, g, seed=seed, n_mc=n_mc)
    res.reports.append(report.to_dict())
    res.oracle = {"mc_variance": report.mc_variance, "mc_se": report.mc_se}
    res.check("cx-hypotheses-hold", 1.0 if report.hypotheses_hold else 0.0,
              1.0, 0.0)
    if report.upper is not None:
        res.check("upper-bound-vs-mc", report.mc_variance,
                  report.upper + MC_SIGMAS * report.mc_se, 0.0,
                  two_sided=False)
    return res


def scenario_geometric_random_sum(params, seed):
    """Geometric(rho) number of Exponential(rate) summands: the counting
    condition and NWUE both hold, and the equilibrium branch-(b) lower
    bound applies for increasing g + x g'."""
    rho = float(params.get("rho", 0.5))
    rate = float(params.get("rate", 1.0))
    g_src = str(params.get("g", "x"))
    n_mc = int(params.get("n_mc", 10**6))
    w = random_sum(GeometricCount(rho), Exponential(rate))
    res = ScenarioResult("geometric-random-sum",
                         {"rho": rho, "rate": rate, "g": g_src, "n_mc": n_mc})

    counting = check_counting_condition(GeometricCount(rho))
    res.check("counting-condition-holds", 1.0 if counting.holds else 0.0,
              1.0, 0.0)
    nbue, nwue = check_nbue_nwue(w)
    res.check("nwue-holds", 1.0 if nwue.holds else 0.0, 1.0, 0.0)

    g = make_test_function(g_src, Interval(0.0, w.quantile(1.0 - 1e-9)))
    report = bound_equilibrium(w, g, branch="b", seed=seed, n_mc=n_mc)
    res.reports.append(report.to_dict())
    res.oracle = {"mc_variance": report.mc_variance, "mc_se": report.mc_se,
                  "mean": w.mean(), "var": w.var()}
    res.check("branch-b-not-withheld", 0.0 if report.lower is None else 1.0,
              1.0, 0.0)
    if report.lower is not None:
        res.check("lower-bound-vs-mc", report.lower,
                  report.mc_variance + MC_SIGMAS * report.mc_se, 0.0,
                  two_sided=False)
    return res


def scenario_smoothing(params, seed):
    """Gaussian-smoothed Rademacher: closed kernel value at the origin,
    the moment identity E[tau_eps(Y+Z)] = Var[Y] + eps^2, and the claim-(i)
    upper bound against the unsmoothed MC variance."""
    n_mc = int(params.get("n_mc", 10**6))
    base = two_point(1.0, 1.0)  # Rademacher
    res = ScenarioResult("smoothing", {"n_mc": n_mc})

    # tau_1(0) = 1 + (2 Phi(1) - 1) / (2 phi(1)) for the Rademacher base
    s1 = smooth(base, 1.0)
    k1 = smoothed_kernel(s1)
    phi = Gaussian(0.0, 1.0)
    tau0_expected = 1.0 + (2.0 * phi.cdf(1.0) - 1.0) / (2.0 * phi.density(1.0))
    tau0 = float(k1(0.0))
    res.oracle = {"tau0": tau0, "tau0_closed_form": tau0_expected}
    res.check("kernel-at-origin", tau0, tau0_expected,
              QUAD_TOL * (1.0 + abs(tau0_expected)))

    for eps in (0.25, 0.5, 1.0):
        s = smooth(base, eps)
        k = smoothed_kernel(s)
        e_tau = s.expect(lambda x: k(x), rel_tol=1e-9)
        res.check(f"mean-kernel-equals-variance[eps={eps:g}]", e_tau,
                  base.var() + eps * eps, QUAD_TOL * (1.0 + base.var() + eps * eps))

    g = make_test_function("x", Interval(-6.0, 6.0))
    report = bound_smoothed(smooth(base, 0.5), g, claim="i", seed=seed,
                            n_mc=n_mc)
    res.reports.append(report.to_dict())
    res.check("claim-i-not-withheld", 0.0 if report.upper is None else 1.0,
              1.0, 0.0)
    if report.upper is not None:
        res.check("claim-i-upper-vs-mc", report.mc_variance,
                  report.upper + MC_SIGMAS * report.mc_se, 0.0,
                  two_sided=False)
    return res


# One representative (prior, summary) setting per conjugate pair; the
# acceptance tests sweep wider parameter batteries.
CONJUGATE_SETTINGS = (
    ("gaussian-mean", {"mu": 0.0, "delta": 1.0, "sigma": 1.0},
     {"n": 4, "mean": 1.0}),
    ("gaussian-var", {"alpha": 3.0, "beta": 2.0, "mu": 0.0},
     {"n": 6, "sum_sq": 8.0}),
    ("binomial-beta", {"alpha": 1.0, "beta": 1.0}, {"n": 10, "x": 3}),
    ("negbinomial-beta", {"alpha": 2.0, "beta": 3.0, "r": 2.0},
     {"n": 4, "sum": 9.0}),
    ("weibull-inverse-gamma", {"alpha": 3.0, "beta": 2.0, "k": 1.5},
     {"n": 5, "sum_pow": 6.0}),
    ("gamma-gamma", {"alpha": 2.0, "beta": 1.0, "k": 1.5},
     {"n": 4, "sum": 7.0}),
    ("laplace-inverse-gamma", {"alpha": 2.5, "beta": 1.5, "mu": 0.0},
     {"n": 6, "sum_abs": 5.0}),
    ("poisson-gamma", {"alpha": 2.0, "beta": 1.0}, {"n": 5, "sum": 11.0}),
    ("uniform-pareto", {"alpha": 3.0, "beta": 1.0}, {"n": 5, "max": 2.0}),
)


def scenario_conjugate(params, seed):
    """All nine conjugate pairs: the posterior sandwich brackets Var[g(T)]
    computed by quadrature, the MC variance lies below the upper side, and
    the kernel moment identity E[tau] = Var holds on each posterior."""
    n_mc = int(params.get("n_mc", 10**5))
    res = ScenarioResult("conjugate", {"n_mc": n_mc})
    for pair, prior, summary in CONJUGATE_SETTINGS:
        m = bayes.update(pair, prior, summary)
        post = m.posterior
        eff = post.effective_interval(1e-9)
        g = make_test_function("x + x^2/8", eff)
        rep = bayes.posterior_bounds(m, g, n_mc=n_mc, seed=seed)
        res.reports.append(rep.to_dict())
        # Var[g(T)] by quadrature, independent of the kernel
        var_g = post.expect(lambda t: g(t) ** 2) - post.expect(g) ** 2
        res.check(f"quadrature-variance-below-upper[{pair}]", var_g,
                  rep.upper, QUAD_TOL * abs(rep.upper), two_sided=False)
        if rep.lower is not None:
            res.check(f"lower-below-quadrature-variance[{pair}]", rep.lower,
                      var_g, QUAD_TOL * abs(var_g), two_sided=False)
        res.check(f"mean-kernel-equals-variance[{pair}]",
                  m.kernel.expected_value(), post.var(),
                  1e-8 * (1.0 + post.var()))
        if rep.mc_se is not None:
            res.check(f"mc-within-sandwich[{pair}]", rep.mc_variance,
                      rep.upper + MC_SIGMAS * rep.mc_se, 0.0, two_sided=False)
    return res


SCENARIOS = {
    "bernoulli-sum": scenario_bernoulli_sum,
    "permutation": scenario_permutation,
    "two-point-cx": scenario_two_point_cx,
    "geometric-random-sum": scenario_geometric_random_sum,
    "smoothing": scenario_smoothing,
    "conjugate": scenario_conjugate,
}


def run_scenario(scenario_id: str, params: dict | None = None,
                 seed: int = 42) -> ScenarioResult:
    try:
        fn = SCENARIOS[scenario_id]
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; known: {sorted(SCENARIOS)}"
        ) from None
    t0 = time.time()
    result = fn(dict(params or {}), seed)
    result.runtime = time.time() - t0
    return result


def run_all(seed: int = 42, params: dict | None = None):
    """Run every catalog scenario; returns results in catalog order."""
    return [run_scenario(sid, params, seed) for sid in SCENARIOS]

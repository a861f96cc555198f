"""Variance bounds for g(W) from one coupling inequality.

If E[W phi(W)] = E[T1 phi'(T2)] for every smooth phi, and the weight T1 is
a function w(T2) of T2, then

    E[w(T2) g'(T2)]^2 / var_w  <=  Var[g(W)]  <=  E[w(T2) g'(T2)^2],

with var_w = Var[W].  Every bound_* below except bound_generic is this
inequality for one law of T2, one weight w and one var_w, evaluated by
_bound:

    method               law of T2   weight w    var_w
    cacoullos            W           tau         Var[W]
    zero-bias            W*          sigma^2     sigma^2
    zero-bias-remainder  W           sigma^2     -          (upper, plus the
                                                 remainder 2 sigma^2 ||g'g''|| E|W*-W|)
    convex               W           sigma^2     -          (upper)
    equilibrium-a / -b   W           x/lambda    Var[W]     (upper / lower)
    smoothed-i / -ii     Y+Z         tau_eps     Var[Y+Z]   (upper / lower)

The conjugate posterior bounds of bayes are cacoullos on the posterior
with its Pearson kernel.  METHOD_SIDES names the sides each method
promises.  _bound computes them as one vector-valued expectation over the
law of T2 (a one-sided method evaluates only its own side), then:

* withholds the lower side, with meta.lower_note, unless 0 < var_w < inf;
* raises NonFiniteError on any non-finite bound value;
* attaches the Monte-Carlo oracle, mc_variance: the sample variance of
  g(W), with the exact standard error of a sample variance and its 99%
  confidence halfwidth.  The moments of g(W) in that standard error come
  from quadrature of the law, as the bound's do, and both are None where
  that quadrature does not show E[g(W)^4] finite;
* withholds every promised side when a required hypothesis fails: the
  side stays None and its value moves to the diagnostics map.

bound_generic evaluates an arbitrary coupling (gamma, T1, T2) by Monte
Carlo: E[T1/gamma'(T2) g'(T2)^2] upper and (E[T1 g'(T2)])^2 / Var[gamma(W)]
lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, DistributionError
from .exprfn import TestFunction
from .kernels import SmoothedDistribution, SteinKernel, smoothed_kernel
from .numerics import (IntegrationError, NonFiniteError, NumericsError,
                       blocked, mean_se, rng_stream, var_in_place)
from .orderings import (HypothesisCheck, check_cx, check_nbue_nwue,
                        check_shape, law_grid)
from .transforms import ZeroBiasDistribution, zero_bias

DEFAULT_N_MC = 10**6
DEFAULT_REL_TOL = 1e-6
CI99_Z = 2.5758293035489004  # two-sided 99% normal quantile
DEGENERATE_VAR = 1e-12
MOMENT_REL_TOL = 1e-3  # quadrature tolerance of the oracle's moments of g(W)
CX_ORDER_TOL = 1e-6  # tolerance of the convex method's stop-loss comparison

# Bound sides each method promises; a promised side coming back None means
# it was withheld, and the CLI exits with EXIT_WITHHELD.
METHOD_SIDES = {
    "cacoullos": ("lower", "upper"),
    "zero-bias": ("lower", "upper"),
    "zero-bias-remainder": ("upper",),
    "convex": ("upper",),
    "equilibrium-a": ("upper",),
    "equilibrium-b": ("lower",),
    "smoothed-i": ("upper",),
    "smoothed-ii": ("lower",),
    "generic": ("lower", "upper"),
}


class BoundError(Exception):
    pass


@dataclass
class BoundReport:
    method: str
    lower: float | None
    upper: float | None
    mc_variance: float
    mc_ci99: float | None
    mc_se: float | None
    hypothesis_checks: list = field(default_factory=list)
    remainder: float | None = None
    degenerate: bool = False
    diagnostics: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def hypotheses_hold(self):
        return all(h.holds for h in self.hypothesis_checks if h.required)

    def to_dict(self):
        return {
            "method": self.method,
            "lower": None if self.lower is None else float(self.lower),
            "upper": None if self.upper is None else float(self.upper),
            "mc_variance": float(self.mc_variance),
            "mc_ci99": None if self.mc_ci99 is None else float(self.mc_ci99),
            "mc_se": None if self.mc_se is None else float(self.mc_se),
            "hypothesis_checks": [h.to_dict() for h in self.hypothesis_checks],
            "remainder": None if self.remainder is None else float(self.remainder),
            "degenerate": bool(self.degenerate),
            "diagnostics": {k: (None if v is None else float(v))
                            for k, v in self.diagnostics.items()},
            "meta": self.meta,
        }


# ------------------------------------------------------------ shared helpers

def _by_quadrature(d: Distribution) -> bool:
    """Whether expectations over d go by quadrature: d has a density or
    atoms.  A law with neither takes Monte Carlo."""
    return d.has_density or len(d.atoms()[0]) > 0


def _with_se(s2, n, mu2, mu4):
    """(s2, its standard error, 99% halfwidth) for a sample variance s2 of n
    values: the exact standard error sqrt((mu4 - (n-3)/(n-1) mu2^2)/n), for
    the central moments mu2 and mu4 of the law of the values."""
    se = math.sqrt(max(mu4 - (n - 3) / (n - 1) * mu2 * mu2, 0.0) / n)
    return s2, se, CI99_Z * se


def _sample_variance(y):
    """(sample variance, its standard error, 99% halfwidth) of the values y,
    with the sample's own variance and fourth central moment standing in
    for the law's; y is overwritten."""
    s2 = var_in_place(y)  # y now holds the squared deviations
    return _with_se(s2, len(y), s2, float(np.square(y, out=y).mean()))


def mc_variance(d: Distribution, g, seed: int, n_mc: int, stream_id: int = 0):
    """(variance, se, ci99) of g(W), W ~ d: the sample variance of n_mc
    draws on stream (seed, stream_id), its standard error and its 99%
    confidence halfwidth.

    g is read in blocks into the draws' own array, and the variance is
    taken in place (numerics.var_in_place), so past the sampler the oracle
    holds one array of n_mc values.  Where d takes quadrature, the central
    moments mu2 and mu4 of g(W) are one expectation at MOMENT_REL_TOL,
    centred at the sample mean, and se and ci99 are None when it raises:
    E[g(W)^4] is then not shown finite.  On a law with neither density nor
    atoms they come from the sample.
    """
    y = np.asarray(d.sample(rng_stream(seed, stream_id), n_mc), dtype=float)
    y = blocked(g, y, out=y)
    if not _by_quadrature(d):
        return _sample_variance(y)
    m = y.mean()
    s2 = var_in_place(y)
    del y

    def central(x):
        with np.errstate(all="ignore"):  # an overflow fails the quadrature
            c2 = (np.asarray(g(x), dtype=float) - m)**2
            return np.stack([c2, c2 * c2], axis=-1)

    try:
        mu2, mu4 = d.expect(central, rel_tol=MOMENT_REL_TOL)
    except (NonFiniteError, IntegrationError):
        return s2, None, None
    return _with_se(s2, n_mc, mu2, mu4)


def _expect(d: Distribution, f, rel_tol, seed, n_mc, stream_id):
    """Expectation by quadrature when the law supports it, else MC."""
    if _by_quadrature(d):
        return d.expect(f, rel_tol=rel_tol), "quadrature"
    est, _ = d.mc_expect(f, rng_stream(seed, stream_id), n_mc)
    return est, "mc"


def _variance(d: Distribution) -> float:
    """Var[W], or nan where the law has none."""
    try:
        return d.var()
    except DistributionError:
        return math.nan


def _bound(method, law: Distribution, weight, g: TestFunction, var_w,
           mc_law: Distribution, checks=(), *, rel_tol, n_mc, seed,
           stream=2, remainder=None, diagnostics=None, meta=None):
    """The sandwich E[w g']^2 / var_w <= Var[g(W)] <= E[w g'^2] (+ remainder)
    over T2 ~ law, for the sides METHOD_SIDES[method] promises.

    weight is w as a function of T2, or a constant, which then multiplies
    the expectations.  They are one expectation of an (n, m) integrand, by
    quadrature, or by MC on stream `stream` for a law with neither density
    nor atoms; for a table kernel (integral, smoothed), one read of its
    law's table, TailMoments.weighted_excess_integral.  The Monte-Carlo
    oracle is Var[g] on mc_law, and checks are the hypotheses that gate
    every promised side.
    """
    sides = METHOD_SIDES[method]
    scale, w = (1.0, weight) if callable(weight) else (weight, None)
    table = getattr(w, "table", None)  # a table kernel weighs by its law's excess
    if table is not None:
        w = None

    def f(x):
        g1 = np.asarray(g.g1(x), dtype=float)
        wx = 1.0 if w is None else w(x)
        with np.errstate(all="ignore"):  # a non-finite bound raises below
            cols = [wx * g1 if side == "lower" else wx * g1**2 for side in sides]
        return cols[0] if len(cols) == 1 else np.stack(cols, axis=-1)

    if table is None:
        moments, route = _expect(law, f, rel_tol, seed, n_mc, stream)
    else:  # tau p is the excess: E[tau h] is the integral of h times it
        moments = table.weighted_excess_integral(weight.base.mean(), f, rel_tol)
        route = "quadrature"
    moments = dict(zip(sides, scale * np.atleast_1d(moments)))
    meta = {"seed": seed, "n_mc": n_mc, "rel_tol": rel_tol, "route": route,
            **(meta or {}), "g": g.source}
    lower = upper = None
    if "lower" in moments:
        if 0.0 < var_w < math.inf:
            lower = float(moments["lower"] * moments["lower"] / var_w)
        else:
            meta["lower_note"] = (f"variance {var_w:g} is not in (0, inf): the "
                                  "lower bound divides by it and is withheld")
    if "upper" in moments:
        upper = float(moments["upper"] if remainder is None
                      else moments["upper"] + remainder)
    if not all(math.isfinite(v) for v in (lower, upper) if v is not None):
        raise NonFiniteError(f"{method} bound is not finite: g or the "
                             f"weight overflows under {law!r}")

    var, se, ci = mc_variance(mc_law, g, seed, n_mc)
    if se is None:
        meta["mc_se_note"] = (
            f"quadrature at rel_tol {MOMENT_REL_TOL:g} did not show E[g(W)^4] "
            "finite, and it may be infinite: the sample variance has no "
            "standard error")
    report = BoundReport(
        method="convex-order" if method == "convex" else method,
        lower=lower, upper=upper, mc_variance=var, mc_ci99=ci, mc_se=se,
        hypothesis_checks=list(checks), remainder=remainder,
        degenerate=var < DEGENERATE_VAR, diagnostics=diagnostics or {},
        meta=meta)
    if not report.hypotheses_hold:
        for side in sides:
            if getattr(report, side) is not None:
                report.diagnostics[f"withheld_{side}"] = getattr(report, side)
                setattr(report, side, None)
    return report


# --------------------------------------------------------------- generic


@dataclass
class SteinCoupling:
    """A coupling (gamma, T1, T2) with E[gamma(W) phi(W)] = E[T1 phi'(T2)].

    joint_sampler(rng, size) must return a (W, T1, T2) triple of arrays;
    T1 may be a scalar, and so may gamma_prime's value.
    direction declares whether the defining relation is an equality or a
    one-sided inequality ('equality' | 'upper-only' | 'lower-only');
    one-sided couplings only support the corresponding bound.
    gamma_prime is the derivative of gamma (required for the upper bound).
    """

    gamma: object
    gamma_prime: object
    joint_sampler: object
    direction: str = "equality"

    def __post_init__(self):
        if self.direction not in ("equality", "upper-only", "lower-only"):
            raise BoundError(f"unknown direction {self.direction!r}")


def bound_generic(c: SteinCoupling, g: TestFunction,
                  n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """Monte-Carlo evaluation of the generic coupling bounds.

    Upper: E[T1 / gamma'(T2) * g'(T2)^2]; lower: (E[T1 g'(T2)])^2 divided
    by Var[gamma(W)].  A one-sided coupling yields only its declared side.
    g, g' and gamma are read in blocks, each array goes after its last use
    and the reductions run in place, so at most three arrays of n_mc
    values are held at once.
    """
    w, t1, t2 = (np.asarray(a, dtype=float)
                 for a in c.joint_sampler(rng_stream(seed, 1), n_mc))
    upper_side = c.direction in ("equality", "upper-only")
    if upper_side:
        ratio = t1 / np.asarray(c.gamma_prime(t2), dtype=float)
    g1 = blocked(g.g1, t2)
    del t2

    upper = lower = None
    diagnostics = {}
    if upper_side:
        terms = np.square(g1)
        terms *= ratio
        del ratio
        upper, diagnostics["upper_se"] = mean_se(terms)
        del terms
    if c.direction in ("equality", "lower-only"):
        g1 *= t1
        num, diagnostics["lower_numerator_se"] = mean_se(g1)
        var_gamma = var_in_place(blocked(c.gamma, w))
        if var_gamma < DEGENERATE_VAR:
            raise BoundError("Var[gamma(W)] is numerically zero")
        lower = num * num / var_gamma
        diagnostics["var_gamma"] = var_gamma
    del g1

    s2, se, ci = _sample_variance(blocked(g, w))
    reported = [s2, se, *diagnostics.values()] + [
        v for v in (lower, upper) if v is not None]
    if not np.all(np.isfinite(reported)):
        raise NonFiniteError("generic bound: g or the coupling gave a "
                             "non-finite value on the Monte-Carlo draws")
    return BoundReport(
        method="generic", lower=lower, upper=upper,
        mc_variance=s2, mc_se=se, mc_ci99=ci,
        degenerate=s2 < DEGENERATE_VAR, diagnostics=diagnostics,
        meta={"seed": seed, "n_mc": n_mc, "route": "mc",
              "direction": c.direction, "g": g.source})


# ------------------------------------------------------ kernel and zero-bias

def bound_cacoullos(d: Distribution, k: SteinKernel, g: TestFunction,
                    rel_tol: float = DEFAULT_REL_TOL,
                    n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """E[tau g']^2 / Var[W] <= Var[g(W)] <= E[tau (g')^2]."""
    return _bound("cacoullos", d, k, g, _variance(d), d, rel_tol=rel_tol,
                  n_mc=n_mc, seed=seed, meta={"kernel": k.provenance})


def bound_zero_bias(zb: ZeroBiasDistribution, g: TestFunction,
                    rel_tol: float = DEFAULT_REL_TOL,
                    n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """sigma^2 E[g'(W*)]^2 <= Var[g(W)] <= sigma^2 E[g'(W*)^2], over the
    zero-bias law W* of W = zb.base."""
    return _bound("zero-bias", zb, zb.sigma2, g, zb.sigma2, zb.base,
                  rel_tol=rel_tol, n_mc=n_mc, seed=seed)


def bound_zero_bias_remainder(d: Distribution, g: TestFunction,
                              e_abs_gap: float | None = None,
                              rel_tol: float = DEFAULT_REL_TOL,
                              n_mc: int = DEFAULT_N_MC,
                              seed: int = 0) -> BoundReport:
    """Var[g(W)] <= sigma^2 E[g'(W)^2] + 2 sigma^2 ||g'g''|| E|W* - W|.

    It holds for every coupling, so E|W* - W| is e_abs_gap when supplied
    (finite and >= 0), else ZeroBiasDistribution.e_abs_gap, an upper bound
    on the least one (meta.gap_source says which).  The remainder field
    carries the full 2 sigma^2 ||g'g''|| E|W*-W| term; ||g'g''|| is the grid
    estimate attached to g, reported as an estimate rather than a proven sup.
    """
    if not math.isfinite(g.sup_g1g2):
        raise BoundError("||g'g''|| estimate is not finite for this g")
    source = "given"
    if e_abs_gap is None:
        e_abs_gap, source = zero_bias(d).e_abs_gap(), "wasserstein-1"
    if not 0.0 <= e_abs_gap < math.inf:
        raise BoundError(f"E|W* - W| must be finite and >= 0, got {e_abs_gap}")
    s2 = d.var()
    return _bound("zero-bias-remainder", d, s2, g, None, d, rel_tol=rel_tol,
                  n_mc=n_mc, seed=seed, stream=5,
                  remainder=2.0 * s2 * g.sup_g1g2 * e_abs_gap,
                  diagnostics={"e_abs_gap": e_abs_gap, "sup_g1g2": g.sup_g1g2},
                  meta={"gap_source": source})


# ------------------------------------------------------------- convex order

def bound_convex_order(d: Distribution, g: TestFunction,
                       rel_tol: float = DEFAULT_REL_TOL,
                       n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """Var[g(W)] <= sigma^2 E[g'(W)^2], gated on W* <=_cx W and convex g'^2.

    The convex-order premise is checked on a grid via stop-loss transforms
    (at tolerance CX_ORDER_TOL, reflecting the table-based accuracy of the
    continuous zero-bias stop-loss) and the convexity of g'^2 via second
    differences.  Either failure withholds the bound.
    """
    try:
        cx = check_cx(zero_bias(d), d, tol=CX_ORDER_TOL)
        cx.name = "zero-bias-convex-order"
    except (DistributionError, NumericsError) as exc:
        cx = HypothesisCheck("zero-bias-convex-order", False, note=str(exc))
    grid = law_grid(d)
    convex = check_shape("g-prime-squared-convex", grid,
                         np.asarray(g.g1(grid))**2, 2, +1)
    return _bound("convex", d, d.var(), g, None, d, [cx, convex],
                  rel_tol=rel_tol, n_mc=n_mc, seed=seed, stream=6)


# ------------------------------------------------------------- equilibrium

def _phi_g(g: TestFunction, lam: float):
    """phi_g(x) = integral_0^{lam x - 1} g'((u+1)/lam) du = lam (g(x) - g(1/lam)).

    The closed form follows from the substitution t = (u+1)/lam and the
    fundamental theorem of calculus; phi_g'(x) = lam g'(x).
    """
    mean = 1.0 / lam
    g_mean = float(g.g(np.asarray(mean)))
    return lambda x: lam * (np.asarray(g.g(x), dtype=float) - g_mean)


def bound_equilibrium(d: Distribution, g: TestFunction, branch: str,
                      rel_tol: float = DEFAULT_REL_TOL,
                      n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """Equilibrium-transform bounds for a nonnegative W with mean 1/lambda.

    Branch 'a' (upper): Var[g(W)] <= lambda^-1 E[W g'(W)^2], valid when
    h(x) = phi_g(x) + lambda x g'(x) is increasing and W is NBUE, or h is
    decreasing and W is NWUE.  Branch 'b' (lower): Var[g(W)] >=
    (E[W g'(W)])^2 / (lambda^2 Var[W]), valid when g + x g' is decreasing
    under NBUE or increasing under NWUE.
    """
    if branch not in ("a", "b"):
        raise BoundError(f"branch must be 'a' or 'b', got {branch!r}")
    if d.support.lo < -1e-12:
        raise BoundError("equilibrium bounds need nonnegative support")
    mean = d.mean()
    if mean <= 0:
        raise BoundError("equilibrium bounds need mean > 0")
    lam = 1.0 / mean

    nbue, nwue = check_nbue_nwue(d)
    grid = law_grid(d)
    grid = grid[grid >= 0.0]
    with np.errstate(all="ignore"):  # a non-finite h fails both checks
        g1 = np.asarray(g.g1(grid), dtype=float)
        if branch == "a":
            h = _phi_g(g, lam)(grid) + lam * grid * g1
            name = "phi_g-plus-lam-x-gprime"
        else:
            h = np.asarray(g.g(grid), dtype=float) + grid * g1
            name = "g-plus-x-gprime"
    inc = check_shape(name + "-increasing", grid, h, 1, +1)
    dec = check_shape(name + "-decreasing", grid, h, 1, -1)
    if branch == "a":
        valid = (nbue.holds and inc.holds) or (nwue.holds and dec.holds)
    else:
        valid = (nbue.holds and dec.holds) or (nwue.holds and inc.holds)
    for check in (nbue, nwue, inc, dec):
        check.required = False
    checks = [nbue, nwue, inc, dec,
              HypothesisCheck(f"branch-{branch}-pairing", valid,
                              note="ordering verdict paired with the matching "
                                   "monotonicity direction")]
    return _bound(f"equilibrium-{branch}", d, lambda x: x / lam, g,
                  _variance(d), d, checks, rel_tol=rel_tol, n_mc=n_mc,
                  seed=seed, stream=7, meta={"lambda": lam})


# --------------------------------------------------------------- smoothed

def bound_smoothed(s: SmoothedDistribution, g: TestFunction, claim: str,
                   rel_tol: float = DEFAULT_REL_TOL,
                   n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """Bounds on Var[g(Y)] through the smoothed law Y + Z, Z ~ N(0, eps^2).

    s is the law of Y + Z, and s.base the law of Y.  Claim 'i' (upper):
    Var[g(Y)] <= E[tau_eps(Y+Z) g'(Y+Z)^2], gated on grid-convexity of
    (g(x) - E[g(Y+Z)])^2.  Claim 'ii' (lower):
    Var[g(Y)] >= E[tau_eps(Y+Z) g'(Y+Z)]^2 / (eps^2 + Var[Y]), gated on
    grid-concavity of (g(x) - E[g(Y)])^2.  The MC oracle is the unsmoothed
    Var[g(Y)].
    """
    if claim not in ("i", "ii"):
        raise BoundError(f"claim must be 'i' or 'ii', got {claim!r}")
    grid = law_grid(s)
    if claim == "i":
        centre = s.expect(lambda x: g.g(x), rel_tol=rel_tol)
    else:
        centre, _ = _expect(s.base, lambda x: g.g(x), rel_tol, seed, n_mc, 8)
    shifted = (np.asarray(g.g(grid), dtype=float) - centre)**2
    check = (check_shape("shifted-square-convex", grid, shifted, 2, +1)
             if claim == "i" else
             check_shape("shifted-square-concave", grid, shifted, 2, -1))
    return _bound(f"smoothed-{claim}", s, smoothed_kernel(s), g,
                  s.var(), s.base, [check], rel_tol=rel_tol, n_mc=n_mc,
                  seed=seed, meta={"epsilon": s.epsilon})

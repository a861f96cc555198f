"""Variance bounds for g(W) built from Stein couplings.

Every bound comes back as a BoundReport carrying the bound values, the
grid-checked hypothesis verdicts that gate them, a Monte-Carlo variance
estimate with a 99% confidence halfwidth (None when E[g(W)^4] is infinite),
and enough metadata to reproduce the run.  A bound whose hypothesis fails
is withheld: the lower/upper field stays None and the numeric value moves
to the diagnostics map.

Bounds implemented:

* bound_generic        - E[T1/gamma'(T2) g'(T2)^2] upper and
                         (E[T1 g'(T2)])^2 / Var[gamma(W)] lower, for an
                         arbitrary coupling (gamma, T1, T2);
* bound_cacoullos      - E[tau g']^2 / Var[W] <= Var[g(W)] <= E[tau (g')^2];
* bound_zero_bias      - sigma^2 E[g'(W*)]^2 <= Var[g(W)] <= sigma^2 E[g'(W*)^2];
* bound_zero_bias_remainder - sigma^2 E[g'(W)^2] + 2 sigma^2 ||g'g''|| E|W*-W|;
* bound_convex_order   - Var[g(W)] <= sigma^2 E[g'(W)^2] when W* <=_cx W and
                         g'^2 is convex;
* bound_equilibrium    - branch (a) upper lambda^-1 E[W g'(W)^2], branch (b)
                         lower (E[W g'(W)])^2 / (lambda^2 Var[W]), gated by
                         NBUE/NWUE and monotonicity hypotheses;
* bound_smoothed       - claims (i)/(ii) through the Gaussian-smoothed law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, DistributionError
from .exprfn import TestFunction
from .kernels import SteinKernel, SmoothedSpec, smoothed_kernel
from .numerics import NonFiniteError, NumericsError, rng_stream
from .orderings import check_cx, check_nbue_nwue
from .transforms import ZeroBiasSpec, zero_bias

DEFAULT_N_MC = 10**6
DEFAULT_REL_TOL = 1e-6
HYP_GRID = 256
HYP_SLACK = 1e-9
CI99_Z = 2.5758293035489004  # two-sided 99% normal quantile
DEGENERATE_VAR = 1e-12


class BoundError(Exception):
    pass


class MissingGap(BoundError):
    """No E|W* - W| value available and no coupling to estimate it from."""


@dataclass
class HypothesisCheck:
    name: str
    holds: bool
    max_violation: float = 0.0
    witness: float | None = None
    note: str = ""
    required: bool = True  # informational verdicts don't gate the bound

    def to_dict(self):
        return {
            "name": self.name,
            "verdict": "holds-on-grid" if self.holds else "fails",
            "max_violation": float(self.max_violation),
            "witness": None if self.witness is None else float(self.witness),
            "note": self.note,
            "required": bool(self.required),
        }


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

def _variance_se(x):
    """(sample variance, its standard error) of the values x.

    The standard error comes from the asymptotic variance of the sample
    variance, (m4 - (n-3)/(n-1) s^4)/n, with m4 the fourth central moment.
    """
    n = len(x)
    s2 = float(np.var(x, ddof=1))
    c = x - x.mean()
    m4 = float(np.mean(c**4))
    var_of_var = max(m4 - (n - 3) / (n - 1) * s2 * s2, 0.0) / n
    return s2, math.sqrt(var_of_var)


def mc_variance(sample_fn, g, seed: int, n_mc: int, stream_id: int = 0):
    """(variance, se, ci99) of g(W) from n_mc draws."""
    rng = rng_stream(seed, stream_id)
    s2, se = _variance_se(np.asarray(g(sample_fn(rng, n_mc)), dtype=float))
    return s2, se, CI99_Z * se


def fourth_moment_infinite(d: Distribution, g) -> bool:
    """Whether E[g(W)^4] is infinite, decided from the law and g alone.

    With tail index a (P(W > x) ~ x^-a), E|W|^s is finite iff s < a, so
    E[g(W)^4] is infinite iff 4 r >= a, r being g's polynomial growth: read
    from the running maximum of |g| between 1e4 and 1e12 times the start of
    the tail.  Lower-order terms of g bias r low, so 0.05 below the
    threshold already counts as infinite.
    """
    if not math.isfinite(d.tail_index):
        return False
    x = max(d.support.lo, 1.0) * np.geomspace(1.0, 1e12, 37)
    with np.errstate(all="ignore"):
        env = np.maximum.accumulate(np.abs(np.asarray(g(x), dtype=float)))
        r = np.log(env[-1] / env[12]) / np.log(x[-1] / x[12])
    return bool(4.0 * r >= d.tail_index - 0.05)


def _attach_mc(report: BoundReport, d: Distribution, g, seed, n_mc,
               stream_id=0):
    """The MC variance of g(W), with its standard error and 99% CI
    halfwidth, or None for both (and a note) when E[g(W)^4] is infinite."""
    no_se = fourth_moment_infinite(d, g)
    var, se, ci = mc_variance(d.sample, g, seed, n_mc, stream_id)
    report.mc_variance = var
    report.mc_se, report.mc_ci99 = (None, None) if no_se else (se, ci)
    if no_se:
        report.meta["mc_se_note"] = (
            f"E[g(W)^4] is infinite (tail index {d.tail_index:g}): the "
            "sample variance has no standard error")
    report.degenerate = var < DEGENERATE_VAR
    return report


def _expect(d: Distribution, f, rel_tol, seed, n_mc, stream_id):
    """Expectation by quadrature when the law supports it, else MC."""
    if d.has_density or len(d.atoms()[0]):
        return d.expect(f, rel_tol=rel_tol), "quadrature"
    est, _ = d.mc_expect(f, rng_stream(seed, stream_id), n_mc)
    return est, "mc"


def _hyp_grid(d: Distribution, grid_size: int = HYP_GRID):
    eff = d.effective_interval(1e-9)
    lo = eff.lo if math.isfinite(eff.lo) else -8.0
    hi = eff.hi if math.isfinite(eff.hi) else 8.0
    return np.linspace(lo, hi, grid_size)


def _second_diff_check(name, values, grid, sign, note=""):
    """Convexity (sign=+1) or concavity (sign=-1) via second differences."""
    d2 = sign * np.diff(values, 2)
    scale = max(1.0, float(np.max(np.abs(values))))
    worst = float(-np.min(d2)) if len(d2) else 0.0
    if worst > HYP_SLACK * scale:
        i = int(np.argmin(d2))
        return HypothesisCheck(name, False, worst, float(grid[i + 1]), note)
    return HypothesisCheck(name, True, max(worst, 0.0), note=note)


def _monotone_check(name, values, grid, increasing: bool, note=""):
    d1 = np.diff(values)
    if not increasing:
        d1 = -d1
    scale = max(1.0, float(np.max(np.abs(values))))
    worst = float(-np.min(d1)) if len(d1) else 0.0
    if worst > HYP_SLACK * scale:
        i = int(np.argmin(d1))
        return HypothesisCheck(name, False, worst, float(grid[i]), note)
    return HypothesisCheck(name, True, max(worst, 0.0), note=note)


def _withhold(report: BoundReport, side: str):
    """Move a gated bound value into diagnostics when hypotheses fail."""
    if not report.hypotheses_hold:
        value = getattr(report, side)
        report.diagnostics[f"withheld_{side}"] = value
        setattr(report, side, None)
    return report


# --------------------------------------------------------------- generic


@dataclass
class SteinCoupling:
    """A coupling (gamma, T1, T2) with E[gamma(W) phi(W)] = E[T1 phi'(T2)].

    joint_sampler(rng, size) must return a (W, T1, T2) triple of arrays.
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
    """
    rng = rng_stream(seed, 1)
    w, t1, t2 = c.joint_sampler(rng, n_mc)
    w = np.asarray(w, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    g1_t2 = np.asarray(g.g1(t2), dtype=float)

    upper = lower = None
    diagnostics = {}
    if c.direction in ("equality", "upper-only"):
        upper_terms = t1 / np.asarray(c.gamma_prime(t2), dtype=float) * g1_t2**2
        upper = float(upper_terms.mean())
        diagnostics["upper_se"] = float(upper_terms.std(ddof=1) / math.sqrt(n_mc))
    if c.direction in ("equality", "lower-only"):
        num_terms = t1 * g1_t2
        num = float(num_terms.mean())
        gamma_w = np.asarray(c.gamma(w), dtype=float)
        var_gamma = float(np.var(gamma_w, ddof=1))
        if var_gamma < DEGENERATE_VAR:
            raise BoundError("Var[gamma(W)] is numerically zero")
        lower = num * num / var_gamma
        diagnostics["lower_numerator_se"] = float(
            num_terms.std(ddof=1) / math.sqrt(n_mc))
        diagnostics["var_gamma"] = var_gamma

    s2, se = _variance_se(np.asarray(g(w), dtype=float))
    reported = [s2, se, *diagnostics.values()] + [
        v for v in (lower, upper) if v is not None]
    if not np.all(np.isfinite(reported)):
        raise NonFiniteError("generic bound: g or the coupling gave a "
                             "non-finite value on the Monte-Carlo draws")
    return BoundReport(
        method="generic", lower=lower, upper=upper,
        mc_variance=s2, mc_se=se, mc_ci99=CI99_Z * se,
        degenerate=s2 < DEGENERATE_VAR, diagnostics=diagnostics,
        meta={"seed": seed, "n_mc": n_mc, "route": "mc",
              "direction": c.direction, "g": g.source})


# --------------------------------------------------------------- cacoullos

def bound_cacoullos(d: Distribution, k: SteinKernel, g: TestFunction,
                    rel_tol: float = DEFAULT_REL_TOL,
                    n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """E[tau g']^2 / Var[W] <= Var[g(W)] <= E[tau (g')^2]."""
    e_tg2, route = _expect(d, lambda x: k(x) * g.g1(x)**2, rel_tol, seed, n_mc, 2)
    e_tg, _ = _expect(d, lambda x: k(x) * g.g1(x), rel_tol, seed, n_mc, 3)
    var_w = d.var()
    report = BoundReport(
        method="cacoullos", lower=e_tg * e_tg / var_w, upper=e_tg2,
        mc_variance=math.nan, mc_ci99=math.nan, mc_se=math.nan,
        meta={"seed": seed, "n_mc": n_mc, "rel_tol": rel_tol,
              "route": route, "kernel": k.provenance, "g": g.source})
    return _attach_mc(report, d, g, seed, n_mc)


# --------------------------------------------------------------- zero-bias

def bound_zero_bias(zb: ZeroBiasSpec, g: TestFunction,
                    rel_tol: float = DEFAULT_REL_TOL,
                    n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """sigma^2 E[g'(W*)]^2 <= Var[g(W)] <= sigma^2 E[g'(W*)^2]."""
    star, s2 = zb.star, zb.sigma2
    e_g1sq = star.expect(lambda x: g.g1(x)**2, rel_tol=rel_tol)
    e_g1 = star.expect(lambda x: g.g1(x), rel_tol=rel_tol)
    report = BoundReport(
        method="zero-bias", lower=s2 * e_g1 * e_g1, upper=s2 * e_g1sq,
        mc_variance=math.nan, mc_ci99=math.nan, mc_se=math.nan,
        meta={"seed": seed, "n_mc": n_mc, "rel_tol": rel_tol,
              "route": "quadrature", "g": g.source})
    return _attach_mc(report, zb.base, g, seed, n_mc)


def bound_zero_bias_remainder(d: Distribution, g: TestFunction,
                              e_abs_gap: float | None = None,
                              coupling=None,
                              rel_tol: float = DEFAULT_REL_TOL,
                              n_mc: int = DEFAULT_N_MC,
                              seed: int = 0) -> BoundReport:
    """Var[g(W)] <= sigma^2 E[g'(W)^2] + 2 sigma^2 ||g'g''|| E|W* - W|.

    E|W* - W| is taken from e_abs_gap when supplied, otherwise estimated
    by MC from an explicit sum coupling.  The remainder field carries the
    full 2 sigma^2 ||g'g''|| E|W*-W| term; ||g'g''|| is the grid estimate
    attached to g, reported as an estimate rather than a proven sup.
    """
    gap_se = 0.0
    if e_abs_gap is None:
        if coupling is None:
            raise MissingGap("supply e_abs_gap or a SumZeroBiasCoupling")
        e_abs_gap, gap_se = coupling.mean_abs_gap(rng_stream(seed, 4), n_mc)
    if not math.isfinite(g.sup_g1g2):
        raise BoundError("||g'g''|| estimate is not finite for this g")
    s2 = d.var()
    e_g1sq, route = _expect(d, lambda x: g.g1(x)**2, rel_tol, seed, n_mc, 5)
    remainder = 2.0 * s2 * g.sup_g1g2 * e_abs_gap
    report = BoundReport(
        method="zero-bias-remainder", lower=None,
        upper=s2 * e_g1sq + remainder,
        mc_variance=math.nan, mc_ci99=math.nan, mc_se=math.nan,
        remainder=remainder,
        diagnostics={"e_abs_gap": e_abs_gap, "e_abs_gap_se": gap_se,
                     "sup_g1g2": g.sup_g1g2},
        meta={"seed": seed, "n_mc": n_mc, "rel_tol": rel_tol,
              "route": route, "g": g.source})
    return _attach_mc(report, d, g, seed, n_mc)


# ------------------------------------------------------------- convex order

def bound_convex_order(d: Distribution, g: TestFunction,
                       rel_tol: float = DEFAULT_REL_TOL,
                       n_mc: int = DEFAULT_N_MC, seed: int = 0,
                       order_tol: float = 1e-6) -> BoundReport:
    """Var[g(W)] <= sigma^2 E[g'(W)^2], gated on W* <=_cx W and convex g'^2.

    The convex-order premise is checked on a grid via stop-loss transforms
    (at tolerance order_tol, reflecting the table-based accuracy of the
    continuous zero-bias stop-loss) and the convexity of g'^2 via second
    differences.  Either failure withholds the bound.
    """
    zb = zero_bias(d)
    checks = []
    try:
        verdict = check_cx(zb.star, d, tol=order_tol)
        checks.append(HypothesisCheck("zero-bias-convex-order", verdict.holds,
                                      verdict.max_violation, verdict.witness))
    except (DistributionError, NumericsError) as exc:
        checks.append(HypothesisCheck("zero-bias-convex-order", False,
                                      math.inf, note=str(exc)))
    grid = _hyp_grid(d)
    checks.append(_second_diff_check("g-prime-squared-convex",
                                     np.asarray(g.g1(grid))**2, grid, +1))
    s2 = d.var()
    e_g1sq, route = _expect(d, lambda x: g.g1(x)**2, rel_tol, seed, n_mc, 6)
    report = BoundReport(
        method="convex-order", lower=None, upper=s2 * e_g1sq,
        mc_variance=math.nan, mc_ci99=math.nan, mc_se=math.nan,
        hypothesis_checks=checks,
        meta={"seed": seed, "n_mc": n_mc, "rel_tol": rel_tol,
              "route": route, "g": g.source})
    _attach_mc(report, d, g, seed, n_mc)
    return _withhold(report, "upper")


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
    grid = _hyp_grid(d)
    grid = grid[grid >= 0.0]
    if branch == "a":
        phi = _phi_g(g, lam)
        h = phi(grid) + lam * grid * np.asarray(g.g1(grid), dtype=float)
        name = "phi_g-plus-lam-x-gprime"
    else:
        h = np.asarray(g.g(grid), dtype=float) + grid * np.asarray(
            g.g1(grid), dtype=float)
        name = "g-plus-x-gprime"
    inc = _monotone_check(name + "-increasing", h, grid, True)
    dec = _monotone_check(name + "-decreasing", h, grid, False)
    if branch == "a":
        valid = (nbue.holds and inc.holds) or (nwue.holds and dec.holds)
    else:
        valid = (nbue.holds and dec.holds) or (nwue.holds and inc.holds)
    inc.required = dec.required = False
    checks = [
        HypothesisCheck("nbue", nbue.holds, nbue.max_violation, nbue.witness,
                        required=False),
        HypothesisCheck("nwue", nwue.holds, nwue.max_violation, nwue.witness,
                        required=False),
        inc, dec,
        HypothesisCheck(f"branch-{branch}-pairing", valid,
                        note="ordering verdict paired with the matching "
                             "monotonicity direction"),
    ]

    lower = upper = None
    if branch == "a":
        e_wg2, route = _expect(d, lambda x: x * g.g1(x)**2, rel_tol, seed,
                               n_mc, 7)
        upper = e_wg2 / lam
    else:
        e_wg, route = _expect(d, lambda x: x * g.g1(x), rel_tol, seed, n_mc, 7)
        lower = e_wg * e_wg / (lam * lam * d.var())
    report = BoundReport(
        method=f"equilibrium-{branch}", lower=lower, upper=upper,
        mc_variance=math.nan, mc_ci99=math.nan, mc_se=math.nan,
        hypothesis_checks=checks,
        meta={"seed": seed, "n_mc": n_mc, "rel_tol": rel_tol,
              "route": route, "lambda": lam, "g": g.source})
    _attach_mc(report, d, g, seed, n_mc)
    return _withhold(report, "upper" if branch == "a" else "lower")


# --------------------------------------------------------------- smoothed

def bound_smoothed(s: SmoothedSpec, g: TestFunction, claim: str,
                   rel_tol: float = DEFAULT_REL_TOL,
                   n_mc: int = DEFAULT_N_MC, seed: int = 0) -> BoundReport:
    """Bounds on Var[g(Y)] through the smoothed law Y + Z, Z ~ N(0, eps^2).

    Claim 'i' (upper): Var[g(Y)] <= E[tau_eps(Y+Z) g'(Y+Z)^2], gated on
    grid-convexity of (g(x) - E[g(Y+Z)])^2.  Claim 'ii' (lower):
    Var[g(Y)] >= E[tau_eps(Y+Z) g'(Y+Z)]^2 / (eps^2 + Var[Y]), gated on
    grid-concavity of (g(x) - E[g(Y)])^2.
    """
    if claim not in ("i", "ii"):
        raise BoundError(f"claim must be 'i' or 'ii', got {claim!r}")
    conv = s.convolved
    base = s.base
    k = smoothed_kernel(s)
    grid = _hyp_grid(conv)

    checks = []
    lower = upper = None
    if claim == "i":
        e_g_conv = conv.expect(lambda x: g.g(x), rel_tol=rel_tol)
        shifted = (np.asarray(g.g(grid), dtype=float) - e_g_conv)**2
        checks.append(_second_diff_check("shifted-square-convex", shifted,
                                         grid, +1))
        upper = conv.expect(lambda x: k(x) * g.g1(x)**2, rel_tol=rel_tol)
    else:
        e_g_base, _ = _expect(base, lambda x: g.g(x), rel_tol, seed, n_mc, 8)
        shifted = (np.asarray(g.g(grid), dtype=float) - e_g_base)**2
        checks.append(_second_diff_check("shifted-square-concave", shifted,
                                         grid, -1))
        e_kg = conv.expect(lambda x: k(x) * g.g1(x), rel_tol=rel_tol)
        lower = e_kg * e_kg / (s.epsilon**2 + base.var())

    report = BoundReport(
        method=f"smoothed-{claim}", lower=lower, upper=upper,
        mc_variance=math.nan, mc_ci99=math.nan, mc_se=math.nan,
        hypothesis_checks=checks,
        meta={"seed": seed, "n_mc": n_mc, "rel_tol": rel_tol,
              "route": "quadrature", "epsilon": s.epsilon, "g": g.source})
    # mc_variance targets the *unsmoothed* Var[g(Y)]
    _attach_mc(report, base, g, seed, n_mc)
    return _withhold(report, "upper" if claim == "i" else "lower")

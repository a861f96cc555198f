"""Grid-checked hypotheses on a law (stochastic and convex order, NBUE/NWUE,
the counting condition) or on a function of x (monotone, convex).

These are necessary-condition checks at finitely many points, never proofs.
Every verdict is a HypothesisCheck built by one rule, verdict().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, DistributionError
from .transforms import equilibrium, stop_loss

GRID_SIZE = 256   # points of every law grid
DEFAULT_TOL = 1e-9
MEAN_TOL = 1e-7   # the means check_cx takes as equal
COUNT_N_MAX = 64  # the counting condition is checked at n = 0..COUNT_N_MAX
COUNT_TAIL_MASS = 1e-12  # survival left out of its tail sums


@dataclass
class HypothesisCheck:
    name: str
    holds: bool
    max_violation: float = 0.0
    witness: float | None = None  # grid point of the worst violation on failure
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


def verdict(name, grid, violations, tol, note="") -> HypothesisCheck:
    """Holds when no violation exceeds tol, else fails at the worst one.  A
    violation that is not finite fails at its grid point, with the largest
    finite violation as max_violation and the reason in note."""
    violations = np.asarray(violations, dtype=float)
    finite = np.isfinite(violations)
    worst = float(np.max(violations, where=finite, initial=0.0))
    if not finite.all():
        i = int(np.argmin(finite))
        note = (f"{note}; " if note else "") + (
            f"non-finite value at x = {grid[i]:g}: the check cannot be evaluated")
    elif worst > tol:
        i = int(np.argmax(violations))
    else:
        return HypothesisCheck(name, True, worst, note=note)
    return HypothesisCheck(name, False, worst, float(grid[i]), note)


def law_grid(d: Distribution):
    """Evenly spaced grid over the law's effective interval, cut at +-8."""
    eff = d.effective_interval(1e-9)
    lo = eff.lo if math.isfinite(eff.lo) else -8.0
    hi = eff.hi if math.isfinite(eff.hi) else 8.0
    return np.linspace(lo, hi, GRID_SIZE)


def check_shape(name, grid, values, order: int, sign: int) -> HypothesisCheck:
    """sign times the order-th differences of values is >= 0 on the grid:
    increasing (order 1, sign +1), decreasing (1, -1), convex (2, +1) or
    concave (2, -1), at tolerance DEFAULT_TOL * max(1, max|values|)."""
    with np.errstate(invalid="ignore"):
        diffs = sign * np.diff(values, order)
    scale = max(1.0, float(np.max(np.abs(values))))
    return verdict(name, grid[order - 1:-1], -diffs, DEFAULT_TOL * scale)


def _shared_grid(d1: Distribution, d2: Distribution):
    """Quantile-spaced grid covering both supports, plus finite endpoints."""
    qs = np.linspace(0.005, 0.995, GRID_SIZE)
    pts = []
    for d in (d1, d2):
        try:
            pts.append(d.quantile(qs))
        except DistributionError:
            pass
    if not pts:
        raise DistributionError("need a cdf on at least one side to build a grid")
    grid = np.concatenate(pts)
    for d in (d1, d2):
        if d.support.lo_finite:
            grid = np.append(grid, d.support.lo)
        if d.support.hi_finite:
            grid = np.append(grid, d.support.hi)
    return np.unique(grid)


def check_st(d1: Distribution, d2: Distribution) -> HypothesisCheck:
    """d1 <=_st d2: P(X > t) <= P(Y > t) on the grid."""
    grid = _shared_grid(d1, d2)
    s1 = np.asarray(d1.survival(grid), dtype=float)
    s2 = np.asarray(d2.survival(grid), dtype=float)
    return verdict("st", grid, s1 - s2, DEFAULT_TOL)


def check_cx(d1: Distribution, d2: Distribution,
             tol: float = DEFAULT_TOL) -> HypothesisCheck:
    """d1 <=_cx d2 via equal means plus the stop-loss comparison
    E[(X - t)_+] <= E[(Y - t)_+] on the grid."""
    m1, m2 = d1.mean(), d2.mean()
    if abs(m1 - m2) > MEAN_TOL:
        raise DistributionError(
            f"convex order impossible: means differ ({m1:.6g} vs {m2:.6g})")
    grid = _shared_grid(d1, d2)
    sl1 = np.asarray(stop_loss(d1, grid), dtype=float)
    sl2 = np.asarray(stop_loss(d2, grid), dtype=float)
    return verdict("cx", grid, sl1 - sl2, tol)


def check_nbue_nwue(d: Distribution):
    """Both one-sided verdicts for a nonnegative law with positive mean.

    NBUE: lambda * integral_x^inf P(W > s) ds <= P(W > x) for all x >= 0,
    i.e. the equilibrium survival lies below the base survival; NWUE is
    the reverse.  Returns (nbue_verdict, nwue_verdict).
    """
    eq = equilibrium(d)
    grid = _shared_grid(d, eq)
    grid = grid[grid >= 0.0]
    s_base = np.asarray(d.survival(grid), dtype=float)
    s_eq = np.asarray(eq.survival(grid), dtype=float)
    return (verdict("nbue", grid, s_eq - s_base, DEFAULT_TOL),
            verdict("nwue", grid, s_base - s_eq, DEFAULT_TOL))


def check_counting_condition(n_dist: Distribution) -> HypothesisCheck:
    """Random-sum NWUE sufficient condition on the count variable N:

        sum_k P(N > n+k+1) >= P(N > n) * sum_k P(N > k)

    for n = 0, ..., COUNT_N_MAX, its tail sums cut once the survival left
    is below COUNT_TAIL_MASS; raises if it is not summable in that budget.
    """
    def surv(k):
        return float(n_dist.survival(float(k)))

    # Truncation point: survival below COUNT_TAIL_MASS (geometric-type decay).
    kmax = None
    k = 1
    while k < 10**7:
        if surv(k) < COUNT_TAIL_MASS:
            kmax = k
            break
        k *= 2
    if kmax is None:
        raise DistributionError("count survival not summable within budget")
    kmax = max(kmax, COUNT_N_MAX + 2)
    s = np.array([surv(k) for k in range(0, 2 * kmax + COUNT_N_MAX + 4)])
    total = float(s.sum())
    grid, violations = [], []
    for n in range(COUNT_N_MAX + 1):
        lhs = float(s[n + 1:].sum())
        rhs = s[n] * total
        grid.append(float(n))
        violations.append(rhs - lhs)
    return verdict("counting", grid, violations, DEFAULT_TOL)

"""Grid-checked stochastic order, convex order, and NBUE/NWUE verdicts.

These are necessary-condition checks at finitely many points, never proofs;
verdicts are reported as holds-on-grid or fails with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, DistributionError
from .transforms import equilibrium, stop_loss

DEFAULT_GRID = 256
DEFAULT_TOL = 1e-9


@dataclass
class OrderVerdict:
    relation: str  # st | cx | nbue | nwue | counting
    grid: np.ndarray
    max_violation: float
    holds: bool
    tolerance: float
    witness: float | None = None  # grid point of the worst violation on failure

    def to_dict(self):
        return {
            "relation": self.relation,
            "verdict": "holds-on-grid" if self.holds else "fails",
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tolerance),
            "witness": None if self.witness is None else float(self.witness),
        }


def _verdict(relation, grid, violations, tol):
    violations = np.asarray(violations, dtype=float)
    worst = float(np.max(violations)) if len(violations) else 0.0
    worst = max(worst, 0.0)
    if worst > tol:
        witness = float(np.asarray(grid)[int(np.argmax(violations))])
        return OrderVerdict(relation, np.asarray(grid), worst, False, tol, witness)
    return OrderVerdict(relation, np.asarray(grid), worst, True, tol)


def _shared_grid(d1: Distribution, d2: Distribution, grid_size: int):
    """Quantile-spaced grid covering both supports, plus finite endpoints."""
    qs = np.linspace(0.005, 0.995, grid_size)
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


def check_st(d1: Distribution, d2: Distribution, grid_size: int = DEFAULT_GRID,
             tol: float = DEFAULT_TOL) -> OrderVerdict:
    """d1 <=_st d2: P(X > t) <= P(Y > t) on the grid."""
    grid = _shared_grid(d1, d2, grid_size)
    s1 = np.asarray(d1.survival(grid), dtype=float)
    s2 = np.asarray(d2.survival(grid), dtype=float)
    return _verdict("st", grid, s1 - s2, tol)


def check_cx(d1: Distribution, d2: Distribution, grid_size: int = DEFAULT_GRID,
             tol: float = DEFAULT_TOL, mean_tol: float = 1e-7) -> OrderVerdict:
    """d1 <=_cx d2 via equal means plus the stop-loss comparison
    E[(X - t)_+] <= E[(Y - t)_+] on the grid."""
    m1, m2 = d1.mean(), d2.mean()
    if abs(m1 - m2) > mean_tol:
        raise DistributionError(
            f"convex order impossible: means differ ({m1:.6g} vs {m2:.6g})")
    grid = _shared_grid(d1, d2, grid_size)
    sl1 = np.asarray(stop_loss(d1, grid), dtype=float)
    sl2 = np.asarray(stop_loss(d2, grid), dtype=float)
    return _verdict("cx", grid, sl1 - sl2, tol)


def check_nbue_nwue(d: Distribution, grid_size: int = DEFAULT_GRID,
                    tol: float = DEFAULT_TOL):
    """Both one-sided verdicts for a nonnegative law with positive mean.

    NBUE: lambda * integral_x^inf P(W > s) ds <= P(W > x) for all x >= 0,
    i.e. the equilibrium survival lies below the base survival; NWUE is
    the reverse.  Returns (nbue_verdict, nwue_verdict).
    """
    eq = equilibrium(d)
    grid = _shared_grid(d, eq, grid_size)
    grid = grid[grid >= 0.0]
    s_base = np.asarray(d.survival(grid), dtype=float)
    s_eq = np.asarray(eq.survival(grid), dtype=float)
    nbue = _verdict("nbue", grid, s_eq - s_base, tol)
    nwue = _verdict("nwue", grid, s_base - s_eq, tol)
    return nbue, nwue


def check_counting_condition(n_dist: Distribution, n_max: int = 64,
                             tol: float = DEFAULT_TOL,
                             tail_mass: float = 1e-12) -> OrderVerdict:
    """Random-sum NWUE sufficient condition on the count variable N:

        sum_k P(N > n+k+1) >= P(N > n) * sum_k P(N > k),  n = 0, 1, ...

    Tail sums are truncated once the remaining survival mass is below
    tail_mass; raises if the survival is not summable in that budget.
    """
    def surv(k):
        return float(n_dist.survival(float(k)))

    # Truncation point: survival below tail_mass (geometric-type decay).
    kmax = None
    k = 1
    while k < 10**7:
        if surv(k) < tail_mass:
            kmax = k
            break
        k *= 2
    if kmax is None:
        raise DistributionError("count survival not summable within budget")
    kmax = max(kmax, n_max + 2)
    s = np.array([surv(k) for k in range(0, 2 * kmax + n_max + 4)])
    total = float(s.sum())
    grid, violations = [], []
    for n in range(n_max + 1):
        lhs = float(s[n + 1:].sum())
        rhs = s[n] * total
        grid.append(float(n))
        violations.append(rhs - lhs)
    return _verdict("counting", grid, violations, tol)

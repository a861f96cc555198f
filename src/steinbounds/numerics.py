"""Shared numerical substrate: quadrature, root finding, grids, RNG streams.

Everything here is deterministic given its inputs.  Random streams are
created explicitly from (seed, stream_id) pairs; nothing reads global RNG
state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate
from scipy import optimize as _optimize

# Subdivision-limit warnings are superseded by our own error-budget checks
# (integrate raises IntegrationError when the estimate is not good enough).
warnings.filterwarnings("ignore", category=_integrate.IntegrationWarning)

REL_TOL_BOUND = 1e-6  # default tolerance for bound values
ABS_FLOOR = 1e-12
MAX_EVALS = 10**6


class NumericsError(Exception):
    """Base class for numerical failures."""


class IntegrationError(NumericsError):
    """Quadrature did not converge within budget."""


class NonFiniteError(NumericsError):
    """Integrand or sample produced a non-finite value."""


class BracketError(NumericsError):
    """Root bracketing failed (function does not straddle the target)."""


@dataclass(frozen=True)
class Interval:
    """An interval with possibly infinite endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def lo_finite(self) -> bool:
        return math.isfinite(self.lo)

    @property
    def hi_finite(self) -> bool:
        return math.isfinite(self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def clip(self, x):
        return np.clip(x, self.lo, self.hi)


REAL_LINE = Interval(-math.inf, math.inf)


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def integrate(f, iv: Interval, rel_tol: float = REL_TOL_BOUND,
              abs_tol: float = ABS_FLOOR, points=None) -> QuadResult:
    """Adaptive quadrature of f over iv.

    Infinite endpoints are handled by scipy's variable transformation.
    Raises NonFiniteError if f evaluates to nan/inf inside the interval,
    IntegrationError when the error estimate does not meet tolerance.
    """
    if not (0.0 < rel_tol <= 1e-2):
        raise ValueError(f"rel_tol {rel_tol} outside (0, 1e-2]")
    nevals = [0]

    def checked(x):
        nevals[0] += 1
        y = f(x)
        if not np.isfinite(y):
            raise NonFiniteError(f"integrand non-finite at x={x}: {y}")
        return y

    pts = None
    if points is not None:
        pts = [p for p in points if iv.lo < p < iv.hi]
        pts = pts or None
    if pts is not None and iv.lo_finite and iv.hi_finite:
        value, err = _integrate.quad(checked, iv.lo, iv.hi, epsrel=rel_tol,
                                     epsabs=abs_tol, limit=400, points=pts)
    elif pts is not None:
        # quad does not accept break points with infinite limits: split.
        cuts = [iv.lo] + sorted(pts) + [iv.hi]
        value, err = 0.0, 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            v, e = _integrate.quad(checked, a, b, epsrel=rel_tol,
                                   epsabs=abs_tol, limit=400)
            value += v
            err += e
    else:
        value, err = _integrate.quad(checked, iv.lo, iv.hi, epsrel=rel_tol,
                                     epsabs=abs_tol, limit=400)
    if nevals[0] > MAX_EVALS:
        raise IntegrationError(f"evaluation budget exceeded ({nevals[0]})")
    if err > rel_tol * abs(value) + max(abs_tol, 10 * ABS_FLOOR):
        # One retry with a finer subdivision limit before giving up.
        value, err = _integrate.quad(checked, iv.lo, iv.hi, epsrel=rel_tol,
                                     epsabs=abs_tol, limit=1000)
        if err > rel_tol * abs(value) + max(abs_tol, 100 * ABS_FLOOR):
            raise IntegrationError(
                f"quadrature error {err:.3g} above tolerance for value {value:.6g}")
    return QuadResult(value, err, nevals[0])


def integrate_soft(f, iv: Interval, rel_tol: float = REL_TOL_BOUND,
                   abs_tol: float = ABS_FLOOR, retry: bool = True,
                   limit: int = 400) -> QuadResult:
    """Best-effort quadrature: returns the estimate and its error estimate
    without raising on tolerance (non-finite integrands still raise).

    Meant for composite schemes that track an overall error budget across
    many segments rather than demanding every segment converge."""
    nevals = [0]

    def checked(x):
        nevals[0] += 1
        y = f(x)
        if not np.isfinite(y):
            raise NonFiniteError(f"integrand non-finite at x={x}: {y}")
        return y

    value, err = _integrate.quad(checked, iv.lo, iv.hi, epsrel=rel_tol,
                                 epsabs=abs_tol, limit=limit)
    if retry and err > rel_tol * abs(value) + max(abs_tol, 10 * ABS_FLOOR):
        value, err = _integrate.quad(checked, iv.lo, iv.hi, epsrel=rel_tol,
                                     epsabs=abs_tol, limit=1000)
    return QuadResult(value, err, nevals[0])


def inverse_cdf(F, p: float, iv: Interval, tol: float = 1e-12) -> float:
    """Solve F(x) = p by bracketing on iv.

    F must be continuous and nondecreasing on iv; p in (0, 1).
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p={p} outside (0,1)")
    lo, hi = _bracket(F, p, iv)
    if F(lo) >= p:
        return lo
    if F(hi) <= p:
        return hi
    return _optimize.brentq(lambda x: F(x) - p, lo, hi, xtol=tol)


def _bracket(F, p, iv: Interval):
    lo = iv.lo if iv.lo_finite else min(-1.0, iv.hi - 1.0 if iv.hi_finite else -1.0)
    hi = iv.hi if iv.hi_finite else max(1.0, iv.lo + 1.0 if iv.lo_finite else 1.0)
    for _ in range(200):
        flo, fhi = F(lo), F(hi)
        if flo <= p <= fhi:
            return lo, hi
        if flo > p:
            if iv.lo_finite:
                return iv.lo, hi
            lo = lo * 2 if lo < 0 else lo - max(1.0, abs(lo))
        if fhi < p:
            if iv.hi_finite:
                return lo, iv.hi
            hi = hi * 2 if hi > 0 else hi + max(1.0, abs(hi))
    raise BracketError(f"could not bracket p={p} on {iv}")


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Deterministic stream; distinct stream_ids are independent."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream_id)]))


def linear_grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


def central_diff(f, x, h: float = 1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)

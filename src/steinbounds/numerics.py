"""Shared numerical substrate: quadrature, root finding, RNG streams.

Every expectation in the package is one call of `integrate`, a
vectorised panel rule: the interval is cut at the caller's points (a law's
quantiles, a table's nodes), each panel is summed by Gauss-Legendre rules
of two orders whose difference is the panel's error estimate, and only the
panels that miss their share of the tolerance are bisected.

Everything here is deterministic given its inputs.  Random streams are
created explicitly from (seed, stream_id) pairs; nothing reads global RNG
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REL_TOL_BOUND = 1e-6  # default tolerance for bound values
ABS_FLOOR = 1e-12
MAX_EVALS = 10**6

GL_X, GL_W = np.polynomial.legendre.leggauss(16)
_GL24_X, _GL24_W = np.polynomial.legendre.leggauss(24)
# Both rules' points on the reference panel [-1, 1], and their weights as
# the two columns of one matrix (16-point rule first).
_PANEL_X = np.concatenate([GL_X, _GL24_X])
_PANEL_W = np.zeros((len(_PANEL_X), 2))
_PANEL_W[:16, 0], _PANEL_W[16:, 1] = GL_W, _GL24_W
# Edges of the fixed panels beyond a point, in units of the panel scale:
# widths grow by 1.3 per panel, out to ~4e14 scales, which is the y = c/t
# substitution on fixed panels for a power-law tail.
TAIL_EDGES = 1.3 ** np.arange(129) - 1.0
QUAD_CHUNK = 4096  # values of f per vectorised call, bounding peak memory
BLOCK = 2**16  # draws per call of a per-draw transform (blocked)
# Panels refine until the error estimate is below this share of the
# tolerance: on an oscillating tail the 24-point sum can be off by as much
# as its distance to the 16-point sum, the error estimate.
REFINE = 1e-3


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
    value: float  # or an array, for a vector-valued integrand
    err: float
    evaluations: int


def panel_rule(a, b):
    """Points and weights of 16-point Gauss-Legendre on each panel [a, b]
    (arrays of panel ends, in either order), along a new last axis."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid[..., None] + half[..., None] * GL_X,
            np.abs(half)[..., None] * GL_W)


def _weigh(w, y):
    """n weights w times the values y of f at n points (scalars, vectors or
    one constant); a term whose weight is 0 is 0, even where f overflows."""
    w = np.asarray(w)
    w = w.reshape(w.shape + (1,) * (np.ndim(y) - 1))
    return np.where(w == 0, 0.0, np.asarray(y, dtype=float)) * w


def _weighted(f, weight):
    """f times the weight, as an integrand read at rows of points, one
    panel per row: f sees the points flat, the weight sees the rows."""
    if weight is None:
        return lambda x: f(x.ravel())
    return lambda x: _weigh(np.ravel(weight(x)), f(x.ravel()))


def _panel_sums(f, a, b):
    """Per panel [a_i, b_i], the 24-point Gauss-Legendre sum of f and its
    distance to the 16-point sum, the panel's error estimate.

    f is called on a (panels, 40) array of points, one panel per row, with
    at most QUAD_CHUNK values per call; the first call takes a single
    panel, to learn how many values f returns per point."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    sums, i, step = [], 0, 1
    while i < len(a):
        xi = mid[i:i + step, None] + half[i:i + step, None] * _PANEL_X
        y = np.asarray(f(xi), dtype=float)
        y = np.broadcast_to(y, (xi.size,) + y.shape[1:])  # a constant f
        y = y.reshape(xi.shape + y.shape[1:])
        with np.errstate(invalid="ignore"):  # integrate reports non-finite sums
            sums.append(np.tensordot(y, _PANEL_W, axes=(1, 0)))
        i += step
        step = max(1, QUAD_CHUNK // y[0].size)
    s = np.concatenate(sums)
    half = half.reshape(half.shape + (1,) * (s.ndim - 1))
    return half[..., 0] * s[..., 1], np.abs(half[..., 0] * (s[..., 1] - s[..., 0]))


def integrate_soft(f, iv: Interval, rel_tol: float = REL_TOL_BOUND,
                   abs_tol: float = ABS_FLOOR, points=None,
                   weight=None) -> QuadResult:
    """Best-effort panel quadrature of f (times weight, if given) over iv:
    the estimate and its error estimate, without raising on tolerance.

    f maps a 1-d array of points to one value per point, or to an (n, m)
    array for a vector-valued integrand; a constant is broadcast.  weight,
    a density, maps a (panels, k) array of points, each row inside one
    panel of the pass, to one value per point; a term of weight 0 is 0
    (_weigh), so a law can read its table once per panel.  iv is
    cut at the points inside it.  An infinite side gets the TAIL_EDGES
    panels, scaled by 1/64 of the span of the cuts, and past them one
    panel x = X + s (1/u^2 - 1) over u in (0, 1], on which a tail decaying
    like x^-1.5 is constant; it is summed but not refined, so a divergent
    integral fails the tolerance of integrate.  Each pass sums its panels
    by 24-point Gauss-Legendre, with the distance to the 16-point sum as
    each panel's error, in one vectorised sweep of f, and bisects the
    panels whose error exceeds an equal share of REFINE * max(rel_tol
    |value|, abs_tol) until the summed error meets that target.  A pass
    that would take the evaluations past MAX_EVALS is not run, and a
    non-finite value ends the refinement.
    """
    f = _weighted(f, weight)
    pts = np.ravel([] if points is None else points).astype(float)
    ends = [e for e in (iv.lo, iv.hi) if math.isfinite(e)]
    cuts = np.unique(np.concatenate([pts[(pts > iv.lo) & (pts < iv.hi)], ends]))
    cuts = cuts if len(cuts) else np.zeros(1)
    tail = ((cuts[-1] - cuts[0]) or 1.0) / 64.0 * TAIL_EDGES
    edges = np.unique(np.concatenate([
        cuts, cuts[0] - tail if not iv.lo_finite else [],
        cuts[-1] + tail if not iv.hi_finite else []]))
    a, b = edges[:-1], edges[1:]  # the panels of the next pass
    kept = None  # (a, b, value, error) of the panels kept from earlier passes
    value, err, evals = 0.0, math.inf, 0
    while len(a) and evals + len(_PANEL_X) * len(a) <= MAX_EVALS:
        v, e = _panel_sums(f, a, b)
        evals += len(_PANEL_X) * len(a)
        if kept is not None:
            a, b, v, e = (np.concatenate([k, n]) for k, n in zip(kept, (a, b, v, e)))
        value, err = v.sum(0), e.sum(0)
        tol = REFINE * np.maximum(rel_tol * np.abs(value), abs_tol)
        if np.all(err <= tol) or not np.all(np.isfinite(value)):
            break
        mid = 0.5 * (a + b)
        split = (e > tol / len(a)).reshape(len(a), -1).any(1) & (a < mid) & (mid < b)
        kept = (a[~split], b[~split], v[~split], e[~split])
        a, b = (np.concatenate([a[split], mid[split]]),
                np.concatenate([mid[split], b[split]]))
    s = tail[-1]  # the last panel, x = end + side s (1/u^2 - 1), dx = 2 s du / u^3
    for infinite, side, end in ((not iv.lo_finite, -1.0, edges[0]),
                                (not iv.hi_finite, 1.0, edges[-1])):
        if infinite and evals:
            v, e = _panel_sums(lambda u: (np.asarray(
                f(end + side * s * (u**-2 - 1.0)), dtype=float).T
                * (2 * s / u.ravel()**3)).T, np.zeros(1), np.ones(1))
            value, err, evals = value + v[0], err + e[0], evals + len(_PANEL_X)
    return QuadResult(value, err, evals)


def integrate(f, iv: Interval, rel_tol: float = REL_TOL_BOUND,
              abs_tol: float = ABS_FLOOR, points=None, weight=None) -> QuadResult:
    """integrate_soft, checked: the integral of f (times weight) over iv,
    cut at points.

    Raises NonFiniteError when the integrand is non-finite somewhere on
    the panels, and IntegrationError when the error estimate does not meet
    max(rel_tol |value|, abs_tol) within MAX_EVALS evaluations.
    """
    if not (0.0 < rel_tol <= 1e-2):
        raise ValueError(f"rel_tol {rel_tol} outside (0, 1e-2]")
    res = integrate_soft(f, iv, rel_tol, abs_tol, points, weight)
    if res.evaluations and not np.all(np.isfinite(res.value)):
        raise NonFiniteError(f"integrand non-finite on [{iv.lo}, {iv.hi}]")
    if np.any(res.err > np.maximum(rel_tol * np.abs(res.value), abs_tol)):
        raise IntegrationError(
            f"quadrature error {np.max(res.err):.3g} above tolerance for "
            f"value {np.max(np.abs(res.value)):.6g} after {res.evaluations} "
            "evaluations")
    return res


def sign_changes(f, x):
    """A sign change of f inside each panel between the sorted points x that
    has one, bisected 32 times: kinks of |f| that quadrature can miss.  A
    panel is read 2^-32 of its width inside its ends, since f may jump
    there (a cdf read at an atom, rounded to either side of it); a kink
    that close to a cut leaves out at most |f'| (2^-32 h)^2."""
    inset = np.diff(x) * 2.0**-32
    a, b = x[:-1] + inset, x[1:] - inset
    fa = f(a)
    split = np.sign(fa) * np.sign(f(b)) < 0
    a, b, fa = a[split], b[split], fa[split]
    for _ in range(32):
        mid = 0.5 * (a + b)
        same = np.sign(f(mid)) == np.sign(fa)
        a, b = np.where(same, mid, a), np.where(same, b, mid)
    return a


def blocked(f, *xs, out=None):
    """out[i:j] = f(x[i:j], ...) over blocks of BLOCK entries of the aligned
    1-d arrays xs: a per-draw transform whose temporaries are blocks, not
    arrays of every draw.

    f must act entry by entry, so that the result does not depend on
    BLOCK.  out is a new float array when None; it may be one of xs, each
    block of which f reads before it is overwritten."""
    n = len(xs[0])
    out = np.empty(n) if out is None else out
    for i in range(0, n, BLOCK):
        out[i:i + BLOCK] = f(*(x[i:i + BLOCK] for x in xs))
    return out


def var_in_place(y) -> float:
    """np.var(y, ddof=1) of the float array y, by numpy's own operations in
    numpy's order, so to the bit, but in y itself: y ends holding the
    squared deviations (y - mean)^2, and no copy of it is made."""
    np.subtract(y, y.mean(), out=y)
    np.square(y, out=y)
    return float(y.sum() / (len(y) - 1))


def mean_se(y):
    """(mean, standard error of the mean) of the sample y, as y.mean() and
    y.std(ddof=1) / sqrt(n) give them; y is overwritten (var_in_place)."""
    mean = float(y.mean())
    return mean, math.sqrt(var_in_place(y)) / math.sqrt(len(y))


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
    from scipy.optimize import brentq
    return brentq(lambda x: F(x) - p, lo, hi, xtol=tol)


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

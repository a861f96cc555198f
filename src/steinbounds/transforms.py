"""Zero-bias and equilibrium transforms: each returns a law.

zero_bias(d) is the law W* with E[W phi(W)] = sigma^2 E[phi'(W*)]; its
density is sigma^-2 E[W 1(W > w)] on the convex hull of the support.
equilibrium(d) is the law W^e with E[phi(W)] - phi(0) = (1/lambda)
E[phi'(W^e)], whose survival is lambda * E[(W - x)_+].  Both tabulate
their cdf once and answer quantile by interpolating it, so that a coupling
can push one uniform through several inverse cdfs.  stop_loss(d, t) is
the entry point to a law's own stop-loss transform.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution, TailMoments, _like, _weigh, tail_panels
from .numerics import Interval, integrate


class TransformError(Exception):
    pass


class NotCentered(TransformError):
    """Zero-bias input must have mean zero (within 1e-9)."""


# ------------------------------------------------------------------ helpers

def stop_loss(d: Distribution, t):
    """E[(W - t)_+] at a point t or an array of points."""
    out = d.stop_loss(np.atleast_1d(np.asarray(t, dtype=float)))
    return out if np.ndim(t) else float(out[0])


class _TabulatedLaw(Distribution):
    """A law whose quantile interpolates its cdf, tabulated at nodes xs."""

    def _tabulate(self, xs, cdf):
        cdf = np.clip(cdf, 0.0, 1.0)
        keep = np.concatenate([[True], np.diff(cdf) > 1e-15])
        self._q_xs, self._q_cdf = xs[keep], cdf[keep]
        self._q_cdf[0], self._q_cdf[-1] = 0.0, 1.0

    def quantile(self, p):
        return _like(p, np.interp(np.asarray(p, dtype=float), self._q_cdf, self._q_xs))


# ----------------------------------------------------------------- zero-bias

class ZeroBiasDistribution(_TabulatedLaw):
    """The W-zero-biased law; always continuous."""

    family = "zero-bias"
    has_density = True

    def __init__(self, base: Distribution, cdf_grid: int = 2048):
        mu = base.mean()
        if abs(mu) > 1e-9:
            raise NotCentered(f"zero-bias needs mean 0, got {mu:.3g}")
        var = base.var()
        if var <= 0:
            raise TransformError("zero-bias needs variance > 0")
        self.base = base
        self.sigma2 = var
        self.params = tuple(base.params)
        self._discrete = base.only_atoms
        if self._discrete:
            self._init_discrete(*base.atoms())
        else:
            self._init_continuous(cdf_grid)
        xs, surv = self._cdf_xs, 1.0 - self._cdf_vals
        # E[(W* - x)_+] at the nodes xs, read by stop_loss: trapezoid panels,
        # plus h^2/12 (p*_i+1 - p*_i) each for a continuous base (Hermite)
        steps = 0.5 * (surv[1:] + surv[:-1]) * np.diff(xs)
        if not self._discrete:
            self._tails = self._tail(xs)
            steps += np.diff(xs) ** 2 / 12.0 * np.diff(self._tails) / var
        self._sl_table = np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])
        self._tabulate(xs, self._cdf_vals)

    # discrete base: density is a step function between consecutive atoms,
    # so the cdf is piecewise linear, exact in the (node, cdf) table
    def _init_discrete(self, vals, probs):
        if len(vals) < 2:
            raise TransformError("degenerate discrete base")
        self.support = Interval(float(vals[0]), float(vals[-1]))
        # T(w) = sum_{v > w} v p_v, constant on [v_k, v_{k+1})
        tail = np.cumsum((vals * probs)[::-1])[::-1]  # tail[k] = sum_{i>=k} v p
        self._knots = vals
        self._levels = np.maximum(tail[1:], 0.0) / self.sigma2  # on [v_k, v_{k+1})
        cum = np.concatenate([[0.0], np.cumsum(self._levels * np.diff(vals))])
        # guard against rounding: total mass must be 1
        if abs(cum[-1] - 1.0) > 1e-9:
            raise TransformError(
                f"zero-bias mass {cum[-1]:.12g} != 1 (base not centered?)")
        self._cdf_xs, self._cdf_vals = vals, cum / cum[-1]

    def _init_continuous(self, cdf_grid):
        """Tail-moment table of the base on about cdf_grid nodes over the
        sampler range, and the cdf at its nodes for the quantile."""
        base = self.base
        self.support = Interval(base.support.lo, base.support.hi)
        self._moments = TailMoments(base, *self._sampler_range(), cdf_grid)
        xs = self._moments.xs
        self._cdf_xs = xs
        self._cdf_vals = np.maximum.accumulate(self._cdf(xs))

    def _sampler_range(self):
        """Range covering all but ~1e-9 of the zero-bias mass.

        Each infinite side of the base's effective interval moves out by 0,
        1, 2, 4, ... spans (at most 2^40) until the zero-bias mass beyond
        it, E[W (W - w); W beyond w] / sigma^2, is at most 1e-9."""
        base = self.base
        eff = base.effective_interval(1e-9)
        reach = max(eff.hi - eff.lo, 1.0) * np.concatenate(
            [[0.0], 2.0 ** np.arange(41)])
        ends = [eff.lo, eff.hi]
        for k, side in enumerate((-1, 1)):
            if math.isinf((base.support.lo, base.support.hi)[k]):
                w = ends[k] + side * reach
                m = tail_panels(base, w, side, (eff.hi - eff.lo) / 64.0)
                small = (m[:, 2] - w * m[:, 1]) / self.sigma2 <= 1e-9
                small[-1] = True
                ends[k] = w[np.argmax(small)]
        return ends

    def _tail(self, w):
        """T(w) = int_w^hi y p(y) dy, read from the side of w that carries
        less base mass: the base is centered, so T(w) = -L1(w), and on the
        long side the moments nearly cancel."""
        l0, l1, _, u0, u1, _ = self._moments(w)
        return np.maximum(np.where(l0 < u0, -l1, u1), 0.0)

    def _cdf(self, w):
        """F*(w) = (w T(w) + E[W^2 1(W <= w)]) / sigma^2, from the short
        side of w as in _tail."""
        l0, l1, l2, u0, u1, u2 = self._moments(w)
        out = np.where(l0 < u0, l2 - w * l1, self.sigma2 - u2 + w * u1)
        return np.clip(out / self.sigma2, 0.0, 1.0)

    def density(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self._discrete:
            idx = np.searchsorted(self._knots, x_arr, side="right") - 1
            inside = (idx >= 0) & (idx < len(self._levels))
            out = np.where(inside, self._levels[np.clip(idx, 0, len(self._levels) - 1)],
                           0.0)
        else:
            out = self._tail(x_arr) / self.sigma2
        return out if np.ndim(x) else float(out[0])

    def cdf(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = (np.interp(x_arr, self._cdf_xs, self._cdf_vals) if self._discrete
               else self._cdf(x_arr))
        return out if np.ndim(x) else float(out[0])

    def mean(self):
        # E[W phi(W)] = sigma^2 E[phi'(W*)] with phi = x^2/2
        return self.base.expect(lambda x: x**3) / (2.0 * self.sigma2)

    def stop_loss(self, t):
        """E[(W* - t)_+] = int_t^hi (1 - F*(y)) dy on the cdf table, from t
        to the next node and node to node beyond it: the trapezoid rule,
        exact for a discrete base (piecewise-linear cdf); for a continuous
        one the cubic Hermite rule with slopes -p*, within 2e-10 on N(0, 1)
        and 2e-9 on a centered Gamma(2, 1) (the table omits ~1e-9 of mass)."""
        xs, surv = self._cdf_xs, 1.0 - self._cdf_vals
        tc = np.clip(t, xs[0], xs[-1])
        j = np.clip(np.searchsorted(xs, tc, side="right"), 1, len(xs) - 1)
        h = xs[j] - tc
        if self._discrete:
            out = self._sl_table[j] + 0.5 * h * (
                1.0 - np.interp(tc, xs, self._cdf_vals) + surv[j])
        else:
            dp = (self._tails[j] - self._tail(tc)) / self.sigma2  # p*: T/sigma^2
            out = self._sl_table[j] + 0.5 * h * (
                1.0 - self._cdf(tc) + surv[j]) + h * h / 12.0 * dp
        # below the table E[W*] - t, with P(W* >= xs[0]) = 1
        return np.where(t < xs[0], self._sl_table[0] + xs[0] - t, out)

    def expect(self, f, rel_tol=1e-9, points=None):
        """E[f(W*)]: one integrate call of f times the zero-bias density.

        For a discrete base the density is a step between atoms, and the
        panels are cut at the atoms.  For a continuous base the density is
        T(x)/sigma^2, read from the tail-moment table, and the panels are
        the table's own, over its range, which holds all but ~1e-9 of the
        mass: the table's cubic reads are polynomials on each panel."""
        knots = self._knots if self._discrete else self._moments.xs
        pts = np.append(knots, [] if points is None else points)
        return integrate(lambda x: _weigh(self.density(x), f(x)),
                         Interval(float(knots[0]), float(knots[-1])),
                         rel_tol=rel_tol, points=pts).value


def zero_bias(d: Distribution) -> ZeroBiasDistribution:
    return ZeroBiasDistribution(d)


class SumZeroBiasCoupling:
    """Joint coupling (W, W*) for a sum of independent mean-zero parts.

    W* is obtained by replacing the part X_I, with P(I = i) proportional
    to the part variance, by an independent draw from its zero-bias law.
    """

    def __init__(self, parts):
        if not parts:
            raise TransformError("need at least one part")
        self.parts = list(parts)
        self.stars = [zero_bias(p) for p in parts]
        variances = np.array([p.var() for p in parts])
        self.sigma2 = float(variances.sum())
        self.weights = variances / self.sigma2

    def joint_sample(self, rng, size):
        """Draw (W, W_star, |W_star - W|) triples.

        The replaced part and its zero-biased replacement are coupled
        comonotonically (same uniform through both inverse cdfs), which
        minimises E|W_star - W| and matches the closed-form replacement
        cost for standardized Bernoulli parts.

        Stream layout: parts x size uniforms, drawn row by row (row i feeds
        part i), then the index draw I = rng.choice(parts, size, p=weights);
        the generator is left after the index draw.  The rows are streamed
        one at a time: the bit generator (one with `advance`, such as
        numpy's default PCG64) jumps past them to draw I first, then
        returns to draw each row, so memory is O(size) whatever the number
        of parts."""
        n = len(self.parts)
        bitgen = rng.bit_generator
        start = bitgen.state
        bitgen.advance(n * size)
        idx = rng.choice(n, size=size, p=self.weights)
        end = bitgen.state
        bitgen.state = start
        # W is summed row by row from zero, in the order of sum(axis=0)
        w, x_i, x_star = np.zeros(size), np.empty(size), np.empty(size)
        for i, (part, star) in enumerate(zip(self.parts, self.stars)):
            u = rng.uniform(size=size)
            x = part.quantile(u)
            w += x
            hit = idx == i
            x_i[hit] = x[hit]
            x_star[hit] = star.quantile(u[hit])
        bitgen.state = end
        w_star = (w - x_i) + x_star
        return w, w_star, np.abs(w_star - w)

    def mean_abs_gap(self, rng, n: int):
        """MC estimate of E|W* - W| with its standard error."""
        _, _, gap = self.joint_sample(rng, n)
        return float(gap.mean()), float(gap.std(ddof=1) / math.sqrt(n))


def zero_bias_sum(parts) -> SumZeroBiasCoupling:
    return SumZeroBiasCoupling(parts)


# --------------------------------------------------------------- equilibrium

class EquilibriumDistribution(_TabulatedLaw):
    """The equilibrium law W^e of a nonnegative W with mean 1/lambda."""

    family = "equilibrium"
    has_density = True

    def __init__(self, base: Distribution, cdf_grid: int = 2048):
        if base.support.lo < -1e-12:
            raise TransformError("equilibrium transform needs nonnegative support")
        mean = base.mean()
        if mean <= 0:
            raise TransformError("equilibrium transform needs mean > 0")
        self.base = base
        self.lam = 1.0 / mean
        self.params = tuple(base.params)
        hi = base.support.hi
        if not base.support.hi_finite:
            if base.only_atoms:
                hi = float(base.atoms()[0][-1])
            else:
                hi = base.effective_interval(1e-12).hi
        self.support = Interval(0.0, hi)
        xs = np.linspace(0.0, hi, cdf_grid)
        self._tabulate(xs, self.cdf(xs))

    def survival(self, x):
        # lambda * integral_x^inf P(W > y) dy = lambda * E[(W - x)_+]
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.lam * stop_loss(self.base, np.maximum(x_arr, 0.0))
        out = np.where(x_arr < 0, 1.0, np.clip(out, 0.0, 1.0))
        return out if np.ndim(x) else float(out[0])

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def density(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.lam * np.asarray(self.base.survival(x_arr))
        out = np.where((x_arr < 0) | (x_arr > self.support.hi), 0.0, out)
        return out if np.ndim(x) else float(out[0])


def equilibrium(d: Distribution) -> EquilibriumDistribution:
    return EquilibriumDistribution(d)

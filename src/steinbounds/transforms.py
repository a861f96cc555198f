"""Zero-bias and equilibrium transforms: each returns a law.

zero_bias(d) is the law W* with E[W phi(W)] = sigma^2 E[phi'(W*)], which
exists for every centered W with finite variance, whether W has atoms, a
density or both; its density is sigma^-2 E[W 1(W > w)].
equilibrium(d) is the law W^e with E[phi(W)] - phi(0) = (1/lambda)
E[phi'(W^e)], whose survival is lambda * E[(W - x)_+].  Both read W's one
tail-moment table, d.tail_moments(), which W's stop-loss reads too: they
tabulate their cdf once at its nodes and answer quantile by interpolating
it, so that a coupling can push one uniform through several inverse cdfs.
stop_loss(d, t) is the entry point to a law's own stop-loss transform.
"""

from __future__ import annotations

import functools

import numpy as np

from .distributions import Distribution, _like
from .numerics import Interval, blocked, integrate, mean_se, sign_changes


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
    """A law whose quantile interpolates its cdf, tabulated at nodes xs, and
    whose expect integrates over _range (theirs, unless the law widens it),
    cut at the law's _cuts and weighted by _weight, the density at the points
    of each panel; a law cut at every node of its table (the zero-bias law)
    reads it by panel."""

    def _tabulate(self, xs, cdf):
        self._range = Interval(float(xs[0]), float(xs[-1]))
        cdf = np.clip(cdf, 0.0, 1.0)
        keep = np.concatenate([[True], np.diff(cdf) > 1e-15])
        self._q_xs, self._q_cdf = xs[keep], cdf[keep]
        self._q_cdf[0], self._q_cdf[-1] = 0.0, 1.0

    def quantile(self, p):
        return _like(p, np.interp(np.asarray(p, dtype=float), self._q_cdf, self._q_xs))

    def expect(self, f, rel_tol=1e-9, points=None):
        """E[f(W)]: one integrate call of f, weighted by the density."""
        pts = np.append(self._cuts, [] if points is None else points)
        return integrate(f, self._range, rel_tol=rel_tol, points=pts,
                         weight=self._weight).value


# ----------------------------------------------------------------- zero-bias

_T_CHANNELS = [0, 1, 3, 4]  # L0, L1, U0, U1: the moments that T(w) reads


class ZeroBiasDistribution(_TabulatedLaw):
    """The W-zero-biased law of a centered W (Goldstein and Reinert, 1997):
    density T(w)/sigma^2 with T(w) = E[W; W > w], a step between atoms, and
    cdf (w T(w) + E[W^2; W <= w])/sigma^2, both read from W's one
    tail-moment table, W.tail_moments(), whose nodes (every atom among them)
    carry the quantile, stop_loss and expect."""

    family = "zero-bias"
    has_density = True
    expect = _TabulatedLaw.expect  # its own attribute: the layer perfbench traces

    def __init__(self, base: Distribution):
        mu = base.mean()
        if abs(mu) > 1e-9:
            raise NotCentered(f"zero-bias needs mean 0, got {mu:.3g}")
        var = base.var()
        if var <= 0:
            raise TransformError("zero-bias needs variance > 0")
        self.base = base
        self.sigma2 = var
        self.params = tuple(base.params)
        self.support = Interval(base.support.lo, base.support.hi)
        self._moments = base.tail_moments()
        xs = self._moments.xs
        m = self._moments(xs)
        # F*(top node) = (L2 - top L1)/sigma^2 ~ 1 - 1e-9, with -L1 = U1 (W is
        # centered) read from the upper side: top L1 loses 1e-6 at top = 2e9
        mass = (m[2, -1] + xs[-1] * m[4, -1]) / var
        if abs(mass - 1.0) > 1e-6:
            raise TransformError(
                f"zero-bias mass {mass:.12g} != 1 (base not centered?)")
        cdf = np.maximum.accumulate(self._cdf(xs, m))
        self._surv, self._density_tails = 1.0 - cdf, self._density_tail(xs, m)
        # E[(W* - x)_+] at the nodes, read by stop_loss: the cubic Hermite rule
        # on each panel, its slopes -p* from the density part (the atoms' part
        # is constant between nodes), so the exact trapezoid for only atoms
        steps = 0.5 * (self._surv[1:] + self._surv[:-1]) * np.diff(xs)
        steps += np.diff(xs) ** 2 / 12.0 * np.diff(self._density_tails) / var
        self._sl_table = np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])
        self._tabulate(xs, cdf)
        self._cuts = xs

    @staticmethod
    def _tail(l0, l1, u0, u1):
        """T(w) = E[W; W > w] from the moments _T_CHANNELS at w, read from
        the side of w that carries less mass: the base is centered, so
        T(w) = -L1(w), and on the long side the moments nearly cancel."""
        return np.maximum(np.where(l0 < u0, -l1, u1), 0.0)

    def _density_tail(self, w, m):
        """The density part of T(w): T less the atoms' part, read from the
        same side, so that it is exactly 0 for a base that is only atoms."""
        s = self._moments.steps(w)
        return self._tail(*m[_T_CHANNELS]) - np.where(m[0] < m[3], -s[1], s[4])

    def _cdf(self, w, m):
        """F*(w) from the moments m at w, from the short side as in _tail."""
        l0, l1, l2, u0, u1, u2 = m
        out = np.where(l0 < u0, l2 - w * l1, self.sigma2 - u2 + w * u1)
        return np.clip(out / self.sigma2, 0.0, 1.0)

    def density(self, x):
        return _like(x, self._tail(*self._moments(x)[_T_CHANNELS]) / self.sigma2)

    def _weight(self, x):
        # expect's panels are cut at every node: the table is read by panel
        return self._tail(*self._moments.by_panel(x, _T_CHANNELS)) / self.sigma2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _like(x, self._cdf(x, self._moments(x)))

    def mean(self):
        # E[W phi(W)] = sigma^2 E[phi'(W*)] with phi = x^2/2
        return self.base.expect(lambda x: x**3) / (2.0 * self.sigma2)

    def stop_loss(self, t):
        """E[(W* - t)_+] = int_t^hi (1 - F*(y)) dy on the node table, from t
        to the next node and node to node beyond it: the cubic Hermite rule
        with slopes -p* of the density part, exact for a base that is only
        atoms (piecewise-linear cdf), within 2e-10 on N(0, 1) and 2e-9 on a
        centered Gamma(2, 1) (the table omits ~1e-9 of mass)."""
        xs, surv = self._moments.xs, self._surv
        tc = np.clip(t, xs[0], xs[-1])
        j = np.clip(np.searchsorted(xs, tc, side="right"), 1, len(xs) - 1)
        h = xs[j] - tc
        m = self._moments(tc)
        dp = (self._density_tails[j] - self._density_tail(tc, m)) / self.sigma2
        out = self._sl_table[j] + 0.5 * h * (
            1.0 - self._cdf(tc, m) + surv[j]) + h * h / 12.0 * dp
        # below the table E[W*] - t, with P(W* >= xs[0]) = 1
        return np.where(t < xs[0], self._sl_table[0] + xs[0] - t, out)

    def e_abs_gap(self) -> float:
        """An upper bound on the least E|W* - W| over all couplings, the
        Wasserstein-1 distance int |F* - F| dt: one integrate over the table's
        range [lo, hi], cut at its nodes, W's atoms and the crossings of F*
        and F, plus its error estimate, plus the tails beyond, bounded by
        E[(W - hi)_+] + E[(W* - hi)_+] and the mirror terms at lo, one
        expectation over W by the zero-bias identity (refused when E|W|^3 is
        infinite).  Both read at relative tolerance 1e-9."""
        lo, hi = self._range.lo, self._range.hi

        def beyond(x):
            up, down = np.maximum(x - hi, 0.0), np.maximum(lo - x, 0.0)
            return up + down + x * (up * up - down * down) / (2.0 * self.sigma2)

        def diff(x):
            return self.cdf(x) - self.base.cdf(x)

        tails = self.base.expect(beyond, rel_tol=1e-9, points=[lo, hi])
        cuts = np.union1d(self._cuts, self.base.atoms()[0])
        inner = integrate(lambda x: np.abs(diff(x)), self._range, rel_tol=1e-9,
                          points=np.append(cuts, sign_changes(diff, cuts)))
        return float(inner.value + inner.err + tails)


def zero_bias(d: Distribution) -> ZeroBiasDistribution:
    return ZeroBiasDistribution(d)


class SumZeroBiasCoupling:
    """Joint coupling of X_I and its zero-bias replacement X*_I for a sum
    W = sum_i X_i of independent mean-zero parts.

    W* = W - X_I + X*_I, with P(I = i) proportional to the variance of part
    i, so W* - W = X*_I - X_I needs neither W nor W*.  The parts are grouped
    by object identity (`[part] * n` is one group, with one zero-bias law);
    a group's weight is its share of the variance.
    """

    def __init__(self, parts):
        if not parts:
            raise TransformError("need at least one part")
        shares = {}
        for p in parts:
            shares[id(p)] = shares.get(id(p), 0.0) + p.var()
        self.laws = list({id(p): p for p in parts}.values())
        self.stars = [zero_bias(p) for p in self.laws]
        self.sigma2 = float(sum(shares.values()))
        self.weights = np.array([shares[id(p)] for p in self.laws]) / self.sigma2

    def joint_sample(self, rng, size):
        """Draw (X_I, X*_I, |X*_I - X_I|) triples.

        Stream layout: the group index k = rng.choice(groups, size,
        p=weights), then one uniform u per draw, so the generator moves on
        by 2 size draws.  The replaced part and its zero-bias replacement
        are coupled comonotonically, both read at u through their inverse
        cdfs, which minimises E|X*_I - X_I| and matches the closed-form
        replacement cost for standardized Bernoulli parts.  Both quantiles
        are read in blocks (numerics.blocked), and the group indices are
        kept in the smallest integer type that holds them, so the peak is
        about three arrays of size whatever the number of parts."""
        k = rng.choice(len(self.laws), size=size, p=self.weights)
        k = k.astype(np.min_scalar_type(len(self.laws)))
        u = rng.uniform(size=size)
        x = blocked(functools.partial(_pick, self.laws), k, u)
        x_star = blocked(functools.partial(_pick, self.stars), k, u)
        gap = np.subtract(x_star, x, out=u)
        return x, x_star, np.abs(gap, out=gap)

    def mean_abs_gap(self, rng, n: int):
        """MC estimate of E|W* - W| = E|X*_I - X_I| with its standard error."""
        _, _, gap = self.joint_sample(rng, n)
        return mean_se(gap)


def _pick(laws, k, u):
    """At each draw, the quantile at u of the law laws[k]."""
    out = np.empty(len(u))
    for j, law in enumerate(laws):
        at = k == j
        out[at] = law.quantile(u[at])
    return out


def zero_bias_sum(parts) -> SumZeroBiasCoupling:
    return SumZeroBiasCoupling(parts)


# --------------------------------------------------------------- equilibrium

class EquilibriumDistribution(_TabulatedLaw):
    """The equilibrium law W^e of a nonnegative W with mean 1/lambda (Pekoz
    and Rollin, 2011): density lambda P(W > x) and survival lambda
    E[(W - x)_+] on [0, hi], hi the top of W's support.  Its cdf is
    tabulated at 0 and at the nodes above 0 of W's tail-moment table (W's
    atoms among them), which carry the quantile and cut the panels of
    expect, an integral of the density over the whole support."""

    family = "equilibrium"
    has_density = True

    def __init__(self, base: Distribution):
        if base.support.lo < -1e-12:
            raise TransformError("equilibrium transform needs nonnegative support")
        mean = base.mean()
        if mean <= 0:
            raise TransformError("equilibrium transform needs mean > 0")
        self.base = base
        self.lam = 1.0 / mean
        self.params = tuple(base.params)
        self.support = Interval(0.0, base.support.hi)
        xs = np.union1d(0.0, np.maximum(base.tail_moments().xs, 0.0))
        self._tabulate(xs, self.cdf(xs))
        self._range, self._cuts = self.support, xs

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

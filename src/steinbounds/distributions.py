"""Catalog of univariate laws: density/cdf/sampler/moments plus support.

A Distribution may have a continuous part (density), a discrete part
(atoms), or only a sampler.  Capability flags say which queries are
answerable; expectation routines pick the exact route when one exists.

The string syntax "family:p1,p2,..." (shared with the CLI) is parsed by
parse_dist.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as _stats

from .numerics import (Interval, REAL_LINE, TAIL_EDGES, integrate,
                       inverse_cdf, panel_rule)

TAIL_MASS = 1e-9  # default quantile range for effective intervals
TAIL_CHUNK = 16  # points per vectorised density call beyond a table
# Probability levels of a law's quantile grid: half decades in each tail,
# down to 1e-12, and steps of 0.04 in the bulk.
_TAIL_LEVELS = np.logspace(-12, -2, 21)
PROB_LEVELS = np.concatenate([_TAIL_LEVELS, np.linspace(0.05, 0.95, 23),
                              1.0 - _TAIL_LEVELS[::-1]])


def _weigh(w, y):
    """n weights w times the values y of f at n points (scalars, vectors or
    one constant); a term whose weight is 0 is 0, even where f overflows."""
    y = np.where(np.asarray(w) == 0, 0.0, np.asarray(y, dtype=float).T)
    return (y * w).T


class DistributionError(Exception):
    pass


class InvalidParameter(DistributionError):
    pass


class Distribution:
    """Base univariate law.

    Subclasses populate family, params, support, and the capability set.
    Samplers are stateless: they consume a caller-provided numpy Generator.
    """

    family = "abstract"
    params = ()

    # capabilities
    has_density = False
    has_cdf = False
    has_sampler = False
    has_closed_moments = False

    support = REAL_LINE
    tail_index = math.inf  # a where P(W > x) ~ x^-a as x -> inf; inf if lighter

    def density(self, x):
        raise DistributionError(f"{self.family}: no density")

    def cdf(self, x):
        raise DistributionError(f"{self.family}: no cdf")

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def mean(self) -> float:
        raise DistributionError(f"{self.family}: no closed mean")

    def var(self) -> float:
        raise DistributionError(f"{self.family}: no closed variance")

    def sample(self, rng, size):
        raise DistributionError(f"{self.family}: no sampler")

    def atoms(self):
        """Discrete part as (values, probabilities) arrays; empty if none."""
        return np.empty(0), np.empty(0)

    @property
    def continuous_weight(self) -> float:
        """Probability mass carried by the continuous part."""
        return 1.0 - float(np.sum(self.atoms()[1]))

    def quantile(self, p: float) -> float:
        if not self.has_cdf:
            raise DistributionError(f"{self.family}: no cdf to invert")
        return inverse_cdf(lambda x: float(self.cdf(x)), p, self.support)

    def quantile_grid(self) -> np.ndarray:
        """The quantiles of PROB_LEVELS, computed once per law (empty when
        the law has no quantile): the panel edges of expect and the anchors
        of a tail-moment table."""
        if "_quantile_grid" not in self.__dict__:
            try:
                q = [self.quantile(p) for p in PROB_LEVELS]
            except DistributionError:
                q = []
            self._quantile_grid = np.asarray(q, dtype=float)
        return self._quantile_grid

    def effective_interval(self, tail_mass: float = TAIL_MASS) -> Interval:
        """Quantile range [q(tail_mass), q(1-tail_mass)], clipped to support."""
        lo, hi = self.support.lo, self.support.hi
        if not self.support.lo_finite:
            lo = self.quantile(tail_mass)
        if not self.support.hi_finite:
            hi = self.quantile(1.0 - tail_mass)
        return Interval(lo, hi)

    def expect(self, f, rel_tol: float = 1e-9, points=None):
        """E[f(X)]: the atoms summed exactly, plus one integrate call of
        f times the density over the support, on panels cut at the law's
        quantile grid and at the caller's points.

        f maps a 1-d array of points to one value per point, or to an
        (n, m) array, whose m expectations come back together."""
        vals, probs = self.atoms()
        total = np.sum(_weigh(probs, f(vals)), axis=0) if len(vals) else 0.0
        if self.continuous_weight > 1e-12:
            if not self.has_density:
                raise DistributionError(
                    f"{self.family}: expectation needs density or atoms")
            cuts = np.append(self.quantile_grid(), [] if points is None else points)
            total = total + integrate(
                lambda x: _weigh(_finite(self.density(x)), f(x)), self.support,
                rel_tol=rel_tol, points=cuts).value
        return total

    def mc_expect(self, f, rng, n: int):
        """MC estimate of E[f(X)]: (estimate, standard error), each with one
        value per column when f returns an (n, m) array."""
        x = self.sample(rng, n)
        y = np.asarray(f(x), dtype=float)
        if not np.all(np.isfinite(y)):
            raise DistributionError("non-finite sample encountered")
        return np.mean(y, axis=0), np.std(y, axis=0, ddof=1) / math.sqrt(n)

    def describe(self):
        return {"family": self.family, "params": [float(p) for p in self.params]}

    def __repr__(self):
        ps = ",".join(f"{float(p):g}" for p in self.params)
        return f"{self.family}:{ps}" if ps else self.family


# ------------------------------------------------------- continuous families

class _ScipyDistribution(Distribution):
    has_density = True
    has_cdf = True
    has_sampler = True
    has_closed_moments = True

    def __init__(self, frozen, support):
        self._frozen = frozen
        self.support = support

    def density(self, x):
        return self._frozen.pdf(x)

    def cdf(self, x):
        return self._frozen.cdf(x)

    def survival(self, x):
        return self._frozen.sf(x)

    def mean(self):
        return float(self._frozen.mean())

    def var(self):
        return float(self._frozen.var())

    def quantile(self, p):
        return float(self._frozen.ppf(p))

    def sample(self, rng, size):
        return self._frozen.rvs(size=size, random_state=rng)


class Gaussian(_ScipyDistribution):
    """Normal law parameterized by (mean, variance)."""

    family = "gaussian"

    def __init__(self, mu, var):
        if var <= 0:
            raise InvalidParameter(f"gaussian variance must be > 0, got {var}")
        self.params = (mu, var)
        super().__init__(_stats.norm(mu, math.sqrt(var)), REAL_LINE)

    def sample(self, rng, size):
        mu, var = self.params
        return rng.normal(mu, math.sqrt(var), size=size)


class Beta(_ScipyDistribution):
    family = "beta"

    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise InvalidParameter("beta requires alpha, beta > 0")
        self.params = (a, b)
        super().__init__(_stats.beta(a, b), Interval(0.0, 1.0))


class Gamma(_ScipyDistribution):
    """Gamma with shape k and rate b (density b^k x^{k-1} e^{-bx}/Gamma(k))."""

    family = "gamma"

    def __init__(self, shape, rate):
        if shape <= 0 or rate <= 0:
            raise InvalidParameter("gamma requires shape, rate > 0")
        self.params = (shape, rate)
        super().__init__(_stats.gamma(shape, scale=1.0 / rate),
                         Interval(0.0, math.inf))


class InverseGamma(_ScipyDistribution):
    family = "inverse-gamma"

    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise InvalidParameter("inverse-gamma requires a, b > 0")
        self.params = (a, b)
        self.tail_index = a
        super().__init__(_stats.invgamma(a, scale=b), Interval(0.0, math.inf))


class Pareto(_ScipyDistribution):
    """Pareto with density a m^a x^{-a-1} on x >= m."""

    family = "pareto"

    def __init__(self, shape, scale):
        if shape <= 0 or scale <= 0:
            raise InvalidParameter("pareto requires shape, scale > 0")
        self.params = (shape, scale)
        self.tail_index = shape
        super().__init__(_stats.pareto(shape, scale=scale),
                         Interval(scale, math.inf))

    def mean(self):
        a, m = self.params
        if a <= 1:
            raise InvalidParameter(f"pareto mean undefined for shape {a} <= 1")
        return a * m / (a - 1)

    def var(self):
        a, m = self.params
        if a <= 2:
            raise InvalidParameter(f"pareto variance undefined for shape {a} <= 2")
        return a * m * m / ((a - 1) ** 2 * (a - 2))


class Exponential(_ScipyDistribution):
    """Exponential with rate lam (mean 1/lam)."""

    family = "exponential"

    def __init__(self, rate):
        if rate <= 0:
            raise InvalidParameter("exponential requires rate > 0")
        self.params = (rate,)
        super().__init__(_stats.expon(scale=1.0 / rate), Interval(0.0, math.inf))

    def survival(self, x):
        return np.exp(-self.params[0] * np.maximum(np.asarray(x, float), 0.0))


class Uniform(_ScipyDistribution):
    family = "uniform"

    def __init__(self, lo, hi):
        if not lo < hi:
            raise InvalidParameter(f"uniform requires lo < hi, got [{lo}, {hi}]")
        self.params = (lo, hi)
        super().__init__(_stats.uniform(lo, hi - lo), Interval(lo, hi))


# --------------------------------------------------------- discrete families

class DiscreteDistribution(Distribution):
    """Finite support: atoms (values, probs), equal values merged into one
    atom carrying their summed probability."""

    family = "discrete-empirical"
    has_cdf = True
    has_sampler = True
    has_closed_moments = True

    def __init__(self, values, probs, family=None, params=()):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if len(values) != len(probs) or len(values) == 0:
            raise InvalidParameter("atoms and probabilities must align and be nonempty")
        if np.any(probs < -1e-15) or abs(probs.sum() - 1.0) > 1e-9:
            raise InvalidParameter("probabilities must be nonnegative and sum to 1")
        self._values, idx = np.unique(values, return_inverse=True)
        self._probs = np.bincount(idx, weights=np.maximum(probs, 0.0))
        self._probs /= self._probs.sum()
        self._cum = np.cumsum(self._probs)
        if family:
            self.family = family
        self.params = params
        self.support = Interval(self._values[0] - 0.0, self._values[-1]) \
            if len(self._values) > 1 else Interval(self._values[0] - 0.5,
                                                   self._values[0] + 0.5)

    def atoms(self):
        return self._values, self._probs

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._values, x, side="right")
        cum = np.concatenate([[0.0], self._cum])
        return cum[idx]

    def mean(self):
        return float(np.dot(self._values, self._probs))

    def var(self):
        m = self.mean()
        return float(np.dot((self._values - m) ** 2, self._probs))

    def sample(self, rng, size):
        return rng.choice(self._values, size=size, p=self._probs)

    def quantile(self, p):
        idx = int(np.searchsorted(self._cum, p, side="left"))
        idx = min(idx, len(self._values) - 1)
        return float(self._values[idx])

    def effective_interval(self, tail_mass=TAIL_MASS):
        return Interval(float(self._values[0]), float(self._values[-1])) \
            if len(self._values) > 1 else self.support


def two_point(a, b):
    """Support {-a, b} with P(-a) = b/(a+b) so the mean is zero."""
    if a <= 0 or b <= 0:
        raise InvalidParameter("two-point requires a, b > 0")
    p_neg = b / (a + b)
    return DiscreteDistribution([-a, b], [p_neg, 1.0 - p_neg],
                                family="two-point", params=(a, b))


def standardized_bernoulli(p, n):
    """Law of (xi - p)/sqrt(npq) for xi ~ Bernoulli(p); n of these sum to
    a variance-one total."""
    if not 0 < p < 1:
        raise InvalidParameter("standardized-bernoulli requires p in (0,1)")
    if n < 1:
        raise InvalidParameter("standardized-bernoulli requires n >= 1")
    q = 1.0 - p
    s = math.sqrt(n * p * q)
    return DiscreteDistribution([-p / s, q / s], [q, p],
                                family="standardized-bernoulli", params=(p, n))


def point_mass(c):
    return DiscreteDistribution([c], [1.0], family="point-mass", params=(c,))


class GeometricCount(Distribution):
    """P(N = k) = (1 - rho) rho^k on k = 0, 1, 2, ..."""

    family = "geometric-count"
    has_cdf = True
    has_sampler = True
    has_closed_moments = True

    def __init__(self, rho):
        if not 0 <= rho < 1:
            raise InvalidParameter("geometric-count requires rho in [0,1)")
        self.params = (rho,)
        self.rho = rho
        self.support = Interval(0.0, math.inf) if rho > 0 else Interval(-0.5, 0.5)

    def pmf(self, k):
        k = np.asarray(k)
        return (1.0 - self.rho) * self.rho ** k

    def atoms(self):
        # truncated at declared tail mass 1e-12
        if self.rho == 0:
            return np.array([0.0]), np.array([1.0])
        kmax = int(math.ceil(math.log(1e-12) / math.log(self.rho))) + 1
        k = np.arange(kmax + 1)
        p = self.pmf(k).astype(float)
        return k.astype(float), p

    @property
    def continuous_weight(self):
        return 0.0

    def cdf(self, x):
        x = np.floor(np.asarray(x, dtype=float))
        out = np.where(x < 0, 0.0, 1.0 - self.rho ** (x + 1))
        return out

    def survival(self, x):
        # P(N > x) = rho^(floor(x)+1) for x >= 0
        x = np.floor(np.asarray(x, dtype=float))
        return np.where(x < 0, 1.0, self.rho ** (x + 1))

    def mean(self):
        return self.rho / (1.0 - self.rho)

    def var(self):
        return self.rho / (1.0 - self.rho) ** 2

    def sample(self, rng, size):
        if self.rho == 0:
            return np.zeros(size)
        return rng.geometric(1.0 - self.rho, size=size) - 1.0


# ------------------------------------------------------------ compound laws

class SamplerSum(Distribution):
    """Sum of independent parts; sampler always, exact atoms when all parts
    are finitely discrete."""

    family = "convolution"
    has_sampler = True
    has_closed_moments = True

    def __init__(self, parts):
        if not parts:
            raise InvalidParameter("need at least one part")
        self.parts = list(parts)
        self.tail_index = min(p.tail_index for p in parts)
        self._mean = sum(p.mean() for p in parts)
        self._var = sum(p.var() for p in parts)
        lo = sum(p.support.lo for p in parts)
        hi = sum(p.support.hi for p in parts)
        self.support = Interval(lo, hi)
        self._atoms = self._convolve_atoms()
        if self._atoms is not None:
            self.has_cdf = True

    def _convolve_atoms(self):
        if not all(isinstance(p, DiscreteDistribution) for p in self.parts):
            return None
        vals = np.array([0.0])
        probs = np.array([1.0])
        for part in self.parts:
            pv, pp = part.atoms()
            grid = (vals[:, None] + pv[None, :]).ravel()
            w = (probs[:, None] * pp[None, :]).ravel()
            # merge numerically equal atoms (lattice sums stay small)
            key = np.round(grid, 10)
            uniq, inv = np.unique(key, return_inverse=True)
            merged = np.zeros(len(uniq))
            np.add.at(merged, inv, w)
            vals, probs = uniq, merged
            if len(vals) > 200_000:
                return None
        return vals, probs

    def atoms(self):
        if self._atoms is None:
            return np.empty(0), np.empty(0)
        return self._atoms

    def cdf(self, x):
        if self._atoms is None:
            raise DistributionError("convolution: no cdf without finite atoms")
        vals, probs = self._atoms
        cum = np.concatenate([[0.0], np.cumsum(probs)])
        idx = np.searchsorted(vals, np.asarray(x, dtype=float), side="right")
        return cum[idx]

    def quantile(self, p):
        vals, probs = self.atoms()
        if len(vals):
            cum = np.cumsum(probs)
            idx = min(int(np.searchsorted(cum, p, side="left")), len(vals) - 1)
            return float(vals[idx])
        return super().quantile(p)

    def mean(self):
        return self._mean

    def var(self):
        return self._var

    def sample(self, rng, size):
        total = np.zeros(size)
        for p in self.parts:
            total = total + p.sample(rng, size)
        return total


def sum_of_independents(parts):
    return SamplerSum(parts)


class RandomSum(Distribution):
    """W = sum_{i=1}^N X_i with N a count variable independent of the X_i."""

    family = "random-sum"
    has_sampler = True
    has_closed_moments = True

    def __init__(self, count_dist, summand):
        kv, kp = count_dist.atoms()
        if len(kv) == 0 or np.any(kv < -1e-12) or np.any(np.abs(kv - np.round(kv)) > 1e-9):
            raise InvalidParameter("count distribution must sit on nonnegative integers")
        if not (summand.has_sampler and summand.has_closed_moments):
            raise InvalidParameter("summand needs sampler and closed moments")
        self.count_dist = count_dist
        self.summand = summand
        self.tail_index = summand.tail_index
        self.params = tuple(count_dist.params) + tuple(summand.params)
        en, vn = count_dist.mean(), count_dist.var()
        ex, vx = summand.mean(), summand.var()
        self._mean = en * ex
        self._var = ex * ex * vn + en * vx
        lo = min(0.0, summand.support.lo)
        self.support = Interval(lo, math.inf) if en > 0 else Interval(-0.5, 0.5)
        # Geometric count + exponential summand has a closed compound form:
        # an atom at 0 of mass 1-rho plus Exp(rate*(1-rho)) with mass rho.
        self._geo_exp = None
        if isinstance(count_dist, GeometricCount) and isinstance(summand, Exponential):
            rho = count_dist.rho
            if rho > 0:
                self._geo_exp = (rho, summand.params[0] * (1.0 - rho))
                self.has_cdf = True
                self.has_density = True

    def mean(self):
        return self._mean

    def var(self):
        return self._var

    def atoms(self):
        if self._geo_exp is not None:
            rho, _ = self._geo_exp
            return np.array([0.0]), np.array([1.0 - rho])
        if self._mean == 0:
            return np.array([0.0]), np.array([1.0])
        return np.empty(0), np.empty(0)

    def density(self, x):
        if self._geo_exp is None:
            raise DistributionError("random-sum: no closed density for this pair")
        rho, rate = self._geo_exp
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, rho * rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0)

    def survival(self, x):
        if self._geo_exp is None:
            raise DistributionError("random-sum: no closed survival for this pair")
        rho, rate = self._geo_exp
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 1.0, rho * np.exp(-rate * np.maximum(x, 0.0)))

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def quantile(self, p):
        if self._geo_exp is None:
            return super().quantile(p)
        rho, rate = self._geo_exp
        if p <= 1.0 - rho:
            return 0.0
        return float(-math.log((1.0 - p) / rho) / rate)

    def sample(self, rng, size):
        counts = self.count_dist.sample(rng, size).astype(int)
        total = np.zeros(size)
        kmax = counts.max() if size else 0
        # draw column-by-column; cheap because counts are small in practice
        for k in range(kmax):
            active = counts > k
            n_active = int(active.sum())
            if n_active == 0:
                break
            total[active] += self.summand.sample(rng, n_active)
        return total


def random_sum(count_dist, summand):
    return RandomSum(count_dist, summand)


# --------------------------------------------------- permutation statistics

class PermutationStatistic(Distribution):
    """W = sum_i a[i, pi(i)] for a uniformly random permutation pi."""

    family = "permutation-statistic"
    has_sampler = True
    has_closed_moments = True

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise InvalidParameter("need a square array with n >= 2")
        self.a = a
        n = a.shape[0]
        self.n = n
        row = a.mean(axis=1, keepdims=True)
        col = a.mean(axis=0, keepdims=True)
        grand = a.mean()
        self.hat = a - row - col + grand
        self._mean = n * grand
        self._var = float(np.sum(self.hat ** 2) / (n - 1))
        self.C = float(np.max(np.abs(self.hat)))
        self.degenerate = self._var <= 1e-14
        self.support = Interval(float(a.min() * n) - 1e-9, float(a.max() * n) + 1e-9)

    def mean(self):
        return self._mean

    def var(self):
        return self._var

    def sample(self, rng, size):
        """Each row of argsort(uniforms) is a uniform random permutation."""
        perms = np.argsort(rng.random((size, self.n)), axis=1)
        return self.a[np.arange(self.n), perms].sum(axis=1)

    def enumerate_values(self):
        """All n! values of W; feasible for n <= 9."""
        from itertools import permutations
        if self.n > 9:
            raise DistributionError("enumeration limited to n <= 9")
        rows = np.arange(self.n)
        vals = [self.a[rows, list(p)].sum() for p in permutations(range(self.n))]
        return np.asarray(vals)

    def standardized(self):
        """Z = (W - E[W]) / sigma as an affine image of this law."""
        if self.degenerate:
            raise DistributionError("degenerate permutation statistic (sigma = 0)")
        return Affine(self, shift=-self._mean, scale=1.0 / math.sqrt(self._var))


def permutation_statistic(a):
    return PermutationStatistic(a)


# ------------------------------------------------------------- affine images

class Affine(Distribution):
    """Law of scale * (X + shift); used for centering and standardizing."""

    family = "affine"

    def __init__(self, base, shift=0.0, scale=1.0):
        if scale <= 0:
            raise InvalidParameter("affine scale must be > 0")
        self.base = base
        self.shift = shift
        self.scale = scale
        self.tail_index = base.tail_index
        self.params = tuple(base.params) + (shift, scale)
        self.has_density = base.has_density
        self.has_cdf = base.has_cdf
        self.has_sampler = base.has_sampler
        self.has_closed_moments = base.has_closed_moments
        lo = scale * (base.support.lo + shift)
        hi = scale * (base.support.hi + shift)
        self.support = Interval(lo, hi)
        self.family = f"centered-{base.family}" if scale == 1.0 else f"affine-{base.family}"

    def _pull(self, x):
        return np.asarray(x, dtype=float) / self.scale - self.shift

    def density(self, x):
        return self.base.density(self._pull(x)) / self.scale

    def cdf(self, x):
        return self.base.cdf(self._pull(x))

    def survival(self, x):
        return self.base.survival(self._pull(x))

    def mean(self):
        return self.scale * (self.base.mean() + self.shift)

    def var(self):
        return self.scale ** 2 * self.base.var()

    def quantile(self, p):
        return self.scale * (self.base.quantile(p) + self.shift)

    def sample(self, rng, size):
        return self.scale * (self.base.sample(rng, size) + self.shift)

    def atoms(self):
        v, p = self.base.atoms()
        return self.scale * (v + self.shift), p

    @property
    def continuous_weight(self):
        return self.base.continuous_weight


def centered(d):
    """Shift a law to mean zero (identity if already centered)."""
    mu = d.mean()
    if abs(mu) <= 1e-12:
        return d
    return Affine(d, shift=-mu, scale=1.0)


# -------------------------------------------------------- tail-moment table

def _finite(p):
    """A density's values with an infinite value at a support edge (hit by
    a node, or by a Gauss-Legendre point that rounds onto it) set to 0."""
    p = np.asarray(p, dtype=float)
    return np.where(np.isfinite(p), p, 0.0)


def _weighted_moments(y, pw):
    """sum_j y_j^k pw_j over the last axis, for k = 0, 1, 2."""
    return np.stack([pw.sum(-1), (pw * y).sum(-1), (pw * y * y).sum(-1)], -1)


def tail_panels(d: Distribution, x, side: int, scale: float):
    """int y^k p(y) dy over [x, inf) (side = +1) or (-inf, x] (side = -1),
    k = 0, 1, 2, as an (len(x), 3) array.

    Each tail is cut into the TAIL_EDGES * scale panels of numerics, summed
    by 16-point Gauss-Legendre: narrow next to x, where a light tail
    decays, and geometrically wider outward."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    edges = side * scale * TAIL_EDGES
    offsets, weights = panel_rule(edges[:-1], edges[1:])
    out = np.empty((len(x), 3))
    for k in range(0, len(x), TAIL_CHUNK):
        y = x[k:k + TAIL_CHUNK, None, None] + offsets
        out[k:k + TAIL_CHUNK] = _weighted_moments(
            y.reshape(len(y), -1), (d.density(y) * weights).reshape(len(y), -1))
    return out


def _composite_grid(d: Distribution, lo: float, hi: float, n: int):
    """About n nodes over [lo, hi], graded by the quantiles of d.

    Anchors sit at the quantiles of PROB_LEVELS inside [lo, hi], and each
    gap between anchors is cut into equal steps, so that the spacing
    follows the local scale of the law in the bulk and in the tails alike.
    From the outermost anchors the steps widen geometrically out to lo and
    hi, which may lie far beyond them; 48 geometric steps refine toward
    each finite support edge, where a density can rise steeply from zero.
    """
    q = d.quantile_grid()
    inner = np.unique(q[(q > lo) & (q < hi)])
    if len(inner) < 2:
        inner = np.array([lo, hi])
    gaps = np.diff(inner)
    m = max(n // len(gaps), 1)
    pieces = [[lo, hi], (inner[:-1, None]
                         + gaps[:, None] * np.arange(m) / m).ravel()]
    for end, anchor, step in ((lo, inner[0], -gaps[0] / m),
                              (hi, inner[-1], gaps[-1] / m)):
        if abs(end - anchor) > abs(step):
            pieces.append(anchor + step * np.geomspace(
                1.0, (end - anchor) / step, max(n // 8, 32)))
    span = inner[-1] - inner[0]
    for edge, sgn in ((d.support.lo, 1.0), (d.support.hi, -1.0)):
        if math.isfinite(edge):
            pieces.append(edge + sgn * span * np.geomspace(1e-9, 0.05, 48))
    return np.unique(np.clip(np.concatenate(pieces), lo, hi))


class TailMoments:
    """The tail moments of a law's density, tabulated once, read anywhere.

    Read at points x, the table returns a (6,) + x.shape array: the lower
    moments L_k(x) = int_lo^x y^k p(y) dy, then the upper moments
    U_k(x) = int_x^hi y^k p(y) dy, for k = 0, 1, 2 (lo, hi: the support).

    The nodes are a composite grid with about n points over [lo_t, hi_t],
    which should reach each finite support edge.  Each panel between nodes
    is summed by 16-point Gauss-Legendre; L is accumulated from the bottom
    and U from the top, so each is accurate in relative terms on its own
    short side.  Where [lo_t, hi_t] stops short of the support, the tail
    beyond it comes from tail_panels.  Between nodes a read is the cubic
    Hermite interpolant whose slopes are the exact derivatives +-x^k p(x);
    beyond the nodes it is tail_panels at x.
    """

    def __init__(self, d: Distribution, lo_t: float, hi_t: float, n: int):
        self.d = d
        self.scale = (hi_t - lo_t) / 64.0
        xs = _composite_grid(d, lo_t, hi_t, n)
        y, w = panel_rule(xs[:-1], xs[1:])
        seg = _weighted_moments(y, _finite(d.density(y)) * w)
        below, above = np.zeros(3), np.zeros(3)
        if lo_t > d.support.lo:
            below = tail_panels(d, xs[0], -1, self.scale)[0]
        if hi_t < d.support.hi:
            above = tail_panels(d, xs[-1], 1, self.scale)[0]
        zero = np.zeros((1, 3))
        lower = below + np.concatenate([zero, np.cumsum(seg, axis=0)])
        upper = above + np.concatenate([np.cumsum(seg[::-1], axis=0)[::-1], zero])
        self.total = lower[-1] + above
        self.xs = xs
        self.p = _finite(d.density(xs))
        slope = self.p[:, None] * xs[:, None] ** np.arange(3)
        vals = np.concatenate([lower, upper], axis=1)
        slopes = np.concatenate([slope, -slope], axis=1)
        m0, m1 = slopes[:-1], slopes[1:]
        h = np.diff(xs)[:, None]
        secant = np.diff(vals, axis=0) / h
        # cubic coefficients in (x - x_i), laid out (power, channel, panel)
        # so that scalar and array reads index them alike
        self._coef = np.stack([vals[:-1], m0, (3 * secant - 2 * m0 - m1) / h,
                               (m0 + m1 - 2 * secant) / h ** 2]).transpose(0, 2, 1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xs = self.xs
        i = np.searchsorted(xs[1:-1], x, side="right")  # the panel of x
        t = x - xs[i]
        c = self._coef[:, :, i]
        out = c[0] + t * (c[1] + t * (c[2] + t * c[3]))
        if x.size and not (xs[0] <= x.min() and x.max() <= xs[-1]):
            out = out.reshape(6, -1)
            for side, beyond in ((-1, x.ravel() < xs[0]), (1, x.ravel() > xs[-1])):
                if beyond.any():
                    out[:, beyond] = self._beyond(x.ravel()[beyond], side)
            out = out.reshape((6,) + x.shape)
        return out

    def excess(self, x, mu):
        """int_x^hi (y - mu) p(y) dy at points x: U1 - mu U0, or mu L0 - L1
        (equal when mu is the mean) where the lower side is the shorter."""
        l0, l1, _, u0, u1, _ = self(x)
        return np.where(l0 < u0, mu * l0 - l1, u1 - mu * u0)

    def excess_integral(self, mu, rel_tol):
        """The integral of excess (clipped at 0) over the line, Var[W] when
        mu is the mean: the cubic reads on the table's own panels, plus the
        tails beyond its nodes in closed form, U2 - hi U1 - mu (U1 - hi U0)
        above hi and mu (lo L0 - L1) - (lo L1 - L2) below lo."""
        lo, hi = self.xs[0], self.xs[-1]
        inner = integrate(lambda x: np.maximum(self.excess(x, mu), 0.0),
                          Interval(lo, hi), rel_tol=rel_tol, points=self.xs).value
        l0, l1, l2, _, _, _ = self(lo)
        _, _, _, u0, u1, u2 = self(hi)
        return float(inner + (u2 - hi * u1) - mu * (u1 - hi * u0)
                     + mu * (lo * l0 - l1) - (lo * l1 - l2))

    def _beyond(self, x, side):
        """The six moments at points x outside the nodes on one side."""
        d, far = self.d, np.zeros((len(x), 3))
        if self.xs[0] > d.support.lo if side < 0 else self.xs[-1] < d.support.hi:
            far = tail_panels(d, x, side, self.scale)
        near = self.total - far
        return np.concatenate([far, near] if side < 0 else [near, far], 1).T


# -------------------------------------------------------------- construction

_FAMILY_ALIASES = {
    "exp": "exponential",
    "normal": "gaussian",
    "invgamma": "inverse-gamma",
    "geometric": "geometric-count",
}

_MAKERS = {
    "gaussian": lambda p: Gaussian(*_need(p, 2, "gaussian")),
    "beta": lambda p: Beta(*_need(p, 2, "beta")),
    "gamma": lambda p: Gamma(*_need(p, 2, "gamma")),
    "inverse-gamma": lambda p: InverseGamma(*_need(p, 2, "inverse-gamma")),
    "pareto": lambda p: Pareto(*_need(p, 2, "pareto")),
    "exponential": lambda p: Exponential(*_need(p, 1, "exponential")),
    "uniform": lambda p: Uniform(*_need(p, 2, "uniform")),
    "two-point": lambda p: two_point(*_need(p, 2, "two-point")),
    "standardized-bernoulli": lambda p: standardized_bernoulli(p[0], int(p[1])),
    "geometric-count": lambda p: GeometricCount(*_need(p, 1, "geometric-count")),
    "point-mass": lambda p: point_mass(*_need(p, 1, "point-mass")),
    "discrete-empirical": lambda p: DiscreteDistribution(p[::2], p[1::2]),
}


def _need(params, n, family):
    if len(params) != n:
        raise InvalidParameter(f"{family} expects {n} parameters, got {len(params)}")
    return params


def make(family, params):
    family = _FAMILY_ALIASES.get(family, family)
    try:
        maker = _MAKERS[family]
    except KeyError:
        raise InvalidParameter(f"unknown family {family!r}") from None
    return maker(list(params))


def parse_dist(text: str):
    """Parse the "family:p1,p2,..." string syntax."""
    if ":" in text:
        family, _, tail = text.partition(":")
        params = [float(t) for t in tail.split(",") if t.strip()]
    else:
        family, params = text, []
    return make(family.strip(), params)

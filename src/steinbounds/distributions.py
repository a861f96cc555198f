"""Catalog of univariate laws: density/cdf/sampler/moments plus support.

A Distribution may have a continuous part (density), a discrete part
(atoms), or only a sampler.  Its methods are the whole interface of a
law: a query the law cannot answer raises DistributionError.  The base
class answers the cdf, quantile and stop-loss of a law that is only atoms,
samples by the inverse cdf, and reads the stop-loss of a continuous part
from a tail-moment table; a law with a closed form overrides the method.
has_density is the one flag, which lets expectations choose quadrature
over Monte Carlo.  The continuous families are closed forms on
scipy.special (_StandardLaw) that equal scipy's rv_continuous laws value
for value.

The string syntax "family:p1,p2,..." (shared with the CLI) is parsed by
parse_dist.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
from scipy import special as _special
from scipy.special import _ufuncs as _special_ufuncs

from .numerics import (GL_X, QUAD_CHUNK, REAL_LINE, TAIL_EDGES, Interval, _weigh,
                       blocked, integrate, panel_rule)

TAIL_MASS = 1e-9  # default quantile range for effective intervals
STOP_LOSS_NODES = 2048  # nodes of the tail-moment table behind stop_loss
# Probability levels of a law's quantile grid: half decades in each tail,
# down to 1e-12, and steps of 0.04 in the bulk.
_TAIL_LEVELS = np.logspace(-12, -2, 21)
PROB_LEVELS = np.concatenate([_TAIL_LEVELS, np.linspace(0.05, 0.95, 23),
                              1.0 - _TAIL_LEVELS[::-1]])


def _like(x, out):
    """out, computed at the points x, as a float when x is a scalar."""
    return float(out) if np.ndim(x) == 0 else out


class DistributionError(Exception):
    pass


class InvalidParameter(DistributionError):
    pass


class Distribution:
    """Base univariate law.

    Subclasses populate family, params and support, and set has_density
    when they define density.  Samplers are stateless: they consume a
    caller-provided numpy Generator, and return a new float array that the
    caller may overwrite.
    """

    family = "abstract"
    params = ()
    has_density = False

    support = REAL_LINE

    def density(self, x):
        raise DistributionError(f"{self.family}: no density")

    def cdf(self, x):
        """P(W <= x) of a law that is only atoms."""
        vals, cum = self._atom_cum()
        idx = np.searchsorted(vals, np.asarray(x, dtype=float), side="right")
        return np.concatenate([[0.0], cum])[idx]

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def mean(self) -> float:
        raise DistributionError(f"{self.family}: no closed mean")

    def var(self) -> float:
        raise DistributionError(f"{self.family}: no closed variance")

    def sample(self, rng, size):
        """Draws by the inverse cdf of uniforms, read in blocks into the
        uniforms' own array."""
        u = rng.uniform(size=size)
        return blocked(self.quantile, u, out=u)

    def atoms(self):
        """Discrete part as (values, probabilities) arrays; empty if none."""
        return np.empty(0), np.empty(0)

    @property
    def continuous_weight(self) -> float:
        """Probability mass carried by the continuous part."""
        return 1.0 - float(np.sum(self.atoms()[1]))

    @property
    def only_atoms(self) -> bool:
        """Whether the law is its atoms alone (up to 1e-12 of mass)."""
        return bool(len(self.atoms()[0])) and self.continuous_weight <= 1e-12

    def _atom_cum(self):
        """The atoms and their cumulative probabilities, for a law that is
        only atoms, computed once per law: sample reads them once per block."""
        if "_atom_table" not in self.__dict__:
            if not self.only_atoms:
                raise DistributionError(f"{self.family}: no cdf")
            vals, probs = self.atoms()
            self._atom_table = vals, np.cumsum(probs)
        return self._atom_table

    def quantile(self, p):
        """The inverse cdf at p (a float gives a float) of a law that is only
        atoms: the first atom whose cumulative probability reaches p."""
        vals, cum = self._atom_cum()
        idx = np.minimum(np.searchsorted(cum, p, side="left"), len(vals) - 1)
        return _like(p, vals[idx])

    def quantile_grid(self) -> np.ndarray:
        """The quantiles of PROB_LEVELS, computed once per law (empty when
        the law has no quantile): the panel edges of expect and the anchors
        of a tail-moment table."""
        if "_quantile_grid" not in self.__dict__:
            try:
                q = self.quantile(PROB_LEVELS)
            except DistributionError:
                q = []
            self._quantile_grid = np.asarray(q, dtype=float)
        return self._quantile_grid

    def tail_moments(self) -> TailMoments:
        """The law's one TailMoments table, built once and read by its
        stop-loss, zero-bias law and equilibrium law: STOP_LOSS_NODES nodes
        over the effective interval at 1e-9, each infinite side with a density
        moved out by 0, 1, 2, 4, ... spans (at most 2^40) to the first w with
        E[W (W - w); W beyond w] / Var[W] <= 1e-9, if Var[W] is finite."""
        if "_tail_moments" not in self.__dict__:
            eff = self.effective_interval(1e-9)
            ends = [eff.lo, eff.hi]
            try:
                var = self.var() if self.has_density else math.inf
            except DistributionError:
                var = math.inf
            reach = max(eff.hi - eff.lo, 1.0) * np.append(0.0, 2.0 ** np.arange(41))
            for k, side in enumerate((-1, 1)):
                if math.isfinite(var) and math.isinf((self.support.lo, self.support.hi)[k]):
                    for w in ends[k] + side * reach:  # the first small w, or the last
                        m = tail_panels(self, w, side, (eff.hi - eff.lo) / 64.0)
                        if (m[2] - w * m[1]) / var <= 1e-9:
                            break
                    ends[k] = w
            self._tail_moments = TailMoments(self, *ends, STOP_LOSS_NODES)
        return self._tail_moments

    def stop_loss(self, t):
        """E[(W - t)_+] = U1(t) - t U0(t) at the points of the 1-d array t,
        read from the law's tail-moment table (atoms, density or both)."""
        _, _, _, u0, u1, _ = self.tail_moments()(t)
        return u1 - t * u0

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
            total = total + integrate(f, self.support, rel_tol=rel_tol,
                                      points=cuts, weight=self._weight).value
        return total

    def _weight(self, x):
        """The density as expect's quadrature weight, at a (panels, k) array
        x of points, one integration panel per row."""
        return _finite(self.density(x.ravel()))

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

_SQRT_2PI = math.sqrt(2 * math.pi)


def normal_pdf(z):
    """The standard normal density at the array z."""
    return np.exp(-z ** 2 / 2.0) / _SQRT_2PI


def _piecewise(z, default, cases):
    """An array shaped like z holding default, NaN where z is NaN, and for
    each (mask, value) of cases the value where the mask holds: a float, or
    a function evaluated on the points of its mask only; a numpy scalar
    when z is a scalar."""
    out = np.where(np.isnan(z), np.nan, default)
    for mask, value in cases:
        if not callable(value):
            out[mask] = value
        elif np.any(mask):
            out[mask] = value(z[mask])
    return out[()]


class _StandardLaw(Distribution):
    """The law of loc + scale Z, where Z has support [z_lo, z_hi], the
    closed forms _pdf, _cdf, _sf and _ppf on it, and the mean and variance
    z_moments.

    The arithmetic, the special functions and the support masks are those
    of scipy's rv_continuous, so every value equals scipy's to the bit: x
    is mapped to z = (x - loc) / scale, each closed form is evaluated only
    inside the support, a NaN point gives NaN, and a scalar point gives a
    numpy scalar."""

    has_density = True
    z_lo, z_hi = -math.inf, math.inf
    open_density = False  # the density is masked to (z_lo, z_hi)

    def __init__(self, loc, scale, support):
        self.loc, self.scale, self.support = loc, scale, support

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.loc) / self.scale

    def _sf(self, z):
        return 1.0 - self._cdf(z)

    def density(self, x):
        z = self._z(x)
        inside = ((self.z_lo < z) & (z < self.z_hi) if self.open_density
                  else (self.z_lo <= z) & (z <= self.z_hi))
        return _piecewise(z, 0.0, [(inside, lambda z: self._pdf(z) / self.scale)])

    def cdf(self, x):
        z = self._z(x)
        return _piecewise(z, 0.0, [(z >= self.z_hi, 1.0),
                                   ((self.z_lo < z) & (z < self.z_hi), self._cdf)])

    def survival(self, x):
        z = self._z(x)
        return _piecewise(z, 0.0, [(z <= self.z_lo, 1.0),
                                   ((self.z_lo < z) & (z < self.z_hi), self._sf)])

    def quantile(self, p):
        q = np.asarray(p, dtype=float)
        out = _piecewise(q, np.nan, [
            (q == 0, self.z_lo * self.scale + self.loc),
            (q == 1, self.z_hi * self.scale + self.loc),
            ((0 < q) & (q < 1), lambda q: self._ppf(q) * self.scale + self.loc)])
        return _like(p, out)

    def mean(self):
        return float(self.z_moments[0] * self.scale + self.loc)

    def var(self):
        return float(self.z_moments[1] * self.scale * self.scale)


class Gaussian(_StandardLaw):
    """Normal law parameterized by (mean, variance)."""

    family = "gaussian"
    z_moments = (0.0, 1.0)

    def __init__(self, mu, var):
        if var <= 0:
            raise InvalidParameter(f"gaussian variance must be > 0, got {var}")
        self.params = (mu, var)
        super().__init__(mu, math.sqrt(var), REAL_LINE)

    _pdf = staticmethod(normal_pdf)
    _cdf = staticmethod(_special.ndtr)
    _ppf = staticmethod(_special.ndtri)

    def _sf(self, z):
        return _special.ndtr(-z)

    def sample(self, rng, size):
        return rng.normal(self.loc, self.scale, size=size)


class Beta(_StandardLaw):
    family = "beta"
    z_lo, z_hi = 0.0, 1.0

    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise InvalidParameter("beta requires alpha, beta > 0")
        self.params = (a, b)
        s = a + b
        self.z_moments = (a / s, a * b / (s * s * (s + 1)))
        super().__init__(0.0, 1.0, Interval(0.0, 1.0))

    def _pdf(self, z):
        with np.errstate(over="ignore"):
            return _special_ufuncs._beta_pdf(z, *self.params)

    def _cdf(self, z):
        return _special.betainc(*self.params, z)

    def _sf(self, z):
        return _special.betaincc(*self.params, z)

    def _ppf(self, q):
        return _special_ufuncs._beta_ppf(q, *self.params)

    def sample(self, rng, size):
        return rng.beta(*self.params, size)


class Gamma(_StandardLaw):
    """Gamma with shape k and rate b (density b^k x^{k-1} e^{-bx}/Gamma(k))."""

    family = "gamma"
    z_lo = 0.0

    def __init__(self, shape, rate):
        if shape <= 0 or rate <= 0:
            raise InvalidParameter("gamma requires shape, rate > 0")
        self.params = (shape, rate)
        self.z_moments = (shape, shape)
        super().__init__(0.0, 1.0 / rate, Interval(0.0, math.inf))

    def _pdf(self, z):
        k = self.params[0]
        return np.exp(_special.xlogy(k - 1.0, z) - z - _special.gammaln(k))

    def _cdf(self, z):
        return _special.gammainc(self.params[0], z)

    def _sf(self, z):
        return _special.gammaincc(self.params[0], z)

    def _ppf(self, q):
        return _special.gammaincinv(self.params[0], q)

    def sample(self, rng, size):
        x = rng.standard_gamma(self.params[0], size)
        x *= self.scale
        return x


class InverseGamma(_StandardLaw):
    """Inverse gamma with shape a and scale b (the law of b / G for G ~
    Gamma(a, 1)), sampled as just that."""

    family = "inverse-gamma"
    z_lo = 0.0
    open_density = True

    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise InvalidParameter("inverse-gamma requires a, b > 0")
        self.params = (a, b)
        self.z_moments = (1.0 / (a - 1.0) if a > 1 else math.inf,
                          1.0 / ((a - 1.0) * (a - 1.0)) / (a - 2.0) if a > 2
                          else math.inf)
        super().__init__(0.0, b, Interval(0.0, math.inf))

    def _pdf(self, z):
        a = self.params[0]
        return np.exp(-(a + 1) * np.log(z) - _special.gammaln(a) - 1.0 / z)

    def _cdf(self, z):
        return _special.gammaincc(self.params[0], 1.0 / z)

    def _sf(self, z):
        return _special.gammainc(self.params[0], 1.0 / z)

    def _ppf(self, q):
        return 1.0 / _special.gammainccinv(self.params[0], q)

    def sample(self, rng, size):
        a, b = self.params
        x = rng.standard_gamma(a, size)
        return np.divide(b, x, out=x)


class Pareto(_StandardLaw):
    """Pareto with density a m^a x^{-a-1} on x >= m."""

    family = "pareto"
    z_lo = 1.0

    def __init__(self, shape, scale):
        if shape <= 0 or scale <= 0:
            raise InvalidParameter("pareto requires shape, scale > 0")
        self.params = (shape, scale)
        super().__init__(0.0, scale, Interval(scale, math.inf))

    def _pdf(self, z):
        a = self.params[0]
        return a * np.power(z, -a - 1)

    def _cdf(self, z):
        return 1 - np.power(z, -self.params[0])

    def _sf(self, z):
        return np.power(z, -self.params[0])

    def _ppf(self, q):
        return np.power(1 - q, -1.0 / self.params[0])

    def mean(self):
        a, m = self.params
        if a <= 1:
            raise InvalidParameter(f"pareto mean undefined for shape {a} <= 1")
        return a * m / (a - 1)

    def var(self):
        a, m = self.params
        if a <= 2:  # inf, as InverseGamma's; mean() still raises
            return math.inf
        return a * m * m / ((a - 1) ** 2 * (a - 2))


class Exponential(_StandardLaw):
    """Exponential with rate lam (mean 1/lam)."""

    family = "exponential"
    z_lo = 0.0
    z_moments = (1.0, 1.0)

    def __init__(self, rate):
        if rate <= 0:
            raise InvalidParameter("exponential requires rate > 0")
        self.params = (rate,)
        super().__init__(0.0, 1.0 / rate, Interval(0.0, math.inf))

    def _pdf(self, z):
        return np.exp(-z)

    def _cdf(self, z):
        return -_special.expm1(-z)

    def _ppf(self, q):
        return -_special.log1p(-q)

    def survival(self, x):
        return np.exp(-self.params[0] * np.maximum(np.asarray(x, float), 0.0))

    def sample(self, rng, size):
        x = rng.standard_exponential(size)
        x *= self.scale
        return x

    def stop_loss(self, t):
        lam = self.params[0]
        return np.where(t >= 0, np.exp(-lam * np.maximum(t, 0.0)) / lam,
                        1.0 / lam - t)


class Uniform(_StandardLaw):
    family = "uniform"
    z_lo, z_hi = 0.0, 1.0
    z_moments = (0.5, 1.0 / 12)

    def __init__(self, lo, hi):
        if not lo < hi:
            raise InvalidParameter(f"uniform requires lo < hi, got [{lo}, {hi}]")
        self.params = (lo, hi)
        super().__init__(lo, hi - lo, Interval(lo, hi))

    def _pdf(self, z):
        return 1.0 * (z == z)

    def _cdf(self, z):
        return z

    def _ppf(self, q):
        return q

    def stop_loss(self, t):
        lo, hi = self.params
        tc = np.clip(t, lo, hi)
        return (hi - tc) ** 2 / (2.0 * (hi - lo)) + np.maximum(lo - t, 0.0)


# --------------------------------------------------------- discrete families

class DiscreteDistribution(Distribution):
    """Finite support: atoms (values, probs), equal values merged into one
    atom carrying their summed probability."""

    family = "discrete-empirical"

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
        if family:
            self.family = family
        self.params = params
        self.support = Interval(self._values[0] - 0.0, self._values[-1]) \
            if len(self._values) > 1 else Interval(self._values[0] - 0.5,
                                                   self._values[0] + 0.5)

    def atoms(self):
        return self._values, self._probs

    def mean(self):
        return float(np.dot(self._values, self._probs))

    def var(self):
        m = self.mean()
        return float(np.dot((self._values - m) ** 2, self._probs))

    def sample(self, rng, size):
        return rng.choice(self._values, size=size, p=self._probs)

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

def _merge_atoms(vals, probs):
    """Atoms equal to 10 decimals (lattice sums stay small) merged at their
    probability-weighted mean, which keeps the mean; one of mass 0 keeps
    its key."""
    key, inv = np.unique(np.round(vals, 10), return_inverse=True)
    merged = np.bincount(inv, probs)
    return np.divide(np.bincount(inv, probs * vals), merged, out=key,
                     where=merged > 0), merged


class SamplerSum(Distribution):
    """Sum of independent parts.  When all parts are finitely discrete it
    holds the sum's atom table, and draws and answers quantiles from it by
    the inverse cdf, one uniform per draw; otherwise it draws part by part,
    one row of draws per part."""

    family = "convolution"

    def __init__(self, parts):
        if not parts:
            raise InvalidParameter("need at least one part")
        self.parts = list(parts)
        self._mean = sum(p.mean() for p in parts)
        self._var = sum(p.var() for p in parts)
        lo = sum(p.support.lo for p in parts)
        hi = sum(p.support.hi for p in parts)
        self.support = Interval(lo, hi)
        self._atoms = self._convolve_atoms()

    def _convolve_atoms(self):
        if not all(isinstance(p, DiscreteDistribution) for p in self.parts):
            return None
        vals = np.array([0.0])
        probs = np.array([1.0])
        for part in self.parts:
            pv, pp = part.atoms()
            vals, probs = _merge_atoms((vals[:, None] + pv[None, :]).ravel(),
                                       (probs[:, None] * pp[None, :]).ravel())
            if len(vals) > 200_000:
                return None
        return vals, probs

    def atoms(self):
        if self._atoms is None:
            return np.empty(0), np.empty(0)
        return self._atoms

    def mean(self):
        return self._mean

    def var(self):
        return self._var

    def sample(self, rng, size):
        if self._atoms is not None:
            return super().sample(rng, size)
        total = np.zeros(size)
        for p in self.parts:
            total += p.sample(rng, size)
        return total


def sum_of_independents(parts):
    return SamplerSum(parts)


class RandomSum(Distribution):
    """W = sum_{i=1}^N X_i with N a count variable independent of the X_i."""

    family = "random-sum"

    def __init__(self, count_dist, summand):
        kv, kp = count_dist.atoms()
        if len(kv) == 0 or np.any(kv < -1e-12) or np.any(np.abs(kv - np.round(kv)) > 1e-9):
            raise InvalidParameter("count distribution must sit on nonnegative integers")
        self.count_dist = count_dist
        self.summand = summand
        self.params = tuple(count_dist.params) + tuple(summand.params)
        en, vn = count_dist.mean(), count_dist.var()
        ex, vx = summand.mean(), summand.var()
        self._mean = en * ex
        self._var = ex * ex * vn + en * vx
        lo = min(0.0, summand.support.lo)
        self.support = Interval(lo, math.inf) if en > 0 else Interval(-0.5, 0.5)

    def mean(self):
        return self._mean

    def var(self):
        return self._var

    def atoms(self):
        if self._mean == 0:
            return np.array([0.0]), np.array([1.0])
        return np.empty(0), np.empty(0)

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


class GeometricExponentialSum(RandomSum):
    """A Geometric(rho) count, rho > 0, of Exponential(rate) summands, in
    closed form: an atom at 0 of mass 1 - rho plus Exp(rate (1 - rho)) with
    mass rho.  It samples as a RandomSum."""

    has_density = True

    def __init__(self, count_dist, summand):
        super().__init__(count_dist, summand)
        self.rho = count_dist.rho
        self.rate = summand.params[0] * (1.0 - self.rho)

    def atoms(self):
        return np.array([0.0]), np.array([1.0 - self.rho])

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.rho * self.rate
                        * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 1.0, self.rho * np.exp(-self.rate * np.maximum(x, 0.0)))

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def quantile(self, p):
        pa = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore"):  # the quantile of p = 1 is inf
            q = -np.log((1.0 - pa) / self.rho) / self.rate
        return _like(p, np.where(pa <= 1.0 - self.rho, 0.0, q))

    def stop_loss(self, t):
        return np.where(t >= 0, self.rho * np.exp(-self.rate * np.maximum(t, 0.0))
                        / self.rate, self._mean - t)


def random_sum(count_dist, summand):
    if (isinstance(count_dist, GeometricCount) and count_dist.rho > 0
            and isinstance(summand, Exponential)):
        return GeometricExponentialSum(count_dist, summand)
    return RandomSum(count_dist, summand)


# --------------------------------------------------- permutation statistics

class PermutationStatistic(Distribution):
    """W = sum_i a[i, pi(i)] for a uniformly random permutation pi."""

    family = "permutation-statistic"

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

    def atoms(self):
        """The n! values of W, enumerated once, of mass 1/n! each and merged
        as a sum's atoms are; none for n > 9, whose law takes Monte Carlo."""
        if "_atoms" not in self.__dict__:
            vals = self.enumerate_values() if self.n <= 9 else np.empty(0)
            self._atoms = _merge_atoms(vals, np.full(len(vals),
                                                     1.0 / math.factorial(self.n)))
        return self._atoms

    def enumerate_values(self):
        """All n! values of W; feasible for n <= 9."""
        from itertools import permutations
        if self.n > 9:
            raise DistributionError("enumeration limited to n <= 9")
        perms = np.array(list(permutations(range(self.n))))
        return self.a[np.arange(self.n), perms].sum(axis=1)

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
        self.params = tuple(base.params) + (shift, scale)
        self.has_density = base.has_density
        lo = scale * (base.support.lo + shift)
        hi = scale * (base.support.hi + shift)
        self.support = Interval(lo, hi)
        self.family = f"centered-{base.family}" if scale == 1.0 else f"affine-{base.family}"

    def _pull(self, x):
        return np.asarray(x, dtype=float) / self.scale - self.shift

    def density(self, x):
        return self.base.density(self._pull(x)) / self.scale

    def cdf(self, x):
        # atoms alone are read from their own table: _pull rounds off an atom
        return super().cdf(x) if self.only_atoms else self.base.cdf(self._pull(x))

    def survival(self, x):
        return 1.0 - self.cdf(x) if self.only_atoms else self.base.survival(self._pull(x))

    def mean(self):
        return self.scale * (self.base.mean() + self.shift)

    def var(self):
        return self.scale ** 2 * self.base.var()

    def quantile(self, p):
        return self.scale * (self.base.quantile(p) + self.shift)

    def sample(self, rng, size):
        x = self.base.sample(rng, size)
        x += self.shift
        x *= self.scale
        return x

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


def tail_panels(d: Distribution, x: float, side: int, scale: float):
    """int y^k p(y) dy over [x, inf) (side = +1) or (-inf, x] (side = -1),
    k = 0, 1, 2: the TAIL_EDGES * scale panels of numerics, summed by
    16-point Gauss-Legendre, narrow next to x, where a light tail decays,
    and geometrically wider outward."""
    edges = side * scale * TAIL_EDGES
    offsets, weights = panel_rule(edges[:-1], edges[1:])
    y = x + offsets
    return _weighted_moments(y.ravel(), (d.density(y) * weights).ravel())


# Offsets of the nodes that refine toward a finite support edge, in units of
# the span of a table's anchors.
EDGE_STEPS = np.geomspace(1e-9, 0.05, 48)


def _composite_grid(q, lo: float, hi: float, n: int, support: Interval):
    """About n nodes over [lo, hi], graded by the anchors q (a law's quantile
    grid, say): each gap between anchors inside [lo, hi] is cut into equal
    steps, so that the spacing follows the local scale of the law in the bulk
    and in the tails alike.  From the outermost anchors the steps widen
    geometrically out to lo and hi, which may lie far beyond them; 48
    geometric steps refine toward each finite edge of the support (EDGE_STEPS),
    where a density can rise steeply from zero."""
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
    for edge, sgn in ((support.lo, 1.0), (support.hi, -1.0)):
        if math.isfinite(edge):
            pieces.append(edge + sgn * span * EDGE_STEPS)
    return np.unique(np.clip(np.concatenate(pieces), lo, hi))


class TailMoments:
    """The tail moments of a law, tabulated once, read anywhere.

    Read at points x, the table returns a (6,) + x.shape array: the lower
    moments L_k(x) = E[W^k; W <= x], then the upper moments
    U_k(x) = E[W^k; W > x], for k = 0, 1, 2, each read the sum of the
    atoms' part and the density's.  The atoms are exact step functions,
    accumulated from the bottom for L and from the top for U (steps(x) is
    that part alone); every atom is a node.

    The density part, skipped for a law that is only atoms, is tabulated on
    a composite grid with about n points over [lo_t, hi_t], which should
    reach each finite support edge: each panel between nodes is summed by
    16-point Gauss-Legendre, QUAD_CHUNK density points at a time, and L is
    accumulated from the bottom and U from the top, each accurate in
    relative terms on its own short side, with tail_panels beyond the nodes.
    A law that knows its moments at nodes gives them instead (at_nodes).
    Between nodes a read is the cubic Hermite interpolant whose slopes are
    the exact derivatives +-x^k p(x); beyond them, the moments beyond x
    (_far) and the total less them.  by_panel reads points grouped by panel
    (integration panels cut at every node) with one search per panel.  The
    table holds its law weakly, so that a law keeps its own table without a
    reference cycle; a read beyond the nodes needs the law alive.
    """

    def __init__(self, d: Distribution, lo_t: float, hi_t: float, n: int):
        self._law = weakref.ref(d)
        self.scale = (hi_t - lo_t) / 64.0
        atoms, probs = d.atoms()
        per_atom = np.stack([probs, probs * atoms, probs * atoms * atoms], -1)
        zero = np.zeros((1, 3))
        self.atoms = atoms
        self._steps = np.concatenate(
            [np.concatenate([zero, np.cumsum(per_atom, axis=0)]),
             np.concatenate([np.cumsum(per_atom[::-1], axis=0)[::-1], zero])], 1)
        if d.only_atoms:
            self.xs, self._coef = atoms, None
            return
        if not d.has_density:
            raise DistributionError(f"{d.family}: tail moments need atoms or a density")
        xs = np.union1d(_composite_grid(d.quantile_grid(), lo_t, hi_t, n, d.support), atoms)
        a, b, rows = xs[:-1], xs[1:], QUAD_CHUNK // len(GL_X)
        seg = np.concatenate([_weighted_moments(y, _finite(d.density(y)) * w) for y, w in (
            panel_rule(a[k:k + rows], b[k:k + rows]) for k in range(0, len(a), rows))])
        below, above = np.zeros(3), np.zeros(3)
        if xs[0] > d.support.lo:
            below = tail_panels(d, xs[0], -1, self.scale)
        if xs[-1] < d.support.hi:
            above = tail_panels(d, xs[-1], 1, self.scale)
        lower = below + np.concatenate([zero, np.cumsum(seg, axis=0)])
        upper = above + np.concatenate([np.cumsum(seg[::-1], axis=0)[::-1], zero])
        self._assemble(xs, np.concatenate([lower, upper], axis=1), _finite(d.density(xs)))

    @classmethod
    def at_nodes(cls, d: Distribution, xs, moments, p, far):
        """The table of a law without atoms from its six moments (6, len(xs))
        and density p at the nodes xs; far(x, side) replaces _far."""
        table = cls.__new__(cls)
        table._law, table.scale, table._far = weakref.ref(d), (xs[-1] - xs[0]) / 64.0, far
        table.atoms, table._steps = np.empty(0), np.zeros((1, 6))
        table._assemble(xs, moments.T, p)
        return table

    def _assemble(self, xs, vals, p):
        """The cubic Hermite interpolant through the six moments vals
        (len(xs), 6) at the nodes xs, whose slopes are +-x^k p."""
        self.xs, self.p = xs, p
        self.total = vals[-1, :3] + vals[-1, 3:]
        slope = p[:, None] * xs[:, None] ** np.arange(3)
        slopes = np.concatenate([slope, -slope], axis=1)
        m0, m1 = slopes[:-1], slopes[1:]
        h = np.diff(xs)[:, None]
        secant = np.diff(vals, axis=0) / h
        # cubic coefficients in (x - x_i), laid out (power, channel, panel)
        # so that scalar and array reads index them alike; built C-ordered,
        # since np.take copies a strided array whole
        self._coef = np.array([c.T for c in (vals[:-1], m0, (3 * secant - 2 * m0 - m1) / h,
                                             (m0 + m1 - 2 * secant) / h ** 2)])

    def steps(self, x):
        """The atoms' part of the six moments at points x."""
        i = np.searchsorted(self.atoms, np.asarray(x, dtype=float), side="right")
        return np.moveaxis(self._steps[i], -1, 0)

    def _cubic(self, i, t, channels=slice(None)):
        """The channels' cubics of panels i at offsets t from their left
        nodes; i has the shape of t, or of t less its last axis (one panel
        per row of t)."""
        c = np.take(self._coef, i, axis=2)[:, channels]  # faster than fancy indexing
        c = c.reshape(c.shape + (1,) * (np.ndim(t) - np.ndim(i)))
        out = c[3] * t  # c0 + t (c1 + t (c2 + t c3)), in place
        for k in (2, 1):
            out += c[k]
            out *= t
        out += c[0]
        return out

    def by_panel(self, x, channels):
        """self(x)[channels] for a (panels, k) array x of points, each row
        strictly inside one panel between the nodes (integration panels cut
        at every node), with one search per row instead of per point."""
        x = np.asarray(x, dtype=float)
        mid = 0.5 * (x[:, 0] + x[:, -1])
        steps = self._steps[np.searchsorted(self.atoms, mid, side="right")]
        steps = steps[:, channels].T[..., None]
        if self._coef is None:
            return np.broadcast_to(steps, steps.shape[:-1] + x.shape[1:])
        i = np.searchsorted(self.xs[1:-1], mid, side="right")
        out = self._cubic(i, x - self.xs[i][:, None], channels)
        return out + steps if len(self.atoms) else out

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self._coef is None:
            return self.steps(x)
        xs = self.xs
        i = np.searchsorted(xs[1:-1], x, side="right")  # the panel of x
        out = self._cubic(i, x - xs[i])
        if x.size and not (xs[0] <= x.min() and x.max() <= xs[-1]):
            out = out.reshape(6, -1)
            for side, beyond in ((-1, x.ravel() < xs[0]), (1, x.ravel() > xs[-1])):
                if beyond.any():
                    out[:, beyond] = self._beyond(x.ravel()[beyond], side)
            out = out.reshape((6,) + x.shape)
        return out + self.steps(x) if len(self.atoms) else out

    def excess(self, x, mu):
        """int_x^hi (y - mu) p(y) dy at points x: U1 - mu U0, or mu L0 - L1
        (equal when mu is the mean) where the lower side is the shorter."""
        l0, l1, _, u0, u1, _ = self(x)
        return np.where(l0 < u0, mu * l0 - l1, u1 - mu * u0)

    def excess_integral(self, mu):
        """The integral of the excess over the support, with mu the mean:
        E[tau(W)] for tau = excess / p, which is Var[W] up to the table's
        interpolation error.  It is exact for the interpolant that excess
        reads, with no quadrature and no density call: on each panel between
        nodes, sum_k c_k h^(k+1) / (k + 1) over the cubic of its shorter
        side, mu L0 - L1 where L0 < U0 at the panel's left node and
        U1 - mu U0 otherwise; beyond the nodes, the tails in closed form,
        U2 - hi U1 - mu (U1 - hi U0) above hi and mu (lo L0 - L1) -
        (lo L1 - L2) below lo.  The table must have no atoms, as a table
        kernel's has none: their steps are not read."""
        c, h = self._coef, np.diff(self.xs)
        c = np.where(c[0, 0] < c[0, 3], mu * c[:, 0] - c[:, 1], c[:, 4] - mu * c[:, 3])
        inner = (h * (c[0] + h * (c[1] / 2 + h * (c[2] / 3 + h * c[3] / 4)))).sum()
        lo, hi = self.xs[0], self.xs[-1]
        l0, l1, l2, _, _, _ = self(lo)
        _, _, _, u0, u1, u2 = self(hi)
        return float(inner + (u2 - hi * u1) - mu * (u1 - hi * u0)
                     + mu * (lo * l0 - l1) - (lo * l1 - l2))

    def weighted_excess_integral(self, mu, h, rel_tol):
        """The integral of h times the excess (clipped at 0) over the support:
        E[tau(W) h(W)] for tau = excess / p, with mu the mean, by quadrature
        cut at the nodes.  h maps points as an integrand of expect does, and
        reads beyond the nodes."""
        return integrate(h, self._law().support, rel_tol=rel_tol, points=self.xs,
                         weight=lambda x: np.maximum(self.excess(x, mu), 0.0)).value

    def _far(self, x, side):
        """The (len(x), 3) moments of the law beyond the points x, all beyond
        the nodes on one side: tail_panels beyond the outermost of x and the
        tail panels from the outermost node, plus 16-point Gauss-Legendre on
        each gap between them, accumulated inward."""
        d, end = self._law(), self.xs[-1] if side > 0 else self.xs[0]
        u, inv = np.unique(np.append(x, end + side * self.scale * TAIL_EDGES[1:]),
                           return_inverse=True)
        u = u[::-side]  # outermost first
        y, w = panel_rule(u[1:], u[:-1])
        seg = np.cumsum(_weighted_moments(y, _finite(d.density(y)) * w), axis=0)
        out = tail_panels(d, u[0], side, self.scale) + np.concatenate([np.zeros((1, 3)), seg])
        return out[::-side][inv[:len(x)]]

    def _beyond(self, x, side):
        """The six moments at points x outside the nodes on one side."""
        d, far = self._law(), np.zeros((len(x), 3))
        if self.xs[0] > d.support.lo if side < 0 else self.xs[-1] < d.support.hi:
            far = self._far(x, side)
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
    "standardized-bernoulli": lambda p: standardized_bernoulli(
        p[0], int(_need(p, 2, "standardized-bernoulli")[1])),
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
    params = list(params)
    if not all(map(math.isfinite, params)):
        raise InvalidParameter(f"{family} parameters must be finite: {params}")
    return maker(params)


def parse_dist(text: str):
    """Parse the "family:p1,p2,..." string syntax."""
    if ":" in text:
        family, _, tail = text.partition(":")
        try:
            params = [float(t) for t in tail.split(",") if t.strip()]
        except ValueError as exc:
            raise InvalidParameter(f"{text!r}: {exc}") from None
    else:
        family, params = text, []
    return make(family.strip(), params)

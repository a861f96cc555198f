"""Stein kernels: the function tau with Cov[W, phi(W)] = E[tau(W) phi'(W)].

Three construction routes:

* pearson_kernel  - closed quadratic forms for the classical families;
* integral_kernel - tau(x) = (1/p(x)) * integral_x^inf (y - mu) p(y) dy
                    read from the law's tail-moment table;
* smoothed_kernel - the kernel of Y + Z for Gaussian noise Z, usable when
                    Y itself has no density.

The Pareto kernel is implemented in its nonnegative form
theta*(theta - m)/(a - 1); see the README note on the sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm as _norm

from .distributions import Distribution, TailMoments, _weigh
from .numerics import Interval, integrate

DENSITY_FLOOR = 1e-300
SMOOTH_PANELS = 64  # most panels of the epsilon grid of a smoothed law
# Cuts around the centre of a Gaussian bump, in units of epsilon: the bump
# is resolved, and is below 1e-13 of its peak past 8.
BUMP_OFFSETS = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
MIX_CHUNK = 16  # points x per expectation over a base with a density


class KernelError(Exception):
    pass


class UnsupportedFamily(KernelError):
    pass


class DensityUnderflow(KernelError):
    pass


@dataclass
class SteinKernel:
    """Evaluable Stein kernel with provenance."""

    eval: object
    provenance: str  # pearson | integral | smoothed
    base: Distribution
    pearson_coeffs: tuple | None = None  # (delta1, delta2, delta3, mu)
    mean: object = None  # rel_tol -> E[tau(W)], where the route reads it directly

    def __call__(self, x):
        return self.eval(x)

    def expected_value(self, rel_tol: float = 1e-9) -> float:
        """E[tau(W)]; equals Var[W] when the kernel is exact."""
        if self.mean is not None:
            return self.mean(rel_tol)
        return self.base.expect(self.eval, rel_tol=rel_tol)


# ------------------------------------------------------------- Pearson route

def _quadratic_coeffs(d: Distribution):
    """(A, B, C) with tau(x) = A x^2 + B x + C for the supported families."""
    fam = d.family
    if fam == "gaussian":
        return 0.0, 0.0, float(d.params[1])
    if fam == "beta":
        a, b = d.params
        return -1.0 / (a + b), 1.0 / (a + b), 0.0
    if fam == "gamma":
        _, rate = d.params
        return 0.0, 1.0 / rate, 0.0
    if fam == "exponential":
        rate = d.params[0]
        return 0.0, 1.0 / rate, 0.0
    if fam == "inverse-gamma":
        a, _ = d.params
        if a <= 1:
            raise UnsupportedFamily(f"inverse-gamma kernel needs shape > 1, got {a}")
        return 1.0 / (a - 1.0), 0.0, 0.0
    if fam == "pareto":
        a, m = d.params
        if a <= 1:
            raise UnsupportedFamily(f"pareto kernel needs shape > 1, got {a}")
        return 1.0 / (a - 1.0), -m / (a - 1.0), 0.0
    if fam == "uniform":
        c, dd = d.params
        return -0.5, 0.5 * (c + dd), -0.5 * c * dd
    raise UnsupportedFamily(f"no closed Pearson kernel for family {fam!r}")


def pearson_kernel(d: Distribution) -> SteinKernel:
    """Closed-form quadratic Stein kernel for a Pearson-family law."""
    A, B, C = _quadratic_coeffs(d)
    mu = d.mean()
    delta1 = A
    delta2 = 2.0 * A * mu + B
    delta3 = A * mu * mu + B * mu + C

    def tau(x):
        x = np.asarray(x, dtype=float)
        return A * x * x + B * x + C

    return SteinKernel(eval=tau, provenance="pearson", base=d,
                       pearson_coeffs=(delta1, delta2, delta3, mu))


# ------------------------------------------------------------ integral route

def integral_kernel(d: Distribution, grid_points: int = 512) -> SteinKernel:
    """Stein kernel tau(x) = (1/p(x)) int_x^hi (y - mu) p(y) dy.

    The tail moment is read from a TailMoments table with about
    grid_points nodes over the central quantile range [q(1e-9),
    q(1 - 1e-9)] (tail panels beyond it).  Below the median it is taken
    from the lower side, mu L0(x) - L1(x), where the upper side would
    cancel.  Where the density has underflowed, tau is the value at the
    nearest node where it has not; negative rounding is clipped to 0.
    """
    if not d.has_density:
        raise KernelError(f"{d.family}: integral kernel needs a density")
    mu = d.mean()
    eff = d.effective_interval(1e-9)
    table = TailMoments(d, eff.lo, eff.hi, grid_points)
    ok = table.p >= DENSITY_FLOOR
    nodes = table.xs[ok]
    node_tau = table.excess(nodes, mu) / table.p[ok]

    def tau(x):
        x_arr = np.asarray(x, dtype=float)
        p = np.asarray(d.density(x_arr), dtype=float)
        safe = p >= DENSITY_FLOOR
        ratio = table.excess(x_arr, mu) / np.where(safe, p, 1.0)
        out = np.maximum(np.where(safe, ratio, np.interp(x_arr, nodes, node_tau)),
                         0.0)
        return out if np.ndim(x) else float(out)

    # E[tau(W)] = int of tau p, which is the excess read itself
    return SteinKernel(eval=tau, provenance="integral", base=d,
                       mean=lambda rel_tol: table.excess_integral(mu, rel_tol))


# ------------------------------------------------------------ smoothed route

class SmoothedDistribution(Distribution):
    """Law of Y + Z with Z ~ N(0, eps^2) independent of Y."""

    family = "smoothed"
    has_density = True

    def __init__(self, base: Distribution, epsilon: float):
        if epsilon <= 0:
            raise KernelError("epsilon must be > 0")
        self.base = base
        self.epsilon = epsilon
        self.params = tuple(base.params) + (epsilon,)
        self.support = Interval(-math.inf, math.inf)
        self._mu = base.mean()

    def _mix(self, x, f, weight=lambda y: 1.0):
        """E[weight(Y) f(x - Y)] over the law of Y for every x of the 1-d
        array x, f varying on the scale of epsilon around 0: vector-valued
        expectations, one for all x over atoms (a finite sum).  A base with
        a density takes MIX_CHUNK points x at a time, each with BUMP_OFFSETS
        cuts around y = x, so that the cost does not grow as eps shrinks."""
        x, bump = np.asarray(x, dtype=float), self.epsilon * BUMP_OFFSETS
        n = MIX_CHUNK if self.base.continuous_weight > 1e-12 else max(len(x), 1)
        return np.concatenate([self.base.expect(
            lambda y: _weigh(weight(y), f(xk - y[:, None])), rel_tol=1e-10,
            points=(xk[:, None] - bump).ravel())
            for xk in (x[k:k + n] for k in range(0, len(x), n))])

    def density(self, x):
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._mix(x1, lambda t: _norm.pdf(t, scale=self.epsilon))
        return out if np.ndim(x) else float(out[0])

    def cdf(self, x):
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._mix(x1, lambda t: _norm.cdf(t, scale=self.epsilon))
        return out if np.ndim(x) else float(out[0])

    def mean(self):
        return self._mu

    def var(self):
        return self.base.var() + self.epsilon ** 2

    def sample(self, rng, size):
        return self.base.sample(rng, size) + rng.normal(0.0, self.epsilon, size=size)

    def expect(self, f, rel_tol=1e-9, points=None):
        """E[f(Y + Z)] over the effective range (omitted mass < 1e-13), on
        panels one epsilon wide, where the density is smooth, but at most
        SMOOTH_PANELS of them; where that cap widens them, the base's
        quantiles and BUMP_OFFSETS around its atoms are cut as well, so the
        cost grows with the number of atoms, not with the range over eps."""
        eff = self.effective_interval(1e-13)
        eps = self.epsilon
        step = max(eps, (eff.hi - eff.lo) / SMOOTH_PANELS)
        cuts = [np.arange(eff.lo, eff.hi, step), [] if points is None else points]
        if step > eps:
            atoms, _ = self.base.atoms()
            cuts += [(np.asarray(atoms)[:, None] + eps * BUMP_OFFSETS).ravel(),
                     self.base.quantile_grid()]
        return integrate(lambda x: _weigh(self.density(x), f(x)), eff,
                         rel_tol=rel_tol, points=np.concatenate(cuts)).value


def smooth(base: Distribution, epsilon: float) -> SmoothedDistribution:
    return SmoothedDistribution(base, epsilon)


def smoothed_kernel(s: SmoothedDistribution) -> SteinKernel:
    """Kernel tau_eps(x) = eps^2 + E[(Y'-mu) SF_eps(x-Y')] / E[pdf_eps(x-Y')]."""
    eps = s.epsilon
    mu = s.mean()

    def tau(x):
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        den = s.density(x1)
        num = s._mix(x1, lambda t: _norm.sf(t, scale=eps), lambda y: y - mu)
        if np.any(den < DENSITY_FLOOR):
            raise DensityUnderflow("smoothed denominator underflow in the tails")
        out = eps * eps + num / den
        return out if np.ndim(x) else float(out[0])

    return SteinKernel(eval=tau, provenance="smoothed", base=s)


# ------------------------------------------------------------- diagnostics

def kernel_identity_residual(kernel: SteinKernel, phi, dphi,
                             rel_tol: float = 1e-8, points=None) -> float:
    """Cov[W, phi(W)] - E[tau(W) phi'(W)] by exact expectation."""
    d = kernel.base
    mu = d.mean()
    cov = d.expect(lambda x: (x - mu) * phi(x), rel_tol=rel_tol, points=points)
    rhs = d.expect(lambda x: kernel(x) * dphi(x), rel_tol=rel_tol, points=points)
    return cov - rhs


def pearson_ode_residual(kernel: SteinKernel, x, d: Distribution,
                         h: float = 1e-6):
    """p'(x)/p(x) + ((2 d1 + 1)(x - mu) + d2) / tau(x); zero for Pearson laws."""
    if kernel.pearson_coeffs is None:
        raise KernelError("kernel has no Pearson coefficients")
    d1, d2, _, mu = kernel.pearson_coeffs
    x = np.asarray(x, dtype=float)
    logp = (np.log(d.density(x + h)) - np.log(d.density(x - h))) / (2 * h)
    return logp + ((2 * d1 + 1) * (x - mu) + d2) / kernel(x)

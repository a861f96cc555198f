"""Stein kernels: the function tau with Cov[W, phi(W)] = E[tau(W) phi'(W)].

Three construction routes:

* pearson_kernel  - closed quadratic forms for the classical families;
* integral_kernel - tau(x) = (1/p(x)) * integral_x^inf (y - mu) p(y) dy
                    read from the law's tail-moment table;
* smoothed_kernel - the kernel of Y + Z, Z Gaussian, usable when Y has no
                    density: one convolution over Z of Y's tail moments.

The Pareto kernel is implemented in its nonnegative form
theta*(theta - m)/(a - 1); see the README note on the sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .distributions import (STOP_LOSS_NODES, TAIL_CHUNK, Distribution, TailMoments,
                            _composite_grid, _finite, _like, normal_pdf)
from .numerics import panel_rule
from .transforms import _TabulatedLaw

DENSITY_FLOOR = 1e-300
# Edges of the z-panels of a smoothed law's convolution over Z, in units of
# epsilon: the Gaussian factor is below 1e-13 of its peak past 8.
Z_PANELS = np.arange(-8.0, 9.0)
# More cuts where y = x - z is at a finite edge of the base and inside it, in
# units of epsilon from it: they resolve the reads' root singularity there.
EDGE_GRADING = np.append(0.0, np.geomspace(1e-8, 1.0, 7))


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
    The ratio needs a law without atoms: an atom's mass is in the tail
    moment but not in p.
    """
    if not d.has_density or len(d.atoms()[0]):
        raise KernelError(f"{d.family}: integral kernel needs a density and no atoms")
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

class SmoothedDistribution(_TabulatedLaw):
    """Law of Y + Z with Z ~ N(0, eps^2) independent of Y.  Its cdf is
    tabulated on a grid anchored at Y's atoms, quantile grid and quantiles
    of 1e-13 and 1 - 1e-13, each +- 8 eps, whose range bounds expect."""

    family = "smoothed"
    has_density = True
    _table = None  # Y's TailMoments, where Y has a density

    def __init__(self, base: Distribution, epsilon: float):
        if epsilon <= 0:
            raise KernelError("epsilon must be > 0")
        self.base, self.epsilon, self._mu = base, epsilon, base.mean()
        self.params = tuple(base.params) + (epsilon,)
        atoms = base.atoms()[0]
        reach = Z_PANELS[-1] * epsilon
        bumps = (atoms[:, None] + epsilon * Z_PANELS).ravel()
        q = base.quantile(np.array([1e-13, 0.05, 0.5, 0.95, 1.0 - 1e-13]))
        anchors = np.concatenate([bumps, base.quantile_grid(), q[[0, -1]]])
        lo, hi = anchors.min() - reach, anchors.max() + reach
        if not base.only_atoms:  # the table holds every read of a node
            sup, self._median = base.support, q[2]
            self._table = TailMoments(base, *sup.clip([lo - reach, hi + reach]),
                                      STOP_LOSS_NODES)
            self._edges = np.array([e for e in (sup.lo, sup.hi) if math.isfinite(e)])
            self._y_cuts = np.append((self._edges[:, None] - epsilon * np.outer(
                np.sign(self._edges - self._mu), EDGE_GRADING)).ravel(),
                base.quantile_grid() if q[3] - q[1] < epsilon else [])
        xs = _composite_grid(anchors, lo, hi, STOP_LOSS_NODES, self.support)
        self._tabulate(xs, self._parts(xs)[1])
        self._cuts = np.append(self.quantile_grid(), bumps)

    def _parts(self, x):
        """(density, cdf, E[(Y - mu) SF_eps(x - Y)]) at the 1-d array x: Y's
        atoms as Gaussian sums, plus int r(x - z) phi_eps(z) dz on the panels
        eps * Z_PANELS cut at x - _y_cuts (Y's quantile grid too if its 90%
        range is under eps), of reads r(y) of Y's table less its atoms: L0
        for the cdf, the excess on x's side of Y's median for the numerator
        (mu L0 - L1 + E[mu - Y; atoms] below, U1 - mu U0 above), and p(y) for
        the density, but within 8 eps of a finite edge of Y, where p may be
        unbounded, -int L0(x - z) phi_eps'(z) dz by parts (U0 above)."""
        if len(x) > TAIL_CHUNK and self._table is not None:
            return np.concatenate([self._parts(x[k:k + TAIL_CHUNK])
                                   for k in range(0, len(x), TAIL_CHUNK)], 1)
        eps, mu, reach = self.epsilon, self._mu, Z_PANELS[-1] * self.epsilon
        atoms, probs = self.base.atoms()
        t = (x[:, None] - atoms) / eps
        out = np.stack([normal_pdf(t) @ probs / eps, ndtr(t) @ probs,
                        ndtr(-t) @ (probs * (atoms - mu))])
        if self._table is None:
            return out
        near = np.any(np.abs(x[:, None] - self._edges) < reach, 1)
        zc = np.clip(x[:, None] - self._y_cuts, -reach, reach)
        edges = np.sort(np.concatenate([np.tile(eps * Z_PANELS, (len(x), 1)), zc], 1), 1)
        z, w = (v.reshape(len(x), -1) for v in panel_rule(edges[:, :-1], edges[:, 1:]))
        w = w * normal_pdf(z / eps) / eps
        y = x[:, None] - z
        l0, l1, _, u0, u1, _ = self._table(y) - self._table.steps(y)
        lower = (x < self._median)[:, None]
        num = np.where(lower, mu * l0 - l1 + probs @ (mu - atoms), u1 - mu * u0)
        by_parts = (w * z * np.where(lower, -l0, u0)).sum(1) / (eps * eps)
        den = np.where(near, by_parts, (w * _finite(self.base.density(y))).sum(1))
        return out + np.stack([den, (w * l0).sum(1), (w * num).sum(1)])

    def density(self, x):
        return _like(x, self._parts(np.ravel(x))[0].reshape(np.shape(x)))

    def cdf(self, x):
        return _like(x, self._parts(np.ravel(x))[1].reshape(np.shape(x)))

    def mean(self):
        return self._mu

    def var(self):
        return self.base.var() + self.epsilon ** 2

    def sample(self, rng, size):
        return self.base.sample(rng, size) + rng.normal(0.0, self.epsilon, size=size)


def smooth(base: Distribution, epsilon: float) -> SmoothedDistribution:
    return SmoothedDistribution(base, epsilon)


def smoothed_kernel(s: SmoothedDistribution) -> SteinKernel:
    """Kernel tau_eps(x) = eps^2 + E[(Y'-mu) SF_eps(x-Y')] / E[pdf_eps(x-Y')],
    both read from one pass of the law's _parts."""
    def tau(x):
        den, _, num = s._parts(np.ravel(x))
        if np.any(den < DENSITY_FLOOR):
            raise DensityUnderflow("smoothed denominator underflow in the tails")
        return _like(x, (s.epsilon ** 2 + num / den).reshape(np.shape(x)))

    return SteinKernel(eval=tau, provenance="smoothed", base=s)

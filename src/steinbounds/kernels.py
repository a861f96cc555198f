"""Stein kernels: the function tau with Cov[W, phi(W)] = E[tau(W) phi'(W)].

Three construction routes:

* pearson_kernel  - closed quadratic forms for the classical families;
* integral_kernel - tau(x) = (1/p(x)) * integral_x^inf (y - mu) p(y) dy
                    read from the law's tail-moment table;
* smoothed_kernel - the integral kernel of S = Y + Z, Z Gaussian, usable
                    when Y has no density: read from S's own tail-moment
                    table, built by one convolution over Z of Y's.

The two table routes share one formula, tau = excess / p, and one rule
where the density underflows (_table_kernel).  Their E[tau] is the exact
integral of the table's cubics (TailMoments.excess_integral): it reads no
density and integrates nothing, so its distance to Var[W] is the table's
interpolation error.

The Pareto kernel is implemented in its nonnegative form
theta*(theta - m)/(a - 1); see the README note on the sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .distributions import (PROB_LEVELS, STOP_LOSS_NODES, Distribution, TailMoments,
                            _composite_grid, _finite, _like, normal_pdf)
from .numerics import panel_rule
from .transforms import _TabulatedLaw

DENSITY_FLOOR = 1e-300
# Edges of the z-panels of a smoothed law's convolution over Z, in units of
# epsilon: past 12 the Gaussian factor is below 1e-31 of its peak, which
# keeps relative accuracy where the integrand peaks far out, in S's tails.
Z_PANELS = np.arange(-12.0, 13.0)
# More cuts where y = x - z is at a finite edge of the base and inside it, in
# units of epsilon from it: they resolve the reads' root singularity there.
EDGE_GRADING = np.append(0.0, np.geomspace(1e-8, 1.0, 7))
Z_CHUNK = 16  # points x per convolution call, bounding peak memory


class KernelError(Exception):
    pass


class UnsupportedFamily(KernelError):
    pass


class DensityUnderflow(KernelError):
    pass


@dataclass
class SteinKernel:
    """Evaluable Stein kernel with provenance.

    A Pearson kernel is a closed quadratic, and its expectations are
    weighted by the density.  A table kernel (integral, smoothed) is
    tau = E[W - mu; W > x] / p(x), its excess read from its law's
    tail-moment table, so that tau p is the excess: E[tau(W) h(W)] is the
    integral of h times the excess over the support, which divides by no
    density."""

    eval: object
    provenance: str  # pearson | integral | smoothed
    base: Distribution
    pearson_coeffs: tuple | None = None  # (delta1, delta2, delta3, mu)
    table: TailMoments | None = None  # the law's table, for a table kernel

    def __call__(self, x):
        return self.eval(x)

    def expected_value(self) -> float:
        """E[tau(W)]; equals Var[W] when the kernel is exact.  A Pearson
        kernel takes quadrature at rel_tol 1e-9; a table kernel's is the exact
        integral of its table's cubics (TailMoments.excess_integral), so
        that its distance to Var[W] is the table's interpolation error, and
        it reads no density and integrates nothing."""
        if self.table is not None:
            return self.table.excess_integral(self.base.mean())
        return self.base.expect(self.eval, rel_tol=1e-9)


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

def _table_kernel(d: Distribution, table: TailMoments, provenance: str) -> SteinKernel:
    """The kernel tau = E[W - mu; W > x] / p(x) of a law without atoms, its
    excess read from the law's tail-moment table (clipped at 0) and p from
    its density.  Where p < DENSITY_FLOOR beyond the outermost nodes where it
    is not, tau is the nearest such node's value; between them the ratio
    has no value, and DensityUnderflow is raised."""
    mu, ok = d.mean(), np.flatnonzero(table.p >= DENSITY_FLOOR)[[0, -1]]
    ends = table.xs[ok]
    end_tau = np.maximum(table.excess(ends, mu) / table.p[ok], 0.0)

    def tau(x):
        x_arr = np.asarray(x, dtype=float)
        p = np.asarray(d.density(x_arr), dtype=float)
        safe = p >= DENSITY_FLOOR
        if np.any(~safe & (ends[0] < x_arr) & (x_arr < ends[1])):
            raise DensityUnderflow(f"{d.family}: density underflow between the "
                                   "nodes of its table")
        ratio = table.excess(x_arr, mu) / np.where(safe, p, 1.0)
        out = np.maximum(np.where(safe, ratio, np.where(x_arr < ends[0], *end_tau)),
                         0.0)
        return out if np.ndim(x) else float(out)

    return SteinKernel(eval=tau, provenance=provenance, base=d, table=table)


def integral_kernel(d: Distribution, grid_points: int = 512) -> SteinKernel:
    """Stein kernel tau(x) = (1/p(x)) int_x^hi (y - mu) p(y) dy, read from a
    TailMoments table with about grid_points nodes over [q(1e-9),
    q(1 - 1e-9)].  The ratio needs a law without atoms: an atom's mass is in
    the tail moment but not in p."""
    if not d.has_density or len(d.atoms()[0]):
        raise KernelError(f"{d.family}: integral kernel needs a density and no atoms")
    eff = d.effective_interval(1e-9)
    return _table_kernel(d, TailMoments(d, eff.lo, eff.hi, grid_points), "integral")


# ------------------------------------------------------------ smoothed route

def _shift(m, s):
    """E[(V + s)^k; A], k = 0, 1, 2, from the moments m = E[V^k; A]."""
    m0, m1, m2 = m
    return np.stack([m0, m1 + s * m0, m2 + s * (2.0 * m1 + s * m0)])


class SmoothedDistribution(_TabulatedLaw):
    """Law of S = Y + Z with Z ~ N(0, eps^2) independent of Y.  Its one
    tail-moment table, tail_moments(), is built by one convolution pass at
    nodes that follow its own quantiles (read off a coarser pilot pass), out
    to 12 eps past Y's atoms and quantiles of 1e-13 and 1 - 1e-13; the table
    carries the cdf table, quantile, stop-loss, kernel and transforms of S,
    and its range bounds expect.  Beyond the nodes S is read as Y, whose
    moments there differ from S's by O(eps^2) of their curvature."""

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
        q = base.quantile(np.array([1e-13, 0.05, 0.95, 1.0 - 1e-13]))
        anchors = np.concatenate([bumps, base.quantile_grid(), q[[0, -1]]])
        lo, hi = anchors.min() - reach, anchors.max() + reach
        if not base.only_atoms:  # the table holds every read of a node
            sup = base.support
            self._table = TailMoments(base, *sup.clip([lo - reach, hi + reach]),
                                      STOP_LOSS_NODES)
            self._edges = np.array([e for e in (sup.lo, sup.hi) if math.isfinite(e)])
            self._y_cuts = np.append((self._edges[:, None] - epsilon * np.outer(
                np.sign(self._edges - self._mu), EDGE_GRADING)).ravel(),
                base.quantile_grid() if q[2] - q[1] < epsilon else [])
        # the nodes follow S's own quantile grid, read off a pilot pass in
        # the log of the mass on each side, nearly linear in a tail
        pilot = _composite_grid(anchors, lo, hi, STOP_LOSS_NODES // 8, self.support)
        m = self._parts(pilot, moments=True)
        levels = np.log(PROB_LEVELS[PROB_LEVELS <= 0.5])
        anchors = np.concatenate([bumps, q[[0, -1]], *(np.interp(levels, np.log(
            np.maximum.accumulate(np.maximum(mass, 1e-300))), nodes)
            for mass, nodes in ((m[1], pilot), (m[4][::-1], pilot[::-1])))])
        xs = _composite_grid(anchors, lo, hi, STOP_LOSS_NODES, self.support)
        p, *moments = self._parts(xs, moments=True)
        y_table = self._table or base.tail_moments()
        self._tail_moments = TailMoments.at_nodes(  # the one table, read by the base class
            self, xs, np.array(moments), p,
            lambda x, side: y_table(x)[:3 if side < 0 else 6][-3:].T)
        self._tabulate(xs, moments[0])
        self._cuts = np.append(self.quantile_grid(), bumps)

    def _parts(self, x, moments=False):
        """The density of S at the 1-d array x, a (1, len(x)) array, or with
        moments its six tail moments too, (7, len(x)): Y's atoms in closed
        form, plus int r(x - z) phi_eps(z) dz on the panels eps * Z_PANELS
        cut at x - _y_cuts (Y's quantile grid too if its 90% range is under
        eps) of reads r(y) of Y's density part: p(y), and sum_j C(k, j) z^j
        L_{k-j}(y) from Y's table for L_k (likewise U_k).  Within 12 eps of a
        finite edge of Y, where p may be unbounded, the density is
        -int L0(x - z) phi_eps'(z) dz by parts (U0 on the upper side)."""
        if len(x) > Z_CHUNK and self._table is not None:
            return np.concatenate([self._parts(x[k:k + Z_CHUNK], moments)
                                   for k in range(0, len(x), Z_CHUNK)], 1)
        eps, reach = self.epsilon, Z_PANELS[-1] * self.epsilon
        atoms, probs = self.base.atoms()
        t = (x[:, None] - atoms) / eps
        pdf, below, above = normal_pdf(t), ndtr(t), ndtr(-t)
        out = np.concatenate([[pdf @ probs / eps], *(_shift(m, atoms) @ probs for m in (
            [below, -eps * pdf, eps * eps * (below - t * pdf)],
            [above, eps * pdf, eps * eps * (above + t * pdf)]) if moments)])
        if self._table is None:
            return out
        near = np.any(np.abs(x[:, None] - self._edges) < reach, 1)
        zc = np.clip(x[:, None] - self._y_cuts, -reach, reach)
        edges = np.sort(np.concatenate([np.tile(eps * Z_PANELS, (len(x), 1)), zc], 1), 1)
        z, w = (v.reshape(len(x), -1) for v in panel_rule(edges[:, :-1], edges[:, 1:]))
        w = w * normal_pdf(z / eps) / eps
        y = x[:, None] - z
        p = (w * _finite(self.base.density(y))).sum(1)
        if moments or near.any():
            rows = slice(None) if moments else near
            z, w = z[rows], w[rows]
            r = self._table(y[rows]) - self._table.steps(y[rows])
            lower = ((w * r[0]).sum(1) < (w * r[3]).sum(1))[:, None]
            by_parts = (w * z * np.where(lower, -r[0], r[3])).sum(1) / (eps * eps)
            p[rows] = np.where(near[rows], by_parts, p[rows])
            if moments:
                out[1:] += np.concatenate([(w * _shift(r[k:k + 3], z)).sum(-1)
                                           for k in (0, 3)])
        out[0] += p
        return out

    def density(self, x):
        return _like(x, self._parts(np.ravel(x))[0].reshape(np.shape(x)))

    def cdf(self, x):
        return _like(x, self._parts(np.ravel(x), moments=True)[1].reshape(np.shape(x)))

    def mean(self):
        return self._mu

    def var(self):
        return self.base.var() + self.epsilon ** 2

    def sample(self, rng, size):
        x = self.base.sample(rng, size)
        x += rng.normal(0.0, self.epsilon, size=size)
        return x


def smooth(base: Distribution, epsilon: float) -> SmoothedDistribution:
    return SmoothedDistribution(base, epsilon)


def smoothed_kernel(s: SmoothedDistribution) -> SteinKernel:
    """The kernel of S = Y + Z, the integral kernel of S: Gaussian
    integration by parts gives E[Z; S > x] = eps^2 p_S(x), so
    tau_eps(x) = eps^2 + E[(Y - mu) SF_eps(x - Y)] / p_S(x) is
    E[S - mu; S > x] / p_S(x), read from S's one table."""
    return _table_kernel(s, s.tail_moments(), "smoothed")

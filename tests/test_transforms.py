import gc
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.stats import gamma, norm

from steinbounds import distributions, kernels, numerics, transforms
from steinbounds.bounds import bound_equilibrium, bound_zero_bias
from steinbounds.distributions import (Beta, DiscreteDistribution,
                                       Exponential, Gamma, Gaussian,
                                       GeometricCount, InverseGamma, Pareto,
                                       Uniform, centered,
                                       parse_dist, permutation_statistic,
                                       point_mass, random_sum,
                                       standardized_bernoulli,
                                       sum_of_independents, two_point)
from steinbounds.exprfn import make_test_function
from steinbounds.kernels import integral_kernel
from steinbounds.numerics import NumericsError, rng_stream
from steinbounds.orderings import check_nbue_nwue
from steinbounds.transforms import (EquilibriumDistribution, NotCentered,
                                    TransformError, ZeroBiasDistribution,
                                    equilibrium,
                                    stop_loss, zero_bias, zero_bias_sum)


def test_zero_bias_requires_centered():
    with pytest.raises(NotCentered):
        zero_bias(Exponential(1.0))


def test_zero_bias_gaussian_is_fixed_point():
    star = zero_bias(Gaussian(0.0, 1.0))
    for x in (-2.0, -0.5, 0.0, 1.0, 2.5):
        assert star.density(x) == pytest.approx(norm.pdf(x), abs=1e-6)


def test_zero_bias_two_point_is_uniform():
    a, b = 1.0, 2.0
    spec = zero_bias(two_point(a, b))
    assert spec.sigma2 == pytest.approx(a * b)
    star = spec
    assert star.density(0.0) == pytest.approx(1.0 / (a + b), abs=1e-12)
    assert star.cdf(b) == pytest.approx(1.0, abs=1e-9)
    assert star.cdf(-a) == pytest.approx(0.0, abs=1e-9)
    # cdf is linear on (-a, b)
    assert star.cdf(0.5) == pytest.approx(1.5 / 3.0, abs=1e-9)


def test_zero_bias_mean_is_third_moment_over_2sigma2():
    d = two_point(1.0, 2.0)  # skewed
    spec = zero_bias(d)
    m3 = d.expect(lambda x: x ** 3)
    assert spec.expect(lambda x: x) == pytest.approx(
        m3 / (2.0 * spec.sigma2), rel=1e-8)


@pytest.mark.parametrize("base", [Gamma(3.0, 2.0), two_point(1.0, 2.0)],
                         ids=["continuous", "discrete"])
def test_zero_bias_expect_takes_vector_integrands(base):
    zb = zero_bias(centered(base))
    both = zb.expect(lambda x: np.stack([np.cos(x), x * x], -1))
    assert both == pytest.approx([zb.expect(np.cos), zb.expect(lambda x: x * x)],
                                 rel=1e-9)


def test_zero_bias_identity_mc():
    # E[W phi(W)] = sigma^2 E[phi'(W*)] checked for phi = sin
    d = centered(Uniform(0.0, 2.0))
    spec = zero_bias(d)
    lhs = d.expect(lambda x: x * np.sin(x), rel_tol=1e-10)
    rhs = spec.sigma2 * spec.expect(lambda x: np.cos(x), rel_tol=1e-10)
    # the zero-bias density is tabulated; its stated accuracy budget is 1e-6
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_zero_bias_of_a_base_with_an_atom_and_a_density():
    # W = a Geometric(1/2) count of Exp(1) summands, centered: an atom of
    # mass 1/2 at -1 next to a density, Var[W] = 3
    w = centered(random_sum(GeometricCount(0.5), Exponential(1.0)))
    zb = zero_bias(w)
    assert abs(zb.expect(lambda x: np.ones_like(x)) - 1.0) <= 1e-9
    g = make_test_function("x", w.effective_interval(1e-9))
    rep = bound_zero_bias(zb, g, n_mc=10**4, seed=0)
    assert rep.lower == pytest.approx(3.0, abs=1e-6)
    assert rep.upper == pytest.approx(3.0, abs=1e-6)
    assert zb.mean() == pytest.approx(
        w.expect(lambda x: x ** 3) / (2.0 * w.var()), rel=1e-12)


def test_zero_bias_of_a_sum_with_rounded_atoms():
    # the sum's atoms are merged where they agree to 10 decimals, at the
    # mean of the sums they merge, so the table keeps mean() to rounding
    zb = zero_bias(sum_of_independents([standardized_bernoulli(0.3, 30)] * 30))
    assert zb.cdf(zb.support.hi) == 1.0
    assert abs(zb.expect(lambda x: np.ones_like(x)) - 1.0) <= 1e-8


ZB_BASES = {
    "normal": lambda: Gaussian(0.0, 1.0),
    "gamma": lambda: centered(Gamma(2.0, 1.0)),
    "atom-and-density": lambda: centered(random_sum(GeometricCount(0.5),
                                                    Exponential(1.0))),
    "only-atoms": lambda: parse_dist("standardized-bernoulli:0.3,20"),
}
ZB_INTEGRANDS = {
    "one-column": np.cos,
    "two-columns": lambda x: np.stack([np.cos(x), x * x], -1),
    "refined": lambda x: np.sin(200.0 * x),
}


@pytest.mark.parametrize("f", ZB_INTEGRANDS.values(), ids=ZB_INTEGRANDS)
@pytest.mark.parametrize("base", ZB_BASES.values(), ids=ZB_BASES)
def test_zero_bias_expect_reads_the_table_by_panel_to_the_byte(base, f):
    # expect reads the density once per integration panel; the same
    # quadrature of the density read point by point gives the same bytes
    zb = zero_bias(base())
    by_point = numerics.integrate(
        lambda x: numerics._weigh(zb.density(x), f(x)), zb._range,
        rel_tol=1e-9, points=zb._cuts).value
    assert np.asarray(zb.expect(f)).tobytes() == np.asarray(by_point).tobytes()


@pytest.mark.parametrize("base", ZB_BASES.values(), ids=ZB_BASES)
def test_refined_integrand_bisects_the_table_panels(base):
    # the "refined" integrand above is read on halves of the table's panels
    zb = zero_bias(base())
    res = numerics.integrate(ZB_INTEGRANDS["refined"], zb._range, rel_tol=1e-9,
                             points=zb._cuts, weight=zb._weight)
    assert res.evaluations > 40 * (len(np.unique(zb._cuts)) - 1)


def test_zero_bias_bound_reads_no_density_point_by_point(monkeypatch):
    # the cost of a zero-bias bound, pinned by counts: the table is read by
    # panel (no density call), and the quadrature's evaluation counts are
    # those of the per-point read it replaced: the zero-bias expectation,
    # then the Monte-Carlo oracle's moments of g(W)
    zb = zero_bias(Gaussian(0.0, 1.0))
    g = make_test_function("sin(x)", Gaussian(0.0, 1.0).effective_interval(1e-9))
    evals, reads = [], []
    integrate = numerics.integrate

    def counted(*args, **kwargs):
        res = integrate(*args, **kwargs)
        evals.append(res.evaluations)
        return res

    for module in (distributions, transforms):
        monkeypatch.setattr(module, "integrate", counted)
    density = ZeroBiasDistribution.density
    monkeypatch.setattr(ZeroBiasDistribution, "density",
                        lambda self, x: reads.append(np.size(x)) or density(self, x))
    bound_zero_bias(zb, g, n_mc=1000, seed=0)
    assert reads == []
    assert evals == [100440, 12880]


def test_zero_bias_refuses_a_table_without_unit_mass():
    # a base whose declared variance is not its own: F*(top node) = 1/2
    class Halved(DiscreteDistribution):
        def var(self):
            return 2.0
    with pytest.raises(TransformError, match="zero-bias mass"):
        zero_bias(Halved([-1.0, 1.0], [0.5, 0.5]))


def test_equilibrium_bound_builds_one_stop_loss_table(monkeypatch):
    # the equilibrium law and the NBUE/NWUE check read the same base's
    # stop-loss: its tail-moment table is built once, kept on the law
    builds = []
    init = distributions.TailMoments.__init__

    def counted(self, *args):
        builds.append(args[0])
        init(self, *args)

    monkeypatch.setattr(distributions.TailMoments, "__init__", counted)
    d = Beta(2.0, 3.0)
    g = make_test_function("x", d.effective_interval(1e-9))
    bound_equilibrium(d, g, branch="a", n_mc=10**3, seed=0)
    assert builds == [d]


def test_one_table_per_law(monkeypatch):
    # a law's zero-bias law, stop-loss, equilibrium law and NBUE/NWUE check
    # read the one tail-moment table of the law; no law is both centered
    # (zero-bias) and of positive mean on [0, inf) (equilibrium), so a
    # centered law and a nonnegative one are each tabulated once
    builds = []
    init = distributions.TailMoments.__init__

    def counted(self, *args):
        builds.append(args[0])
        init(self, *args)

    monkeypatch.setattr(distributions.TailMoments, "__init__", counted)
    c, d = centered(Gamma(2.0, 1.0)), Gamma(2.0, 1.0)
    zero_bias(c)
    stop_loss(c, 0.5)
    equilibrium(d)
    stop_loss(d, 0.5)
    check_nbue_nwue(d)
    assert builds == [c, d]


def test_a_law_and_its_table_form_no_reference_cycle():
    # the table holds its law weakly: dropping the law and its zero-bias
    # law frees both at once, without the cycle collector
    d = centered(Gamma(2.0, 1.0))
    alive = weakref.ref(d)
    gc.disable()
    try:
        d.tail_moments()
        zb = zero_bias(d)
        del d, zb
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("law", [lambda: Pareto(3.0, 1.0), lambda: Gamma(2.0, 1.0)],
                         ids=["pareto", "gamma"])
def test_nbue_check_cost(monkeypatch, law):
    # the check reads the base's one table: 93,472 and 50,464 density
    # points, where a linspace table of the equilibrium cdf once took
    # 3,821,979 and 1,014,171
    points = []
    for cls in (distributions._StandardLaw, EquilibriumDistribution):
        density = cls.density
        monkeypatch.setattr(cls, "density", lambda self, x, f=density:
                            points.append(np.size(x)) or f(self, x))
    check_nbue_nwue(law())
    assert sum(points) <= 150_000


EQ_LAWS = {"pareto-3": Pareto(3.0, 1.0), "pareto-2.5": Pareto(2.5, 1.0),
           "inverse-gamma": InverseGamma(5.0, 3.0), "gamma-0.5": Gamma(0.5, 1.0),
           "exp": Exponential(1.0)}


@pytest.mark.parametrize("base", EQ_LAWS.values(), ids=EQ_LAWS)
def test_equilibrium_quantile_inverts_its_cdf(base):
    eq = equilibrium(base)
    p = np.array([1e-6, 0.01, 0.1, 0.5, 0.9, 0.99])
    assert np.max(np.abs(eq.cdf(eq.quantile(p)) - p)) <= 1e-5


def test_equilibrium_quantile_of_pareto():
    # F^e(x) = lambda x below the base's support [1, inf), lambda = 2/3
    assert equilibrium(Pareto(3.0, 1.0)).quantile(0.5) == pytest.approx(0.75, abs=1e-6)


@pytest.mark.parametrize("base", [Pareto(3.0, 1.0), Pareto(2.5, 1.0)],
                         ids=["pareto-3", "pareto-2.5"])
def test_equilibrium_mean_is_second_moment_over_twice_the_mean(base):
    m2 = base.var() + base.mean() ** 2
    assert equilibrium(base).expect(lambda x: x) == pytest.approx(
        m2 / (2.0 * base.mean()), abs=1e-9)


def test_equilibrium_of_a_law_of_atoms_has_unit_mass():
    # expect is cut at the atoms, where the density lambda P(W > x) jumps
    eq = equilibrium(GeometricCount(0.5))
    assert eq.expect(lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-12)


def test_zero_bias_sampling():
    spec = zero_bias(Gaussian(0.0, 1.0))
    x = spec.sample(rng_stream(3, 0), 100000)
    assert np.mean(x) == pytest.approx(0.0, abs=0.02)
    assert np.var(x) == pytest.approx(1.0, abs=0.03)


def test_stop_loss_point_mass():
    d = point_mass(3.0)
    for t in (0.0, 2.0, 3.0, 5.0):
        assert stop_loss(d, t) == pytest.approx(max(3.0 - t, 0.0), abs=1e-12)


def test_stop_loss_uniform():
    d = Uniform(0.0, 1.0)
    # E(X - t)+ = (1 - t)^2 / 2 on [0, 1]
    for t in (0.0, 0.25, 0.9):
        assert stop_loss(d, t) == pytest.approx((1 - t) ** 2 / 2.0, abs=1e-9)


def test_stop_loss_gamma_closed_form():
    # E(X - t)+ = (k/b) SF_{k+1}(t) - t SF_k(t) for X ~ Gamma(k, rate b)
    k, b = 2.0, 1.5
    t = np.array([-1.0, 0.0, 0.3, 1.0, 2.5, 8.0, 30.0])
    expected = np.where(t < 0, k / b - t,
                        k / b * gamma.sf(t, k + 1, scale=1 / b)
                        - t * gamma.sf(t, k, scale=1 / b))
    np.testing.assert_allclose(stop_loss(Gamma(k, b), t), expected,
                               rtol=1e-7, atol=1e-10)


def test_tables_make_no_quadrature_calls(monkeypatch):
    # building and reading the tail-moment tables is vectorised: the number
    # of adaptive quadrature calls depends on neither the node count nor
    # the number of points read
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (numerics, distributions, kernels, transforms):
        for name in ("integrate", "integrate_soft"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(getattr(module, name)))
    d = Gamma(2.0, 1.0)

    def count(nodes, points):
        calls.clear()
        xs = np.linspace(0.0, 8.0, points)
        integral_kernel(d, grid_points=nodes)(xs)
        star = ZeroBiasDistribution(centered(d))
        star.density(xs - 2.0)
        star.cdf(xs - 2.0)
        eq = EquilibriumDistribution(d)
        eq.survival(xs)
        eq.quantile(0.5)
        return len(calls)

    assert count(128, 16) == count(1024, 256)


def test_stop_loss_of_zero_bias_two_point():
    # W* is uniform on (-a, b): closed stop-loss (b - t)^2 / (2 (a + b))
    star = zero_bias(two_point(1.0, 2.0))
    for t in (-0.5, 0.0, 1.0):
        assert stop_loss(star, t) == pytest.approx(
            (2.0 - t) ** 2 / 6.0, abs=1e-9)


def test_stop_loss_of_zero_bias_gaussian():
    # W* = W on N(0, 1): E[(W - t)_+] = phi(t) - t (1 - Phi(t)), at the
    # table's nodes and between them
    star = zero_bias(Gaussian(0.0, 1.0))
    t = np.concatenate([np.linspace(-4.0, 4.0, 161),
                        np.linspace(-4.0, 4.0, 37) + 0.0123])
    exact = norm.pdf(t) - t * norm.sf(t)
    assert np.max(np.abs(stop_loss(star, t) - exact)) < 1e-8


def test_equilibrium_exponential_fixed_point():
    spec = equilibrium(Exponential(2.0))
    assert spec.lam == pytest.approx(2.0)
    xs = np.linspace(0.0, 5.0, 20)
    assert np.max(np.abs(np.asarray(spec.cdf(xs))
                         - (1 - np.exp(-2 * xs)))) <= 1e-9


def test_equilibrium_uniform():
    # density of the equilibrium law of U[0,2] is (1 - x/2), cdf x - x^2/4
    spec = equilibrium(Uniform(0.0, 2.0))
    for x in (0.2, 1.0, 1.7):
        assert spec.density(x) == pytest.approx(1 - x / 2.0, rel=1e-9)
        assert spec.cdf(x) == pytest.approx(x - x * x / 4.0, abs=1e-9)


def test_equilibrium_rejects_nonpositive_mean():
    with pytest.raises(Exception):
        equilibrium(centered(Uniform(0.0, 2.0)))


_P, _N = 0.3, 30
_A, _B = 3.091288902539974, 0.8653750559664671
_BERNOULLI_GAP = (_P * _P + (1 - _P) ** 2) / (2.0 * math.sqrt(_N * _P * (1 - _P)))


@pytest.mark.parametrize("base, gap, tol", [
    # W* = W: the normal law is the transform's fixed point
    (Gaussian(0.0, 1.0), 0.0, 1e-9),
    # W* = W + (Gamma(3, 1) - Gamma(2, 1)) in law, stochastically larger
    (centered(Gamma(2.0, 1.0)), 1.0, 1e-8),
    # W* has density 6 (1/4 - w^2): twice int_0^1/2 (w/2 - 2 w^3) dw
    (centered(Uniform(0.0, 1.0)), 1.0 / 16.0, 1e-12),
    # W* is uniform on [-a, b], and F = b/(a + b) there: (a^2 + b^2)/(2(a + b))
    (two_point(1.0, 2.0), 5.0 / 6.0, 1e-12),
    # here the kink of |F* - F|, at b - a, fell next to the end of a bisected
    # panel, where both Gauss-Legendre rules missed it alike: 5e-9 too low
    (two_point(_A, _B), (_A * _A + _B * _B) / (2.0 * (_A + _B)), 1e-12),
    (sum_of_independents([standardized_bernoulli(_P, _N)] * _N),
     _BERNOULLI_GAP, 1e-10 * _BERNOULLI_GAP),
], ids=["normal", "gamma", "uniform", "two-point", "two-point-kink",
        "bernoulli-sum"])
def test_w1_gap_matches_closed_forms(base, gap, tol):
    assert zero_bias(base).e_abs_gap() == pytest.approx(gap, abs=tol)


def _w1_of_atoms(vals, probs):
    """int |F* - F| for a centered law of atoms alone, panel by panel
    between atoms: F is constant there and F* = (L2 - w L1) / sigma^2 is
    linear, so each panel's integral of |F* - F| is closed-form."""
    s2 = probs @ vals**2
    f = np.cumsum(probs)
    d = (np.cumsum(probs * vals**2) - vals * np.cumsum(probs * vals)) / s2 - f
    d0, d1 = d[:-1], d[1:] + probs[1:]  # F* - F at both ends of each panel
    ends = np.abs(d0) + np.abs(d1)
    # int |F* - F| is h ends / 2, or h (d0^2 + d1^2) / (2 ends) across a zero
    ends = np.divide(d0**2 + d1**2, ends, out=ends, where=d0 * d1 < 0)
    return float(np.diff(vals) @ ends / 2.0)


_ATOMS = rng_stream(3, 0).normal(size=40)
_PROBS = rng_stream(3, 1).uniform(size=40)


@pytest.mark.parametrize("base", [
    permutation_statistic(rng_stream(1, 20).integers(0, 10, size=(8, 8))).standardized(),
    DiscreteDistribution(_ATOMS - _PROBS @ _ATOMS / _PROBS.sum(), _PROBS / _PROBS.sum())],
    ids=["permutation", "discrete-empirical"])
def test_w1_gap_matches_the_exact_sum_over_atoms(base):
    # the standardized permutation statistic reads its atoms through an
    # affine map, which rounds them to either side of the table's nodes
    exact = _w1_of_atoms(*base.atoms())
    assert zero_bias(base).e_abs_gap() == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("base, mean_gap", [
    (centered(Pareto(3.5, 1.0)), 3.6), (centered(InverseGamma(5.0, 3.0)), 0.75)],
    ids=["pareto", "inverse-gamma"])
def test_w1_gap_is_at_least_the_gap_of_the_means(base, mean_gap):
    # W1 >= |E[W*] - E[W]| = E[W^3] / (2 sigma^2); the table's range alone
    # misses mass beyond it (0.7499996 on the inverse gamma)
    assert zero_bias(base).e_abs_gap() >= mean_gap


def test_w1_gap_refuses_an_infinite_third_moment():
    # E|W|^3 = inf on Pareto(3): the tails beyond the table diverge
    t0 = time.perf_counter()
    with pytest.raises(NumericsError):
        zero_bias(centered(Pareto(3.0, 1.0))).e_abs_gap()
    assert time.perf_counter() - t0 < 1.0


def test_zero_bias_sum_gap_closed_form():
    n, p = 30, 0.3
    q = 1.0 - p
    coup = zero_bias_sum([standardized_bernoulli(p, n)] * n)
    gap, se = coup.mean_abs_gap(rng_stream(42, 0), 200000)
    expected = (p * p + q * q) / (2.0 * math.sqrt(n * p * q))
    assert gap == pytest.approx(expected, abs=4 * se)


def test_zero_bias_sum_variance_matches():
    n, p = 10, 0.5
    parts = [standardized_bernoulli(p, n)] * n
    coup = zero_bias_sum(parts)
    w = sum_of_independents(parts)
    assert w.var() == pytest.approx(1.0, rel=1e-12)
    assert coup.sigma2 == pytest.approx(1.0, rel=1e-12)


def _materialised_joint_sample(coup, rng, size):
    # every group's quantiles at every uniform, picked by the group index k:
    # the formula that joint_sample evaluates on each group's own draws
    k = rng.choice(len(coup.laws), size=size, p=coup.weights)
    u = rng.uniform(size=size)
    cols = np.arange(size)
    x = np.stack([p.quantile(u) for p in coup.laws])[k, cols]
    x_star = np.stack([s.quantile(u) for s in coup.stars])[k, cols]
    return x, x_star, np.abs(x_star - x)


@pytest.mark.parametrize("parts,size", [
    ([standardized_bernoulli(0.3, 30)] * 30, 10**5),
    ([standardized_bernoulli(0.4, 1)], 10**4),
    # unequal variances, and continuous parts read from tabulated quantiles
    ([standardized_bernoulli(0.3, 4), centered(Uniform(0.0, 3.0)),
      centered(Gamma(2.0, 1.0)), two_point(1.0, 2.0)], 10**4),
], ids=["bernoulli-30", "single-part", "mixed"])
def test_joint_sample_streams_the_materialised_draws(parts, size):
    coup = zero_bias_sum(parts)
    # one group per distinct part object, weighted by its variance share
    shares = [sum(p.var() for p in parts if p is law) for law in coup.laws]
    assert coup.weights == pytest.approx(np.array(shares) / coup.sigma2, rel=1e-14)
    assert len(coup.laws) == len({id(p) for p in parts})
    rng, ref_rng = rng_stream(7, 11), rng_stream(7, 11)
    got = coup.joint_sample(rng, size)
    ref = _materialised_joint_sample(coup, ref_rng, size)
    for a, b in zip(got, ref):
        assert a.tobytes() == b.tobytes()
    # the generator is left where the materialised draws leave it
    assert rng.uniform(size=5).tobytes() == ref_rng.uniform(size=5).tobytes()


def _joint_sample_peak(n_parts, size):
    coup = zero_bias_sum([standardized_bernoulli(0.3, n_parts)] * n_parts)
    rng = rng_stream(1, 11)
    tracemalloc.start()
    try:
        coup.joint_sample(rng, size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_joint_sample_memory_does_not_grow_with_parts():
    size = 2 * 10**5
    peak5, peak30 = _joint_sample_peak(5, size), _joint_sample_peak(30, size)
    assert peak30 <= 12 * 8 * size
    assert abs(peak30 - peak5) <= 0.1 * peak5


def test_zero_bias_sum_gap_golden_value():
    # pins the draw stream: any change of layout or rounding order moves it
    coup = zero_bias_sum([standardized_bernoulli(0.3, 30)] * 30)
    assert coup.mean_abs_gap(rng_stream(42, 11), 10**5) == (
        0.11580280013362498, 0.00024983907100085555)


@pytest.mark.parametrize("parts", [
    [standardized_bernoulli(0.3, 30)] * 30,
    [standardized_bernoulli(0.3, 20)] * 10 + [two_point(1.0, 2.0)] * 10,
], ids=["one-group", "two-groups"])
def test_joint_sample_draws_two_uniforms_per_draw(parts):
    # the index and one uniform per draw, whatever the number of parts
    size = 1000
    rng, ref = rng_stream(3, 11), rng_stream(3, 11)
    zero_bias_sum(parts).joint_sample(rng, size)
    ref.bit_generator.advance(2 * size)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_zero_bias_sum_builds_one_law_per_distinct_part(monkeypatch):
    calls = []
    build = transforms.zero_bias
    monkeypatch.setattr(transforms, "zero_bias",
                        lambda d: calls.append(d) or build(d))
    part = standardized_bernoulli(0.3, 30)
    coup = zero_bias_sum([part] * 30)
    assert calls == [part]
    assert coup.weights.tolist() == [1.0]

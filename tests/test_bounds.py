import json
import math

import numpy as np
import pytest

from steinbounds.bounds import (DEFAULT_REL_TOL, MOMENT_REL_TOL, BoundError,
                                SteinCoupling,
                                bound_cacoullos, bound_convex_order,
                                bound_equilibrium, bound_generic,
                                bound_smoothed, bound_zero_bias,
                                bound_zero_bias_remainder, mc_variance)
from steinbounds.distributions import (Beta, Exponential, Gamma, Gaussian,
                                       InverseGamma, Pareto, Uniform,
                                       centered, permutation_statistic,
                                       standardized_bernoulli,
                                       sum_of_independents, two_point)
from steinbounds.exprfn import make_test_function
from steinbounds.kernels import pearson_kernel, smooth
from steinbounds.numerics import Interval, rng_stream
from steinbounds.transforms import zero_bias

GAUSS = Gaussian(0.0, 1.0)
IV8 = Interval(-8.0, 8.0)


def test_cacoullos_gaussian_linear():
    g = make_test_function("x", IV8)
    rep = bound_cacoullos(GAUSS, pearson_kernel(GAUSS), g, rel_tol=1e-9,
                          n_mc=10**4, seed=0)
    assert rep.lower == pytest.approx(1.0, abs=1e-9)
    assert rep.upper == pytest.approx(1.0, abs=1e-9)
    assert rep.hypotheses_hold
    assert rep.meta["route"] == "quadrature"


def test_report_serializable():
    g = make_test_function("sin(x)", IV8)
    rep = bound_cacoullos(GAUSS, pearson_kernel(GAUSS), g, n_mc=10**4, seed=1)
    payload = json.dumps(rep.to_dict())
    back = json.loads(payload)
    assert back["method"] == "cacoullos"
    assert back["lower"] <= back["upper"]


def test_zero_bias_gaussian_sin():
    g = make_test_function("sin(x)", IV8)
    rep = bound_zero_bias(zero_bias(GAUSS), g, n_mc=10**5, seed=2)
    assert rep.lower <= rep.mc_variance + 4 * rep.mc_se
    assert rep.mc_variance <= rep.upper + 4 * rep.mc_se
    # for the gaussian fixed point both sides reduce to E[cos]^2 / E[cos^2]
    e_cos = math.exp(-0.5)
    assert rep.lower == pytest.approx(e_cos ** 2, abs=1e-5)


def test_zero_bias_remainder_takes_the_w1_gap():
    # without a gap the bound takes the Wasserstein-1 distance of W and W*,
    # which is 0 for the normal law, the fixed point of the transform
    g = make_test_function("sin(x)", IV8)
    rep = bound_zero_bias_remainder(GAUSS, g, n_mc=1000)
    assert rep.meta["gap_source"] == "wasserstein-1"
    assert 0.0 <= rep.diagnostics["e_abs_gap"] <= 1e-9
    assert set(rep.diagnostics) == {"e_abs_gap", "sup_g1g2"}


def test_zero_bias_remainder_bernoulli_sum():
    n, p = 30, 0.3
    q = 1.0 - p
    parts = [standardized_bernoulli(p, n)] * n
    w = sum_of_independents(parts)
    g = make_test_function("sin(x)", IV8)
    gap = (p * p + q * q) / (2.0 * math.sqrt(n * p * q))
    rep = bound_zero_bias_remainder(w, g, e_abs_gap=gap, n_mc=10**5, seed=3)
    assert rep.remainder == pytest.approx(2.0 * g.sup_g1g2 * gap, rel=1e-9)
    assert rep.mc_variance <= rep.upper + 4 * rep.mc_se
    assert rep.meta["gap_source"] == "given"
    # the Wasserstein-1 route agrees with the closed-form gap
    rep2 = bound_zero_bias_remainder(w, g, n_mc=10**5, seed=3)
    assert rep2.meta["gap_source"] == "wasserstein-1"
    assert rep2.diagnostics["e_abs_gap"] == pytest.approx(gap, rel=1e-10)
    assert rep2.upper == pytest.approx(rep.upper, rel=1e-10)


def test_permutation_statistic_beyond_enumeration_takes_the_mc_route():
    # n = 10 has 10! values, too many to enumerate: the law has no atoms
    stat = permutation_statistic(rng_stream(10, 1).integers(0, 10, size=(10, 10)))
    assert len(stat.atoms()[0]) == 0
    g = make_test_function("sin(x)", IV8)
    rep = bound_zero_bias_remainder(stat.standardized(), g, e_abs_gap=0.1,
                                    n_mc=1000)
    assert rep.meta["route"] == "mc"


def test_convex_order_emitted():
    d = two_point(1.0, 1.0)
    g = make_test_function("x^2/2", Interval(-1.0, 1.0))
    rep = bound_convex_order(d, g, n_mc=10**4, seed=4)
    assert rep.hypotheses_hold
    assert rep.upper == pytest.approx(1.0, rel=1e-9)  # sigma^2 E[g'^2] = E[x^2]
    assert rep.lower is None


def test_convex_order_withheld_on_nonconvex_g():
    d = two_point(1.0, 1.0)
    g = make_test_function("sin(x)", Interval(-1.0, 1.0))
    rep = bound_convex_order(d, g, n_mc=10**4, seed=4)
    assert not rep.hypotheses_hold
    assert rep.upper is None
    assert "withheld_upper" in rep.diagnostics


def test_equilibrium_branch_validation():
    g = make_test_function("x", Interval(0.0, 10.0))
    with pytest.raises(BoundError):
        bound_equilibrium(Exponential(1.0), g, branch="c")
    with pytest.raises(BoundError):
        bound_equilibrium(GAUSS, g, branch="a")  # negative support


def test_equilibrium_uniform_branch_a():
    # U[0,2] is NBUE and h is increasing for g = x, so the upper emits:
    # lambda^-1 E[W g'^2] = E[W] = 1 >= Var = 1/3
    d = Uniform(0.0, 2.0)
    g = make_test_function("x", Interval(0.0, 2.0))
    rep = bound_equilibrium(d, g, branch="a", n_mc=10**5, seed=5)
    assert rep.upper == pytest.approx(1.0, rel=1e-9)
    assert rep.mc_variance <= rep.upper + 4 * rep.mc_se


def test_generic_coupling_zero_bias():
    # gamma = identity, T1 = sigma^2, T2 = W*: the generic machinery must
    # reproduce the zero-bias sandwich around Var[sin(W)]
    star = zero_bias(GAUSS)
    g = make_test_function("sin(x)", IV8)

    def sampler(rng, size):
        w = GAUSS.sample(rng, size)
        t2 = star.sample(rng, size)
        return w, np.ones(size), t2

    c = SteinCoupling(gamma=lambda x: x, gamma_prime=lambda x: np.ones_like(x),
                      joint_sampler=sampler)
    rep = bound_generic(c, g, n_mc=10**5, seed=6)
    var = rep.mc_variance
    assert rep.lower - 4 * rep.mc_se <= var <= rep.upper + 4 * rep.mc_se


def test_smoothed_claims():
    s = smooth(two_point(1.0, 1.0), 0.5)
    g = make_test_function("x", Interval(-4.0, 4.0))
    up = bound_smoothed(s, g, claim="i", n_mc=10**5, seed=7)
    # E[tau_eps] * 1 = 1 + eps^2 and Var[g(Y)] = 1
    assert up.upper == pytest.approx(1.25, abs=1e-6)
    assert up.mc_variance <= up.upper + 4 * up.mc_se
    lo = bound_smoothed(s, g, claim="ii", n_mc=10**5, seed=8)
    if lo.lower is not None:
        assert lo.lower - 4 * lo.mc_se <= lo.mc_variance
    with pytest.raises(BoundError):
        bound_smoothed(s, g, claim="iii")


# (law, g, whether E[g(W)^4] is finite).  Near the threshold: Pareto(3)
# has moments below 3, InverseGamma(a) below a.
FOURTH_MOMENT_CASES = [
    (Pareto(3.0, 1.0), "x", False),
    (centered(Pareto(3.0, 1.0)), "x", False),
    (Pareto(3.0, 1.0), "x^0.75", False),
    (Pareto(3.0, 1.0), "x^0.7", True),
    (InverseGamma(6.0, 6.0), "x + x^2/8", False),
    (InverseGamma(4.0, 3.0), "x", False),
    (InverseGamma(4.2, 3.0), "x", True),
    (InverseGamma(5.0, 3.0), "x", True),
    # light tails under a fast g: E[exp(4W)] and E[exp(W^2/2)] are infinite
    (Exponential(1.0), "exp(x)", False),
    (Gamma(2.0, 1.0), "exp(x)", False),
    (Exponential(1.0), "2*exp(x/2)", False),
    (Exponential(1.0), "exp(x/4)", False),
    (Gaussian(0.0, 1.0), "exp(x^2/8)", False),
    *((Pareto(3.0, 1.0), g_src, True) for g_src in
      ("sin(x)/(1+x^2)", "x/(1+x^2)", "exp(-x^2)", "sin(x)")),
    *((d, g_src, True)
      for d in (Gaussian(0.0, 1.0), Beta(4.0, 8.0), Gamma(2.0, 1.0),
                Exponential(1.0), Uniform(0.0, 1.0))
      for g_src in ("x", "x + x^2/8")),
    *((d, "exp(x)", True)
      for d in (Gaussian(0.0, 1.0), Beta(4.0, 8.0), Uniform(0.0, 1.0))),
]


def test_fourth_moment_gate():
    # the error bar is null exactly where E[g(W)^4] is not shown finite
    for d, g_src, finite in FOURTH_MOMENT_CASES:
        g = make_test_function(g_src, d.effective_interval(1e-9))
        var, se, ci = mc_variance(d, g, 0, 1000)
        assert math.isfinite(var), (d, g_src)
        assert (se is not None) == (ci is not None) == finite, (d, g_src)


def test_inverse_gamma_sample_within_exact_error_bar():
    # at this seed the sample's own fourth moment put s^2 5.1 standard
    # errors below Var[W] = 0.1875; the exact standard error puts it 2.3 below
    d = InverseGamma(5.0, 3.0)
    g = make_test_function("x", d.effective_interval(1e-9))
    var, se, _ = mc_variance(d, g, 1218, 10**4)
    assert abs(var - d.var()) <= 4 * se


def test_gated_report_has_no_error_bar():
    d = Pareto(3.0, 1.0)
    g = make_test_function("x", d.effective_interval(1e-9))
    rep = bound_cacoullos(d, pearson_kernel(d), g, n_mc=10**4, seed=0)
    assert rep.mc_se is None and rep.mc_ci99 is None
    assert "infinite" in rep.meta["mc_se_note"]
    back = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert back["mc_se"] is None and back["mc_ci99"] is None
    assert math.isfinite(back["mc_variance"])


@pytest.mark.parametrize("gap", [-1.0, math.nan, math.inf])
def test_zero_bias_remainder_rejects_invalid_gap(gap):
    g = make_test_function("sin(x)", IV8)
    with pytest.raises(BoundError):
        bound_zero_bias_remainder(GAUSS, g, e_abs_gap=gap, n_mc=100)


class _ShapeRecorder(Gaussian):
    """A normal law that records, per expectation, its tolerance and the
    shapes of the integrand's values."""

    def __init__(self):
        super().__init__(0.0, 1.0)
        self.calls = []

    def expect(self, f, rel_tol=1e-9, points=None):
        shapes = set()
        self.calls.append((rel_tol, shapes))

        def recorded(x):
            y = f(x)
            shapes.add(np.shape(y)[1:])
            return y
        return super().expect(recorded, rel_tol=rel_tol, points=points)


def test_one_expectation_per_bound_and_only_promised_columns():
    # the bound's sides are one expectation of only the promised columns,
    # and the oracle's error bar one expectation of the moments mu2, mu4
    g = make_test_function("sin(x)", IV8)
    oracle = (MOMENT_REL_TOL, {(2,)})
    two = _ShapeRecorder()
    rep = bound_cacoullos(two, pearson_kernel(two), g, n_mc=100)
    assert two.calls == [(DEFAULT_REL_TOL, {(2,)}), oracle]
    assert rep.lower is not None and rep.upper is not None
    one = _ShapeRecorder()
    bound_convex_order(one, g, n_mc=100)
    assert one.calls[-2:] == [(DEFAULT_REL_TOL, {()}), oracle]
    assert all(shapes == {()} for _, shapes in one.calls[:-1])


def test_cacoullos_matches_scalar_expectations():
    d = Gamma(3.0, 2.0)
    k = pearson_kernel(d)
    g = make_test_function("sin(x)", d.effective_interval(1e-9))
    rep = bound_cacoullos(d, k, g, rel_tol=1e-9, n_mc=100)
    e1 = d.expect(lambda x: k(x) * g.g1(x), rel_tol=1e-10)
    e2 = d.expect(lambda x: k(x) * g.g1(x) ** 2, rel_tol=1e-10)
    assert rep.upper == pytest.approx(e2, rel=1e-8)
    assert rep.lower == pytest.approx(e1 * e1 / d.var(), rel=1e-8)


def test_bound_on_sampler_only_law_takes_the_mc_route():
    # a sum of two normals has no density here: one MC expectation with
    # the identity g and the constant kernel Var[W] gives lower = upper
    d = sum_of_independents([Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)])
    k = pearson_kernel(Gaussian(1.0, 3.0))
    rep = bound_cacoullos(d, k, make_test_function("x", IV8), n_mc=1000)
    assert rep.meta["route"] == "mc"
    assert rep.lower == pytest.approx(3.0, rel=1e-12)
    assert rep.upper == pytest.approx(3.0, rel=1e-12)

import math

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from steinbounds import distributions, numerics
from steinbounds.distributions import (Beta, DistributionError, Exponential,
                                       Gamma, Gaussian, GeometricCount,
                                       InvalidParameter, InverseGamma, Pareto,
                                       Uniform, centered, make, parse_dist,
                                       permutation_statistic, point_mass,
                                       random_sum, standardized_bernoulli,
                                       sum_of_independents, two_point)
from steinbounds.numerics import rng_stream
from steinbounds.transforms import zero_bias


def test_closed_form_moments():
    assert Gaussian(2.0, 9.0).mean() == 2.0
    assert Gaussian(2.0, 9.0).var() == 9.0
    assert Beta(4.0, 8.0).mean() == pytest.approx(4.0 / 12.0)
    assert Beta(4.0, 8.0).var() == pytest.approx(32.0 / (144.0 * 13.0))
    assert Gamma(2.0, 3.0).mean() == pytest.approx(2.0 / 3.0)
    assert InverseGamma(5.0, 3.0).mean() == pytest.approx(3.0 / 4.0)
    assert Pareto(3.0, 1.0).mean() == pytest.approx(1.5)
    assert Exponential(2.0).var() == pytest.approx(0.25)
    assert Uniform(0.0, 2.0).var() == pytest.approx(4.0 / 12.0)


def test_cdf_quantile_roundtrip():
    for d in (Gaussian(0.0, 1.0), Gamma(2.0, 1.0), Uniform(-1.0, 3.0)):
        for p in (0.05, 0.4, 0.95):
            assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-10)


def test_expect_matches_moments():
    for d in (Gaussian(1.0, 4.0), Beta(4.0, 8.0), Exponential(1.0),
              two_point(1.0, 2.0), GeometricCount(0.5)):
        assert d.expect(lambda x: x) == pytest.approx(d.mean(), rel=1e-8)
        m = d.mean()
        assert d.expect(lambda x: (x - m) ** 2) == pytest.approx(
            d.var(), rel=1e-8)


def test_two_point():
    d = two_point(1.0, 2.0)
    vals, probs = d.atoms()
    assert sorted(vals) == [-1.0, 2.0]
    assert d.mean() == pytest.approx(0.0, abs=1e-15)
    assert d.var() == pytest.approx(2.0)
    assert probs.sum() == pytest.approx(1.0)


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        Gaussian(0.0, -1.0)
    with pytest.raises(InvalidParameter):
        Beta(-1.0, 2.0)
    with pytest.raises(InvalidParameter):
        two_point(-1.0, 2.0)
    with pytest.raises(InvalidParameter):
        Uniform(2.0, 1.0)


def test_standardized_bernoulli_sum():
    parts = [standardized_bernoulli(0.3, 30)] * 30
    s = sum_of_independents(parts)
    assert s.mean() == pytest.approx(0.0, abs=1e-12)
    assert s.var() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("parts", [
    [standardized_bernoulli(0.3, 30)] * 30,
    # the five parts of the two-point-cx scenario
    [two_point(a, b) for a, b in
     ((1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (1.5, 1.5), (0.8, 0.8))],
], ids=["bernoulli-30", "two-point-5"])
def test_sum_atoms_keep_the_parts_moments(parts):
    # merged atoms sit at the mean of the sums they merge, not at a rounding
    s = sum_of_independents(parts)
    vals, probs = s.atoms()
    m = float(np.sum(vals * probs))
    assert abs(m - s.mean()) <= 1e-14
    assert abs(float(np.sum((vals - m) ** 2 * probs)) - s.var()) <= 1e-13
    assert np.all(np.diff(vals) > 0)


def test_sum_with_atoms_draws_one_uniform_per_draw():
    size = 1000
    rng, ref = rng_stream(5, 10), rng_stream(5, 10)
    sum_of_independents([standardized_bernoulli(0.3, 30)] * 30).sample(rng, size)
    ref.bit_generator.advance(size)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sum_with_atoms_draws_the_binomial_law():
    n, p = 30, 0.3
    s = sum_of_independents([standardized_bernoulli(p, n)] * n)
    x = s.sample(rng_stream(0, 10), 10**5)
    k = np.rint(x * math.sqrt(n * p * (1 - p)) + n * p).astype(int)
    counts = np.bincount(k, minlength=n + 1)
    expected = 10**5 * binom.pmf(np.arange(n + 1), n, p)
    # each tail pooled into the outermost bin of expected count >= 5
    lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]

    def pool(a):
        return np.concatenate([[a[:lo + 1].sum()], a[lo + 1:hi], [a[hi:].sum()]])
    assert chisquare(pool(counts), pool(expected)).pvalue > 1e-3


def test_sum_without_atoms_draws_part_by_part():
    parts = [Gaussian(0.0, 1.0), Exponential(2.0)]
    got = sum_of_independents(parts).sample(rng_stream(1, 10), 1000)
    rng = rng_stream(1, 10)
    total = np.zeros(1000)
    for part in parts:
        total = total + part.sample(rng, 1000)
    assert got.tobytes() == total.tobytes()


def test_geometric_count():
    # P(N = k) = (1 - rho) rho^k on k = 0, 1, 2, ...
    d = GeometricCount(0.5)
    assert d.mean() == pytest.approx(1.0)
    assert d.var() == pytest.approx(2.0)
    assert d.cdf(-0.5) == pytest.approx(0.0, abs=1e-15)
    assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-15)
    vals, probs = d.atoms()
    assert probs.sum() == pytest.approx(1.0, abs=1e-11)


def test_random_sum_moments():
    w = random_sum(GeometricCount(0.5), Exponential(1.0))
    # Wald: E[W] = E[N] E[X]; Var = E[N] Var[X] + Var[N] E[X]^2
    assert w.mean() == pytest.approx(1.0, rel=1e-8)
    assert w.var() == pytest.approx(3.0, rel=1e-8)


def test_permutation_statistic():
    rng = rng_stream(0, 0)
    a = rng.integers(0, 10, size=(6, 6)).astype(float)
    stat = permutation_statistic(a)
    a_hat = (a - a.mean(axis=1, keepdims=True)
             - a.mean(axis=0, keepdims=True) + a.mean())
    assert stat.var() == pytest.approx(float((a_hat ** 2).sum()) / 5.0,
                                       rel=1e-12)


def test_affine_law_of_atoms_reads_its_own_atoms():
    # the standardized statistic of `verify permutation --seed 1`: read
    # through the affine map, which rounds, one of its 48 atoms once gave
    # F(x-), 0.00226 short
    a = rng_stream(1, 20).integers(0, 10, size=(8, 8)).astype(float)
    z = permutation_statistic(a).standardized()
    vals, probs = z.atoms()
    assert len(vals) == 48
    assert z.cdf(vals).tolist() == np.cumsum(probs).tolist()
    assert z.survival(vals).tolist() == (1.0 - np.cumsum(probs)).tolist()


def test_table_reads_the_density_in_chunks_to_the_byte(monkeypatch):
    # the table reads its panels' density QUAD_CHUNK points at a time,
    # which bounds peak memory; one read of every panel gives the same bytes
    d = Gamma(2.0, 1.0)
    chunked = distributions.TailMoments(d, 0.0, 30.0, 2048)
    assert len(chunked.xs) > 4 * numerics.QUAD_CHUNK // 16
    monkeypatch.setattr(distributions, "QUAD_CHUNK", 10**9)
    whole = distributions.TailMoments(d, 0.0, 30.0, 2048)
    assert chunked._coef.tobytes() == whole._coef.tobytes()
    assert chunked.total.tobytes() == whole.total.tobytes()


def test_centered():
    c = centered(Exponential(1.0))
    assert c.mean() == pytest.approx(0.0, abs=1e-12)
    assert c.var() == pytest.approx(1.0, rel=1e-12)
    g = Gaussian(0.0, 1.0)
    assert centered(g) is g  # already centered


def test_sampling_deterministic():
    d = Gamma(2.0, 1.0)
    x1 = d.sample(rng_stream(5, 1), 100)
    x2 = d.sample(rng_stream(5, 1), 100)
    assert np.array_equal(x1, x2)
    assert x1.shape == (100,)


def test_sample_moments_close():
    d = Beta(4.0, 8.0)
    x = d.sample(rng_stream(1, 0), 200000)
    assert x.mean() == pytest.approx(d.mean(), abs=0.005)
    assert x.var() == pytest.approx(d.var(), rel=0.05)


def test_parse_dist():
    d = parse_dist("beta:4,8")
    assert isinstance(d, Beta)
    assert parse_dist("exp:1").var() == pytest.approx(1.0)
    assert isinstance(parse_dist("normal:0,1"), Gaussian)
    assert isinstance(parse_dist("geometric:0.5"), GeometricCount)
    with pytest.raises(InvalidParameter):
        parse_dist("nonesuch:1,2")
    with pytest.raises(InvalidParameter):
        parse_dist("beta:4")


def test_point_mass():
    d = point_mass(3.0)
    assert d.mean() == 3.0
    assert d.var() == 0.0


def test_make_dispatch():
    assert isinstance(make("inverse-gamma", (5.0, 3.0)), InverseGamma)
    assert isinstance(make("invgamma", (5.0, 3.0)), InverseGamma)


def test_expect_requires_density_or_atoms():
    class Opaque(Exponential):
        has_density = False

        def atoms(self):
            return np.array([]), np.array([])

    with pytest.raises(DistributionError):
        Opaque(1.0).expect(lambda x: x)


def test_discrete_merges_equal_atoms():
    d = parse_dist("discrete-empirical:1,0.25,-1,0.5,1,0.25")
    vals, probs = d.atoms()
    assert list(vals) == [-1.0, 1.0]
    assert list(probs) == [0.5, 0.5]
    assert parse_dist("discrete-empirical:2,0.5,2,0.5").var() == 0.0


def test_expect_zero_density_weight_ignores_overflow():
    # x exp(x/2) overflows where the Exp(1) density has underflowed to 0
    with np.errstate(over="ignore", invalid="ignore"):
        value = Exponential(1.0).expect(lambda x: x * np.exp(x / 2))
    assert value == pytest.approx(4.0, rel=1e-9)


def test_mc_expect_vector_valued():
    d = sum_of_independents([Gaussian(0.0, 1.0), Exponential(2.0)])
    est, se = d.mc_expect(lambda x: np.stack([x, x * x], axis=-1),
                          rng_stream(0, 0), 10**5)
    assert est.shape == se.shape == (2,)
    # E[W] = 0.5, E[W^2] = Var + mean^2 = 1.25 + 0.25
    assert est == pytest.approx([0.5, 1.5], abs=5 * se.max())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_permutation_enumeration_matches_the_loop(n):
    # one fancy index over every permutation sums each in the order of the
    # loop over permutations it replaced, so the values are the same bytes
    from itertools import permutations
    rng = rng_stream(n, 0)
    a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
    rows = np.arange(n)
    loop = np.asarray([a[rows, list(p)].sum() for p in permutations(range(n))])
    assert permutation_statistic(a).enumerate_values().tobytes() == loop.tobytes()


@pytest.mark.parametrize("n", [3, 6, 9])
def test_permutation_atoms_match_the_formula_moments(n):
    # the n! values, merged into atoms, carry the closed-form moments, so the
    # standardized statistic has a zero-bias law
    stat = permutation_statistic(rng_stream(n, 1).integers(0, 10, size=(n, n)))
    vals, probs = stat.atoms()
    mean = probs @ vals
    assert mean == pytest.approx(stat.mean(), rel=1e-12)
    assert probs @ (vals - mean) ** 2 == pytest.approx(stat.var(), rel=1e-12)
    assert zero_bias(stat.standardized()).sigma2 == pytest.approx(1.0, rel=1e-12)


def test_permutation_sample_is_uniform_over_permutations():
    a = 2.0 ** np.arange(9.0).reshape(3, 3)  # distinct sums per permutation
    stat = permutation_statistic(a)
    draws = stat.sample(rng_stream(0, 0), 60000)
    values, counts = np.unique(draws, return_counts=True)
    assert sorted(values) == sorted(stat.enumerate_values())
    assert np.allclose(counts / 60000, 1.0 / 6.0, atol=0.01)

"""The Monte-Carlo oracle in blocks: per-draw transforms run through
numerics.blocked, whose block size must not change a single bit of any
result, and whose point is a bounded peak memory."""

import tracemalloc

import numpy as np
import pytest

from steinbounds import cli, numerics
from steinbounds.bounds import bound_cacoullos, mc_variance
from steinbounds.distributions import (_MAKERS, GeometricCount, Pareto,
                                       centered, make, random_sum,
                                       standardized_bernoulli,
                                       sum_of_independents, two_point)
from steinbounds.exprfn import make_test_function
from steinbounds.kernels import pearson_kernel, smooth
from steinbounds.numerics import Interval, blocked, rng_stream
from steinbounds.transforms import equilibrium, zero_bias, zero_bias_sum

# One law per catalog family, then the laws that sample through the
# inverse cdf or post-process another law's draws.
FAMILY_PARAMS = {
    "gaussian": (0.5, 2.0), "beta": (2.0, 3.0), "gamma": (2.5, 1.5),
    "inverse-gamma": (5.0, 3.0), "pareto": (3.0, 1.0), "exponential": (1.5,),
    "uniform": (-1.0, 2.0), "two-point": (1.0, 2.0),
    "standardized-bernoulli": (0.3, 10), "geometric-count": (0.5,),
    "point-mass": (1.5,), "discrete-empirical": (0.0, 0.25, 1.0, 0.75),
}
LAWS = {
    **{family: make(family, params) for family, params in FAMILY_PARAMS.items()},
    "zero-bias": zero_bias(make("gaussian", (0.0, 1.0))),
    "equilibrium": equilibrium(make("gamma", (2.0, 1.0))),
    "smoothed": smooth(two_point(1.0, 1.0), 0.5),
    "centered": centered(make("gamma", (2.0, 1.0))),
    "sum-of-atoms": sum_of_independents([standardized_bernoulli(0.3, 5)] * 5),
    "sum-of-parts": sum_of_independents([make("gaussian", (0.0, 1.0)),
                                         make("exponential", (1.0,))]),
    "random-sum": random_sum(GeometricCount(0.5), make("uniform", (0.0, 1.0))),
}

ARRAY_BYTES = 8 * 10**6  # one float array of n_mc = 10^6 draws


def at_both_blocks(monkeypatch, run):
    """run() with the default block and with blocks of 7 entries."""
    default = run()
    monkeypatch.setattr(numerics, "BLOCK", 7)
    return default, run()


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_blocked_reads_each_block_before_writing_it(monkeypatch):
    monkeypatch.setattr(numerics, "BLOCK", 7)
    x, c = np.arange(20.0), np.arange(20.0) % 3
    out = blocked(lambda a, b: a * b, x, c, out=x)
    assert out is x and np.array_equal(x, np.arange(20.0) * c)
    assert len(blocked(np.sin, np.empty(0))) == 0


def test_every_catalog_family_has_a_law_here():
    assert set(FAMILY_PARAMS) == set(_MAKERS)


@pytest.mark.parametrize("name", LAWS)
def test_sample_does_not_depend_on_the_block(monkeypatch, name):
    d = LAWS[name]
    default, small = at_both_blocks(
        monkeypatch, lambda: d.sample(rng_stream(3, 0), 1000))
    assert same_bits(default, small)


@pytest.mark.parametrize("name, g", [
    ("gaussian", "sin(x)"), ("pareto", "x"), ("inverse-gamma", "log(x)"),
    ("sum-of-atoms", "x^2"), ("random-sum", "exp(-x)"), ("smoothed", "x")])
def test_mc_variance_does_not_depend_on_the_block(monkeypatch, name, g):
    d = LAWS[name]
    tf = make_test_function(g, Interval(0.5, 5.0))
    default, small = at_both_blocks(monkeypatch,
                                    lambda: mc_variance(d, tf, 4, 2000))
    assert default == small


def test_cli_generic_report_does_not_depend_on_the_block(monkeypatch, tmp_path):
    def run():
        out = tmp_path / "generic.json"
        assert cli.main(["bound", "--dist", "normal:0,1.5", "--g", "sin(x)",
                         "--method", "generic", "--n-mc", "2000",
                         "--out", str(out)]) == 0
        return out.read_bytes()

    default, small = at_both_blocks(monkeypatch, run)
    assert default == small


@pytest.mark.parametrize("parts", [
    [standardized_bernoulli(0.3, 30)] * 30,
    [standardized_bernoulli(0.3, 4)] * 2 + [two_point(1.0, 2.0)] * 2],
    ids=["one-group", "two-groups"])
def test_mean_abs_gap_does_not_depend_on_the_block(monkeypatch, parts):
    coupling = zero_bias_sum(parts)
    default, small = at_both_blocks(
        monkeypatch, lambda: coupling.mean_abs_gap(rng_stream(5, 11), 2000))
    assert default == small


def test_verify_payload_does_not_depend_on_the_block(monkeypatch, tmp_path):
    def run():
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "all", "--seed", "42", "--out", str(out)]) == 0
        return out.read_bytes()

    default, small = at_both_blocks(monkeypatch, run)
    assert default == small


def traced_peak(run):
    """The tracemalloc peak, in bytes above the start, of run()."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_peak_memory_of_the_cacoullos_oracle():
    d = make("gaussian", (0.0, 1.0))
    k = pearson_kernel(d)
    g = make_test_function("sin(x)", d.effective_interval(1e-9))
    peak = traced_peak(lambda: bound_cacoullos(d, k, g, n_mc=10**6, seed=1))
    assert peak <= 2.5 * ARRAY_BYTES


def test_peak_memory_of_an_inverse_cdf_sample():
    d = Pareto(2.5, 1.0)
    peak = traced_peak(lambda: d.sample(rng_stream(1, 0), 10**6))
    assert peak <= 2.5 * ARRAY_BYTES


def test_peak_memory_of_the_cli_generic_bound(tmp_path):
    argv = ["bound", "--dist", "normal:0,1", "--g", "sin(x)", "--method",
            "generic", "--out", str(tmp_path / "generic.json")]
    peak = traced_peak(lambda: cli.main(argv))
    assert peak <= 4 * ARRAY_BYTES


def test_peak_memory_of_mean_abs_gap():
    coupling = zero_bias_sum([standardized_bernoulli(0.3, 30)] * 30)
    peak = traced_peak(lambda: coupling.mean_abs_gap(rng_stream(1, 11), 10**6))
    assert peak <= 4 * ARRAY_BYTES

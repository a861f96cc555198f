import math

import numpy as np
import pytest

from steinbounds.bounds import SteinCoupling, mc_variance
from steinbounds.distributions import Distribution, Gaussian, two_point
from steinbounds.numerics import rng_stream
from steinbounds.transforms import zero_bias
from steinbounds.verify import (MC_SIGMAS, SCENARIOS, UnknownScenario,
                                run_scenario)

GAUSS = Gaussian(0.0, 1.0)


# Per-test-function residuals of the defining coupling relation
# E[gamma(W) phi(W)] = E[T1 phi'(T2)], whose sign pattern must match the
# coupling's declared direction.

def phi_battery(d: Distribution, tail_mass: float = 1e-9):
    """The fixed test-function battery as (name, phi, dphi) triples.

    The cubic is clipped to the law's effective interval so that its
    expectations stay finite for heavy-tailed laws; clipping keeps phi
    absolutely continuous, so the coupling identities still hold exactly.
    """
    eff = d.effective_interval(tail_mass)
    lo, hi = eff.lo, eff.hi

    def clip(x):
        return np.clip(np.asarray(x, dtype=float), lo, hi)

    def cube(x):
        return clip(x) ** 3

    def dcube(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), 3.0 * x * x, 0.0)

    return [
        ("x", lambda x: np.asarray(x, dtype=float),
         lambda x: np.ones_like(np.asarray(x, dtype=float))),
        ("x^2", lambda x: np.asarray(x, dtype=float) ** 2,
         lambda x: 2.0 * np.asarray(x, dtype=float)),
        ("x^3-clipped", cube, dcube),
        ("sin", np.sin, np.cos),
        ("exp(-x^2)", lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
         lambda x: -2.0 * np.asarray(x, dtype=float)
         * np.exp(-np.asarray(x, dtype=float) ** 2)),
        ("log(1+x^2)", lambda x: np.log1p(np.asarray(x, dtype=float) ** 2),
         lambda x: 2.0 * np.asarray(x, dtype=float)
         / (1.0 + np.asarray(x, dtype=float) ** 2)),
    ]


def coupling_residual(c: SteinCoupling, battery, n: int, seed: int,
                      stream_id: int = 0):
    """Per-phi signed residual E[gamma(W) phi(W)] - E[T1 phi'(T2)] with SE.

    One shared sample of (W, T1, T2) triples is used for the whole table.
    An 'equality' coupling should show |z| small for every phi; a one-sided
    coupling should show the matching sign (upper-only: residual <= 0
    within noise for the phi class it is declared for).
    """
    rng = rng_stream(seed, stream_id)
    w, t1, t2 = c.joint_sampler(rng, n)
    w = np.asarray(w, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    gamma_w = np.asarray(c.gamma(w), dtype=float)
    table = []
    for name, phi, dphi in battery:
        terms = gamma_w * np.asarray(phi(w), dtype=float) \
            - t1 * np.asarray(dphi(t2), dtype=float)
        res = float(terms.mean())
        se = float(terms.std(ddof=1) / math.sqrt(n))
        table.append({"phi": name, "residual": res, "se": se,
                      "z": res / se if se > 0 else 0.0})
    return table


def residual_pattern_ok(table, direction: str, sigmas: float = MC_SIGMAS):
    """Whether a residual table matches the declared coupling direction."""
    if direction == "equality":
        return all(abs(row["z"]) <= sigmas for row in table)
    if direction == "upper-only":
        return all(row["residual"] <= sigmas * row["se"] for row in table)
    if direction == "lower-only":
        return all(row["residual"] >= -sigmas * row["se"] for row in table)
    raise ValueError(f"unknown direction {direction!r}")


def test_scenario_catalog():
    assert set(SCENARIOS) == {"bernoulli-sum", "permutation", "two-point-cx",
                              "geometric-random-sum", "smoothing",
                              "conjugate"}


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run_scenario("nonesuch")


def test_mc_variance_gaussian_identity():
    est, _, ci = mc_variance(GAUSS, lambda x: x, 1, 10**5)
    assert abs(est - 1.0) <= ci


def test_phi_battery_shape():
    battery = phi_battery(GAUSS)
    assert len(battery) == 6
    for name, phi, dphi in battery:
        x = np.array([-0.5, 0.0, 1.2])
        assert np.all(np.isfinite(phi(x)))
        assert np.all(np.isfinite(dphi(x)))


def test_coupling_residual_zero_bias():
    star = zero_bias(GAUSS)

    def sampler(rng, size):
        w = GAUSS.sample(rng, size)
        return w, np.ones(size), star.sample(rng, size)

    c = SteinCoupling(gamma=lambda x: x,
                      gamma_prime=lambda x: np.ones_like(x),
                      joint_sampler=sampler)
    table = coupling_residual(c, phi_battery(GAUSS), n=10**5, seed=2)
    assert len(table) == 6
    assert residual_pattern_ok(table, "equality")
    for row in table:
        assert abs(row["z"]) <= 4.0, row


def test_two_point_cx_scenario():
    res = run_scenario("two-point-cx", seed=11)
    assert res.passed, [a.to_dict() for a in res.assertions if not a.passed]


def test_geometric_random_sum_scenario():
    res = run_scenario("geometric-random-sum", {"rho": 0.5}, seed=13)
    assert res.passed, [a.to_dict() for a in res.assertions if not a.passed]


def test_scenario_result_serialization():
    res = run_scenario("two-point-cx", seed=11)
    d = res.to_dict()
    assert d["scenario"] == "two-point-cx"
    assert "runtime" not in d  # payload stays byte-stable across machines
    assert all(set(a) >= {"name", "passed", "observed", "expected",
                          "tolerance"} for a in d["assertions"])


def test_scenario_determinism():
    r1 = run_scenario("bernoulli-sum", {"n_mc": 10**5}, seed=21)
    r2 = run_scenario("bernoulli-sum", {"n_mc": 10**5}, seed=21)
    assert r1.to_dict() == r2.to_dict()
    r3 = run_scenario("bernoulli-sum", {"n_mc": 10**5}, seed=22)
    assert r3.oracle["mc_variance"] != r1.oracle["mc_variance"]

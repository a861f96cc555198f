import numpy as np
import pytest

from steinbounds.bounds import SteinCoupling, mc_variance
from steinbounds.distributions import Gaussian, two_point
from steinbounds.transforms import zero_bias
from steinbounds.verify import (SCENARIOS, UnknownScenario,
                                coupling_residual, phi_battery,
                                residual_pattern_ok, run_scenario)

GAUSS = Gaussian(0.0, 1.0)


def test_scenario_catalog():
    assert set(SCENARIOS) == {"bernoulli-sum", "permutation", "two-point-cx",
                              "geometric-random-sum", "smoothing",
                              "conjugate"}


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run_scenario("nonesuch")


def test_mc_variance_gaussian_identity():
    est, _, ci = mc_variance(GAUSS.sample, lambda x: x, 1, 10**5)
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

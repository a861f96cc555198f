import pytest

from steinbounds.distributions import (DiscreteDistribution,
                                       DistributionError, Exponential,
                                       GeometricCount, Uniform, point_mass,
                                       random_sum, two_point)
from steinbounds.orderings import (check_counting_condition, check_cx,
                                   check_nbue_nwue, check_st)
from steinbounds.transforms import zero_bias


def test_st_order():
    assert check_st(Uniform(0.0, 1.0), Uniform(0.0, 2.0)).holds
    v = check_st(Uniform(0.0, 2.0), Uniform(0.0, 1.0))
    assert not v.holds
    assert v.max_violation > 0
    assert v.witness is not None


def test_cx_order():
    # a mean-zero law is dominated in convex order by the two-point law
    # on its extreme points
    assert check_cx(Uniform(-1.0, 1.0), two_point(1.0, 1.0)).holds
    assert not check_cx(two_point(1.0, 1.0), Uniform(-1.0, 1.0)).holds


def test_cx_requires_equal_means():
    with pytest.raises(DistributionError):
        check_cx(Uniform(0.0, 1.0), Uniform(0.0, 2.0))


def test_cx_zero_bias_of_symmetric_two_point():
    # W* is uniform on (-a, a), squeezed toward 0: W* <=_cx W
    star = zero_bias(two_point(1.0, 1.0))
    assert check_cx(star, two_point(1.0, 1.0)).holds


def test_nbue_nwue_catalog():
    nbue, nwue = check_nbue_nwue(Uniform(0.0, 1.0))
    assert nbue.holds and not nwue.holds
    nbue, nwue = check_nbue_nwue(Exponential(1.0))
    assert nbue.holds and nwue.holds
    assert nbue.max_violation == 0.0
    # geometric sums of exponentials are NWUE
    _, nwue = check_nbue_nwue(random_sum(GeometricCount(0.5),
                                         Exponential(1.0)))
    assert nwue.holds


def test_counting_condition():
    assert check_counting_condition(GeometricCount(0.5)).holds
    assert check_counting_condition(GeometricCount(0.9)).holds
    assert not check_counting_condition(
        DiscreteDistribution([3.0], [1.0])).holds


def test_verdict_to_dict():
    v = check_st(Uniform(0.0, 1.0), Uniform(0.0, 2.0))
    d = v.to_dict()
    assert d["verdict"] == "holds-on-grid"
    assert d["max_violation"] >= 0.0

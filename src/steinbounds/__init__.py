"""Variance bounds for functionals of random variables via Stein couplings.

The package computes two-sided bounds on Var[g(W)] through Stein kernels,
zero-bias and equilibrium transforms, stochastic-order hypotheses, and
conjugate Bayesian posteriors, and certifies every bound against
Monte-Carlo / quadrature oracles.  See the README for a tour.
"""

from .bounds import (BoundReport, HypothesisCheck, SteinCoupling,
                     bound_cacoullos, bound_convex_order, bound_equilibrium,
                     bound_generic, bound_smoothed, bound_zero_bias,
                     bound_zero_bias_remainder, mc_variance)
from .bayes import (PosteriorModel, posterior_bounds, summarize,
                    update as posterior_update)
from .distributions import Distribution, make as make_distribution, parse_dist
from .exprfn import TestFunction, make_test_function, named_test_function
from .kernels import (SteinKernel, integral_kernel, pearson_kernel, smooth,
                      smoothed_kernel)
from .numerics import Interval, rng_stream
from .orderings import (check_counting_condition, check_cx, check_nbue_nwue,
                        check_st)
from .transforms import equilibrium, stop_loss, zero_bias, zero_bias_sum
from .verify import run_all, run_scenario

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "HypothesisCheck", "SteinCoupling",
    "bound_cacoullos", "bound_convex_order", "bound_equilibrium",
    "bound_generic", "bound_smoothed", "bound_zero_bias",
    "bound_zero_bias_remainder",
    "PosteriorModel", "posterior_bounds", "posterior_update", "summarize",
    "Distribution", "make_distribution", "parse_dist",
    "TestFunction", "make_test_function", "named_test_function",
    "SteinKernel", "integral_kernel", "pearson_kernel", "smooth",
    "smoothed_kernel",
    "Interval", "rng_stream",
    "check_counting_condition", "check_cx", "check_nbue_nwue", "check_st",
    "equilibrium", "stop_loss", "zero_bias", "zero_bias_sum",
    "mc_variance", "run_all", "run_scenario",
    "__version__",
]

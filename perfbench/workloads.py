"""Request streams for the three benchmark workloads.

A workload is an endless sequence of *units*.  Every unit of a workload
holds the same request kinds in the same order; the benchmark seed and the
unit index only change the law parameters and the seeds handed to the
program.  The runner checks the clock between units, never inside one, so
every run measures whole units and its mix does not depend on where the
clock ran out.

Each request records the exit codes it may end with.  Requests that fail at
the commit the benchmark was written at carry the reason in
``known_failure``; they stay in the mix and are counted as failed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The five test functions of the repository's sandwich-soundness battery.
SANDWICH_G = ("x", "sin(x)/(1+x^2)", "log(1+x^2)", "x/(1+x^2)", "exp(-x^2)")

# Seeds for which `verify <scenario> --seed s` passes every assertion at the
# commit the benchmark was written at (checked for all six scenarios).
VERIFY_SEEDS = tuple(range(24))

VERIFY_SCENARIOS = ("bernoulli-sum", "permutation", "two-point-cx",
                    "geometric-random-sum", "smoothing", "conjugate")

# (pair, prior flags, summary flags) around the catalog's conjugate settings;
# the unit's random draws scale the prior and the data summary.
POSTERIOR_BASE = (
    ("gaussian-mean", {"mu": 0.0, "delta": 1.0, "sigma": 1.0},
     {"n": 4, "mean": 1.0}),
    ("gaussian-var", {"alpha": 3.0, "beta": 2.0, "mu": 0.0},
     {"n": 6, "sum-sq": 8.0}),
    ("binomial-beta", {"alpha": 1.0, "beta": 1.0}, {"n": 10, "x": 3}),
    ("negbinomial-beta", {"alpha": 2.0, "beta": 3.0, "r": 2.0},
     {"n": 4, "sum": 9.0}),
    ("weibull-inverse-gamma", {"alpha": 3.0, "beta": 2.0, "k": 1.5},
     {"n": 5, "sum-pow": 6.0}),
    ("gamma-gamma", {"alpha": 2.0, "beta": 1.0, "k": 1.5},
     {"n": 4, "sum": 7.0}),
    ("laplace-inverse-gamma", {"alpha": 2.5, "beta": 1.5, "mu": 0.0},
     {"n": 6, "sum-abs": 5.0}),
    ("poisson-gamma", {"alpha": 2.0, "beta": 1.0}, {"n": 5, "sum": 11.0}),
    ("uniform-pareto", {"alpha": 3.0, "beta": 1.0}, {"n": 5, "max": 2.0}),
)

KNOWN_PARETO_KERNEL = ("kernel --route integral on pareto ends in an uncaught "
                       "ValueError('empty interval')")
KNOWN_NAN_REPORT = ("generic method with g = sqrt(x) on a law with negative "
                    "support writes NaN bounds with exit 0")
KNOWN_N_MC = "--n-mc below 2 ends in an uncaught ZeroDivisionError"
KNOWN_REL_TOL = "--rel-tol above 1e-2 ends in an uncaught ValueError"
ZB_MASS_LAWS = ("pareto", "inverse-gamma")
KNOWN_ZB_MASS = ("the zero-bias law's table integrates to 1 + O(1e-5) on "
                 "heavy-tailed laws (pareto, inverse-gamma), so with g = x "
                 "(lower = upper) the lower bound exceeds the upper one by "
                 "more than rel_tol")


@dataclass(frozen=True)
class Request:
    """One closed-loop request: a CLI argv, or a library call (`call`)."""

    name: str
    argv: tuple = ()
    expect: tuple = (0,)
    known_failure: str = ""
    call: tuple = ()  # ("build", law_index, family, params) | ("pair", law_index, g, seed)


def _num(x: float) -> str:
    return f"{x:.4g}"


def _law(family: str, *params: float) -> str:
    return f"{family}:" + ",".join(_num(p) for p in params)


def _rng(workload: str, seed: int, unit: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{unit}")


def _bound(name, dist, g, method, *extra, expect=(0,), known=""):
    return Request(name, ("bound", "--dist", dist, "--g", g, "--method",
                          method) + tuple(extra), expect, known)


# ------------------------------------------------------------- mc-oracle

def _posterior(pair, prior, summary, g, r: random.Random,
               suffix="") -> Request:
    argv = ["posterior", "--pair", pair]
    for key, value in prior.items():
        if key in ("alpha", "beta", "delta", "sigma"):
            value *= r.uniform(0.8, 1.25)
        argv += [f"--{key}", _num(value)]
    n = summary["n"] + r.randint(0, 4)
    scale = n / summary["n"]
    argv += ["--n", str(n)]
    for key, value in summary.items():
        if key == "n":
            continue
        if key == "x":  # binomial successes: an integer not above n
            value = min(n, int(round(value * scale)))
        elif key == "max":
            value *= r.uniform(1.0, 1.3)
        elif key != "mean":
            value *= scale * r.uniform(0.85, 1.15)
        argv += [f"--{key}", _num(value)]
    return Request(f"posterior.{pair}{suffix}", tuple(argv + ["--g", g]))


def _verify(scenario, r: random.Random) -> Request:
    return Request(f"verify.{scenario}",
                   ("verify", scenario, "--seed", str(r.choice(VERIFY_SEEDS))))


def mc_oracle_unit(seed: int, unit: int):
    """CLI bound, posterior and verify requests at the default n_mc = 10^6,
    with one malformed request in ten.

    Every conjugate pair gets two posterior requests with different g, and
    five cacoullos requests use inverse-gamma laws, the costliest Pearson
    law to sample.  Twelve requests thus cost about 1 s each, below the two
    costliest verify scenarios, and the tail percentile (ten samples beyond
    it) falls inside that group.  With fewer of them it fell at the gap
    below the group, where three requests of 0.4-0.55 s sat alone, and
    jumped by a third from run to run.
    """
    r = _rng("mc-oracle", seed, unit)
    g = SANDWICH_G[1:]
    post_g = ("x", "sin(x)", "x + x^2/8")
    p = round(r.uniform(0.2, 0.45), 3)
    n = r.randint(8, 30)
    gap = (p * p + (1 - p) ** 2) / (2.0 * math.sqrt(n * p * (1 - p)))
    post = [_posterior(pair, prior, summary, post_g[i % 3], r)
            for i, (pair, prior, summary) in enumerate(POSTERIOR_BASE)]
    post2 = [_posterior(pair, prior, summary, post_g[(i + 1) % 3], r, "-2")
             for i, (pair, prior, summary) in enumerate(POSTERIOR_BASE)]
    verify = [_verify(s, r) for s in VERIFY_SCENARIOS]
    two_point = _law("two-point", r.uniform(0.5, 2.0), r.uniform(0.5, 2.0))

    def inverse_gamma(k, g_k):
        return _bound(f"bound.cacoullos.inverse-gamma{k}",
                      _law("invgamma", r.uniform(5, 8), r.uniform(1, 4)),
                      g[g_k], "cacoullos")

    def misuse_n_mc(n_mc):
        return _bound(f"misuse.n-mc-{n_mc}", _law("normal", 0, 1), "sin(x)",
                      "cacoullos", "--n-mc", str(n_mc), expect=(2,),
                      known=KNOWN_N_MC)

    return [
        _bound("bound.cacoullos.normal",
               _law("normal", r.uniform(-1, 1), r.uniform(0.5, 2.0)), g[0],
               "cacoullos"),
        _bound("bound.cacoullos.beta",
               _law("beta", r.uniform(2, 6), r.uniform(2, 10)), g[1],
               "cacoullos"),
        verify[0],
        _bound("bound.cacoullos.gamma",
               _law("gamma", r.uniform(1.5, 5), r.uniform(0.5, 2)), g[2],
               "cacoullos"),
        inverse_gamma("", 3),
        *post[:3],
        verify[1],
        _bound("misuse.generic-sqrt", _law("normal", 0, r.uniform(0.5, 2)),
               "sqrt(x)", "generic", expect=(3, 4), known=KNOWN_NAN_REPORT),
        _bound("bound.generic.normal", _law("normal", 0, r.uniform(0.5, 2)),
               g[0], "generic"),
        *post2[:3],
        _bound("bound.zero-bias-remainder.bernoulli",
               _law("standardized-bernoulli", p, n), "sin(x)",
               "zero-bias-remainder", "--gap", repr(gap)),
        *post[3:6],
        verify[2],
        inverse_gamma("-2", 1),
        misuse_n_mc(0),
        _bound("bound.zero-bias.two-point", two_point, "sin(x)", "zero-bias"),
        _bound("bound.zero-bias.bernoulli",
               _law("standardized-bernoulli", p, n), g[1], "zero-bias"),
        *post2[3:6],
        verify[3],
        inverse_gamma("-3", 2),
        _bound("bound.equilibrium-a.exp", _law("exp", r.uniform(0.5, 2)), "x",
               "equilibrium-a"),
        _bound("bound.equilibrium-b.exp", _law("exp", r.uniform(0.5, 2)), "x",
               "equilibrium-b"),
        *post[6:],
        inverse_gamma("-4", 0),
        _bound("misuse.rel-tol", _law("beta", 2, 3), "x", "cacoullos",
               "--rel-tol", "0.5", expect=(2,), known=KNOWN_REL_TOL),
        _bound("bound.smoothed-i.two-point", two_point, "x", "smoothed-i",
               "--epsilon", _num(r.uniform(0.3, 1.0))),
        _bound("bound.smoothed-ii.two-point", two_point, "x", "smoothed-ii",
               "--epsilon", _num(r.uniform(0.3, 1.0)), expect=(3,)),
        *post2[6:],
        misuse_n_mc(1),
        verify[4],
        inverse_gamma("-5", 3),
        verify[5],
    ]


# ------------------------------------------------------- transform-tables

def transform_tables_unit(seed: int, unit: int):
    """CLI requests at --n-mc 10000, each on its own law, whose cost is
    quadrature building a transform or kernel table.

    The laws are fixed and the seed enters only as the program's --seed,
    the Monte-Carlo stream of each request.  Quadrature cost jumps with law
    parameters: over scales drawn within 10% of 1, one zero-bias request on
    a normal law cost 0.6-1.2 s, and fractional shapes cost 2-5x more (a
    beta equilibrium table minutes instead of ~9 s).  Drawn parameters let
    the seed, not the program, set the latencies.  The equilibrium branch
    alternates with the unit, not the seed, so that every run of one unit
    times the same request.

    With the laws fixed, the median falls among the four kernel tables
    (gamma shapes 2-4, inverse-gamma) of about the same cost, and the tail,
    the maximum of ten requests, is the equilibrium table.
    """
    n_mc = ("--n-mc", "10000", "--seed", str(seed))
    grid = ("--grid-points", "128", "--seed", str(seed))
    branch = "ab"[unit % 2]

    def kernel(family, law, known=""):
        return Request(f"kernel.integral.{family}",
                       ("kernel", "--dist", law, "--route", "integral") + grid,
                       (0,), known)

    return [
        _bound(f"bound.equilibrium-{branch}.beta",
               _law("beta", 2, 3 + unit % 2), "x",
               f"equilibrium-{branch}", *n_mc,
               # beta laws are NBUE and not NWUE: branch b is withheld
               expect=(0,) if branch == "a" else (3,)),
        _bound("bound.convex.uniform", _law("uniform", -1.15, 1.15), "x^3/3",
               "convex", *n_mc),
        kernel("pareto", _law("pareto", 3, 1), known=KNOWN_PARETO_KERNEL),
        kernel("inverse-gamma", _law("invgamma", 5, 3)),
        kernel("gamma", _law("gamma", 2, 1)),
        kernel("gamma-3", _law("gamma", 3, 1)),
        _bound("bound.zero-bias.normal", _law("normal", 0, 1), "sin(x)",
               "zero-bias", *n_mc),
        _bound("bound.zero-bias.uniform", _law("uniform", -1.1, 1.1),
               "sin(x)", "zero-bias", *n_mc),
        kernel("beta", _law("beta", 3, 5)),
        kernel("gamma-4", _law("gamma", 4, 1)),
    ]


# ------------------------------------------------------------ law-battery

LAWS = ("gaussian", "beta", "gamma", "inverse-gamma", "pareto", "exponential",
        "uniform")


def _battery_laws(r: random.Random):
    """The sandwich test's catalog laws with their scales and locations
    drawn within about 10%.  Shapes stay fixed, for the reason given in
    transform_tables_unit; beta has no scale, so it stays Beta(4, 8)."""
    return (
        (r.uniform(-0.2, 0.2), r.uniform(0.9, 1.1)),
        (4, 8),
        (2, r.uniform(0.9, 1.1)),
        (5, r.uniform(2.7, 3.3)),
        (3, r.uniform(0.9, 1.1)),
        (r.uniform(0.9, 1.1),),
        (lo := r.uniform(-0.1, 0.1), lo + r.uniform(0.9, 1.1)),
    )


def law_battery_unit(seed: int, unit: int):
    """Library calls shaped like the sandwich-soundness test; a unit is one
    battery.

    The battery first builds, for each of the seven laws, the Stein kernel
    and the zero-bias law of the centered form.  It then runs five rounds of
    one (law, g) pair per law: bound_cacoullos and bound_zero_bias at
    n_mc = 10^4.  Round k pairs law i with g number (i + k) mod 5, so each
    round touches all seven laws.
    """
    params = _battery_laws(_rng("law-battery", seed, unit))
    reqs = [Request(f"build.{fam}", call=("build", i, fam, p))
            for i, (fam, p) in enumerate(zip(LAWS, params))]
    for k in range(len(SANDWICH_G)):
        for i, fam in enumerate(LAWS):
            g = SANDWICH_G[(i + k) % len(SANDWICH_G)]
            known = (KNOWN_ZB_MASS if g == "x" and fam in ZB_MASS_LAWS
                     else "")
            reqs.append(Request(f"pair.{fam}[{g}]", known_failure=known,
                                call=("pair", i, g, seed * 1000 + unit)))
    return reqs


def traced_requests(workload: str, seed: int):
    """The requests a traced run times: the first unit, cut for law-battery
    to its builds and first round so that three runs of it stay short."""
    unit = UNITS[workload](seed, 0)
    return unit[:2 * len(LAWS)] if workload == "law-battery" else unit


UNITS = {
    "mc-oracle": mc_oracle_unit,
    "transform-tables": transform_tables_unit,
    "law-battery": law_battery_unit,
}

# Cheap requests of each workload's shape, run once before timing starts.
WARMUP = {
    "mc-oracle": [Request("warmup", ("bound", "--dist", "normal:0,1", "--g",
                                     "sin(x)", "--method", "cacoullos"))],
    "transform-tables": [Request("warmup", ("kernel", "--dist", "beta:2,3",
                                            "--route", "integral",
                                            "--grid-points", "16"))],
    "law-battery": [Request("warmup", call=("build", 0, "gaussian", (0.0, 1.0))),
                    Request("warmup", call=("pair", 0, "sin(x)", 0))],
}

"""Command-line front end.

Subcommands:

  kernel     evaluate a Stein kernel on points or a grid, with the
             E[tau] = Var[W] consistency check;
  bound      compute a variance bound for g(W) by any supported method;
  posterior  conjugate update plus the closed-form posterior sandwich;
  verify     run the regression scenario catalog.

Exit codes: 0 success, 2 invalid input (parse/usage, or kernel on a law
with infinite variance), 3 a requested bound was withheld because a
hypothesis failed or its lower side divides by a variance that is zero or
undefined, 4 numerical failure, 5 a verify assertion failed.

The default seed is 0, overridable by the STEIN_BOUNDS_SEED environment
variable and by --seed (highest precedence).  Identical invocations
produce byte-identical report payloads.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import bayes, verify as verify_mod
from .bounds import (METHOD_SIDES, BoundError, SteinCoupling,
                     bound_cacoullos, bound_convex_order, bound_equilibrium,
                     bound_generic, bound_smoothed, bound_zero_bias,
                     bound_zero_bias_remainder)
from .distributions import DistributionError, parse_dist
from .exprfn import ExprError, make_test_function, named_test_function
from .kernels import (KernelError, UnsupportedFamily, integral_kernel,
                      pearson_kernel, smooth, smoothed_kernel)
from .numerics import NonFiniteError, NumericsError
from .transforms import NotCentered, TransformError, zero_bias

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_WITHHELD = 3
EXIT_NUMERIC = 4
EXIT_ASSERTION = 5

SCHEMA_VERSION = 1

class CLIError(Exception):
    """Invalid input detected past argparse; mapped to exit code 2."""


def _checked(kind, ok, what):
    """An argparse type: kind(text), rejected at parse time (exit 2)
    unless ok(value)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    return parse


N_MC = _checked(int, lambda n: n >= 2, "an integer >= 2")
REL_TOL = _checked(float, lambda t: 0.0 < t <= 1e-2, "in (0, 1e-2]")
GRID = _checked(int, lambda n: n >= 1, "an integer >= 1")
GRID_POINTS = _checked(int, lambda n: n >= 16, "an integer >= 16")
GAP = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
EPSILON = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
POINT = _checked(float, math.isfinite, "finite")


@functools.cache
def load_schema() -> dict:
    """The published report schema shipped with the package, read once."""
    text = resources.files(__package__).joinpath("report_schema.json").read_text()
    return json.loads(text)


def validate_report(payload: dict) -> None:
    """Structural check of a report payload against the published schema.

    A lightweight validator, so the package does not need a jsonschema
    dependency: it checks the four top-level keys, the schema version, the
    command name, and the result keys that command requires, all read from
    the schema, not the values under them.  Raises CLIError on violation.
    """
    schema = load_schema()
    for key in schema["required"]:
        if key not in payload:
            raise CLIError(f"report missing required key {key!r}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise CLIError(f"unexpected schema_version {payload['schema_version']}")
    commands = schema["properties"]["command"]["enum"]
    if payload["command"] not in commands:
        raise CLIError(f"unexpected command {payload['command']!r}")
    # results.oneOf lists each command's definition in the enum's order
    ref = schema["properties"]["results"]["oneOf"][
        commands.index(payload["command"])]["$ref"]
    for key in schema["definitions"][ref.rsplit("/", 1)[-1]]["required"]:
        if key not in payload["results"]:
            raise CLIError(f"{payload['command']} results missing {key!r}")


# ------------------------------------------------------------------ helpers

def _default_seed() -> int:
    env = os.environ.get("STEIN_BOUNDS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CLIError(f"STEIN_BOUNDS_SEED must be an integer, got {env!r}")
    return 0


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _payload(command: str, seed: int, invocation: dict, results) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "seed": int(seed), "invocation": invocation, "results": results}


def _bound_csv(report: dict, seed: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "lower", "upper", "mc_var", "ci",
                     "hypotheses", "remainder", "seed"])
    hyp = ";".join(f"{h['name']}={h['verdict']}"
                   for h in report["hypothesis_checks"])
    writer.writerow([report["method"], report["lower"], report["upper"],
                     report["mc_variance"], report["mc_ci99"], hyp,
                     report["remainder"], seed])
    return buf.getvalue()


def _emit(payload: dict, args, summary_lines, csv_text: str | None = None):
    validate_report(payload)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"report holds a non-finite number: {exc}") from None
    for line in summary_lines:
        print(line)
    fmt = getattr(args, "format", "json")  # only bound has --format
    rendered = csv_text if fmt == "csv" else text + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
        print(f"report written to {args.out}")
    elif fmt == "csv":
        sys.stdout.write(rendered)


def _test_function(args, dist):
    if (args.g is None) == (args.g_named is None):
        raise CLIError("supply exactly one of --g / --g-named")
    eff = dist.effective_interval(1e-9)
    if args.g is not None:
        return make_test_function(args.g, eff)
    return named_test_function(args.g_named, eff)


def _fmt(v):
    return "withheld" if v is None else f"{v:.10g}"


def _exit_code(report, sides):
    """EXIT_WITHHELD when a side the method promises was withheld."""
    withheld = any(getattr(report, side) is None for side in sides)
    return EXIT_WITHHELD if withheld else EXIT_OK


def _mc_line(report, what):
    ci = ("no CI: E[g^4] is not shown finite" if report.mc_ci99 is None
          else f"99% CI halfwidth {report.mc_ci99:.3g}")
    return f"  mc {what} = {report.mc_variance:.10g} ({ci})"


# --------------------------------------------------------------- subcommands

def cmd_kernel(args) -> int:
    seed = _resolve_seed(args)
    d = parse_dist(args.dist)
    if not math.isfinite(d.var()):  # on every route, before any table is built
        raise CLIError(f"{args.dist} has infinite variance: the identity "
                       "E[tau] = Var[W] has no finite value to report")
    if args.route == "pearson":
        k = pearson_kernel(d)
    elif args.route == "integral":
        k = integral_kernel(d, grid_points=args.grid_points)
    else:
        if args.epsilon is None:
            raise CLIError("--route smoothed requires --epsilon")
        k = smoothed_kernel(smooth(d, args.epsilon))
    if args.x:
        xs = np.asarray(args.x, dtype=float)
    else:
        eff = k.base.effective_interval(1e-6)  # the convolved law, when smoothed
        xs = np.linspace(eff.lo, eff.hi, args.grid)
    tau = np.asarray(k(xs), dtype=float)
    mean_tau = k.expected_value()
    var = k.base.var()
    results = {"distribution": args.dist, "route": args.route,
               "x": [float(x) for x in xs], "tau": [float(t) for t in tau],
               "mean_tau": float(mean_tau), "variance": float(var),
               "identity_gap": float(mean_tau - var)}
    lines = [f"kernel route={args.route} dist={args.dist}"]
    lines += [f"  tau({x:.6g}) = {t:.10g}" for x, t in zip(xs, tau)]
    lines.append(f"  E[tau] = {mean_tau:.10g}  Var[W] = {var:.10g}  "
                 f"gap = {mean_tau - var:.3g}")
    _emit(_payload("kernel", seed, {"dist": args.dist, "route": args.route},
                   results), args, lines)
    return EXIT_OK


def _generic_from_zero_bias(d, g, n_mc, seed):
    """CLI 'generic' method: the zero-bias coupling (gamma=id, T1=sigma^2,
    T2=W*) evaluated by the Monte-Carlo generic-coupling routine; T1 and
    gamma' = 1 are scalars."""
    star = zero_bias(d)

    def joint(rng, size):
        w = d.sample(rng, size)
        return w, star.sigma2, star.sample(rng, size)

    coupling = SteinCoupling(gamma=lambda x: x, gamma_prime=lambda x: 1.0,
                             joint_sampler=joint)
    return bound_generic(coupling, g, n_mc=n_mc, seed=seed)


def cmd_bound(args) -> int:
    seed = _resolve_seed(args)
    d = parse_dist(args.dist)
    g = _test_function(args, d)
    method = args.method
    kw = {"n_mc": args.n_mc, "seed": seed}
    if method == "cacoullos":
        try:
            kernel = pearson_kernel(d)
        except UnsupportedFamily:
            kernel = integral_kernel(d)
        report = bound_cacoullos(d, kernel, g, rel_tol=args.rel_tol, **kw)
    elif method == "zero-bias":
        report = bound_zero_bias(zero_bias(d), g, rel_tol=args.rel_tol, **kw)
    elif method == "zero-bias-remainder":
        report = bound_zero_bias_remainder(d, g, e_abs_gap=args.gap,
                                           rel_tol=args.rel_tol, **kw)
    elif method == "convex":
        report = bound_convex_order(d, g, rel_tol=args.rel_tol, **kw)
    elif method in ("equilibrium-a", "equilibrium-b"):
        report = bound_equilibrium(d, g, branch=method[-1],
                                   rel_tol=args.rel_tol, **kw)
    elif method in ("smoothed-i", "smoothed-ii"):
        if args.epsilon is None:
            raise CLIError(f"--method {method} requires --epsilon")
        report = bound_smoothed(smooth(d, args.epsilon), g,
                                claim=method.split("-")[1],
                                rel_tol=args.rel_tol, **kw)
    else:  # generic
        report = _generic_from_zero_bias(d, g, args.n_mc, seed)

    rep = report.to_dict()
    sides = METHOD_SIDES[method]
    lines = [f"bound method={method} dist={args.dist} g={g.source}"]
    lines += [f"  {side} = {_fmt(getattr(report, side))}" for side in sides]
    lines.append(_mc_line(report, "Var[g(W)]"))
    for h in report.hypothesis_checks:
        lines.append(f"  hypothesis {h.name}: "
                     f"{'holds-on-grid' if h.holds else 'FAILS'}")
    _emit(_payload("bound", seed,
                   {"dist": args.dist, "g": g.source, "method": method,
                    "n_mc": args.n_mc, "rel_tol": args.rel_tol},
                   rep), args, lines, csv_text=_bound_csv(rep, seed))
    return _exit_code(report, sides)


# The posterior flags: every field a row of bayes.PAIR_TABLE reads
_ROWS = bayes.PAIR_TABLE.values()
PRIOR_FLAGS = tuple(dict.fromkeys(f for prior, *_ in _ROWS for f, _ in prior))
SUMMARY_FLAGS = ("n", *dict.fromkeys(stat for _, (stat, _), *_ in _ROWS))


def cmd_posterior(args) -> int:
    seed = _resolve_seed(args)
    prior = {f: getattr(args, f) for f in PRIOR_FLAGS
             if getattr(args, f) is not None}
    summary = {f: getattr(args, f) for f in SUMMARY_FLAGS
               if getattr(args, f) is not None}
    model = bayes.update(args.pair, prior, summary)
    g = _test_function(args, model.posterior)
    report = bayes.posterior_bounds(model, g, n_mc=args.n_mc, seed=seed)
    results = {"model": model.describe(), "bounds": report.to_dict()}
    lines = [f"posterior pair={args.pair} -> {model.posterior!r}",
             f"  lower = {_fmt(report.lower)}",
             f"  upper = {_fmt(report.upper)}",
             _mc_line(report, "Var[g]")]
    if model.note:
        lines.append(f"  note: {model.note}")
    _emit(_payload("posterior", seed,
                   {"pair": args.pair, "prior": prior, "summary": summary,
                    "g": g.source, "n_mc": args.n_mc},
                   results), args, lines)
    return _exit_code(report, METHOD_SIDES["cacoullos"])


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else \
        (_default_seed() if os.environ.get("STEIN_BOUNDS_SEED") else 42)
    params = {}
    for f in ("n", "p", "rho", "rate", "n_mc"):
        v = getattr(args, f, None)
        if v is not None:
            params[f] = v
    if args.g is not None:
        params["g"] = args.g
    if args.scenario == "all":
        results = verify_mod.run_all(seed=seed, params=params or None)
    else:
        results = [verify_mod.run_scenario(args.scenario, params or None,
                                           seed=seed)]
    all_passed = all(r.passed for r in results)
    payload = _payload("verify", seed, {"scenario": args.scenario,
                                        "params": params},
                       {"all_passed": all_passed,
                        "scenarios": [r.to_dict() for r in results]})
    lines = []
    for r in results:
        lines.append(f"scenario {r.scenario}: "
                     f"{'PASS' if r.passed else 'FAIL'} "
                     f"({len(r.assertions)} assertions, {r.runtime:.1f}s)")
        for a in r.assertions:
            if not a.passed:
                lines.append(f"  FAIL {a.name}: observed {a.observed:.6g} "
                             f"vs expected {a.expected:.6g} "
                             f"(tolerance {a.tolerance:.3g})")
    _emit(payload, args, lines)
    return EXIT_OK if all_passed else EXIT_ASSERTION


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="steinbounds",
        description="Variance bounds for functionals of random variables "
                    "via Stein couplings.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: STEIN_BOUNDS_SEED or 0)")
        sp.add_argument("--out", default=None, help="report file path")

    k = sub.add_parser("kernel", help="evaluate a Stein kernel")
    k.add_argument("--dist", required=True, help='law as "family:p1,p2,..."')
    k.add_argument("--route", choices=("pearson", "integral", "smoothed"),
                   default="pearson")
    k.add_argument("--x", type=POINT, nargs="+", default=None,
                   help="evaluation points")
    k.add_argument("--grid", type=GRID, default=9,
                   help="grid size when --x is absent")
    k.add_argument("--grid-points", type=GRID_POINTS, default=512,
                   help="nodes of the tail-moment table behind the integral "
                        "route (at least 16)")
    k.add_argument("--epsilon", type=EPSILON, default=None,
                   help="noise scale for the smoothed route")
    common(k)
    k.set_defaults(fn=cmd_kernel)

    b = sub.add_parser("bound", help="compute a variance bound for g(W)")
    b.add_argument("--dist", required=True)
    b.add_argument("--g", default=None, help="g as an expression in x")
    b.add_argument("--g-named", default=None, help="named built-in g")
    b.add_argument("--method", required=True, choices=sorted(METHOD_SIDES))
    b.add_argument("--epsilon", type=EPSILON, default=None,
                   help="noise scale for the smoothed methods")
    b.add_argument("--gap", type=GAP, default=None,
                   help="E|W* - W| for zero-bias-remainder (default: the "
                        "Wasserstein-1 distance of W and W*, bounded above)")
    b.add_argument("--n-mc", type=N_MC, default=10**6)
    b.add_argument("--rel-tol", type=REL_TOL, default=1e-6)
    b.add_argument("--format", choices=("json", "csv"), default="json")
    common(b)
    b.set_defaults(fn=cmd_bound)

    q = sub.add_parser("posterior", help="conjugate update and bounds")
    q.add_argument("--pair", required=True, choices=bayes.PAIRS)
    for f in PRIOR_FLAGS + SUMMARY_FLAGS:  # --sum-sq sets sum_sq, and so on
        q.add_argument(f"--{f.replace('_', '-')}", type=float, default=None)
    q.add_argument("--g", default=None)
    q.add_argument("--g-named", default=None)
    q.add_argument("--n-mc", type=N_MC, default=10**6)
    common(q)
    q.set_defaults(fn=cmd_posterior)

    v = sub.add_parser("verify", help="run regression scenarios")
    v.add_argument("scenario", help='scenario id or "all"')
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--p", type=float, default=None)
    v.add_argument("--rho", type=float, default=None)
    v.add_argument("--rate", type=float, default=None)
    v.add_argument("--g", default=None)
    v.add_argument("--n-mc", type=N_MC, default=None, dest="n_mc")
    common(v)
    v.set_defaults(fn=cmd_verify)
    return p


_parser = functools.cache(build_parser)  # parsing leaves the parser as it was


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (CLIError, ExprError, DistributionError, bayes.BayesError,
            verify_mod.UnknownScenario, verify_mod.VerifyError,
            UnsupportedFamily) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotCentered as exc:
        # a gating precondition (mean zero) failed: the bound is withheld
        print(f"withheld: {exc}", file=sys.stderr)
        return EXIT_WITHHELD
    except (NumericsError, KernelError, TransformError, BoundError,
            OverflowError) as exc:  # a special function's own overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from steinbounds import cli, numerics
from steinbounds.kernels import SmoothedDistribution
from steinbounds.numerics import NumericsError
from steinbounds.verify import CONJUGATE_SETTINGS, ScenarioResult


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_kernel_command(tmp_path, capsys):
    out = tmp_path / "k.json"
    code = cli.main(["kernel", "--dist", "beta:4,8", "--route", "pearson",
                     "--x", "0.5", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "kernel"
    # tau(1/2) = (1/2)(1/2)/12
    assert payload["results"]["tau"][0] == pytest.approx(0.25 / 12.0,
                                                         rel=1e-12)
    assert payload["results"]["mean_tau"] == pytest.approx(
        payload["results"]["variance"], abs=1e-8)
    assert "0.02083" in capsys.readouterr().out


def test_main_calls_in_one_process_carry_no_state(tmp_path):
    # main builds its parser once per process: each call writes what it
    # writes on a parser of its own, whatever subcommands and flags ran before
    runs = [
        ["kernel", "--dist", "beta:4,8", "--route", "pearson", "--x", "0.25", "0.5"],
        ["bound", "--dist", "normal:0,1", "--g", "sin(x)", "--method",
         "cacoullos", "--n-mc", "1000", "--seed", "3"],
        ["kernel", "--dist", "gamma:2,1", "--route", "integral", "--grid", "5",
         "--grid-points", "64"],
        ["bound", "--dist", "normal:0,1", "--g-named", "gauss", "--method",
         "zero-bias", "--n-mc", "500", "--format", "csv"],
        ["bound", "--dist", "normal:0,1", "--g", "x", "--method", "cacoullos",
         "--n-mc", "500"],
        ["kernel", "--dist", "beta:4,8", "--route", "pearson"],
    ]

    def payloads(fresh):
        out = []
        for k, argv in enumerate(runs):
            if fresh:
                cli._parser.cache_clear()
            path = tmp_path / f"{fresh}-{k}.out"
            out.append((cli.main([*argv, "--out", str(path)]), path.read_text()))
        return out

    shared = payloads(False)
    assert [code for code, _ in shared] == [0] * len(runs)
    assert shared == payloads(True)


def test_kernel_bad_distribution():
    assert cli.main(["kernel", "--dist", "nonesuch:1", "--route",
                     "pearson", "--x", "0.5"]) == 2


def test_kernel_pearson_unsupported_family():
    assert cli.main(["kernel", "--dist", "two-point:1,1", "--route",
                     "pearson", "--x", "0.0"]) == 2


@pytest.mark.parametrize("dist", ["pareto:3,1", "exp:1.1"])
def test_kernel_integral_at_support_edge(tmp_path, dist):
    # the default grid starts at the finite support edge
    out = tmp_path / "k.json"
    code = cli.main(["kernel", "--dist", dist, "--route", "integral",
                     "--out", str(out)])
    assert code == 0
    tau = read_json(out)["results"]["tau"]
    assert all(math.isfinite(t) for t in tau)


def test_kernel_rejects_small_grid():
    assert cli.main(["kernel", "--dist", "gamma:2,1", "--route", "integral",
                     "--grid-points", "8"]) == 2


@pytest.mark.parametrize("n_mc", ["0", "1"])
def test_bound_rejects_small_n_mc(n_mc):
    assert cli.main(["bound", "--dist", "normal:0,1", "--g", "sin(x)",
                     "--method", "cacoullos", "--n-mc", n_mc]) == 2


def test_bound_rejects_rel_tol_out_of_range():
    assert cli.main(["bound", "--dist", "beta:2,3", "--g", "x",
                     "--method", "cacoullos", "--rel-tol", "0.5"]) == 2


def test_generic_non_finite_is_numeric_failure(tmp_path):
    out = tmp_path / "g.json"
    assert cli.main(["bound", "--dist", "normal:0,1", "--g", "sqrt(x)",
                     "--method", "generic", "--n-mc", "10000",
                     "--out", str(out)]) == 4
    assert not out.exists()


def test_emit_rejects_non_finite(tmp_path):
    out = tmp_path / "k.json"
    payload = cli._payload("kernel", 0, {}, {
        "distribution": "gamma:2,1", "route": "integral", "x": [1.0],
        "tau": [math.nan], "mean_tau": 2.0, "variance": 2.0})
    args = argparse.Namespace(out=str(out), format="json")
    with pytest.raises(NumericsError):
        cli._emit(payload, args, [])
    assert not out.exists()


def test_bound_on_infinite_variance_is_numeric_failure(capsys):
    # Var[W^2] is infinite for Pareto(3): E[tau g'^2] diverges, and no
    # finite upper bound may be reported
    code = cli.main(["bound", "--dist", "pareto:3,1", "--g", "x^2", "--method",
                     "cacoullos", "--n-mc", "10000"])
    assert code == cli.EXIT_NUMERIC
    assert "upper" not in capsys.readouterr().out


@pytest.mark.parametrize("epsilon", ["1e-3", "1e-6"])
def test_smoothed_tiny_epsilon_on_atoms(epsilon, tmp_path, capsys):
    # the bound reads the excess of Y + Z and divides by no density: with
    # g = x its upper side is E[tau] = Var[Y + Z] = Var[Y] + eps^2
    out = tmp_path / "b.json"
    assert cli.main(["bound", "--dist", "two-point:0.8,1.3", "--g", "x", "--method",
                     "smoothed-i", "--n-mc", "10000", "--epsilon", epsilon,
                     "--out", str(out)]) == cli.EXIT_OK
    var = 0.8 * 1.3 + float(epsilon) ** 2
    assert read_json(out)["results"]["upper"] == pytest.approx(var, rel=1e-9)
    # between the atoms the smoothed density underflows: tau is refused
    assert cli.main(["kernel", "--dist", "two-point:0.8,1.3", "--route", "smoothed",
                     "--x", "0.1", "--epsilon", epsilon]) == cli.EXIT_NUMERIC
    assert "underflow" in capsys.readouterr().err


def test_special_function_overflow_is_numeric_failure(capsys):
    # boost's ibeta_derivative overflows at a subnormal point of Beta(0.5, 0.7)
    assert cli.main(["kernel", "--dist", "beta:0.5,0.7", "--route", "integral",
                     "--x", "1e-310", "0.5"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Overflow" in err


def test_smoothed_bound_convolves_only_to_build(monkeypatch):
    # the bound reads the smoothed law's table: after smooth() returns, no
    # quadrature point pays a convolution over Z (320,640 points once)
    parts, smooth, built, points = SmoothedDistribution._parts, cli.smooth, [], [0]

    def counted(self, x, *args, **kwargs):
        points[0] += len(x) if built else 0
        return parts(self, x, *args, **kwargs)

    monkeypatch.setattr(SmoothedDistribution, "_parts", counted)
    monkeypatch.setattr(cli, "smooth", lambda *a: (smooth(*a), built.append(1))[0])
    assert cli.main(["bound", "--dist", "normal:0,1", "--g", "x^2", "--method",
                     "smoothed-ii", "--epsilon", "0.5", "--n-mc", "2000"]) == cli.EXIT_WITHHELD
    assert built and points[0] <= 32_064


def test_kernel_smoothed_on_unbounded_density(tmp_path):
    # the density of Beta(0.5, 0.7) is unbounded at both support edges
    out = tmp_path / "k.json"
    assert cli.main(["kernel", "--dist", "beta:0.5,0.7", "--route", "smoothed",
                     "--epsilon", "0.1", "--out", str(out)]) == 0
    results = read_json(out)["results"]
    assert abs(results["identity_gap"]) <= 1e-9 * results["variance"]


@pytest.mark.parametrize("a, b, epsilon", [
    (a, b, eps) for a in ("0.5", "2") for b in ("0.5", "2") for eps in ("0.3", "1.0")])
def test_smoothed_two_point_parameter_box(tmp_path, a, b, epsilon):
    # the corners of the two-point laws and noise scales the benchmark draws
    argv = ["bound", "--dist", f"two-point:{a},{b}", "--g", "x", "--epsilon",
            epsilon, "--n-mc", "10000"]
    out = tmp_path / "b.json"
    assert cli.main(argv + ["--method", "smoothed-i", "--out", str(out)]) == 0
    rep = read_json(out)["results"]
    assert rep["mc_variance"] <= rep["upper"] + 4.0 * rep["mc_se"]
    assert cli.main(argv + ["--method", "smoothed-ii"]) == cli.EXIT_WITHHELD


def test_bound_cacoullos_json(tmp_path):
    out = tmp_path / "b.json"
    code = cli.main(["bound", "--dist", "normal:0,1", "--g", "x",
                     "--method", "cacoullos", "--n-mc", "10000",
                     "--out", str(out)])
    assert code == 0
    rep = read_json(out)["results"]
    assert rep["lower"] == pytest.approx(1.0, abs=1e-5)
    assert rep["upper"] == pytest.approx(1.0, abs=1e-5)


def test_bound_requires_exactly_one_g():
    assert cli.main(["bound", "--dist", "normal:0,1",
                     "--method", "cacoullos"]) == 2
    assert cli.main(["bound", "--dist", "normal:0,1", "--g", "x",
                     "--g-named", "sin", "--method", "cacoullos"]) == 2


def test_format_is_a_bound_option(capsys):
    # a usage error before any work: no summary, no report
    assert cli.main(["kernel", "--dist", "normal:0,1", "--x", "0.5",
                     "--format", "csv"]) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_bound_not_centered_is_withheld_exit():
    # the zero-bias transform needs a centered law
    assert cli.main(["bound", "--dist", "exp:1", "--g", "x",
                     "--method", "convex", "--n-mc", "10000"]) == 3


def test_bound_withheld_hypothesis(tmp_path):
    # non-convex g'^2 withholds the convex-order upper bound
    out = tmp_path / "w.json"
    code = cli.main(["bound", "--dist", "two-point:1,1", "--g", "sin(x)",
                     "--method", "convex", "--n-mc", "10000",
                     "--out", str(out)])
    assert code == 3
    rep = read_json(out)["results"]
    assert rep["upper"] is None


def test_bound_csv(tmp_path):
    out = tmp_path / "b.csv"
    code = cli.main(["bound", "--dist", "normal:0,1", "--g", "sin(x)",
                     "--method", "cacoullos", "--n-mc", "10000",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["method", "lower", "upper"]
    assert lines[1].startswith("cacoullos,")


def test_posterior_command(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = cli.main(["posterior", "--pair", "binomial-beta", "--alpha", "1",
                     "--beta", "1", "--n", "10", "--x", "3", "--g", "x",
                     "--n-mc", "10000", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    model = payload["results"]["model"]
    assert model["posterior"]["params"] == [4.0, 8.0]
    b = payload["results"]["bounds"]
    assert b["upper"] == pytest.approx(32.0 / (144.0 * 13.0), rel=1e-9)


def test_posterior_pareto_note(capsys):
    code = cli.main(["posterior", "--pair", "uniform-pareto", "--alpha", "3",
                     "--beta", "1", "--n", "5", "--max", "2", "--g", "x",
                     "--n-mc", "10000"])
    assert code == 0
    assert "nonnegative form" in capsys.readouterr().out


def test_posterior_invalid_summary():
    assert cli.main(["posterior", "--pair", "binomial-beta", "--alpha", "1",
                     "--beta", "1", "--n", "5", "--x", "7", "--g", "x"]) == 2


@pytest.mark.parametrize("field, value", [("n", "nan"), ("alpha", "nan"),
                                          ("alpha", "inf")])
def test_posterior_non_finite_field_is_a_usage_error(field, value, capsys):
    # each once ended in a ValueError traceback, exit 1
    fields = {"alpha": "2", "beta": "1", "n": "3", "sum": "3", field: value}
    argv = ["posterior", "--pair", "poisson-gamma", "--g", "x"]
    for key, text in fields.items():
        argv += [f"--{key}", text]
    assert cli.main(argv + ["--n-mc", "1000"]) == cli.EXIT_USAGE
    assert f"error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_kernel_non_finite_point_is_a_usage_error(x, capsys):
    # --x nan once reached the report and exited 4
    assert cli.main(["kernel", "--dist", "normal:0,1", "--route", "pearson",
                     "--x", "0.5", x]) == cli.EXIT_USAGE
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("pair, prior, summary", CONJUGATE_SETTINGS,
                         ids=[row[0] for row in CONJUGATE_SETTINGS])
def test_every_pair_field_is_a_posterior_flag(tmp_path, pair, prior, summary):
    # each field a pair reads is a flag (--sum-sq for sum_sq) that reaches it
    argv = ["posterior", "--pair", pair, "--g", "x", "--n-mc", "10000"]
    for key, value in {**prior, **summary}.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    out = tmp_path / "p.json"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    model = read_json(out)["results"]["model"]
    assert (model["prior_params"], model["data_summary"]) == (prior, summary)


def test_verify_unknown_scenario():
    assert cli.main(["verify", "nonesuch"]) == 2


def test_verify_single_scenario(tmp_path):
    out = tmp_path / "v.json"
    code = cli.main(["verify", "two-point-cx", "--seed", "11",
                     "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["results"]["all_passed"] is True
    assert payload["results"]["scenarios"][0]["scenario"] == "two-point-cx"


def test_verify_assertion_failure_exit(monkeypatch):
    def failing(scenario_id, params=None, seed=42):
        res = ScenarioResult(scenario=scenario_id, inputs={})
        res.check("always-fails", 1.0, 0.0, 0.1)
        return res

    monkeypatch.setattr(cli.verify_mod, "run_scenario", failing)
    assert cli.main(["verify", "two-point-cx"]) == 5


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("STEIN_BOUNDS_SEED", "123")
    out = tmp_path / "s.json"
    code = cli.main(["bound", "--dist", "normal:0,1", "--g", "x",
                     "--method", "cacoullos", "--n-mc", "10000",
                     "--out", str(out)])
    assert code == 0
    assert read_json(out)["seed"] == 123
    monkeypatch.setenv("STEIN_BOUNDS_SEED", "notanint")
    assert cli.main(["bound", "--dist", "normal:0,1", "--g", "x",
                     "--method", "cacoullos", "--n-mc", "10000"]) == 2


def test_bound_only_promised_sides_printed(capsys):
    code = cli.main(["bound", "--dist", "uniform:0,2", "--g", "x",
                     "--method", "equilibrium-a", "--n-mc", "10000"])
    assert code == 0
    text = capsys.readouterr().out
    assert "upper" in text
    assert "lower" not in text


PAYLOAD_COMMANDS = [
    ["kernel", "--dist", "beta:4,8", "--route", "pearson", "--x", "0.5"],
    ["kernel", "--dist", "pareto:3,1", "--route", "integral"],
    ["kernel", "--dist", "exp:1.1", "--route", "integral"],
    ["bound", "--dist", "normal:0,1", "--g", "x", "--method", "cacoullos",
     "--n-mc", "10000"],
    ["bound", "--dist", "two-point:1,1", "--g", "sin(x)", "--method",
     "convex", "--n-mc", "10000"],
    ["bound", "--dist", "uniform:0,2", "--g", "x", "--method",
     "equilibrium-a", "--n-mc", "10000"],
    ["bound", "--dist", "pareto:3,1", "--g", "x", "--method", "cacoullos",
     "--n-mc", "10000"],
    ["posterior", "--pair", "binomial-beta", "--alpha", "1", "--beta", "1",
     "--n", "10", "--x", "3", "--g", "x", "--n-mc", "10000"],
    ["posterior", "--pair", "uniform-pareto", "--alpha", "3", "--beta", "1",
     "--n", "5", "--max", "2", "--g", "x + x^2/8", "--n-mc", "10000"],
    ["verify", "two-point-cx", "--seed", "11"],
    # g'(0) is infinite, so the monotonicity checks fail and withhold
    ["bound", "--dist", "exp:1", "--g", "sqrt(x)", "--method",
     "equilibrium-a", "--n-mc", "10000"],
    # the means of W* and W differ, so the convex-order premise fails
    ["bound", "--dist", "two-point:1,2", "--g", "sin(x)", "--method",
     "convex", "--n-mc", "10000"],
]


@pytest.mark.parametrize("argv", PAYLOAD_COMMANDS, ids=lambda a: " ".join(a[:4]))
def test_payload_matches_schema(tmp_path, argv):
    out = tmp_path / "r.json"
    assert cli.main(argv + ["--out", str(out)]) in (0, 3)
    payload = read_json(out)
    jsonschema.Draft7Validator(cli.load_schema()).validate(payload)
    if argv[:3] == ["bound", "--dist", "pareto:3,1"]:
        # E[W^4] is infinite on Pareto(3): the MC variance has no error bar
        assert payload["results"]["mc_se"] is None
        assert payload["results"]["mc_ci99"] is None


# Quadrature evaluations, summed over the integrate_soft calls, of each of
# PAYLOAD_COMMANDS in list order, as counted when these ceilings were set.
# The integral-kernel commands read E[tau] from their table's cubics and
# integrate nothing.
PAYLOAD_EVALUATIONS = [2640, 0, 0, 25760, 0, 5280, 15520, 5280, 15520, 0,
                       15520, 0]


@pytest.mark.parametrize("argv, count", [
    pytest.param(argv, count, id=" ".join(argv[:4]))
    for argv, count in zip(PAYLOAD_COMMANDS, PAYLOAD_EVALUATIONS, strict=True)])
def test_payload_evaluation_ceilings(tmp_path, monkeypatch, argv, count):
    # evaluation counts are deterministic: each command may spend at most
    # 10% more than its count, and a command at 0 must stay there
    evaluations = []
    soft = numerics.integrate_soft

    def counted(*args, **kwargs):
        res = soft(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(numerics, "integrate_soft", counted)
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) in (0, 3)
    assert sum(evaluations) <= 1.1 * count


@pytest.mark.parametrize("argv, finite", [
    # E[g(W)^4] is infinite on a light tail under a fast g
    (["--dist", "exp:1", "--g", "2*exp(x/2)", "--method", "equilibrium-b"],
     False),
    (["--dist", "exp:1", "--g", "exp(x/4)", "--method", "cacoullos"], False),
    (["--dist", "normal:0,1", "--g", "exp(x^2/8)", "--method", "cacoullos"],
     False),
    (["--dist", "invgamma:5,3", "--g", "x", "--method", "cacoullos"], True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_error_bar_only_where_fourth_moment_is_finite(tmp_path, argv, finite):
    out = tmp_path / "r.json"
    assert cli.main(["bound", *argv, "--n-mc", "10000", "--out", str(out)]) == 0
    results = read_json(out)["results"]
    assert (results["mc_se"] is not None) == finite
    assert (results["mc_ci99"] is not None) == finite


@pytest.mark.parametrize("argv", [
    ["bound", "--dist", "normal:0,1", "--g", "sin(x)", "--method",
     "zero-bias-remainder", "--gap", "-10"],
    ["bound", "--dist", "normal:0,1", "--g", "sin(x)", "--method",
     "zero-bias-remainder", "--gap", "nan"],
    ["bound", "--dist", "two-point:1,1", "--g", "x", "--method",
     "smoothed-i", "--epsilon", "-1"],
    ["bound", "--dist", "two-point:1,1", "--g", "x", "--method",
     "smoothed-ii", "--epsilon", "inf"],
    ["kernel", "--dist", "two-point:1,1", "--route", "smoothed", "--x", "0",
     "--epsilon", "0"],
    # --grid -1 once ended in a ValueError traceback, --grid 0 in empty arrays
    ["kernel", "--dist", "normal:0,1", "--grid", "-1"],
    ["kernel", "--dist", "normal:0,1", "--grid", "0"],
    # beyond n = 9 the statistic has no atoms to enumerate
    ["verify", "permutation", "--n", "10"],
    *(["bound", "--dist", dist, "--g", "x", "--method", "cacoullos"]
      for dist in ("standardized-bernoulli:0.3", "normal:a,1", "normal:nan,1",
                   "gamma:inf,1", "normal:0,inf", "uniform:0,inf")),
], ids=["gap-negative", "gap-nan", "epsilon-negative", "epsilon-inf",
        "kernel-epsilon-zero", "grid-negative", "grid-zero", "permutation-n",
        "dist-count", "dist-text", "dist-nan",
        "dist-inf-shape", "dist-inf-variance", "dist-inf-end"])
def test_invalid_gap_and_epsilon_are_usage_errors(argv, capsys):
    # a negative gap once printed upper = -9.43 with exit 0
    assert cli.main(argv + ["--n-mc", "1000"] if argv[0] == "bound"
                    else argv) == cli.EXIT_USAGE
    assert "upper" not in capsys.readouterr().out


@pytest.mark.parametrize("dist", ["normal:0,1", "uniform:-1,1", "two-point:1,2",
                                  "standardized-bernoulli:0.3,20"])
def test_zero_bias_remainder_takes_the_w1_gap_by_default(tmp_path, dist):
    out = tmp_path / "r.json"
    assert cli.main(["bound", "--dist", dist, "--g", "sin(x)", "--method",
                     "zero-bias-remainder", "--n-mc", "1000",
                     "--out", str(out)]) == cli.EXIT_OK
    results = read_json(out)["results"]
    assert results["meta"]["gap_source"] == "wasserstein-1"
    assert results["diagnostics"]["e_abs_gap"] >= 0.0
    assert results["upper"] >= results["remainder"] >= 0.0


def test_zero_bias_remainder_on_a_law_not_centered_is_withheld(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["bound", "--dist", "gamma:2,1", "--g", "sin(x)", "--method",
                     "zero-bias-remainder", "--n-mc", "1000",
                     "--out", str(out)]) == cli.EXIT_WITHHELD
    assert capsys.readouterr().err.startswith("withheld:")
    assert not out.exists()


def test_zero_bias_remainder_reports_a_given_gap(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["bound", "--dist", "normal:0,1", "--g", "sin(x)", "--method",
                     "zero-bias-remainder", "--gap", "0.25", "--n-mc", "1000",
                     "--out", str(out)]) == cli.EXIT_OK
    results = read_json(out)["results"]
    assert results["diagnostics"]["e_abs_gap"] == 0.25
    assert results["meta"]["gap_source"] == "given"


# The report contract: the top-level keys and each command's result keys.
REQUIRED_KEYS = {
    "kernel": ("distribution", "route", "x", "tau", "mean_tau", "variance"),
    "bound": ("method", "lower", "upper", "mc_variance", "mc_ci99", "mc_se",
              "hypothesis_checks", "remainder", "degenerate", "diagnostics",
              "meta"),
    "posterior": ("model", "bounds"),
    "verify": ("scenarios", "all_passed"),
}


@pytest.mark.parametrize("command", REQUIRED_KEYS)
def test_validate_report_refuses_each_missing_key(command):
    results = dict.fromkeys(REQUIRED_KEYS[command])
    cli.validate_report(cli._payload(command, 0, {}, results))
    for key in REQUIRED_KEYS[command]:
        payload = cli._payload(command, 0, {}, {k: v for k, v in results.items()
                                                if k != key})
        with pytest.raises(cli.CLIError, match=f"{command} results missing '{key}'"):
            cli.validate_report(payload)
    for key in ("schema_version", "command", "seed", "results"):
        payload = cli._payload(command, 0, {}, results)
        del payload[key]
        with pytest.raises(cli.CLIError, match=f"report missing required key '{key}'"):
            cli.validate_report(payload)


def test_discrete_law_with_repeated_atom(tmp_path):
    # the two atoms at 1 merge into a point mass (once a ValueError traceback)
    out = tmp_path / "r.json"
    code = cli.main(["bound", "--dist", "discrete-empirical:1,0.5,1,0.5",
                     "--g", "x", "--method", "equilibrium-b", "--n-mc", "1000",
                     "--out", str(out)])
    assert code == cli.EXIT_WITHHELD
    assert read_json(out)["results"]["lower"] is None


@pytest.mark.parametrize("route", [["--route", "integral"], ["--route", "pearson"],
                                   ["--route", "smoothed", "--epsilon", "0.5"]],
                         ids=lambda r: r[1])
@pytest.mark.parametrize("dist", ["invgamma:1.5,1", "invgamma:2,1", "pareto:2,1"])
def test_kernel_on_infinite_variance_is_a_usage_error(tmp_path, capsys, dist, route):
    # E[tau] = Var[W] = inf has no finite value to report: one exit code
    # and one message, whatever the family and the route
    out = tmp_path / "k.json"
    code = cli.main(["kernel", "--dist", dist, *route, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "infinite variance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dist", ["invgamma:1.5,1", "pareto:2,1"])
def test_cacoullos_lower_withheld_without_variance(tmp_path, dist):
    # Var[W] is infinite or undefined: the lower side divides by it
    out = tmp_path / "r.json"
    code = cli.main(["bound", "--dist", dist, "--g", "x/(1+x^2)", "--method",
                     "cacoullos", "--n-mc", "10000", "--out", str(out)])
    assert code == cli.EXIT_WITHHELD
    rep = read_json(out)["results"]
    assert rep["lower"] is None
    assert "lower_note" in rep["meta"]
    assert math.isfinite(rep["upper"])
    if dist.startswith("invgamma"):
        post = tmp_path / "p.json"
        assert cli.main(["posterior", "--pair", "gaussian-var", "--alpha",
                         "1.5", "--beta", "1", "--n", "0", "--g", "x/(1+x^2)",
                         "--n-mc", "10000", "--out", str(post)]) == cli.EXIT_WITHHELD
        bounds = read_json(post)["results"]["bounds"]
        assert bounds["lower"] is None
        assert bounds["upper"] == pytest.approx(rep["upper"], rel=1e-9)


@pytest.mark.parametrize("dist", ["pareto:2,1", "invgamma:2,1"])
def test_infinite_variance_laws_withhold_alike(tmp_path, dist):
    # both variances are inf, not an error: the cacoullos lower side names
    # it, and the smoothed-i bound is withheld (exit 3) on both
    out = tmp_path / "r.json"
    argv = ["bound", "--dist", dist, "--g", "x/(1+x^2)", "--n-mc", "10000"]
    assert cli.main(argv + ["--method", "cacoullos", "--out", str(out)]) == \
        cli.EXIT_WITHHELD
    assert read_json(out)["results"]["meta"]["lower_note"].startswith(
        "variance inf is not in (0, inf)")
    assert cli.main(argv + ["--method", "smoothed-i", "--epsilon", "0.5"]) == \
        cli.EXIT_WITHHELD


def test_equilibrium_lower_on_point_mass_is_withheld(tmp_path, recwarn):
    out = tmp_path / "r.json"
    code = cli.main(["bound", "--dist", "point-mass:1", "--g", "x", "--method",
                     "equilibrium-b", "--n-mc", "1000", "--out", str(out)])
    assert code == cli.EXIT_WITHHELD
    assert "lower_note" in read_json(out)["results"]["meta"]
    assert not [w for w in recwarn if "divide" in str(w.message)]


def test_equilibrium_lower_where_g_overflows_off_the_density(tmp_path):
    # g' = exp(x/2) overflows where the Exp(1) density is 0; those terms are
    # 0, so E[W g'(W)] = 4, and lower = 4^2 / (lambda^2 Var[W]) = 16
    out = tmp_path / "r.json"
    code = cli.main(["bound", "--dist", "exp:1", "--g", "2*exp(x/2)",
                     "--method", "equilibrium-b", "--n-mc", "1000",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert read_json(out)["results"]["lower"] == pytest.approx(16.0, rel=1e-8)


def test_bound_with_nan_g1g2_prints_no_runtime_warning():
    # the CLI runs in its own interpreter, with the default warning filters
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "steinbounds.cli", "bound", "--dist",
         "invgamma:5,3", "--g", "x^1.3", "--method", "cacoullos"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr

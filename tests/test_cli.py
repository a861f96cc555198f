import argparse
import json
import math

import jsonschema
import pytest

from steinbounds import cli
from steinbounds.numerics import NumericsError
from steinbounds.verify import ScenarioResult


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
def test_smoothed_tiny_epsilon_on_atoms(epsilon, capsys):
    # between the atoms the smoothed density underflows: refused promptly
    for argv in (["bound", "--dist", "two-point:0.8,1.3", "--g", "x", "--method",
                  "smoothed-i", "--n-mc", "10000"],
                 ["kernel", "--dist", "two-point:0.8,1.3", "--route", "smoothed",
                  "--x", "0.1"]):
        assert cli.main(argv + ["--epsilon", epsilon]) == cli.EXIT_NUMERIC
    assert "underflow" in capsys.readouterr().err


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
], ids=["gap-negative", "gap-nan", "epsilon-negative", "epsilon-inf",
        "kernel-epsilon-zero"])
def test_invalid_gap_and_epsilon_are_usage_errors(argv, capsys):
    # a negative gap once printed upper = -9.43 with exit 0
    assert cli.main(argv + ["--n-mc", "1000"] if argv[0] == "bound"
                    else argv) == cli.EXIT_USAGE
    assert "upper" not in capsys.readouterr().out


def test_discrete_law_with_repeated_atom(tmp_path):
    # the two atoms at 1 merge into a point mass (once a ValueError traceback)
    out = tmp_path / "r.json"
    code = cli.main(["bound", "--dist", "discrete-empirical:1,0.5,1,0.5",
                     "--g", "x", "--method", "equilibrium-b", "--n-mc", "1000",
                     "--out", str(out)])
    assert code == cli.EXIT_WITHHELD
    assert read_json(out)["results"]["lower"] is None


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

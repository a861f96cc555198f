"""steinbounds benchmark: one closed-loop client driving the CLI and library.

    python3 perfbench/run.py --workload mc-oracle --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One client sends the next request only after the previous one
finished.  After a warm-up request that is not timed, the client runs whole
units of the workload (see workloads.py) until --seconds have passed.  Then
every output is checked (checks.py).  The last stdout line is the result
object; the line before it holds the details and the environment.

--trace 0 reports the end-to-end metrics.  --trace 1 reports per-layer
metrics instead.  It runs the traced request list (workloads.traced_requests)
three times, each in a fresh interpreter: once untraced, then twice with
tracing.py's wrappers installed.  The first traced run gives the metrics;
the second must repeat its deterministic counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checker, Outcome
from workloads import UNITS, WARMUP, traced_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
SETUP_CODE = "import steinbounds, steinbounds.cli; steinbounds.cli.build_parser()"
BATTERY_N_MC = 10**4

# Counts that must repeat exactly between two traced runs at one seed.
DETERMINISTIC = ("numerics.quad.evals", "distributions.density.points",
                 "bounds.mc_variance.draws")

# Layers each workload is known to call; a traced run that records zero
# calls on one of them means a wrapper no longer sees the calls.
EXPECTED_LAYERS = {
    "mc-oracle": (
        "numerics.quad", "distributions.density", "distributions.expect",
        "distributions.sample", "kernels.smoothed_kernel", "kernels.tau",
        "transforms.zero_bias.build", "transforms.zero_bias.expect",
        "transforms.joint_sample", "orderings.check_cx",
        "orderings.check_nbue_nwue", "orderings.check_counting_condition",
        "exprfn.make_test_function", "exprfn.eval", "bounds.mc_variance",
        "bounds.assembly", "bayes.update", "bayes.posterior_bounds",
        "verify.run_scenario", "cli.emit"),
    "transform-tables": (
        "numerics.quad", "distributions.density", "distributions.quantile",
        "kernels.integral_kernel", "kernels.tau",
        "transforms.zero_bias.build", "transforms.zero_bias.expect",
        "transforms.equilibrium.build", "transforms.stop_loss",
        "orderings.check_cx", "orderings.check_nbue_nwue",
        "exprfn.make_test_function", "exprfn.eval", "bounds.mc_variance",
        "bounds.assembly", "cli.emit"),
    "law-battery": (
        "numerics.quad", "distributions.density", "distributions.expect",
        "distributions.sample", "kernels.tau", "transforms.zero_bias.build",
        "transforms.zero_bias.expect", "exprfn.make_test_function",
        "exprfn.eval", "bounds.mc_variance", "bounds.assembly"),
}

END_TO_END_UNITS = {
    "setup_s": "s", "requests_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB",
    "cpu_s_per_request": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc-oracle", "transform-tables", "law-battery"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pass-out", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads():
    """Cap the BLAS/OpenMP pools at nproc for this process and its children."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc():
            os.environ[var] = str(nproc())


def environment() -> dict:
    import numpy
    import scipy
    from importlib.metadata import version
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "jsonschema": version("jsonschema"),
            "nproc": nproc(), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(),
            "threads": {v: os.environ.get(v) for v in
                        THREAD_VARS + ("MKL_NUM_THREADS",)}}


def measure_setup() -> list[float]:
    """Wall seconds for a fresh interpreter to import the package and build
    the CLI parser, the cost every CLI invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Client:
    """Executes requests in-process, the way a CLI user or library caller
    would, and records what each one produced."""

    def __init__(self):
        import steinbounds
        from steinbounds import cli
        from steinbounds.distributions import centered
        from steinbounds.kernels import UnsupportedFamily
        self.sb, self.cli, self.centered = steinbounds, cli, centered
        self.unsupported = UnsupportedFamily
        self.out_path = OUT / f"report-{os.getpid()}.json"
        self.laws = {}

    def execute(self, req, span=None):
        run = self._cli if req.argv else self._library
        t0 = time.perf_counter()
        try:
            result = span(run, req) if span else run(req)
            latency = time.perf_counter() - t0
            code, payloads = result
            outcome = Outcome(latency, code)
            outcome.payloads = payloads() if callable(payloads) else payloads
        except Exception as exc:  # noqa: BLE001 - an uncaught error is a result
            outcome = Outcome(time.perf_counter() - t0,
                                   exception=f"{type(exc).__name__}: {exc}")
        return outcome

    def _cli(self, req):
        with contextlib.suppress(FileNotFoundError):
            self.out_path.unlink()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main([*req.argv, "--out", str(self.out_path)])
        return code, lambda: ([self.out_path.read_text()]
                              if self.out_path.exists() else [])

    def _library(self, req):
        sb = self.sb
        if req.call[0] == "build":
            _, i, family, params = req.call
            d = sb.make_distribution(family, params)
            try:
                kernel = sb.pearson_kernel(d)
            except self.unsupported:
                kernel = sb.integral_kernel(d)
            dc = self.centered(d)
            self.laws[i] = (d, kernel, sb.zero_bias(dc),
                            d.effective_interval(1e-9),
                            dc.effective_interval(1e-9))
            return 0, []
        _, i, g_src, seed = req.call
        d, kernel, zb, eff, eff_c = self.laws[i]
        rep = sb.bound_cacoullos(d, kernel, sb.make_test_function(g_src, eff),
                                 n_mc=BATTERY_N_MC, seed=seed)
        rep_z = sb.bound_zero_bias(zb, sb.make_test_function(g_src, eff_c),
                                   n_mc=BATTERY_N_MC, seed=seed + 1)
        return 0, lambda: [json.dumps({"schema_version": 1, "command": "bound",
                                       "seed": seed, "results": r.to_dict()})
                           for r in (rep, rep_z)]


def units(workload: str, seed: int):
    return (UNITS[workload](seed, u) for u in itertools.count())


def run_closed_loop(client, unit_iter, seconds, span=None):
    """Run whole units until `seconds` have passed; returns the records and
    the wall and CPU seconds of the run."""
    records = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for n_unit, unit in enumerate(unit_iter, 1):
        for req in unit:
            records.append((req, client.execute(req, span)))
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    with contextlib.suppress(FileNotFoundError):
        client.out_path.unlink()
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    return records, wall, cpu, n_unit


def check_records(records):
    """[(name, errors, known reason)] for every failed request."""
    checker = Checker(json.loads((SRC / "steinbounds" /
                                  "report_schema.json").read_text()))
    failures = []
    for req, outcome in records:
        errors = checker.errors(req, outcome)
        if errors:
            failures.append((req.name, errors, req.known_failure))
    return failures


def latency_tail(latencies):
    """(value, percentile, samples beyond it) for the highest whole
    percentile with at least ten samples beyond it (the maximum when there
    are ten samples or fewer)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct, n - rank


def warm_up(client, workload):
    for req in WARMUP[workload]:
        client.execute(req)
    client.laws.clear()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    import steinbounds  # noqa: F401 - compiles the sources before setup timing
    setup = measure_setup()
    client = Client()
    warm_up(client, args.workload)
    records, wall, cpu, n_units = run_closed_loop(
        client, units(args.workload, args.seed), args.seconds)
    failures = check_records(records)
    latencies = [o.latency_s for _, o in records]
    tail, pct, beyond = latency_tail(latencies)
    n = len(records)
    values = {
        "setup_s": statistics.median(setup),
        "requests_per_s": n / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "ok_ratio": (n - len(failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cpu_s_per_request": cpu / n,
    }
    details = {"setup_runs_s": setup, "wall_s": wall, "units": n_units,
               "latency_tail": {"percentile": pct, "samples": n,
                                "beyond": beyond},
               "failed_ratio": len(failures) / n}
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return n, failures, metrics, details, []


# ------------------------------------------------------------- traced runs

def single_pass(args):
    """Child process: warm up, run the traced request list once (wrapped
    when --trace 1, with a root span per request) and write what it saw."""
    client = Client()
    warm_up(client, args.workload)
    span, tracer = None, None
    if args.trace:
        import tracing  # imports numpy, so only after pin_threads()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        ids = itertools.count()
        span = lambda run, req: tracer.request_span(next(ids), run, req)  # noqa: E731
    reqs = traced_requests(args.workload, args.seed)
    records, wall, _, _ = run_closed_loop(client, iter([reqs]), 0.0, span)
    path = Path(args.pass_out)
    if tracer:
        tracer.save(path.with_suffix(".npz"))
    path.write_text(json.dumps({
        "wall_s": wall, "attempted": len(records),
        "totals": tracer.totals() if tracer else {},
        "metrics": tracer.metrics() if tracer else {},
        "failures": check_records(records)}))


def per_layer(args):
    """One untraced and two traced runs of the same requests, each in a
    fresh interpreter."""
    passes = {}
    for tag, trace in (("untraced", 0), ("a", 1), ("b", 1)):
        path = OUT / f"trace-{args.workload}-{tag}.json"
        subprocess.run([sys.executable, str(Path(__file__)), "--workload",
                        args.workload, "--seed", str(args.seed), "--seconds",
                        str(args.seconds), "--trace", str(trace), "--pass-out",
                        str(path)], check=True, timeout=170)
        passes[tag] = json.loads(path.read_text())
    base, first, second = passes["untraced"], passes["a"], passes["b"]
    values, repeat = first["metrics"], second["metrics"]
    layers_self = sum(self_s for _, self_s, _ in first["totals"].values())
    values.update({
        "trace.requests": (base["attempted"], "count"),
        "trace.wall_s": (first["wall_s"], "s"),
        "trace.untraced_wall_s": (base["wall_s"], "s"),
        "trace.overhead_s": (first["wall_s"] - base["wall_s"], "s"),
        "trace.layers_self_s": (layers_self, "s"),
        "trace.unattributed_s": (first["wall_s"] - layers_self, "s"),
    })
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    problems = [f"per-layer metric {k} is not reported" for k in declared
                if k not in values]
    problems += [f"per-layer metric {k} is not in BENCHMARK.json"
                 for k in values if k not in declared]
    problems += [f"{k} differs between two traced runs: {values[k][0]} vs "
                 f"{repeat[k][0]}" for k in DETERMINISTIC
                 if values[k][0] != repeat[k][0]]
    problems += [f"layer {name} recorded no calls"
                 for name in EXPECTED_LAYERS[args.workload]
                 if first["totals"].get(name, (0,))[0] == 0]
    failed = sorted(f[0] for f in base["failures"])
    for tag in ("a", "b"):
        traced_failed = sorted(f[0] for f in passes[tag]["failures"])
        if traced_failed != failed:
            problems.append(f"traced run {tag} failed {traced_failed}, "
                            f"untraced run failed {failed}")
    metrics = {k: metric(*values[k]) for k in declared if k in values}
    details = {"traced_wall_s": [first["wall_s"], second["wall_s"]],
               "overhead_share": first["wall_s"] / base["wall_s"] - 1,
               "spans": [f"perfbench/out/trace-{args.workload}-{t}.npz"
                         for t in "ab"]}
    return base["attempted"], base["failures"], metrics, details, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "steinbounds" / "__init__.py").is_file():
        print(f"error: no steinbounds sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.pass_out:
        single_pass(args)
        return 0
    run = per_layer if args.trace else end_to_end
    attempted, failures, metrics, details, problems = run(args)
    unexpected = [f for f in failures if not f[2]]
    for name, errors, known in failures:
        tag = f"known failure ({known})" if known else "FAILED"
        print(f"{tag}: {name}: {'; '.join(errors)}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": environment(),
                      "failures": [{"name": n, "errors": e, "known": k}
                                   for n, e, k in failures],
                      "problems": problems, **details}))
    print(json.dumps({"correct": not unexpected and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

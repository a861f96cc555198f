"""The benchmark's tracer (perfbench/tracing.py) wraps the package's entry
points by name from outside it; a renamed or removed entry point would
break every traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
import steinbounds as sb
d = sb.parse_dist("normal:0,1")
g = sb.make_test_function("sin(x)", d.effective_interval(1e-9))
tracer.request_span(0, sb.bound_cacoullos, d, sb.pearson_kernel(d), g,
                    1e-6, 10**4)
tracer.request_span(1, sb.bound_zero_bias, sb.zero_bias(d), g, 1e-6, 10**4)
s = sb.smooth(sb.parse_dist("two-point:1,1.5"), 0.5)
tracer.request_span(2, sb.bound_smoothed, s, sb.make_test_function(
    "x", s.effective_interval(1e-9)), "i", 1e-6, 10**4)


def posterior(pair, prior, summary):
    m = sb.posterior_update(pair, prior, summary)
    return sb.posterior_bounds(m, sb.make_test_function(
        "x", m.posterior.effective_interval(1e-9)), n_mc=10**4)


tracer.request_span(3, posterior, "binomial-beta", {"alpha": 1.0, "beta": 1.0},
                    {"n": 10, "x": 3})
totals = tracer.totals()
print(*(totals.get(name, [0])[0] for name in (
    "bayes.update", "bayes.posterior_bounds")))
print(*(totals.get(name, [0])[0] for name in (
    "numerics.quad", "transforms.zero_bias.expect", "kernels.smoothed_kernel",
    "kernels.tau")))
"""


def test_tracer_installs_and_sees_quadrature():
    # the zero-bias law's expect is a layer of its own (a metric of every
    # workload), though the law inherits it from _TabulatedLaw; a smoothed
    # bound still builds its kernel through smoothed_kernel
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "tracing.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    counts = list(map(int, done.stdout.split()[-4:]))
    # quadrature, the zero-bias law's expect, the smoothed kernel and tau:
    # mc-oracle's traced run checks each of these layers
    assert all(count >= 1 for count in counts), counts
    # a posterior request passes through both bayes layers, which
    # mc-oracle's traced run also checks
    bayes_counts = list(map(int, done.stdout.split()[-6:-4]))
    assert all(count >= 1 for count in bayes_counts), bayes_counts

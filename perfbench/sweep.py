"""Run the benchmark over seeds 1-10 and summarise each metric.

    python3 perfbench/sweep.py
    python3 perfbench/sweep.py --record COMMIT

Every workload of BENCHMARK.json runs once per seed.  For every workload
and end-to-end metric this prints the median of the runs, the
interquartile range as a share of the median (the run-to-run spread, from
statistics.quantiles(n=4)), and that spread as a share of the metric's
bound in BENCHMARK.json.  --record appends the medians and quartiles, and
the per-layer metrics of one traced run at seed 1, to trajectory.json as
the point for COMMIT; every point thus covers the same workloads and seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace=0):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", str(trace)], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}: correct=false "
              f"{details['failures']} {details['problems']}")
    return details, result


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--record", metavar="COMMIT", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values, env = {}, None
        for seed in SEEDS:
            details, result = run(workload, seed, bench["run_seconds"])
            env = details["environment"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread}
            print(f"{workload:17s} {name:18s} median {med:10.5g}  spread "
                  f"{spread:6.2%}  of bound {spread / bounds[name]:6.2f}  "
                  f"runs {' '.join(f'{x:.4g}' for x in xs)}")
        point[workload] = {"seeds": SEEDS, "metrics": summary}
        if args.record:
            details, result = run(workload, SEEDS[0], bench["run_seconds"],
                                  trace=1)
            point[workload]["traced_seed"] = SEEDS[0]
            point[workload]["per_layer"] = {
                name: m["value"] for name, m in result["metrics"].items()}
    if args.record:
        path = HERE / "trajectory.json"
        doc = json.loads(path.read_text())
        doc["trajectory"].append({"commit": args.record, "environment": env,
                                  "run_seconds": bench["run_seconds"],
                                  "workloads": point})
        path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()

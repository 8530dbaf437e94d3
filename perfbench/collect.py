#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Runs run.py once per (seed, workload), with seeds in the outer loop so that
all workloads sample the machine over the same stretch of time, then one
traced run per workload. It records each result line and the environment.
For each end-to-end metric it records the median and the quartile spread,
(q3 - q1) / median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(l[len("# env "):]) for l in lines if l.startswith("# env "))
    return env, json.loads(lines[-1])


def summarise(results: list) -> dict:
    out = {}
    for m in BENCHMARK["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[m["name"]] = {"median": median, "spread": (q3 - q1) / median,
                          "bound": m["bound"], "unit": m["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    names = [w["name"] for w in BENCHMARK["workloads"]]

    runs = {n: [] for n in names}
    env = None
    for seed in range(first, last + 1):
        for name in names:
            env, result = run_once(name, seed, 0)
            runs[name].append({"seed": seed, "result": result})
            print(name, seed, json.dumps(result), flush=True)
    traced = {n: run_once(n, first, 1)[1] for n in names}
    doc = {
        "env": env,
        "run_seconds": BENCHMARK["run_seconds"],
        "summary": {n: summarise([r["result"] for r in runs[n]]) for n in names},
        "runs": runs,
        "traced_seed": first,
        "traced": traced,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for name, metrics in doc["summary"].items():
        for metric, s in metrics.items():
            print(f"{name:11s} {metric:14s} median {s['median']:.6g} {s['unit']:9s} "
                  f"spread {s['spread']:.4f} bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

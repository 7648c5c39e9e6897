#!/usr/bin/env python3
"""A/A spread check: run identical code several times and compare the
run-to-run spread of every end-to-end metric with its bound.

    python3 perfbench/aa.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of a source checkout.  Each run uses the next seed.
For each workload and metric it prints the median of the runs and the
spread (q3 - q1) / median, with q1 and q3 from statistics.quantiles(n=4);
a spread above the metric's bound is marked.  setup_s's spread is shown
for information only: its bound applies to the change of its median.
Exit code 1 when a run fails or reports failed ops.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for run in range(args.runs):
            seed = args.first_seed + run
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit code {done.returncode}")
                bad = True
                continue
            result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                bad = True
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()),
                flush=True)
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            if len(xs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            spread = (q3 - q1) / median
            mark = ""
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                mark = "  OVER BOUND"
            elif spread > metric["bound"] / 3:
                mark = "  over a third of the bound"
            print(f"{workload:12} {metric['name']:12} median {median:10.5g}  "
                  f"spread {spread:.4f}  bound {metric['bound']}{mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

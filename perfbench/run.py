#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the serve daemon and the benchmark executable (perfbench/bench.exe)
from source with dune (inside the checkout, dune's shared cache
disabled), runs the benchmark executable and passes its output through.  The last line of standard output is the JSON
result; the exit code is non-zero when the build or the run fails or the
result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
DAEMON = os.path.join("_build", "default", "bin", "crossbar_serve.exe")
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "serve"))):
        return fail("run from the root of a source checkout (dune-project and lib/ not found)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./" + BENCH[len("_build/default/"):],
             "./" + DAEMON[len("_build/default/"):]],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        return fail(f"build failed: {error}")
    if build.returncode != 0:
        return fail(f"build failed with exit code {build.returncode}")

    command = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--serve", DAEMON]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        return fail(f"run failed: {error}")
    lines = run.stdout.rstrip("\n").split("\n")
    # Everything but the result line is the human-readable report.
    if lines[:-1]:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if run.returncode != 0:
        return fail(f"bench.exe exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail(f"last line is not JSON: {lines[-1][:200]!r}")
    if not isinstance(result, dict) or list(result) != RESULT_KEYS:
        return fail(f"result keys {list(result) if isinstance(result, dict) else result!r}")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

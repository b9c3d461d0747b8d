#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <analytic|point|mixed-write|spill> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/perfbench.exe with dune (release profile, build directory
.bench_build, dune cache off) and runs it. Build output goes to standard
error; the benchmark's report goes to standard output, whose last line is
the JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in ("dune-project", "lib", os.path.join("perfbench", "dune"))
               if not os.path.exists(p)]
    if missing:
        print("perfbench: not at the root of a checkout of the repository "
              "(missing: %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

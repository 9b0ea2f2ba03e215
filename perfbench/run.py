#!/usr/bin/env python3
"""Builds the benchmark (release, offline) and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper|sweep|serve> --seed <n> \
        --seconds <s> --trace <0|1> [--ops <n>]

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); its output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

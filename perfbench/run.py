#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The executable is built with dune into
.bench_build/dune (a release build, kept apart from the development
_build tree and from the shared dune cache), then run with the given
arguments; its standard output, whose last line is the JSON result,
passes through unchanged.  Build messages go to standard error.  A
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "dune")
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", DUNE_BUILD_DIR=build_dir)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--profile", "release",
             "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):
    python3 perf/run.py --workload capture|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark program (perf/perfbench.ml) and the bddmin daemon
from source with dune, then runs perfbench, which prints the result
as the last line of standard output.  Build output goes to stderr.
Exits non-zero when the build fails or any correctness check fails.
"""
import os
import signal
import subprocess
import sys

PERFBENCH = os.path.join("_build", "default", "perf", "perfbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "bddmin_cli.exe")
WORKDIR = ".perfbench"


def main():
    env = dict(os.environ)
    # keep every build output inside the checkout
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perf/perfbench.exe",
         "./bin/bddmin_cli.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perf/run.py: build failed", file=sys.stderr)
        return 1
    # perfbench runs in its own process group with the daemon it starts,
    # so that nothing outlives the run even if perfbench dies.
    bench = subprocess.Popen(
        [PERFBENCH] + sys.argv[1:] + ["--daemon", DAEMON, "--workdir", WORKDIR],
        env=env, start_new_session=True)
    try:
        return bench.wait()
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


if __name__ == "__main__":
    sys.exit(main())

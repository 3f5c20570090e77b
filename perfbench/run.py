#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cpla source checkout.  It builds the benchmark
executable and the cpla command line with dune, then runs one workload and
passes its output through: comment lines, then one JSON result line.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def kill_group(pgid):
    """SIGKILL whatever is left in the process group and wait until it is
    empty (a daemon orphaned by a crash is not our child to wait for)."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_group(argv, timeout, **kwargs):
    """Run argv in its own process group; on timeout, or when it leaves
    processes behind, kill the whole group (the benchmark's daemon
    included)."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {argv[0]} timed out after {timeout} s\n")
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        kill_group(proc.pid)


def main():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(need):
            sys.stderr.write(
                f"perfbench: {need} not found; run from the root of a cpla source checkout\n")
            return 2
    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "perfbench/main.exe", "bin/cpla_cli.exe"]
    code = run_group(build, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        return code if code > 0 else 1
    sys.stdout.flush()
    code = run_group([EXE, *sys.argv[1:]], RUN_TIMEOUT_S, env=env)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

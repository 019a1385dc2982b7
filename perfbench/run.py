#!/usr/bin/env python3
"""Build the auction-serving benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload repeat-warm --seed 1 --seconds 10 --trace 0

Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Artefacts (workload files, Chrome traces) go to perfbench/out.
The exit code is non-zero when the build fails or any output check fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    cmd = dune()
    if cmd is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # keep every build product inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        cmd + ["build", "--root", ".", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run(
        [os.path.join(ROOT, EXE), "--out", os.path.join("perfbench", "out")]
        + sys.argv[1:],
        cwd=ROOT, stdin=subprocess.DEVNULL)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

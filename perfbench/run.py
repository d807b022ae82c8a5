#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (into _build/, with the
shared dune cache off so nothing is written outside the checkout), runs
it, and re-prints its result as the last line of stdout: one JSON object
with the keys correct, attempted, failed and metrics.  Exits non-zero,
without a result line, when the sources are missing, the build fails,
or the run fails or times out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH", 3)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed, 2)
    cmd = dune_command() + [
        "build", "--root", ".", "--cache=disabled", "--display=quiet",
        "./perfbench/main.exe",
    ]
    # the build's own output goes to stderr: stdout carries the result
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % proc.returncode, 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join("perfbench", "out"),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        if e.stdout:
            out = e.stdout if isinstance(e.stdout, str) else e.stdout.decode()
            sys.stdout.write(out)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode, 5)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("no result line", 6)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stdout.write(proc.stdout)
        fail("malformed result line", 6)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

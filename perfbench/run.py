#!/usr/bin/env python3
"""Build and run the repository benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload bulk|rpc|lossy --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/fxbench.exe
from source with dune, runs it, and passes its report through: the seed,
nproc, the OCaml version and the commit come first, the metrics with
their units follow, and the last line is the JSON result.  The exit code
is non-zero when the build or the run fails (then no result is printed)
or when an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, "_perfbench")
TARGET = os.path.join("perfbench", "fxbench.exe")
EXE = os.path.join(ROOT, "_build", "default", TARGET)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def commit():
    # never look above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (no git)"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["bulk", "rpc", "lossy"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        return fail("no dune-project here: run from the root of a checkout")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune not found on PATH")
    try:
        build = subprocess.run([dune, "build", "--root", ROOT, TARGET], cwd=ROOT,
                               stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0 or not os.path.isfile(EXE):
        return fail("build failed")

    os.makedirs(OUT, exist_ok=True)
    # the runtime_events ring of the traced run lives here, not in ROOT
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run timed out")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if run.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(run.stdout)
        return fail(f"fxbench exited with {run.returncode} and no result")

    print(f"seed {args.seed}, nproc {os.cpu_count()}, commit {commit()}")
    print("\n".join(lines))
    return 0 if run.returncode == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())

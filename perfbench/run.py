#!/usr/bin/env python3
"""Builds and runs one workload of the cirank benchmark (see README.md).

    python3 perfbench/run.py --workload imdb_star --seed 1 --seconds 30 --trace 0

The benchmark is compiled from this checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use.
The last line of standard output is the run's JSON result; every result is
also appended to .perfbench_out/runs.jsonl. The exit code is 0 only when
every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("imdb_star", "dblp_capped", "serve_clicks")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"cirank sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "cirank_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "cirank_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    try:
        binary = build(os.path.join(os.path.abspath(target), "perfbench"))
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    # Guards against a hung run only: the work is fixed, and a run normally
    # takes little more than --seconds plus its set-up and checks.
    timeout_s = 5 * args.seconds + 20
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {timeout_s} s")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: run failed with exit code {proc.returncode}")
        return proc.returncode or 2
    result = json.loads(lines[-1])
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "runs.jsonl"), "a") as runs:
        runs.write(json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

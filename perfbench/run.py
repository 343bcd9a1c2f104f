#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
the library and the runner binary (perfbench/CMakeLists.txt) in the build
directory, $CARGO_TARGET_DIR or .bench_build; later runs only check that the
build is current. Build output goes to standard error, so the last line of
standard output is the runner's JSON result. Traced runs (--trace 1) also
leave their spans in <build dir>/trace/<workload>-seed<N>.jsonl.

Exits non-zero without a result when the build fails or the runner does not
finish, and with the runner's exit code otherwise.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_hot", "scan_cold", "ingest_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "--target", "skl_perfbench",
                  "--parallel", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out_dir, "skl_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir] + extra
    if args.trace:
        trace_dir = os.path.join(out_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: runner did not finish in %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

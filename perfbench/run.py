#!/usr/bin/env python3
"""Builds and runs the mpx end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload long_trace|wide_lattice|many_sessions \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the mpx libraries from
src/ plus the benchmark binary) into .bench_build/perfbench; later calls
rebuild incrementally.  Build output goes to stderr.  The binary's last
stdout line is the result JSON (see perfbench/README.md).  Exits non-zero,
printing no result, when the build fails, e.g. when src/ is absent.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s of being started.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    binary = os.path.join(build_dir, "mpx_perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S) != 0:
        return None
    return binary if os.path.exists(binary) else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    root = os.getcwd()
    out_dir = os.path.join(root, ".bench_build")
    binary = build(os.path.join(out_dir, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the FTMP benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <flood|invoke|failover> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build/; build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The traced run also writes its spans to
<build dir>/trace-<workload>-<seed>.csv. Exits non-zero, without a result,
when the sources or the toolchain are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("flood", "invoke", "failover")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no FTMP sources next to %s" % bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))

    try:
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            step(["cmake", "-S", bench_dir, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
        step(["cmake", "--build", build, "--target", "perfbench", "-j", "4"])
    except FileNotFoundError as e:
        sys.exit("perfbench: %s" % e)

    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build, "trace-%s-%d.csv" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

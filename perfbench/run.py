#!/usr/bin/env python3
"""Build the SMRP benchmark program if needed, then run one workload.

    python3 perfbench/run.py --workload drill|chaos|sessions --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout of the repository. The program and the
repo's src/ libraries are built with the CMake project in this directory
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build
output goes to stderr; the program's last line of stdout is the result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("drill", "chaos", "sessions")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def build(build_dir):
    """Configure once, then build incrementally; returns the binary path."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "smrp_perfbench", "-j", "4"], check=True, **quiet)
    return os.path.join(build_dir, "smrp_perfbench")


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())

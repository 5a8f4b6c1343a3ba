#!/usr/bin/env python3
"""Build the host-time benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper|serving|transfer \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator's libraries and the benchmark binary into
.bench_build/perfbench (build output goes to stderr); later runs only
re-check the build. The binary prints its metrics, and as its last
stdout line one JSON object {correct, attempted, failed, metrics}.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources at %s" % (ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper", "serving", "transfer"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    # One thread: keep it on one CPU. Migrating between the vCPUs of a
    # shared VM costs cache warmth and shows up as timing noise.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    sys.stdout.flush()
    proc = subprocess.run([
        str(BUILD / "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", str(HERE / "reference.txt"),
    ])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Show that the benchmark's cells are the computation the paper benches run.

    python3 perfbench/check_benches.py [--bench-dir DIR]

Runs bench_fig8_speedup, bench_fig11_oversubscription, bench_fig14_hmm,
bench_tenants and bench_fig6_transfer with --csv --jobs 1, and the
benchmark binary with --csv, which renders the same tables from its own
cells at the development seed and the benches' full sizes. Every table
the benchmark prints must appear, line for line, in the matching bench's
output. Exits 1 on any mismatch.

Without --bench-dir the benches are built from the repository's own
CMake project into .bench_build/repo (this needs GTest and
google-benchmark, as the repository's build does). Run from the
repository root.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHES = ["bench_fig8_speedup", "bench_fig11_oversubscription",
           "bench_fig14_hmm", "bench_tenants", "bench_fig6_transfer"]


def build_benches():
    build = ROOT / ".bench_build" / "repo"
    if not (build / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT), "-B", str(build)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build), "-j", jobs,
                    "--target", *BENCHES], check=True, stdout=sys.stderr)
    return build / "bench"


def perfbench_tables(binary):
    """{bench name: [csv lines]} from `perfbench --csv`."""
    out = subprocess.run([str(binary), "--csv"], check=True,
                         capture_output=True, text=True).stdout
    tables, current = {}, None
    for line in out.splitlines():
        if line.startswith("== "):
            current = line[3:]
            tables[current] = []
        elif current:
            tables[current].append(line)
    return tables


def contains_block(haystack, block):
    n = len(block)
    return any(haystack[i:i + n] == block
               for i in range(len(haystack) - n + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", type=Path,
                    help="directory holding the built bench binaries")
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
    import run
    run.build()
    bench_dir = args.bench_dir or build_benches()
    tables = perfbench_tables(run.BUILD / "perfbench")

    ok = True
    for bench in BENCHES:
        lines = tables.get(bench, [])
        out = subprocess.run([str(bench_dir / bench), "--csv", "--jobs",
                              "1"], check=True, capture_output=True,
                             text=True).stdout.splitlines()
        # Tables are printed back to back; each starts at its header
        # row, the only row whose first field is one of these words.
        blocks, block = [], []
        for line in lines:
            if block and line.split(",")[0] in ("App", "OSF", "Skew"):
                blocks.append(block)
                block = []
            block.append(line)
        if block:
            blocks.append(block)
        found = bool(blocks) and all(contains_block(out, b)
                                     for b in blocks)
        rows = sum(len(b) - 1 for b in blocks)
        print("%-30s %s (%d rows in %d tables)"
              % (bench, "match" if found else "MISMATCH", rows,
                 len(blocks)))
        ok = ok and found
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

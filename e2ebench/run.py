#!/usr/bin/env python3
"""Builds and runs one workload of Ariel's end-to-end benchmark.

    python3 e2ebench/run.py --workload paper_oltp --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root. The first call configures and builds the
engine and the benchmark binary from source into .bench_build/e2ebench
(RelWithDebInfo, the repository's default build type); later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. The exit status is the
benchmark's: 0 only when every output checked out.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no engine sources at %s/src; run from a full "
                 "checkout of the repository" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return BUILD / "ariel_e2e"


def main():
    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit("e2ebench: build failed (%s)" % err)
    sys.stdout.flush()
    return subprocess.run([str(binary)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

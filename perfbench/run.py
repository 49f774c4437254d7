#!/usr/bin/env python3
"""Builds the broker benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hit|miss|churn --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (and the program's libraries it links) into .bench_build/;
later runs only rebuild what changed. Build output goes to stderr; the
benchmark's last line on stdout is its JSON result.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the program's sources (src/) are missing; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main() -> int:
    build()
    done = subprocess.run([str(BINARY), *sys.argv[1:]], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

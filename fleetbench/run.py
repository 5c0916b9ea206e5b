#!/usr/bin/env python3
"""Build (if needed) and run the fleet benchmark.

    python3 fleetbench/run.py --workload steady_drain --seed 1 \
        --seconds 20 --trace 0

Configures and builds fleetbench/ (which compiles the repository's
src/ libraries itself) into .bench_build/fleetbench at the repository
root, then replaces this process with the benchmark binary. Build output
goes to stderr so the binary's last stdout line stays the JSON result.
All arguments are passed through; see src/main.cpp for them.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fleetbench")


def build() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("fleetbench: the repository sources (src/) are missing; "
                 "run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "fleetbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main() -> None:
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"fleetbench: build failed ({e})")
    binary = os.path.join(BUILD, "fleetbench")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--scratch", BUILD])


if __name__ == "__main__":
    main()

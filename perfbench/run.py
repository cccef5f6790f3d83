#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Usage (from the repository root):
  python3 perfbench/run.py --workload <mesh16|field3k|chain10k_pdes|matrix> \
      --seed <n> --seconds <s> --trace <0|1>

The build lives in .bench_build/perfbench under the repository root; the
first call configures and compiles (about a minute on 4 cores), later calls
only check it is up to date. Build output goes to stderr, so the binary's
stdout ends with its one-line JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def step(cmd):
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        sys.stderr.write(result.stdout.decode(errors="replace"))
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def configured_for_this_checkout():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip() == HERE
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are not in this checkout")
    if not configured_for_this_checkout():
        shutil.rmtree(BUILD, ignore_errors=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", BUILD, *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())

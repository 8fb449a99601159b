#!/usr/bin/env python3
"""Builds and runs the ShareInsights end-to-end benchmark.

    python3 perfbench/run.py --workload <author_run|viewer_storm|feed_append> \
        --seed <n> --seconds <s> --trace <0|1>

Configures the perfbench/ CMake package (its build type defaults to
Release) into the directory named by CARGO_TARGET_DIR, default
.bench_build, builds si_perfbench there from the checkout's src/, and runs
it. Build output goes to stderr; the last line of stdout is the
benchmark's result JSON. Exits nonzero when the platform sources are
missing, the build fails, or any answer is wrong.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(cmake_dir):
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "si_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: platform sources (src/) not found beside perfbench/",
              file=sys.stderr)
        return 2
    out = build_dir()
    cmake_dir = os.path.join(out, "perfbench")
    try:
        build(cmake_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2
    binary = os.path.join(cmake_dir, "si_perfbench")
    command = [binary] + argv + ["--work-dir", os.path.join(out, "work")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

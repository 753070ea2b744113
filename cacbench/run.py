#!/usr/bin/env python3
"""Build and run the cacbench admission benchmark.

    python3 cacbench/run.py --workload churn|probe|signaling_lossy \\
        --seed N --seconds S --trace 0|1 [--break-gate]

Run it from the repository root.  The first run configures and builds the
benchmark (cacbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/cacbench, or .bench_build/cacbench when that variable
is unset; later runs only rebuild what changed.  Build output goes to
stderr.  The benchmark's own output goes to stdout, and its last line is
the JSON result.  The exit code is the benchmark's: non-zero when the
build fails, when a correctness gate fails, or when no result was
printed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "cacbench")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    compile_ = ["cmake", "--build", out, "--target", "cacbench", "-j", "4"]
    return subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main(argv):
    out = build_dir()
    if not build(out):
        print("cacbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(out, "cacbench"), *argv, "--trace-dir", os.path.join(out, "traces")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("cacbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print("cacbench: no result line", file=sys.stderr)
        return done.returncode or 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

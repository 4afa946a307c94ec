#!/usr/bin/env python3
"""Build vtpbench from source, then run it.

Run from the repository root:

    python3 bench/vtpbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

The benchmark package (bench/vtpbench/CMakeLists.txt, which includes the
top-level project for its `vtp` library) is configured and built in
$CARGO_TARGET_DIR/vtpbench, or in build-vtpbench when CARGO_TARGET_DIR is
not set. Build output goes to stderr, so the last line vtpbench prints on
stdout is its JSON result. Every argument is passed to vtpbench unchanged;
see README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    if shutil.which("cmake") is None:
        print("run.py: cmake not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "vtpbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR")
    build_dir = os.path.join(ROOT, target, "vtpbench") if target else os.path.join(ROOT, "build-vtpbench")
    if not build(build_dir):
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "vtpbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

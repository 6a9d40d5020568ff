#!/usr/bin/env python3
"""Build and run the mivtx end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the benchmark package in e2ebench/ (a Release build
of the repository's libraries plus the mivtx_e2ebench binary) into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench, then runs the
binary with the given arguments.  Build output goes to stderr; the
binary's stdout passes through unchanged, so its last line is the JSON
result.  Scratch files (the serve workload's cache directories, Chrome
traces) go to <build dir>/run, temporaries to <build dir>/tmp.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    sys.stderr.write("e2ebench: %s\n" % message)
    return 2


def build(binary_dir):
    """Configure once, then build incrementally; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", binary_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(binary_dir, ignore_errors=True)
            return False
    return subprocess.call(
        ["cmake", "--build", binary_dir, "--target", "mivtx_e2ebench",
         "-j", jobs], stdout=sys.stderr) == 0


def main(argv):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        return fail("mivtx sources not found next to %s" % BENCH_DIR)
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary_dir = os.path.join(build_root, "e2ebench")
    # Keep compiler and run temporaries inside the build directory too.
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    if not build(binary_dir):
        return fail("build failed")
    sys.stdout.flush()
    return subprocess.call(
        [os.path.join(binary_dir, "mivtx_e2ebench")] + argv +
        ["--work-dir", os.path.join(build_root, "run")])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

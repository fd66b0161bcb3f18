#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <train_ckpt|reshard_resume|remote_mixed>
                             --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --test      # the benchmark's own tests (guardrails)

Run from the repository root. The program's libraries and the benchmark binary are built
with CMake into .bench_build/perfbench (Release); checkpoints and the daemon socket live
under .bench_work/. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(os.cpu_count() or 2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure + generator, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry from scratch next time
            return False
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if argv == ["--test"]:
        return subprocess.call(["ctest", "--test-dir", BUILD, "--output-on-failure"],
                               stdout=sys.stderr)
    return subprocess.call([os.path.join(BUILD, "perfbench")] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

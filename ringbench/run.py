#!/usr/bin/env python3
"""Build and run the end-to-end benchmark on this checkout.

    python3 ringbench/run.py --workload miss_n8 --seed 1 --seconds 30 --trace 0

Builds (or brings up to date) the repository's libraries, the shipped
starringd and starring-proxy binaries and the ringbench client into
.bench_build/ at the root of the checkout, then runs one workload.
Build output goes to stderr; the last line of stdout is the result
object.  Without the repository's sources next to ringbench/ the
build fails and the script exits non-zero without a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["ringbench", "starringd", "starring-proxy"]


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", *TARGETS,
                    "-j", jobs], stdout=sys.stderr, check=True)


def workload_of(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload":
            return value
    return None


def main():
    workload = workload_of(sys.argv[1:])
    if workload is None or not workload.replace("_", "").isalnum():
        print("usage: run.py --workload NAME --seed N --seconds S --trace 0|1",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"ringbench: build failed: {e}", file=sys.stderr)
        return 2
    run_dir = os.path.join(BUILD, "run", workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    binary = os.path.join(BUILD, "ringbench")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--build-dir", BUILD,
                      "--run-dir", run_dir])


if __name__ == "__main__":
    sys.exit(main())

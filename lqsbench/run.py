#!/usr/bin/env python3
"""Builds the monitored-path benchmark from this checkout and runs it.

    python3 lqsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is compiled with CMake from
lqsbench/CMakeLists.txt (which compiles the checkout's src/ tree) into
$CARGO_TARGET_DIR/lqsbench, default .bench_build/lqsbench; a build that is
already up to date costs about a second. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The traced run
(--trace 1) writes its spans to .../lqsbench/spans/<workload>-seed<N>.tsv
unless --spans is given. Any other arguments (--smoke, --inject) are passed
to the benchmark unchanged; see lqsbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Files of the system under test that the build needs; without them (a
# directory holding only the benchmark) there is nothing to measure.
REQUIRED = [
    os.path.join(ROOT, "src", "monitor", "sharded_monitor.h"),
    os.path.join(ROOT, "src", "remote", "wire.h"),
    os.path.join(ROOT, "src", "lqs", "estimator.h"),
]


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "lqsbench")


def cached_source_dir(cache):
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(out):
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache) and cached_source_dir(cache) != HERE:
        shutil.rmtree(out)  # configured for another checkout
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("lqsbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("lqsbench: the system's sources are missing (%s); run from the "
              "root of a full checkout" % os.path.relpath(missing[0], ROOT),
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        return 2
    args = list(argv)
    if arg_value(args, "--trace") == "1" and arg_value(args, "--spans") is None:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, "%s-seed%s.tsv" % (
            arg_value(args, "--workload"), arg_value(args, "--seed")))]
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "lqsbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

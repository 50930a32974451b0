#!/usr/bin/env python3
"""The benchmark's own tests: smoke runs and proof that the gate fires.

    python3 lqsbench/selftest.py

Runs every workload in --smoke mode (a twentieth of the sessions, five
measured timelines) with --trace 0 and --trace 1 and checks that each
run passes its correctness gate and emits exactly the metrics, with the
units, that BENCHMARK.json names. The workloads are those BENCHMARK.json
lists plus fleet_delta_10k, which is runnable by name but left out of the
list (lqsbench/README.md says why). Then checks that the gate fires:
a never-completing endpoint must fail the run and count failed operations,
and a perturbed report digest must fail the run. Exits non-zero on any
failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def main():
    spec = load_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            failures.append(what)

    workloads = [w["name"] for w in spec["workloads"]] + ["fleet_delta_10k"]
    for workload in workloads:
        for trace in (0, 1):
            name = "%s --trace %d" % (workload, trace)
            code, result, err = run(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  name + ": exits 0 and passes the gate" +
                  ("" if code == 0 else "\n" + err[-2000:]))
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  name + ": emits exactly the named metrics and units")
            check(all(math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  name + ": every value is finite")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  name + ": operations attempted, none failed")

    fleet = "fleet_delta_10k"
    code, result, _ = run(fleet, 0, "--inject", "never_complete")
    check(code != 0 and result is not None and not result["correct"] and
          result["failed"] > 0,
          "never-completing endpoint: gate fires and failed operations count")
    for trace in (0, 1):
        code, result, _ = run(fleet, trace, "--inject", "perturb_digest")
        check(code != 0 and result is not None and not result["correct"],
              "perturbed digest (--trace %d): gate fires" % trace)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call builds the library from
src/ and the perfbench program into .bench_build/perfbench (Release); later
calls only re-check the build. The program's result line is the last line of
standard output; build logs go to standard error. The exit code is the
program's: non-zero when an output check failed or the build did not succeed.

--smoke runs every workload of BENCHMARK.json at tiny scale, traced and
untraced, and fails if a metric named there is missing or has the wrong
unit, or if a deliberately perturbed output gets past the checks.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures (once) and builds perfbench; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_perfbench(args):
    """Runs perfbench with `args`; returns (exit code, stdout)."""
    workload = args[args.index("--workload") + 1]
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    args = args + ["--trace-out",
                   os.path.join(trace_dir, workload + ".trace.json")]
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    return done.returncode, done.stdout


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke():
    """Tiny-scale run of every workload; returns the number of failures."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = "%s trace %d" % (workload, trace)
            code, out = run_perfbench(["--workload", workload,
                                       "--seed", "1", "--seconds", "1",
                                       "--trace", str(trace), "--smoke"])
            result = result_line(out)
            if code != 0 or not result or result.get("correct") is not True:
                failures.append("%s: exit %d, result %r"
                                % (label, code, result))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                got = metrics.get(name)
                if got is None:
                    failures.append("%s: metric %s missing" % (label, name))
                elif got.get("unit") != unit:
                    failures.append("%s: metric %s has unit %r, expected %r"
                                    % (label, name, got.get("unit"), unit))
                elif trace == 0 and not got.get("value"):
                    failures.append("%s: metric %s is 0" % (label, name))
            for name in set(metrics) - set(expected[trace]):
                failures.append("%s: metric %s not in BENCHMARK.json"
                                % (label, name))
            print("smoke: %s ok (%d metrics)" % (label, len(metrics)))
        # A corrupted output must fail the run.
        code, out = run_perfbench(["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", "0",
                                   "--smoke", "--perturb"])
        result = result_line(out)
        if code == 0 or result is None or result.get("correct") is not False:
            failures.append("%s: perturbed output passed the checks (exit %d)"
                            % (workload, code))
        else:
            print("smoke: %s perturbed output caught" % workload)
    for failure in failures:
        print("smoke: FAIL " + failure)
    return len(failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.smoke:
        return 1 if smoke() else 0
    if not args.workload:
        parser.error("--workload is required")
    code, out = run_perfbench(["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the simulator benchmark.

Builds the simulator and the benchmark program, fela_perfbench, from
this checkout's sources (into .bench_build/perfbench), then runs one
workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is the JSON result; build output goes to
stderr. With --trace 1 the traced passes' spans are also written, as
Chrome trace-event JSON, to .bench_build/perfbench/spans-NAME-N.json.

    python3 perfbench/run.py --self-check [--seed N]

runs every workload of BENCHMARK.json in its tiny configuration, traced
and untraced, and fails unless each prints every metric BENCHMARK.json
names, with its unit, passes every correctness check, and prints the same
output fingerprint traced and untraced.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "fela_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "experiment.h")):
        fail("simulator sources not found under src/; "
             "run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    commands = []
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            commands.append(["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        commands.append(["cmake", "--build", BUILD, "--parallel", jobs])
        for command in commands:
            if subprocess.run(command, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(command))


def benchmark_command(workload, seed, seconds, trace, tiny=False):
    command = [EXE, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--spans-out",
                    os.path.join(BUILD, f"spans-{workload}-{seed}.json")]
    if tiny:
        command.append("--tiny")
    return command


def self_check(seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        fingerprints = set()
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{name} --trace {trace}"
            run = subprocess.run(
                benchmark_command(name, seed, 0.5, trace, tiny=True),
                capture_output=True, text=True, timeout=600)
            if run.returncode != 0:
                problems.append(f"{label}: exit {run.returncode}: "
                                f"{run.stderr.strip()}")
                continue
            fingerprints.update(re.findall(r"fingerprint=([0-9a-f]{16})",
                                           run.stdout))
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if (result["correct"] is not True or result["failed"] != 0
                    or result["attempted"] < 1):
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/"
                                f"{result['attempted']}: "
                                f"{run.stderr.strip()}")
            metrics = result["metrics"]
            for m in expected:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit "
                                    f"{got.get('unit')!r}, want {m['unit']!r}")
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: {m['name']} has no value")
                elif trace == 0 and not got["value"] > 0:
                    problems.append(f"{label}: {m['name']} is not positive")
            for extra in sorted(set(metrics) - {m["name"] for m in expected}):
                problems.append(f"{label}: metric {extra} not in BENCHMARK.json")
        if len(fingerprints) != 1:
            problems.append(f"{name}: fingerprints differ between runs of "
                            f"one seed: {sorted(fingerprints)}")
    for problem in problems:
        print("FAIL " + problem)
    print(f"self-check: {len(spec['workloads'])} workloads, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_check:
        return self_check(args.seed)
    sys.stdout.flush()
    # fela_perfbench replaces this process, so no child is left to reap
    # here; it waits for each pass process it starts itself.
    command = benchmark_command(args.workload, args.seed, args.seconds,
                                args.trace)
    os.execv(command[0], command)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""wtc-perf: build the benchmark from source, run one workload, print its result.

Usage, from the repository root:

    python3 wtcperf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 wtcperf/run.py --workload all [--seed N --seconds S --trace 0|1]

The benchmark (wtcperf/CMakeLists.txt) is configured and built into
$CARGO_TARGET_DIR/wtcperf (default .bench_build/wtcperf) on the first run and
brought up to date on every later one. The human-readable report goes to
stdout; its last line is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs every workload in turn, prints
each report, then one table of every metric by workload. Every file a run
writes lands in wtcperf/out/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("t3_audit_campaign", "t8_pecos_campaign", "oplog_replay", "shard_1m")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("wtc-perf: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing next to " + HERE)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "wtcperf")
    commands = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    commands.append(["cmake", "--build", build_dir, "--target", "wtc_perf",
                     "--parallel", jobs])
    for command in commands:
        try:
            done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(command))
    return os.path.join(build_dir, "wtc_perf")


def run(binary, workload, args):
    """Runs one workload; returns its report lines (the last is the result)."""
    command = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--out=" + OUT, "--root=" + ROOT]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        fail("wtc_perf exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result object has unexpected keys")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    if args.workload != "all":
        lines, _ = run(binary, args.workload, args)
        print("\n".join(lines))
        return
    results = {}
    for workload in WORKLOADS:
        lines, results[workload] = run(binary, workload, args)
        print("\n".join(lines[:-1]) + "\n")
    print("%-40s" % "metric" + "".join("%20s" % w for w in WORKLOADS))
    names = list(results[WORKLOADS[0]]["metrics"])
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print("%-40s" % ("%s (%s)" % (name, unit)) + "".join(
            "%20.6g" % results[w]["metrics"][name]["value"] for w in WORKLOADS))
    print("%-40s" % "fail_ratio" + "".join(
        "%20.6g" % (results[w]["failed"] / results[w]["attempted"]) for w in WORKLOADS))
    if not all(r["correct"] for r in results.values()):
        fail("a workload's outputs failed their checks")


if __name__ == "__main__":
    main()

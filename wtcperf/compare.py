#!/usr/bin/env python3
"""Compare two commits on the wtc-perf benchmark, pair by pair.

    python3 wtcperf/compare.py run --base DIR --change DIR [--pairs 10]
    python3 wtcperf/compare.py report PAIRS.jsonl

`run` takes two checkouts (the parent commit and the change), runs every
workload of BENCHMARK.json on both at its run_seconds, with the same seed
per pair, alternating which side runs first, and appends each result to
wtcperf/out/compare.jsonl of the checkout it is started from. It then prints
the report.

`report` reads such a file and, per workload and end-to-end metric of this
checkout's BENCHMARK.json, applies the gain rule: at least 10 pairs, the
change better in at least 9 of 10 of them (ties count for neither side), and
the medians further apart than the parent's inter-quartile spread. Where the
parent's spread is wider than the metric's bound the row reads "unresolved",
unless every change run beats every parent run. A change median worse than
the parent's by more than the bound is a regression. Each row gives the
parent median it is a ratio of.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(checkout, workload, seed, seconds):
    command = [sys.executable, os.path.join("wtcperf", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("compare: %s failed in %s:\n%s" % (workload, checkout, done.stderr))
    return json.loads(lines[-1])


def run(args):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "compare.jsonl")
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    with open(path, "a") as out:
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for workload in workloads:
                for side in order:
                    result = run_one(sides[side], workload, pair + 1, seconds)
                    record = {"pair": pair, "side": side, "workload": workload,
                              "seed": pair + 1, "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("pair %d %-6s %-18s correct=%s" % (pair, side, workload,
                                                             result["correct"]))
    report(path)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, change, bound):
    """The row's verdict and the parent's relative spread."""
    higher = metric["better"] == "higher"
    better = (lambda c, b: c > b) if higher else (lambda c, b: c < b)
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    spread = (q3 - q1) / med_b if med_b else float("inf")
    wins = sum(1 for b, c in zip(base, change) if better(c, b))
    worse_by = (med_b - med_c) / med_b if higher else (med_c - med_b) / med_b
    all_better = all(better(c, b) for c in change for b in base)
    if spread > bound:
        return ("better in every run" if all_better else "unresolved"), spread, wins
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
            and better(med_c, med_b) and abs(med_c - med_b) > q3 - q1):
        return "gain", spread, wins
    if worse_by > bound:
        return "regression", spread, wins
    return "no regression", spread, wins


def report(path):
    bench = load_benchmark()
    pairs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            pairs.setdefault(record["workload"], {}).setdefault(record["pair"], {})[
                record["side"]] = record["result"]
    print("%-18s %-12s %24s %24s %8s %6s %14s  %s" % (
        "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]",
        "delta", "wins", "spread/bound", "verdict"))
    for workload in [w["name"] for w in bench["workloads"]]:
        complete = [p for p in pairs.get(workload, {}).values() if len(p) == 2]
        if not complete:
            continue
        failed = {side: sum(p[side]["failed"] for p in complete) for side in ("base", "change")}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [p["base"]["metrics"][name]["value"] for p in complete]
            change = [p["change"]["metrics"][name]["value"] for p in complete]
            result, spread, wins = verdict(metric, base, change, metric["bound"])
            if result == "gain" and failed["change"] > failed["base"]:
                result = "no gain (more failed operations)"
            q1, med_b, q3 = quartiles(base)
            c1, med_c, c3 = quartiles(change)
            print("%-18s %-12s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g] %+7.1f%% %3d/%-2d "
                  "%6.3f/%-6.3g  %s (base: parent median %.6g %s, n=%d)" % (
                      workload, name, med_b, q1, q3, med_c, c1, c3,
                      100.0 * (med_c - med_b) / med_b if med_b else 0.0, wins,
                      len(complete), spread, metric["bound"], result, med_b,
                      metric["unit"], len(complete)))
        if len(complete) < MIN_PAIRS:
            print("%-18s only %d complete pairs: a gain needs %d" % (
                workload, len(complete), MIN_PAIRS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run alternating pairs, then report")
    run_parser.add_argument("--base", required=True, help="checkout of the parent commit")
    run_parser.add_argument("--change", required=True, help="checkout of the change")
    run_parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    report_parser = sub.add_parser("report", help="report a pairs file")
    report_parser.add_argument("pairs_file")
    args = parser.parse_args()
    if args.command == "run":
        run(args)
    else:
        report(args.pairs_file)


if __name__ == "__main__":
    main()

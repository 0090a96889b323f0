#!/usr/bin/env python3
"""Runs two interleaved sets of benchmark runs and says whether they agree.

    python3 perfbench/aa.py [--runs N] [--other CHECKOUT]

Every workload in BENCHMARK.json runs N times per set, each run for the
benchmark's run_seconds. Without --other both sets run this checkout (an
A/A check: is the benchmark steady enough for its own bounds?) and every run
gets its own seed (1+2i for A, 2+2i for B), as a driver making one run per
seed would. With --other, set B runs the checkout at CHECKOUT instead (a
parent/change pairing) and pair i runs seed 1+i on both sides. The side that
runs first alternates between pairs. Every run's metrics are printed as it
ends.

For every (workload, end-to-end metric) it then prints each set's median
and quartiles, each set's spread and that of both sets together
(inter-quartile distance over the median, as statistics.quantiles(n=4)
gives it) and how far B's median moved from A's. The pair agrees when each
set's spread is within the metric's bound in BENCHMARK.json and the move is
too: in either direction for an A/A check, in the worse direction for a
parent/change pairing. A spread below a third of the bound is marked steady.
"""

import argparse
import json
import os
import subprocess
import sys

import benchlib

SEED_BASE = 1


def one_run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return {"error": "exit %d: %s" % (r.returncode, r.stderr.strip()[-300:])}
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = benchlib.quartiles(values)
    return q1, q2, q3, benchlib.spread(values)


def main():
    bench = benchlib.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="pairs per workload")
    ap.add_argument("--other", help="checkout that set B runs (default: this)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    sides = {"A": benchlib.ROOT,
             "B": os.path.abspath(args.other) if args.other else benchlib.ROOT}
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                seed = SEED_BASE + i if args.other else \
                    SEED_BASE + 2 * i + (side == "B")
                res = one_run(sides[side], w, seed, bench["run_seconds"])
                results[w][side].append(res)
                if "error" in res:
                    status = res["error"]
                else:
                    status = "attempted=%d failed=%d %s" % (
                        res["attempted"], res["failed"], " ".join(
                            "%s=%.6g" % (n, m["value"])
                            for n, m in res["metrics"].items()))
                print("pair %d %s %s seed %d: %s" % (i, w, side, seed, status),
                      flush=True)

    ok = True
    print("\n%-13s %-18s %9s %-23s %9s %-23s %7s %7s %7s %7s %s" % (
        "workload", "metric", "A median", "A [q1, q3]", "B median",
        "B [q1, q3]", "spreadA", "spreadB", "spread", "moved", "verdict"))
    for w in workloads:
        runs = {s: [r for r in results[w][s] if "metrics" in r] for s in "AB"}
        failed = sum(r.get("failed", 1) if "metrics" in r else 1
                     for s in "AB" for r in results[w][s])
        if failed:
            ok = False
            print("%-13s %d failed operations or runs" % (w, failed))
        if min(len(runs["A"]), len(runs["B"])) < 2:
            continue
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in runs["A"]]
            b = [r["metrics"][name]["value"] for r in runs["B"]]
            qa, qb = summarize(a), summarize(b)
            both = summarize(a + b)[3]
            moved = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            if args.other:
                worse = moved if m["better"] == "lower" else -moved
            else:
                worse = abs(moved)
            agree = worse <= bound and max(qa[3], qb[3]) <= bound
            steady = max(qa[3], qb[3]) < bound / 3
            verdict = ("agree" if agree else "DISAGREE") + (
                ", steady" if steady else ", spread above bound/3")
            ok = ok and agree
            print("%-13s %-18s %9.4g [%9.4g, %9.4g] %9.4g [%9.4g, %9.4g] "
                  "%6.1f%% %6.1f%% %6.1f%% %+6.1f%% %s (bound %g)" % (
                      w, name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                      100 * qa[3], 100 * qb[3], 100 * both, 100 * moved,
                      verdict, bound))
    print("\nall pairs agree within their bounds" if ok else
          "\nsome pairs disagree or failed")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

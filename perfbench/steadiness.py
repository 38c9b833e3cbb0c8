#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs two interleaved sets of the same
build and prints, per workload and end-to-end metric, each set's median and
quartiles against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workload W ...]

Run it from the repository root. Every run gets its own --seed (set A uses
1..runs, set B runs+1..2*runs); runs alternate between the sets so that a
drift of the host shows in both. For each metric it reports:
  spread  (q3 - q1) / median of a set, which must stay within the bound
          (setup_s is exempt) and should stay below a third of it;
  drift   how much worse set B's median is than set A's, as a share of A's,
          which must stay within the bound for every metric;
and it checks that the share of failed operations is the same in every run.
Exit status is 0 when every check passes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    if out.returncode != 0:
        sys.exit("run failed (%d): %s" % (out.returncode, " ".join(cmd)))
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: all")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for i in range(args.runs):
        for s in range(args.sets):
            seed = 1 + i + s * args.runs
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"])
                if not r["correct"]:
                    sys.exit("%s seed %d: correctness checks failed" % (w, seed))
                results[w][s].append(r)
                print("set %s run %d %s seed %d: %s" % (
                    "AB"[s], i, w, seed,
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in sorted(r["metrics"].items()))),
                    file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print("\n%s" % w)
        print("  %-14s %5s  %-34s %-34s %s" % (
            "metric", "bound", "set A median [q1, q3] spread",
            "set B median [q1, q3] spread" if args.sets == 2 else "",
            "drift" if args.sets == 2 else ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " OVER", False
                elif name != "setup_s" and spread > bound / 3:
                    flag = " >1/3"
                cells.append("%-11.6g [%.6g, %.6g] %.3f%s" % (
                    q2, q1, q3, spread, flag))
            drift = ""
            if args.sets == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                drift = "%+.3f" % worse
                if worse > bound:
                    drift, ok = drift + " OVER", False
            print("  %-14s %5.2f  %-34s %-34s %s" % (
                name, bound, cells[0], cells[1] if args.sets == 2 else "",
                drift))
        shares = {r["failed"] / r["attempted"]
                  for runs in results[w] for r in runs}
        print("  failed share per run: %s" % sorted(shares))
        if len(shares) != 1:
            ok = False
    print("\n" + ("STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness self-check for perfbench/run.py.

    python3 perfbench/steady.py --workload NAME [--runs K] [--seed S] [--seconds N]

Runs the benchmark K times on one workload with seeds S, S+1, ... and
prints, for every end-to-end metric, the median, the quartiles and the
spread (third minus first quartile, over the median) against the bound
fixed for the metric in BENCHMARK.json.  A spread above a third of its
bound is marked "wide", one above the bound "FAIL".  Exit status 1 when a
run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    failed = False
    for k in range(args.runs):
        seed = args.seed + k
        p = subprocess.run([*bench["command"], "--workload", args.workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           stdout=subprocess.PIPE, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        if p.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {p.returncode}, result {last[:200]}")
            failed = True
            continue
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}; "
              + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, 0.0)
        mark = ""
        if spread > bound:
            mark, failed = "FAIL", True
        elif spread > bound / 3:
            mark = "wide"
        print(f"  {name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bound:6.2f} {mark}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

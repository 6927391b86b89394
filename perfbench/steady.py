#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
prints, for every end-to-end metric, its median and its spread (the
distance between the first and third quartile as a share of the median),
next to the bound BENCHMARK.json gives it.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads fit,score] [--first-seed 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values, walls, shares = {}, [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                sys.stderr.write(proc.stderr[-2000:])
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
            result = json.loads(last)
            if args.raw:
                refs = [l for l in proc.stdout.splitlines() if l.startswith("p90_us ")]
                print(f"  {w} seed {seed} reference: {refs[0] if refs else '-'}")
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {sorted(set(shares))}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  OVER 1/3 BOUND" if spread > bound / 3 else ""
            print(f"  {name:<30} median {med:>14.4f}  spread {spread:7.2%}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
            if args.raw:
                print("    " + " ".join(f"{v:.6g}" for v in vs))
    print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()

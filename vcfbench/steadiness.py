#!/usr/bin/env python3
"""Runs vcfbench repeatedly and reports each metric's run-to-run spread.

    python3 vcfbench/steadiness.py --binary <path to vcfbench> \
        --workloads wire_small_frames,wire_churn95 --seeds 1-10 \
        --seconds 10 [--idle-before 1,6] [--log runs.jsonl]

For every workload and end-to-end metric it prints the median of the
runs, the interquartile range as a share of the median (the spread
BENCHMARK.json's bounds are checked against), and that spread against
the metric's bound. Runs listed in --idle-before (1-based) start after
the host has idled for IDLE_S seconds, so post-idle runs are part of
the evidence. Every run is untraced (`--trace 0`), the set BENCHMARK.json
bounds. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Seconds the host idles before each run listed in --idle-before.
IDLE_S = 16


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--idle-before", default="")
    ap.add_argument("--log", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    idle_before = {int(x) for x in args.idle_before.split(",") if x}
    seeds = parse_seeds(args.seeds)
    log = open(args.log, "a") if args.log else None
    worst = 0.0

    for workload in args.workloads.split(","):
        values = {}
        for i, seed in enumerate(seeds, start=1):
            if i in idle_before:
                time.sleep(IDLE_S)
            cmd = [args.binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - start
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                sys.exit(1)
            result = json.loads(last)
            if log:
                log.write(json.dumps({"workload": workload, "seed": seed, "idle_before": i in idle_before,
                                      "wall_s": round(wall, 2), "result": result}) + "\n")
                log.flush()
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({wall:.1f} s{', after idle' if i in idle_before else ''}): "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(seeds)} runs")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
            else:
                spread = 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                ratio = spread / bound
                mark = f"bound {bound:.2f}, spread/bound {ratio:.2f}"
                if name != "setup_s":
                    worst = max(worst, ratio)
            print(f"  {name:<22} median {med:<14.6g} iqr/median {spread:7.4f}  {mark}")
        print()
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark.

Makes two sets of runs of every workload in BENCHMARK.json, each run
run_seconds long. Set 1 uses seeds first-seed .. first-seed + runs - 1,
set 2 the next `runs` seeds; within a set, each round of seeds rotates
the workload order. For every end-to-end metric it prints each set's
median, first and third quartile and spread (Q3 - Q1) / median, and the
shift: how much worse each set's median is than the other's, as a share
of it. A metric is ok when both spreads and both shifts are within its
bound. With --overhead, every run of set 1 is followed by a traced run
of the same seed, and the traced end-to-end medians are compared with
the untraced ones.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 3 --overhead
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

TRACED_PREFIX = "end-to-end while traced: "


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    traced = next((json.loads(l[len(TRACED_PREFIX):]) for l in lines
                   if l.startswith(TRACED_PREFIX)), None)
    return result, traced, wall


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse(new, old, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--overhead", action="store_true",
                    help="also make a traced run after every run of set 1")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    bench = json.load(open("BENCHMARK.json"))
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = [{w: [] for w in workloads} for _ in range(2)]
    traced = {w: [] for w in workloads}
    for s, runs in enumerate(sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
            for w in order:
                result, _, wall = run_once(command, w, seed, seconds, 0)
                runs[w].append({"wall_s": wall, **result})
                print(f"set {s + 1} run {i + 1}/{args.runs} {w} seed {seed}: {wall:.1f} s, "
                      f"correct {result['correct']}, attempted {result['attempted']}, "
                      f"failed {result['failed']}", flush=True)
                if args.overhead and s == 0:
                    layers, e2e, _ = run_once(command, w, seed, seconds, 1)
                    traced[w].append({"end_to_end": e2e, "per_layer": layers["metrics"]})

    worst_spread = worst_shift = 0.0
    for w in workloads:
        r1, r2 = sets[0][w], sets[1][w]
        shares = sorted({r["failed"] / r["attempted"] for r in r1 + r2})
        walls = [r["wall_s"] for r in r1 + r2]
        print(f"\n{w}: {len(r1)} + {len(r2)} runs, all correct "
              f"{all(r['correct'] for r in r1 + r2)}, failed share {shares}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':22} {'set 1 median [Q1, Q3]':>32} {'spread':>6} "
              f"{'set 2 median [Q1, Q3]':>32} {'spread':>6} {'shift':>6} {'bound':>5}  ok")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med1, q11, q31, sp1 = summary([r["metrics"][name]["value"] for r in r1])
            med2, q12, q32, sp2 = summary([r["metrics"][name]["value"] for r in r2])
            shift = max(worse(med2, med1, m["better"]), worse(med1, med2, m["better"]))
            worst_spread = max(worst_spread, sp1 / bound, sp2 / bound)
            worst_shift = max(worst_shift, shift / bound)
            ok = max(sp1, sp2, shift) <= bound
            print(f"  {name:22} {med1:10.4g} [{q11:9.4g}, {q31:9.4g}] {sp1:6.3f} "
                  f"{med2:10.4g} [{q12:9.4g}, {q32:9.4g}] {sp2:6.3f} {shift:6.3f} "
                  f"{bound:5.2f}  {'yes' if ok else 'NO'}")
        if args.overhead:
            print("  tracing overhead (traced / untraced median of set 1, minus 1):")
            for m in metrics:
                plain = statistics.median(r["metrics"][m["name"]]["value"] for r in r1)
                with_trace = statistics.median(
                    t["end_to_end"][m["name"]]["value"] for t in traced[w])
                print(f"    {m['name']:24} {with_trace / plain - 1:+.3f}")
            print("  per-layer medians (traced runs):")
            for m in bench["per_layer"]:
                v = statistics.median(t["per_layer"][m["name"]]["value"] for t in traced[w])
                print(f"    {m['name']:30} {v:12.4g} {m['unit']}")
    print(f"\nlargest spread / bound: {worst_spread:.2f}; "
          f"largest shift / bound: {worst_shift:.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repeat mode: run one workload N times, each with another seed, and print
each metric's median, quartiles and relative spread beside its bound in
BENCHMARK.json, plus each run's attempted/failed counts.

    python3 perfbench/repeat.py --workload suite --runs 10 [--first-seed 1]
        [--trace] [--json out.json]

Run it from the repository root. It runs the benchmark exactly as
BENCHMARK.json's `command` says. The spread is the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. With --trace it also makes one traced run per seed and prints
the tracing overhead: traced end-to-end medians minus untraced ones.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(a.first_seed, a.first_seed + a.runs))

    results = []
    for seed in seeds:
        r = run(bench["command"], a.workload, seed, seconds, False)
        results.append(r)
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']} "
              f"correct {r['correct']}", flush=True)

    print(f"\n{a.workload}: {a.runs} runs of {seconds}s")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} {'ok':>4}")
    table = {}
    for name, spec in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, spread = summary(values)
        ok = spread <= spec["bound"] / 3
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": spec["bound"], "values": values}
        print(f"{name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
              f"{spec['bound']:>6} {'yes' if ok else 'NO':>4}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")

    out = {"workload": a.workload, "seconds": seconds, "seeds": seeds,
           "runs": [{"seed": s, "attempted": r["attempted"], "failed": r["failed"]}
                    for s, r in zip(seeds, results)],
           "end_to_end": table}

    if a.trace:
        traced = []
        for seed in seeds:
            run(bench["command"], a.workload, seed, seconds, True)
            with open(f"perfbench/out/trace-{a.workload}-{seed}.json") as f:
                traced.append(json.load(f))
        print("\ntracing overhead (traced median - untraced median):")
        overhead = {}
        for name in bounds:
            t_med = statistics.median(t["end_to_end"][name]["value"] for t in traced)
            u_med = table[name]["median"]
            overhead[name] = {"traced": t_med, "untraced": u_med, "difference": t_med - u_med,
                              "share": (t_med - u_med) / u_med if u_med else None}
            print(f"{name:<18} traced {t_med:>12.5g} untraced {u_med:>12.5g} "
                  f"difference {t_med - u_med:>+12.5g}")
        layer_names = traced[0]["per_layer"].keys()
        out["tracing_overhead"] = overhead
        out["per_layer_median"] = {
            n: statistics.median(t["per_layer"][n]["value"] for t in traced) for n in layer_names}
        out["per_input_first_seed"] = traced[0]["per_input"]
        out["self_us_per_compile_median"] = {
            n: statistics.median(t["self_us_per_compile"].get(n, 0.0) for t in traced)
            for n in traced[0]["self_us_per_compile"]}

    if a.json:
        with open(a.json, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()

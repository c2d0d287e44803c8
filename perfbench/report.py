#!/usr/bin/env python3
"""Render the README's reference tables from the files that
`repeat.py --trace --json perfbench/reference/trace-<workload>.json` and
`repeat.py --runs 10 --json perfbench/reference/steady-<workload>.json` wrote:

    python3 perfbench/report.py > tables.md
"""

import json
import os

WORKLOADS = ["suite", "scaling", "serve", "simulate"]
HERE = os.path.dirname(os.path.abspath(__file__))


def load(w, kind="trace"):
    with open(os.path.join(HERE, "reference", f"{kind}-{w}.json")) as f:
        return json.load(f)


def fmt(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def main():
    refs = {w: load(w) for w in WORKLOADS}
    print("### End-to-end figures and tracing overhead\n")
    print("Medians of the untraced and the traced runs; overhead is traced minus untraced.\n")
    print("| workload | metric | untraced | traced | overhead |")
    print("|---|---|---|---|---|")
    for w, r in refs.items():
        for name, o in r["tracing_overhead"].items():
            share = "" if o["share"] is None else f" ({o['share']:+.1%})"
            print(f"| {w} | {name} | {fmt(o['untraced'])} | {fmt(o['traced'])} | "
                  f"{o['difference']:+.4g}{share} |")
    print("\n### Per-layer metrics (median of the traced runs)\n")
    names = list(refs["suite"]["per_layer_median"])
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for n in names:
        print(f"| `{n}` | " + " | ".join(fmt(refs[w]["per_layer_median"][n]) for w in WORKLOADS) + " |")
    print("\n### Self time per traced compile (µs, median of the traced runs)\n")
    spans = sorted(set().union(*(refs[w]["self_us_per_compile_median"] for w in WORKLOADS)))
    print("| span | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for n in spans:
        print(f"| `{n}` | " + " | ".join(
            fmt(refs[w]["self_us_per_compile_median"].get(n, 0.0)) for w in WORKLOADS) + " |")
    for w in ["suite", "scaling"]:
        rows = refs[w]["per_input_first_seed"]
        print(f"\n### Per-input rows, `{w}` (traced run, seed {refs[w]['seeds'][0]})\n")
        print("| input | IR insts | ops | latency ms | cse µs | vectorize µs |")
        print("|---|---|---|---|---|---|")
        for r in sorted(rows, key=lambda r: (r["insts"], r["input"])):
            print(f"| {r['input']} | {fmt(r['insts'])} | {r['ops']} | {fmt(r['latency_ms'])} | "
                  f"{fmt(r['cse_us'])} | {fmt(r['vectorize_us'])} |")

    steady = {w: load(w, "steady") for w in WORKLOADS}
    first = steady["suite"]
    print(f"\n### Steadiness ({len(first['seeds'])} runs of {first['seconds']} s per workload)\n")
    print("Median and, in brackets, spread (IQR over median) of each end-to-end metric.\n")
    print("| metric | bound | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for n, m in first["end_to_end"].items():
        cells = [f"{fmt(steady[w]['end_to_end'][n]['median'])} "
                 f"({steady[w]['end_to_end'][n]['spread']:.3f})" for w in WORKLOADS]
        print(f"| `{n}` | {m['bound']} | " + " | ".join(cells) + " |")
    att = [sorted(r["attempted"] for r in steady[w]["runs"]) for w in WORKLOADS]
    print("| attempted per run | — | " + " | ".join(f"{a[0]}–{a[-1]}" for a in att) + " |")
    print("| failed (all runs) | — | " + " | ".join(
        str(sum(r["failed"] for r in steady[w]["runs"])) for w in WORKLOADS) + " |")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compares two benchmark results written by `run.py --json`.

    python3 perfbench/compare.py BASE.json NEW.json

For each workload and metric present in both files, prints both medians
and quartiles and the change, plus a verdict for every end-to-end metric,
using the bounds and directions in BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound;
  unresolved  BASE's own quartile spread is wider than the bound, and
              NEW's quartile range does not lie wholly on the better side
              of BASE's;
  better      NEW's median is better by more than BASE's quartile spread;
  unchanged   otherwise.

Per-layer metrics have no bound and get no verdict. Exits 1 on any
`worse`, 2 when a file cannot be read, else 0.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"compare.py: cannot read {path}: {e}")


def verdict(base, new, bound, lower_is_better):
    scale = abs(base["value"]) or 1.0
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (new["value"] - base["value"]) / scale
    spread = (base["q3"] - base["q1"]) / scale
    if spread > bound:
        wholly_better = (new["q3"] < base["q1"] if lower_is_better
                         else new["q1"] > base["q3"])
        return "better" if wholly_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_doc, new_doc = load(sys.argv[1]), load(sys.argv[2])
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    for workload, base_w in base_doc["workloads"].items():
        new_w = new_doc["workloads"].get(workload)
        if new_w is None:
            print(f"{workload}: missing from {sys.argv[2]}")
            continue
        print(f"\n{workload}")
        print(f"  {'metric':<40}" + "".join(
            f" {h:>11}" for h in ("base", "q1", "q3", "new", "q1", "q3"))
              + f" {'change':>8}  verdict")
        for name in sorted(set(base_w["metrics"]) & set(new_w["metrics"])):
            b, n = base_w["metrics"][name], new_w["metrics"][name]
            change = (n["value"] - b["value"]) / (abs(b["value"]) or 1.0)
            m = declared.get(name, {})
            v = ""
            if "bound" in m:
                v = verdict(b, n, m["bound"], m["better"] == "lower")
                regressions += v == "worse"
            print(f"  {name:<40}" + "".join(
                f" {x:>11.5g}" for x in (b["value"], b["q1"], b["q3"],
                                        n["value"], n["q1"], n["q3"]))
                  + f" {change:>+8.1%}  {v}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validates a `dcvtool --metrics-json` file against the checked-in schema
(tools/metrics_schema.json). Two document shapes are understood:

  * simulate documents (SimResult::ToJson, top-level "scheme" key): the
    schema's "required" key paths and "required_counters".
  * runtime documents (RuntimeResult::ToJson, top-level "protocol" key) —
    including the merged cross-process telemetry document a socket-transport
    coordinator writes: "runtime_required" key paths,
    "runtime_required_counters", the "runtime_socket_counters" namespace
    (enforced only when the run actually used the socket transport), and
    the detection-lag histogram with its p50/p95/p99 quantile keys. A
    free-running document (mode "free-running") must also carry the
    "runtime_free_gauges": the root's completion and drain wall times.

Usage: validate_metrics.py <metrics.json> [--schema <schema.json>]

Exit status 0 on success, 1 with a per-failure message otherwise. Stdlib
only, so it runs on any CI image with a Python 3 interpreter.
"""

import argparse
import json
import os
import sys


def lookup(doc, dotted_path):
    """Returns (found, value) for a dot-separated key path."""
    node = doc
    for part in dotted_path.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def check_counters(doc, names, failures):
    found, counters = lookup(doc, "metrics.counters")
    if not (found and isinstance(counters, dict) and counters):
        return
    for name in names:
        if name not in counters:
            failures.append(f"missing required counter: {name}")


def check_gauges(doc, names, failures):
    found, gauges = lookup(doc, "metrics.gauges")
    if not (found and isinstance(gauges, dict)):
        return
    for name in names:
        if not isinstance(gauges.get(name), (int, float)):
            failures.append(f"missing required gauge: {name}")


def check_histograms(doc, schema, failures):
    found, histograms = lookup(doc, "metrics.histograms")
    if not (found and isinstance(histograms, dict)):
        return
    for name in schema.get("runtime_required_histograms", []):
        if name not in histograms:
            failures.append(f"missing required histogram: {name}")
            continue
        for key in schema.get("histogram_required_keys", []):
            if key not in histograms[name]:
                failures.append(f"histogram {name} missing key: {key}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", help="metrics JSON file to validate")
    parser.add_argument(
        "--schema",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "metrics_schema.json"),
        help="schema file (default: metrics_schema.json next to this script)")
    args = parser.parse_args()

    try:
        with open(args.schema, encoding="utf-8") as f:
            schema = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot load schema {args.schema}: {e}")
        return 1

    try:
        with open(args.metrics, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot load metrics {args.metrics}: {e}")
        return 1

    is_runtime = isinstance(doc, dict) and "protocol" in doc
    kind = "runtime" if is_runtime else "simulate"

    failures = []
    required = schema.get("runtime_required" if is_runtime else "required", [])
    for path in required:
        found, _ = lookup(doc, path)
        if not found:
            failures.append(f"missing required key: {path}")

    if is_runtime:
        check_counters(doc, schema.get("runtime_required_counters", []),
                       failures)
        # The wire namespace only exists when frames actually flowed; a
        # thread-transport runtime document legitimately omits it.
        _, frames = lookup(doc, "socket.frames_sent")
        if isinstance(frames, (int, float)) and frames > 0:
            check_counters(doc, schema.get("runtime_socket_counters", []),
                           failures)
        check_histograms(doc, schema, failures)
        if doc.get("mode") == "free-running":
            check_gauges(doc, schema.get("runtime_free_gauges", []),
                         failures)
    else:
        check_counters(doc, schema.get("required_counters", []), failures)

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"OK: {args.metrics} matches {os.path.basename(args.schema)} "
          f"({kind} document)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

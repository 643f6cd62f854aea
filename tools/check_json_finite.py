#!/usr/bin/env python3
"""Strict-parse a metrics JSON artifact: fail on NaN/Infinity anywhere.

Regression harness for the bench emitters: a run with zero detections or
zero poll rounds must still produce well-defined JSON (quantiles and means
of empty histograms are 0, not NaN from a 0/0). Python's json module
accepts the non-standard NaN/Infinity tokens by default, so this script
parses with parse_constant wired to raise, then walks the result to catch
any float that sneaked through.

Usage: check_json_finite.py FILE [--expect-zero LEAF ...]

--expect-zero names numeric leaves that must be present AND exactly 0. A
leaf's name is its `/`-joined key path from the document root, and LEAF
matches every leaf whose path is LEAF or ends in "/LEAF". So
`detection/total_alarms` and `runtime/detection_lag_epochs/p50` address a
`dcvtool run --metrics-json` document, and a bare gauge name such as
`alarms` matches `gauges/<prefix>/alarms` in a flat gauge document. The
breach-free ctest asserts that a run without alarms emits its
detection-lag and poll-round stats as explicit zeros rather than dropping
or polluting them.
"""

import argparse
import json
import math
import sys


def reject_constant(token):
    raise SystemExit(f"non-finite JSON token {token!r} in artifact")


def walk(node, path, leaves):
    """Rejects non-finite floats; collects numeric dict leaves by path."""
    if isinstance(node, float) and (math.isnan(node) or math.isinf(node)):
        raise SystemExit(f"non-finite value at {path}: {node}")
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        leaves[path] = node
    elif isinstance(node, dict):
        for k, v in node.items():
            walk(v, f"{path}/{k}", leaves)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            walk(v, f"{path}[{i}]", leaves)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("file")
    parser.add_argument("--expect-zero", nargs="*", default=[])
    args = parser.parse_args()

    with open(args.file, "r", encoding="utf-8") as f:
        doc = json.load(f, parse_constant=reject_constant)
    leaves = {}
    walk(doc, "", leaves)

    for name in args.expect_zero:
        matches = [k for k in leaves if k.endswith("/" + name)]
        if not matches:
            raise SystemExit(f"expected leaf {name!r} missing "
                             f"({len(leaves)} numeric leaves in {args.file})")
        for k in matches:
            if leaves[k] != 0:
                raise SystemExit(f"expected {k} == 0, got {leaves[k]}")

    print(f"ok: {args.file} finite"
          + (f", {len(args.expect_zero)} zero leaves verified"
             if args.expect_zero else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

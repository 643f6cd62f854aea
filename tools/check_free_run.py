#!/usr/bin/env python3
"""Checks the completion accounting of a free-running `dcvtool run
--metrics-json` document: the run covered exactly `--sites` sites, every
entry of throughput.site_updates equals `--updates` (each site's done
report was counted exactly once, with its full count), throughput.
total_updates equals sites x updates, and the root's once-per-run
runtime/coordinator/completion_ms gauge is present. Every count read is
the coordinator's own: the root fills both from the sites' done reports.
With
--total-alarms, detection.total_alarms must equal A as well: a synthetic
run's alarm count depends only on the seed, the site count, the update
count and the per-site thresholds, never on the thread schedule, so a
fixed A pins the thresholds. With --charges, every poll round must have
charged one request and one response per site, however the sites' answers
travelled (one per site, or one sum per worker): messages.poll_request ==
messages.poll_response == sites x detection.polled_epochs. That holds on a
perfect channel only; retransmissions and losses break it by design.

Usage: check_free_run.py <metrics.json> --sites S --updates N
                         [--total-alarms A] [--charges]

Exit status 0 on success, 1 with a message otherwise. Stdlib only.
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("metrics", help="metrics JSON of a free-running run")
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--updates", type=int, required=True)
    parser.add_argument("--total-alarms", type=int)
    parser.add_argument("--charges", action="store_true",
                        help="check that each poll round charged 2n messages")
    args = parser.parse_args()

    try:
        with open(args.metrics, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot load {args.metrics}: {e}")
        return 1

    failures = []
    if doc.get("mode") != "free-running":
        failures.append(f"mode is {doc.get('mode')!r}, not 'free-running'")
    counts = doc.get("throughput", {}).get("site_updates", [])
    if len(counts) != args.sites:
        failures.append(f"{len(counts)} site_updates entries, "
                        f"expected {args.sites}")
    wrong = [i for i, u in enumerate(counts) if u != args.updates]
    if wrong:
        failures.append(f"{len(wrong)} sites report a count other than "
                        f"{args.updates}; first: site {wrong[0]} = "
                        f"{counts[wrong[0]]}")
    total = doc.get("throughput", {}).get("total_updates")
    if total != args.sites * args.updates:
        failures.append(f"throughput.total_updates is {total}, expected "
                        f"{args.sites * args.updates}")
    alarms = doc.get("detection", {}).get("total_alarms")
    if args.total_alarms is not None and alarms != args.total_alarms:
        failures.append(f"detection.total_alarms is {alarms}, expected "
                        f"{args.total_alarms}")
    if args.charges:
        messages = doc.get("messages", {})
        polls = doc.get("detection", {}).get("polled_epochs")
        want = args.sites * polls if isinstance(polls, int) else None
        for kind in ("poll_request", "poll_response"):
            if want is None or messages.get(kind) != want:
                failures.append(f"messages.{kind} is {messages.get(kind)}, "
                                f"expected {args.sites} sites x {polls} "
                                f"polled epochs")
    gauges = doc.get("metrics", {}).get("gauges", {})
    if "runtime/coordinator/completion_ms" not in gauges:
        failures.append("missing gauge runtime/coordinator/completion_ms")

    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        return 1
    charges = ""
    if args.charges:
        messages = doc["messages"]
        charges = (f", {messages['poll_request']}/{messages['poll_response']}"
                   f" poll requests/responses charged")
    print(f"OK: {args.sites} sites x {args.updates} updates, completion "
          f"{gauges['runtime/coordinator/completion_ms']:.1f} ms{charges}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Multi-process socket transport smoke test.

Launches a dcvtool coordinator (`run --transport socket`) plus N separate
`dcvtool site-worker` processes on loopback, waits for the run to finish,
then runs the same workload on the in-process thread transport and asserts
that every protocol-relevant output line is identical: per-run detection
counts, message totals and per-type breakdown. Timing lines and wire-level
socket stats are excluded (they legitimately differ between transports).

Runs are in virtual time unless --free-running is given. Then both runs
drop --virtual-time, so every worker process runs its engine's free loop,
and only the run's shape and its update total are compared: free-running
alarm and poll counts depend on timing.

With --metrics-json the coordinator's merged telemetry document (its own
registry folded with every worker's final kTelemetry push) is written,
schema-validated via validate_metrics.py, and checked for worker-side
counters (and, under --chaos kill-worker, for a counted
runtime/socket/reconnects). With --trace-out the merged Chrome trace is
written and checked for one lane per process (and, under --chaos
kill-worker, for the worker_reconnect recovery instant event). Under
--chaos kill-shard the socket run must report shard-recoveries >= 1, so a
chaos run that never fired does not pass; kill-shard needs --free-running,
the only mode with shard threads.

--crash and --partition go to both the socket run and the thread run: the
faults live in the coordinator's channel, so the worker processes never see
them, and the two runs must still match.

Exit code 0 on success; non-zero with a diagnostic otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

# Output keys that must be bit-identical across transports.
COMPARED_KEYS = [
    "threshold",
    "protocol",
    "mode",
    "sites",
    "messages",
    "messages-breakdown",
    "reliability",
    "epochs",
    "alarm-epochs",
    "polled-epochs",
    "true-violations",
    "detected",
    "missed",
    "false-alarm-epochs",
    "updates",
]

# Free-running alarm and poll counts depend on timing; the run's shape and
# its update total (every site replays its whole column) do not.
FREE_RUNNING_KEYS = ["threshold", "protocol", "mode", "sites", "updates"]


def parse_output(text):
    values = {}
    for line in text.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            values[key.strip()] = value.strip()
    return values


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dcvtool", required=True)
    parser.add_argument("--trace", required=True)
    parser.add_argument("--train-epochs", type=int, required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=1,
                        help="coordinator shard count (two-level tree)")
    parser.add_argument("--chaos", default="none",
                        choices=["none", "kill-shard", "kill-worker"],
                        help="inject one seed-resolved failure into the "
                             "socket run; the healthy thread run is still "
                             "the comparison baseline, so a match proves "
                             "zero lost detections across the failure")
    parser.add_argument("--chaos-seed", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=240.0)
    parser.add_argument("--free-running", action="store_true",
                        help="run both transports without --virtual-time "
                             "and compare only the shape and update total")
    parser.add_argument("--metrics-json", default="",
                        help="write the coordinator's merged telemetry "
                             "document here and validate it against "
                             "tools/metrics_schema.json")
    parser.add_argument("--trace-out", default="",
                        help="write the merged Chrome trace here and assert "
                             "it carries coordinator + worker lanes")
    parser.add_argument("--crash", default="",
                        help="site:from:to[,...], passed to both "
                             "coordinator runs")
    parser.add_argument("--partition", default="",
                        help="from:to[,...], passed to both coordinator runs")
    args = parser.parse_args()
    run_flags = [] if args.free_running else ["--virtual-time"]
    if args.crash:
        run_flags += ["--crash", args.crash]
    if args.partition:
        run_flags += ["--partition", args.partition]
    compared_keys = FREE_RUNNING_KEYS if args.free_running else COMPARED_KEYS

    coordinator_cmd = [
        args.dcvtool, "run",
        "--trace", args.trace,
        "--train-epochs", str(args.train_epochs),
    ] + run_flags + [
        "--transport", "socket",
        "--listen-port", "0",
        "--threads", str(args.workers),
        "--shards", str(args.shards),
    ]
    if args.metrics_json:
        coordinator_cmd += ["--metrics-json", args.metrics_json]
    if args.trace_out:
        coordinator_cmd += ["--trace-out", args.trace_out,
                            "--trace-format", "chrome"]
    if args.chaos != "none":
        coordinator_cmd += [
            "--chaos", args.chaos,
            "--chaos-seed", str(args.chaos_seed),
        ]
    coordinator = subprocess.Popen(
        coordinator_cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )

    # The coordinator prints the resolved ephemeral port first.
    first_line = coordinator.stdout.readline()
    if not first_line.startswith("listening-port: "):
        coordinator.kill()
        rest = coordinator.stdout.read()
        sys.exit("coordinator did not announce a port: %r %r"
                 % (first_line, rest))
    port = int(first_line.split(": ", 1)[1])

    site_workers = []
    for w in range(args.workers):
        worker_cmd = [
            args.dcvtool, "site-worker",
            "--port", str(port),
            "--worker", str(w),
            "--workers", str(args.workers),
            "--trace", args.trace,
            "--train-epochs", str(args.train_epochs),
        ]
        if args.chaos == "kill-worker":
            # The severed worker must redial; reconnection is opt-in on
            # the worker side.
            worker_cmd.append("--allow-reconnect")
        site_workers.append(subprocess.Popen(
            worker_cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        ))

    try:
        socket_out, _ = coordinator.communicate(timeout=args.timeout)
    except subprocess.TimeoutExpired:
        coordinator.kill()
        for p in site_workers:
            p.kill()
        sys.exit("coordinator timed out after %.0fs" % args.timeout)
    socket_out = first_line + socket_out
    if coordinator.returncode != 0:
        for p in site_workers:
            p.kill()
        sys.exit("coordinator failed (rc=%d):\n%s"
                 % (coordinator.returncode, socket_out))

    for w, p in enumerate(site_workers):
        try:
            out, _ = p.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            p.kill()
            sys.exit("site-worker %d timed out" % w)
        if p.returncode != 0:
            sys.exit("site-worker %d failed (rc=%d):\n%s"
                     % (w, p.returncode, out))

    thread = subprocess.run(
        [
            args.dcvtool, "run",
            "--trace", args.trace,
            "--train-epochs", str(args.train_epochs),
        ] + run_flags + [
            "--threads", str(args.workers),
            "--shards", str(args.shards),
        ],
        capture_output=True,
        text=True,
        timeout=args.timeout,
    )
    if thread.returncode != 0:
        sys.exit("thread-transport run failed (rc=%d):\n%s%s"
                 % (thread.returncode, thread.stdout, thread.stderr))

    socket_values = parse_output(socket_out)
    thread_values = parse_output(thread.stdout)
    mismatches = []
    for key in compared_keys:
        if key not in socket_values and key not in thread_values:
            continue  # e.g. "reliability" only appears under fault flags.
        if socket_values.get(key) != thread_values.get(key):
            mismatches.append("  %s: socket=%r thread=%r"
                              % (key, socket_values.get(key),
                                 thread_values.get(key)))
    if (args.chaos == "kill-shard"
            and int(socket_values.get("shard-recoveries", "0")) < 1):
        mismatches.append("  shard-recoveries: socket=%r, want >= 1"
                          % socket_values.get("shard-recoveries"))
    if mismatches:
        sys.exit("socket run diverged from thread run:\n"
                 + "\n".join(mismatches)
                 + "\n--- socket output ---\n" + socket_out
                 + "\n--- thread output ---\n" + thread.stdout)

    if args.metrics_json:
        validator = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "validate_metrics.py")
        check = subprocess.run(
            [sys.executable, validator, args.metrics_json],
            capture_output=True, text=True, timeout=30.0)
        if check.returncode != 0:
            sys.exit("merged metrics document failed schema validation:\n"
                     + check.stdout + check.stderr)
        with open(args.metrics_json, encoding="utf-8") as f:
            merged = json.load(f)
        counters = merged.get("metrics", {}).get("counters", {})
        # The merge must actually contain worker-side work, not just the
        # coordinator's own registry: site updates only ever tick inside the
        # worker processes on a socket run.
        if counters.get("runtime/site/updates", 0) <= 0:
            sys.exit("merged document has no worker-side counters: %r"
                     % {k: v for k, v in counters.items() if "site" in k})
        # The registry side of the socket ledger must count the severed
        # link's resume too, not just the "socket:" stats line.
        if (args.chaos == "kill-worker"
                and counters.get("runtime/socket/reconnects", 0) < 1):
            sys.exit("kill-worker merged document counts no reconnect: %r"
                     % {k: v for k, v in counters.items() if "socket" in k})

    if args.trace_out:
        with open(args.trace_out, encoding="utf-8") as f:
            trace = json.load(f)
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        lanes = {e["pid"] for e in events if e.get("ph") != "M"}
        # One coordinator lane plus one per worker process.
        if len(lanes) < 1 + args.workers:
            sys.exit("merged trace has %d process lanes, want >= %d"
                     % (len(lanes), 1 + args.workers))
        if args.chaos == "kill-worker":
            names = {e.get("name") for e in events}
            if "worker_reconnect" not in names:
                sys.exit("kill-worker trace lacks a worker_reconnect "
                         "instant event; got %r" % sorted(
                             n for n in names if n))

    print("socket smoke OK: %d workers, %d shards on port %d, %s, "
          "%s messages, %s updates, chaos=%s"
          % (args.workers, args.shards, port, socket_values.get("mode"),
             socket_values.get("messages"), socket_values.get("updates"),
             args.chaos))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs one named workload.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
                             [--smoke] [--json OUT]

NAME is fleet_1m, storm_32, socket_10k, replay_virtual, or `all` for every
workload in turn. The inputs are made from S. With --trace 0 the workload
runs through the public runtime API for about T seconds (one warm-up
repetition, then timed repetitions, at least three) and the end-to-end
metrics are reported. With --trace 1 the traced run (perfbench_ledger) and
the isolated layer benchmarks (bench_layers) give the per-layer metrics
instead. Every repetition's outputs are checked; README.md lists the checks.

Prints each metric with its median, quartiles, sample count and unit, then,
as the last line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the metrics BENCHMARK.json declares for the mode. `attempted`
counts the updates the checked repetitions offered and `failed` the ones
they lost; a repetition that errors loses all of its updates. Exits 1 when
a check fails and 2, printing no result, when the benchmark cannot run (for
example outside a dcv checkout). --json writes every measured value, for
compare.py. --smoke shrinks every workload to about 1% of its size and runs
one repetition of each kind.

The build goes to .bench_build/perfbench; run outputs (the replay trace
file, the traced run's ledger and Chrome trace) go to .bench_build/run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("fleet_1m", "storm_32", "socket_10k", "replay_virtual")

# A program may run this long beyond --seconds before it is stopped: the
# inputs, the warm-up and the layer benchmarks.
PROGRAM_SLACK_S = 120
# Minimum time Google Benchmark spends on each layer benchmark.
LAYER_MIN_TIME_S = 0.2

# bench_layers benchmark -> (per-layer metric, unit). The value is the
# benchmark's time per iteration divided by its "items" counter.
LAYER_BENCHMARKS = {
    "BM_RngDraw/32": ("rng.draw_ns_32", "ns"),
    "BM_RngDraw/1000000": ("rng.draw_ns_1m", "ns"),
    "BM_CounterInc/real_time/threads:1": ("obs.counter_inc_ns_1t", "ns"),
    "BM_CounterInc/real_time/threads:3": ("obs.counter_inc_ns_3t", "ns"),
    "BM_SiteEngineFree/32/300000/manual_time":
        ("site_engine.free_ns_per_update_32", "ns"),
    "BM_SiteEngineFree/1000000/20/manual_time":
        ("site_engine.free_ns_per_update_1m", "ns"),
    "BM_SiteEngineVirtual/manual_time":
        ("site_engine.virtual_us_per_epoch_30", "us"),
    "BM_MailboxPushAll/manual_time": ("mailbox.push_all_ns_per_env", "ns"),
    "BM_MailboxPopAll/manual_time": ("mailbox.pop_all_ns_per_env", "ns"),
    "BM_MailboxHandoff/real_time": ("mailbox.handoff_ns_per_env", "ns"),
    "BM_TransportTrySendBatch/manual_time":
        ("transport.try_send_batch_ns_per_env", "ns"),
    "BM_WireEncode": ("wire.encode_ns_per_env", "ns"),
    "BM_WireDecode": ("wire.decode_ns_per_env", "ns"),
    "BM_CoordinatorPollRound/32/2048/manual_time":
        ("coordinator.poll_round_us_32", "us"),
    "BM_CoordinatorPollRound/10000/32/manual_time":
        ("coordinator.poll_round_us_10k", "us"),
    "BM_ChannelPollSites/0": ("channel.poll_ns_per_site_perfect", "ns"),
    "BM_ChannelPollSites/1": ("channel.poll_ns_per_site_faulty", "ns"),
    "BM_FptasSolve/10": ("fptas.solve_ms_n10", "ms"),
    "BM_FptasSolve/30": ("fptas.solve_ms_n30", "ms"),
    "BM_IoDecode": ("io.decode_ns_per_value", "ns"),
    "BM_LockstepEpoch": ("lockstep.epoch_us_30", "us"),
}
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# The isolated layer costs printed beside each workload's ledger: the
# layers that workload's end-to-end numbers should move with.
LEDGER_LAYERS = {
    "fleet_1m": ("rng.draw_ns_1m", "obs.counter_inc_ns_3t",
                 "site_engine.free_ns_per_update_1m",
                 "transport.try_send_batch_ns_per_env"),
    "storm_32": ("rng.draw_ns_32", "obs.counter_inc_ns_3t",
                 "site_engine.free_ns_per_update_32",
                 "mailbox.handoff_ns_per_env",
                 "transport.try_send_batch_ns_per_env",
                 "coordinator.poll_round_us_32"),
    "socket_10k": ("rng.draw_ns_32", "obs.counter_inc_ns_1t",
                   "site_engine.free_ns_per_update_32",
                   "wire.encode_ns_per_env", "wire.decode_ns_per_env",
                   "coordinator.poll_round_us_10k"),
    "replay_virtual": ("site_engine.virtual_us_per_epoch_30",
                       "channel.poll_ns_per_site_faulty",
                       "fptas.solve_ms_n30", "io.decode_ns_per_value",
                       "lockstep.epoch_us_30"),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def parse_json(text, what):
    """Parses a program's JSON output, refusing NaN and Infinity."""

    def reject(token):
        raise BenchError(f"{what}: non-finite value {token} in its output")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise BenchError(f"{what}: unreadable output: {e}") from e


def build():
    """Configures (once) and builds the benchmark's programs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no dcv sources in {ROOT}/src: run from a checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       check=True, stdout=sys.stderr, timeout=1500)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e


def run_program(name, args, seconds, whole_output=False):
    """Runs one of the built programs; returns its last stdout line (or all
    of its output) parsed as JSON."""
    cmd = [os.path.join(BUILD_DIR, name)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + PROGRAM_SLACK_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{name} did not finish in time") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} exited with {proc.returncode}")
    return parse_json(proc.stdout if whole_output else lines[-1], name)


class Stat:
    """One metric: its value, unit and, where it has samples, quartiles."""

    def __init__(self, value, unit, samples=None, count=None):
        self.value = float(value)
        self.unit = unit
        self.q1 = self.q3 = self.value
        self.count = len(samples) if samples else 1
        if samples and len(samples) >= 2:
            q = statistics.quantiles(samples, n=4, method="inclusive")
            self.q1, self.q3 = q[0], q[2]
        if count is not None:
            self.count = count

    def as_json(self):
        return {"value": self.value, "unit": self.unit, "q1": self.q1,
                "q3": self.q3, "n": self.count}


def median_stat(samples, unit):
    return Stat(statistics.median(samples), unit, samples)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(doc):
    """End-to-end metrics from perfbench_workload's timed repetitions."""
    reps = doc["reps"]
    if not reps:
        return {}
    rounds = doc["round_us"]
    lag = doc["lag_epochs"]
    metrics = {
        "updates_per_s": median_stat(
            [ratio(r["updates"], r["elapsed_s"]) for r in reps], "updates/s"),
        "cpu_ns_per_update": median_stat(
            [ratio(r["cpu_s"] * 1e9, r["updates"]) for r in reps], "ns"),
        # A coordinator round is a poll round when free-running and an
        # epoch in virtual time; its quantiles pool the timed repetitions.
        "round_ms_p50": Stat(rounds["p50"] / 1e3, "ms",
                             [r["round_us_p50"] / 1e3 for r in reps],
                             count=rounds["count"]),
        "setup_s": median_stat([r["call_s"] - r["elapsed_s"] for r in reps],
                               "s"),
        "peak_rss_mb": median_stat([r["peak_rss_mb"] for r in reps], "MiB"),
        "rounds_per_rep": median_stat([r["polls"] for r in reps], "rounds"),
        "failed_frac": Stat(ratio(doc["lost_updates"],
                                  doc["attempted_updates"]), "fraction"),
    }
    # A tail percentile only where at least ten samples lie beyond it.
    if rounds["count"] >= 1000:
        metrics["round_ms_p99"] = Stat(rounds["p99"] / 1e3, "ms",
                                       count=rounds["count"])
    if lag["count"] > 0:
        metrics["detect_lag_epochs_p50"] = Stat(lag["p50"], "epochs",
                                                count=lag["count"])
    if lag["count"] >= 1000:
        metrics["detect_lag_epochs_p99"] = Stat(lag["p99"], "epochs",
                                                count=lag["count"])
    if all(r["true_violations"] > 0 for r in reps):
        metrics["msgs_per_violation"] = median_stat(
            [r["messages"] / r["true_violations"] for r in reps], "messages")
    return metrics


def ledger_unit(name):
    for marker, unit in (("_ns_per_", "ns"), ("_frac", "fraction"),
                         ("envs_per_", "envelopes"), ("bytes_per_", "bytes"),
                         ("rounds_per_", "rounds"), ("msgs_per_", "messages")):
        if marker in name:
            return unit
    raise BenchError(f"perfbench_ledger: no unit for {name}")


def traced(doc):
    """Per-layer metrics from perfbench_ledger."""
    return {name: Stat(value, ledger_unit(name), count=doc["traced_reps"])
            for name, value in doc["metrics"].items()}


def layers(smoke):
    """Per-layer metrics from bench_layers' JSON report."""
    args = ["--dir", RUN_DIR, "--benchmark_format=json",
            f"--benchmark_min_time={0.01 if smoke else LAYER_MIN_TIME_S}"]
    doc = run_program("bench_layers", args, 0, whole_output=True)
    out = {}
    for b in doc.get("benchmarks", []):
        if b["name"] not in LAYER_BENCHMARKS or b.get("error_occurred"):
            continue
        metric, unit = LAYER_BENCHMARKS[b["name"]]
        per_item_ns = b["real_time"] * UNIT_NS[b["time_unit"]] / b["items"]
        out[metric] = Stat(per_item_ns / UNIT_NS[unit], unit,
                           count=int(b["iterations"]))
        if "bytes_per_env" in b:
            out["wire.bytes_per_env"] = Stat(b["bytes_per_env"], "bytes")
    missing = sorted({m for m, _ in LAYER_BENCHMARKS.values()} - set(out))
    if missing:
        raise BenchError("bench_layers did not report " + ", ".join(missing))
    return out


def print_ledger(workload, ledger_path, metrics):
    """One table: each role's self, send and wait time in the last traced
    repetition, then the isolated costs of the layers it runs through."""
    with open(ledger_path, encoding="utf-8") as f:
        ledger = parse_json(f.read(), ledger_path)
    roles = {}
    for t in ledger["threads"]:
        r = roles.setdefault(t["role"], {"threads": 0, "window": 0, "cpu": 0,
                                         "send": 0, "wait": 0, "try_recv": 0})
        r["threads"] += 1
        r["window"] += t["window_ns"]
        r["cpu"] += t["cpu_ns"]
        r["send"] += t["send"]["ns"] + t["try_send"]["ns"]
        r["wait"] += t["wait"]["ns"]
        r["try_recv"] += t["try_recv"]["ns"]
    log(f"\nledger {workload} (traced repetition: {ledger['updates']} updates"
        f" in {ledger['elapsed_s']:.3f} s; shares of each role's thread time)")
    log(f"  {'role':<12} {'threads':>7} {'self':>7} {'send':>7} {'wait':>7}"
        f" {'try_recv':>8} {'on_cpu':>7}")
    for role, r in sorted(roles.items()):
        w = r["window"] or 1
        self_ns = w - r["send"] - r["wait"] - r["try_recv"]
        log(f"  {role:<12} {r['threads']:>7} {self_ns / w:>7.1%}"
            f" {r['send'] / w:>7.1%} {r['wait'] / w:>7.1%}"
            f" {r['try_recv'] / w:>8.1%} {r['cpu'] / w:>7.1%}")
    log("  isolated layer costs:")
    for name in LEDGER_LAYERS[workload]:
        s = metrics[name]
        log(f"    {name:<40} {s.value:>12.5g} {s.unit}")


def print_table(title, metrics):
    log(f"\n{title}")
    log(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'n':>8}  unit")
    for name in sorted(metrics):
        s = metrics[name]
        log(f"  {name:<40} {s.value:>12.5g} {s.q1:>12.5g} {s.q3:>12.5g}"
            f" {s.count:>8}  {s.unit}")


def measure(workload, seed, seconds, trace, smoke, layer_metrics):
    """Runs one workload in one mode; returns its result entry."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--dir", RUN_DIR]
    if smoke:
        args.append("--smoke")
    program = "perfbench_ledger" if trace else "perfbench_workload"
    doc = run_program(program, args, seconds)
    metrics = traced(doc) if trace else end_to_end(doc)
    problems = doc["errors"] + doc["failures"]
    if trace:
        metrics.update(layer_metrics)
        print_table(f"{workload}: per-layer metrics", metrics)
        if os.path.isfile(doc["ledger"]):
            print_ledger(workload, doc["ledger"], metrics)
            log(f"  chrome trace: {doc['chrome_trace']}")
    else:
        print_table(f"{workload}: end-to-end metrics", metrics)
    for p in problems:
        log(f"CHECK FAILED ({workload}): {p}")
    return {"correct": not problems and bool(metrics),
            "attempted": doc["attempted_updates"],
            "failed": doc["lost_updates"], "problems": problems,
            "fingerprint": doc["fingerprint"], "metrics": metrics}


def declared(trace):
    """The metric names BENCHMARK.json declares for the mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", help="write every measured value here")
    args = parser.parse_args()
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    names = declared(args.trace)
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    layer_metrics = layers(args.smoke) if args.trace else {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: measure(w, args.seed, args.seconds, args.trace, args.smoke,
                          layer_metrics) for w in workloads}

    fingerprint = dict(results[workloads[0]]["fingerprint"],
                       git_commit=git_commit(), cpu=cpu_model())
    log(f"\nmachine: {json.dumps(fingerprint)}")
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {}}
    for w, r in results.items():
        prefix = "" if len(results) == 1 else w + "/"
        for name in names:
            if name not in r["metrics"]:
                raise BenchError(f"{w} did not measure {name}")
            s = r["metrics"][name]
            summary["metrics"][prefix + name] = {"value": s.value,
                                                 "unit": s.unit}
    if args.json:
        doc = {"seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke,
               "fingerprint": fingerprint,
               "workloads": {w: {"correct": r["correct"],
                                 "attempted": r["attempted"],
                                 "failed": r["failed"],
                                 "problems": r["problems"],
                                 "metrics": {n: s.as_json() for n, s in
                                             r["metrics"].items()}}
                             for w, r in results.items()}}
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"run.py: {e}")
        sys.exit(2)

// dcvtool — command-line front end for the dcv library.
//
//   dcvtool generate --out trace.csv [--sites 10] [--weeks 5] [--seed 42]
//           [--format csv|bin] [--codec flat|delta|zoh]
//           [--compress none|lz4|auto] [--block-rows N]
//       Write a synthetic SNMP-style multi-site trace. --format bin writes
//       the dcvb binary columnar container (src/io/format.h) instead of
//       CSV; the codec/compression flags tune it and are rejected with
//       --format csv.
//
//   dcvtool convert --in trace.{csv|bin} --out other.{csv|bin}
//           [--format csv|bin] [--codec flat|delta|zoh]
//           [--compress none|lz4|auto] [--block-rows N]
//       Convert a trace between CSV and the binary container (either
//       direction; the input format is sniffed from its magic bytes).
//       --format defaults to the opposite of the input. Conversion is
//       lossless: csv -> bin -> csv reproduces the original file byte for
//       byte.
//
//   dcvtool plan --trace trace.csv --constraint "a + b <= 100"
//           [--train-epochs N] [--eps 0.05] [--buckets 100]
//           [--solver fptas|exact-dp|equal-value|equal-tail]
//           [--out plan.txt]
//       Build per-site histograms from the trace (site columns must match
//       the constraint's variable names), select local thresholds, and
//       print/write a deployable monitor plan.
//
//   dcvtool simulate --trace trace.csv --threshold T
//           [--train-epochs N] [--scheme local|fptas|exact-dp|equal-value|
//            equal-tail|geometric|polling|filters|multilevel] [--poll-period 5]
//           [--loss P] [--dup P] [--delay-prob P] [--max-delay E]
//           [--acks 0|1] [--max-attempts K]
//           [--degrade last-known|assume-breach]
//           [--crash site:from:to[,site:from:to...]]
//           [--partition from:to[,from:to...]] [--fault-seed S]
//           [--metrics-json out.json] [--trace-out out.trace]
//           [--trace-format jsonl|chrome] [--quiet]
//       Replay the remaining epochs through a detection scheme and report
//       messages and detection accuracy. The fault flags inject link loss,
//       duplication, delay, site crashes, and coordinator partitions into
//       the site<->coordinator channel (epochs are relative to the start of
//       the evaluation slice); when any are set a reliability breakdown is
//       printed as well. --metrics-json dumps the unified telemetry JSON
//       (message/detection/reliability counters plus every registry metric);
//       --trace-out captures per-epoch protocol events as JSONL or Chrome
//       trace_event JSON (loadable in Perfetto); --quiet suppresses the
//       stdout table (JSON outputs are still written).
//
//   dcvtool run [--trace trace.csv [--train-epochs N] [--threshold T]]
//           [--sites 4] [--updates 100000] [--seed 42] [--synthetic-max M]
//           [--alarm-fraction 0.02]
//           [--scheme local|polling] [--solver fptas|...] [--eps 0.05]
//           [--poll-period 5] [--threads K] [--shards S] [--virtual-time]
//           [--conformance] [--transport thread|socket] [--listen-port P]
//           [--chaos none|kill-worker] [--chaos-seed S]
//           [--allow-reconnect]
//           [--metrics-json out.json] [--trace-out out.trace]
//           [--trace-format jsonl|chrome] [--stats-interval-ms T]
//           [--quiet] [+ fault flags as above]
//       Run the concurrent coordinator/site runtime (src/runtime): real
//       threads behind a mailbox transport instead of the lockstep
//       simulator. With --trace the sites replay trace columns; without,
//       each of --sites generates --updates synthetic values from its
//       (seed, site) stream, U[0, --synthetic-max], and under the local
//       scheme each site's threshold is set so that about --alarm-fraction
//       of its updates (in [0, 1]; 0 = none) raise an alarm.
//       --virtual-time runs the deterministic epoch-barrier mode
//       (bit-identical to `simulate`); the default is free-running
//       throughput mode, which polls only on alarms, so --scheme polling
//       (every --poll-period epochs, no alarms) needs --virtual-time.
//       --conformance (needs --trace) runs
//       the lockstep simulator AND the virtual-time runtime and verifies
//       they agree epoch by epoch (with --transport socket a third run
//       over loopback TCP is verified as well). --threads packs the sites
//       onto K worker threads (default: one per core), each driving all
//       of its sites from one flat structure-of-arrays loop with batched
//       transport drains — how a million sites fit on one box. --shards S
//       partitions the sites across S shard inboxes feeding a root
//       aggregator (two-level coordinator tree; S in [1, sites], default
//       1). Free-running runs one shard leg per shard (S = 1: inline on
//       the coordinator's thread); virtual time runs no shard threads, so
//       there S only sets how replies are routed, and results are
//       identical for every legal S.
//       --transport socket makes this process the coordinator: it listens
//       on --listen-port (0 = ephemeral; the bound port is printed as
//       "listening-port: P"), waits for one `dcvtool site-worker` process
//       per worker slot, and prints the wire stats as "socket: ...".
//       --chaos kill-worker severs one seed-resolved worker's TCP link at
//       an epoch boundary mid-run (socket transport and virtual time only;
//       it heals via the reconnect protocol). Detection results must be
//       unchanged — that is the point. --allow-reconnect keeps the
//       coordinator accepting resume handshakes even without chaos
//       (kill-worker implies it).
//       --metrics-json writes the merged telemetry document: the
//       coordinator registry folded with every worker's final kTelemetry
//       push (counters summed, histograms merged, worker gauges
//       namespaced "workerK/..."), so the document shape matches a
//       thread-transport run. --trace-out writes one merged timeline with
//       coordinator and worker lanes (worker events are shifted by the
//       handshake-estimated clock offset); a worker's reconnect shows up
//       as instant events. --stats-interval-ms prints a live
//       "stats: ..." snapshot line every T ms while the run is going.
//
//   dcvtool site-worker --port P --worker W --workers K
//           [--host 127.0.0.1] [--trace trace.csv --train-epochs N]
//           [--sites N --updates U --seed 42 --synthetic-max M]
//           [--connect-attempts A] [--connect-timeout-ms T]
//           [--allow-reconnect] [--reconnect-window-ms T] [--quiet]
//       The worker half of a socket-transport run: connects to the
//       coordinator at host:port, identifies as worker W of K, and serves
//       the sites s with s % K == W until the coordinator shuts the run
//       down. The workload flags must match the coordinator's run: the
//       same --trace/--train-epochs (sites replay their eval columns) or
//       the same --sites/--updates/--seed synthetic stream. The run mode
//       (virtual-time or free-running) is adopted from the coordinator's
//       handshake, not a flag.
//
// Every subcommand that takes a --trace accepts both formats transparently
// (the loader sniffs the magic bytes), so a binary trace drops into any
// existing pipeline.
//
// Every subcommand prints machine-greppable "key: value" lines in a fixed
// order with locale-independent number formatting, so CI can diff them.
// Flags accept both "--flag value" and "--flag=value"; unknown or repeated
// flags are rejected (common/flags.h).

#include <chrono>
#include <clocale>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "common/strings.h"
#include "constraints/normalize.h"
#include "constraints/parser.h"
#include "histogram/equi_depth.h"
#include "runtime/conformance.h"
#include "runtime/runtime.h"
#include "runtime/site_worker.h"
#include "sim/adaptive_filter_scheme.h"
#include "sim/geometric_scheme.h"
#include "sim/local_scheme.h"
#include "sim/monitor_plan.h"
#include "sim/multilevel_scheme.h"
#include "sim/polling_scheme.h"
#include "sim/runner.h"
#include "threshold/boolean_solver.h"
#include "threshold/exact_dp.h"
#include "threshold/fptas.h"
#include "threshold/heuristics.h"
#include "io/format.h"
#include "trace/snmp_synth.h"
#include "trace/stats.h"
#include "trace/trace_bin.h"

namespace dcv {
namespace {

/// Writes `content` to `path`, overwriting.
Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open '" + path + "' for writing");
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  if (std::fclose(f) != 0 || written != content.size()) {
    return InternalError("short write to '" + path + "'");
  }
  return OkStatus();
}

/// Size of an existing file, for the convert/generate summary lines.
Result<int64_t> FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError("cannot open file: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  if (size < 0) {
    return InternalError("cannot size file: " + path);
  }
  return static_cast<int64_t>(size);
}

// ----------------------------------------------------------------------
// Binary-trace output flags shared by `generate` and `convert`.
void DeclareBinFlags(FlagSet* flags) {
  flags->Value("format").Value("codec").Value("compress").Value("block-rows");
}

Result<io::WriterOptions> ParseBinFlags(const ParsedFlags& flags) {
  io::WriterOptions options;
  DCV_ASSIGN_OR_RETURN(options.codec,
                       io::ParseRowCodec(flags.GetString("codec", "delta")));
  DCV_ASSIGN_OR_RETURN(
      options.compression,
      io::ParseBlockCompression(flags.GetString("compress", "none")));
  DCV_ASSIGN_OR_RETURN(int64_t block_rows,
                       flags.GetInt("block-rows", options.block_rows));
  options.block_rows = block_rows;
  return options;
}

/// Rejects --codec/--compress/--block-rows when the output is CSV: a
/// silently ignored tuning flag is how a benchmark ends up measuring the
/// wrong file.
Status RejectBinFlagsForCsv(const ParsedFlags& flags) {
  for (const char* flag : {"codec", "compress", "block-rows"}) {
    if (!flags.GetString(flag, "").empty()) {
      return InvalidArgumentError(std::string("--") + flag +
                                  " only applies to binary output "
                                  "(--format bin)");
    }
  }
  return OkStatus();
}

Status WriteTraceAs(const Trace& trace, const std::string& path,
                    const std::string& format, const ParsedFlags& flags) {
  if (format == "csv") {
    DCV_RETURN_IF_ERROR(RejectBinFlagsForCsv(flags));
    return trace.WriteCsv(path);
  }
  if (format == "bin") {
    DCV_ASSIGN_OR_RETURN(io::WriterOptions options, ParseBinFlags(flags));
    return WriteTraceBin(trace, path, options);
  }
  return InvalidArgumentError("--format must be csv or bin, got '" + format +
                              "'");
}

/// Hard ceiling on site/worker counts accepted from the command line. The
/// runtime indexes sites with int and sizes mailboxes from the per-worker
/// site count, so this bound keeps every derived product (2 * sites + 16,
/// sites * updates, ...) comfortably inside int64 while still allowing runs
/// 50x beyond the million-site benchmark target.
constexpr int64_t kMaxSites = 50'000'000;

/// Validates an integer count flag against [lo, kMaxSites]; the flag name
/// lands in the error so a bad value exits 1 with an actionable message
/// instead of silently narrowing into a negative int downstream.
Status ValidateCount(int64_t value, int64_t lo, const char* flag) {
  if (value < lo || value > kMaxSites) {
    return InvalidArgumentError(
        std::string(flag) + " must be in [" + std::to_string(lo) + ", " +
        std::to_string(kMaxSites) + "], got " + std::to_string(value));
  }
  return OkStatus();
}

/// Rejects workloads whose total update count (sites * updates) cannot be
/// tracked in int64 accumulators.
Status ValidateWorkload(int64_t sites, int64_t updates) {
  if (updates < 1) {
    return InvalidArgumentError("--updates must be >= 1, got " +
                                std::to_string(updates));
  }
  if (sites > 0 && updates > std::numeric_limits<int64_t>::max() / sites) {
    return InvalidArgumentError(
        "--sites * --updates overflows a 64-bit total (" +
        std::to_string(sites) + " * " + std::to_string(updates) + ")");
  }
  return OkStatus();
}

// ----------------------------------------------------------------------
Status RunGenerate(const ParsedFlags& flags) {
  DCV_ASSIGN_OR_RETURN(std::string out, flags.GetRequired("out"));
  SnmpTraceOptions options;
  DCV_ASSIGN_OR_RETURN(int64_t sites, flags.GetInt("sites", 10));
  DCV_RETURN_IF_ERROR(ValidateCount(sites, 1, "--sites"));
  DCV_ASSIGN_OR_RETURN(int64_t weeks, flags.GetInt("weeks", 5));
  DCV_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  DCV_ASSIGN_OR_RETURN(int64_t shift_week, flags.GetInt("shift-week", -1));
  options.num_sites = static_cast<int>(sites);
  options.num_weeks = static_cast<int>(weeks);
  options.seed = static_cast<uint64_t>(seed);
  options.shift_week = static_cast<int>(shift_week);
  const std::string format = flags.GetString("format", "csv");
  DCV_ASSIGN_OR_RETURN(Trace trace, GenerateSnmpTrace(options));
  DCV_RETURN_IF_ERROR(WriteTraceAs(trace, out, format, flags));
  std::printf("trace: %s\n", out.c_str());
  std::printf("format: %s\n", format.c_str());
  std::printf("sites: %d\n", trace.num_sites());
  std::printf("epochs: %lld\n", static_cast<long long>(trace.num_epochs()));
  std::printf("epochs-per-week: %lld\n",
              static_cast<long long>(EpochsPerWeek(options)));
  return OkStatus();
}

// ----------------------------------------------------------------------
Status RunConvert(const ParsedFlags& flags) {
  DCV_ASSIGN_OR_RETURN(std::string in, flags.GetRequired("in"));
  DCV_ASSIGN_OR_RETURN(std::string out, flags.GetRequired("out"));
  DCV_ASSIGN_OR_RETURN(TraceFormat in_format, SniffTraceFormat(in));
  const std::string format = flags.GetString(
      "format", in_format == TraceFormat::kBinary ? "csv" : "bin");
  DCV_ASSIGN_OR_RETURN(Trace trace, LoadTrace(in));
  DCV_RETURN_IF_ERROR(WriteTraceAs(trace, out, format, flags));
  DCV_ASSIGN_OR_RETURN(int64_t in_bytes, FileSize(in));
  DCV_ASSIGN_OR_RETURN(int64_t out_bytes, FileSize(out));
  std::printf("in: %s\n", in.c_str());
  std::printf("in-format: %s\n",
              in_format == TraceFormat::kBinary ? "bin" : "csv");
  std::printf("out: %s\n", out.c_str());
  std::printf("out-format: %s\n", format.c_str());
  std::printf("sites: %d\n", trace.num_sites());
  std::printf("epochs: %lld\n", static_cast<long long>(trace.num_epochs()));
  std::printf("in-bytes: %lld\n", static_cast<long long>(in_bytes));
  std::printf("out-bytes: %lld\n", static_cast<long long>(out_bytes));
  return OkStatus();
}

// ----------------------------------------------------------------------
Result<std::unique_ptr<ThresholdSolver>> MakeSolver(const std::string& name,
                                                    double eps) {
  if (name == "fptas") {
    return std::unique_ptr<ThresholdSolver>(
        std::make_unique<FptasSolver>(eps));
  }
  if (name == "exact-dp") {
    return std::unique_ptr<ThresholdSolver>(std::make_unique<ExactDpSolver>());
  }
  if (name == "equal-value") {
    return std::unique_ptr<ThresholdSolver>(
        std::make_unique<EqualValueSolver>());
  }
  if (name == "equal-tail") {
    return std::unique_ptr<ThresholdSolver>(
        std::make_unique<EqualTailSolver>());
  }
  return InvalidArgumentError("unknown solver '" + name + "'");
}

Status RunPlan(const ParsedFlags& flags) {
  DCV_ASSIGN_OR_RETURN(std::string trace_path, flags.GetRequired("trace"));
  DCV_ASSIGN_OR_RETURN(std::string constraint_text,
                       flags.GetRequired("constraint"));
  DCV_ASSIGN_OR_RETURN(Trace trace, LoadTrace(trace_path));
  DCV_ASSIGN_OR_RETURN(int64_t train_epochs,
                       flags.GetInt("train-epochs", trace.num_epochs()));
  DCV_ASSIGN_OR_RETURN(double eps, flags.GetDouble("eps", 0.05));
  DCV_ASSIGN_OR_RETURN(int64_t buckets, flags.GetInt("buckets", 100));
  std::string solver_name = flags.GetString("solver", "fptas");
  if (train_epochs < 1 || train_epochs > trace.num_epochs()) {
    return InvalidArgumentError("--train-epochs out of range");
  }
  DCV_ASSIGN_OR_RETURN(Trace training, trace.Slice(0, train_epochs));

  // Resolve constraint variables against the trace's site columns.
  DCV_ASSIGN_OR_RETURN(
      BoolExpr expr,
      ParseConstraintWithVars(constraint_text, trace.site_names()));
  DCV_ASSIGN_OR_RETURN(CnfConstraint cnf, ToCnf(expr));

  std::vector<std::unique_ptr<EquiDepthHistogram>> models;
  std::vector<const DistributionModel*> model_ptrs;
  for (int i = 0; i < training.num_sites(); ++i) {
    int64_t m = std::max<int64_t>(1, 4 * training.MaxValue(i));
    DCV_ASSIGN_OR_RETURN(
        EquiDepthHistogram h,
        EquiDepthHistogram::Build(training.SiteSeries(i), m,
                                  static_cast<int>(buckets)));
    models.push_back(std::make_unique<EquiDepthHistogram>(std::move(h)));
    model_ptrs.push_back(models.back().get());
  }

  DCV_ASSIGN_OR_RETURN(auto base, MakeSolver(solver_name, eps));
  BooleanThresholdSolver solver(base.get());
  DCV_ASSIGN_OR_RETURN(BooleanSolution solution,
                       solver.Solve(cnf, model_ptrs));

  MonitorPlan plan;
  plan.constraint_text = constraint_text;
  plan.solver_name = solver_name;
  plan.site_names = trace.site_names();
  plan.bounds = solution.bounds;
  // For the common single-SUM-atom case, record the global threshold.
  if (cnf.clauses.size() == 1 && cnf.clauses[0].atoms.size() == 1 &&
      cnf.clauses[0].atoms[0].op == CmpOp::kLe) {
    plan.global_threshold = cnf.clauses[0].atoms[0].threshold;
  }
  DCV_RETURN_IF_ERROR(plan.Validate());

  std::printf("%s", plan.Serialize().c_str());
  std::printf("# P(all local constraints hold) ~= %.4f (training estimate)\n",
              std::exp(solution.log_probability));
  std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    DCV_RETURN_IF_ERROR(plan.WriteToFile(out));
    std::printf("# written to %s\n", out.c_str());
  }
  return OkStatus();
}

// ----------------------------------------------------------------------
// Fault-injection flags shared by `simulate` and `run`, mapped onto
// sim/channel.h's FaultSpec. Crash windows are "site:from:to" and
// partitions "from:to", comma-separated.
void DeclareFaultFlags(FlagSet* flags) {
  flags->Value("loss").Value("dup").Value("delay-prob").Value("max-delay")
      .Value("acks").Value("max-attempts").Value("fault-seed")
      .Value("degrade").Value("crash").Value("partition");
}

Result<FaultSpec> ParseFaultFlags(const ParsedFlags& flags) {
  FaultSpec spec;
  DCV_ASSIGN_OR_RETURN(spec.loss, flags.GetDouble("loss", 0.0));
  DCV_ASSIGN_OR_RETURN(spec.duplicate, flags.GetDouble("dup", 0.0));
  DCV_ASSIGN_OR_RETURN(spec.delay, flags.GetDouble("delay-prob", 0.0));
  DCV_ASSIGN_OR_RETURN(int64_t max_delay, flags.GetInt("max-delay", 3));
  spec.max_delay_epochs = static_cast<int>(max_delay);
  DCV_ASSIGN_OR_RETURN(bool acks, flags.GetBoolValue("acks", false));
  spec.retry.enable_acks = acks;
  DCV_ASSIGN_OR_RETURN(int64_t attempts, flags.GetInt("max-attempts", 4));
  spec.retry.max_attempts = static_cast<int>(attempts);
  DCV_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("fault-seed", 0x5eed));
  spec.seed = static_cast<uint64_t>(seed);

  std::string degrade = flags.GetString("degrade", "last-known");
  if (degrade == "last-known") {
    spec.degrade = DegradeMode::kLastKnown;
  } else if (degrade == "assume-breach") {
    spec.degrade = DegradeMode::kAssumeBreach;
  } else {
    return InvalidArgumentError(
        "--degrade must be last-known or assume-breach");
  }

  std::string crash = flags.GetString("crash", "");
  if (!crash.empty()) {
    for (const std::string& item : StrSplit(crash, ',')) {
      std::vector<std::string> parts = StrSplit(item, ':');
      if (parts.size() != 3) {
        return InvalidArgumentError("--crash entries must be site:from:to");
      }
      CrashWindow w;
      DCV_ASSIGN_OR_RETURN(int64_t site, ParseInt64(parts[0]));
      w.site = static_cast<int>(site);
      DCV_ASSIGN_OR_RETURN(w.from, ParseInt64(parts[1]));
      DCV_ASSIGN_OR_RETURN(w.to, ParseInt64(parts[2]));
      spec.crashes.push_back(w);
    }
  }
  std::string partition = flags.GetString("partition", "");
  if (!partition.empty()) {
    for (const std::string& item : StrSplit(partition, ',')) {
      std::vector<std::string> parts = StrSplit(item, ':');
      if (parts.size() != 2) {
        return InvalidArgumentError("--partition entries must be from:to");
      }
      EpochWindow w;
      DCV_ASSIGN_OR_RETURN(w.from, ParseInt64(parts[0]));
      DCV_ASSIGN_OR_RETURN(w.to, ParseInt64(parts[1]));
      spec.partitions.push_back(w);
    }
  }
  return spec;
}

/// Early fault-flag validation, before any thread or socket spins up: bad
/// probabilities, out-of-range --crash site indices, inverted windows, and
/// contradictory combinations all exit 1 with a message naming the flag
/// (the deep Channel::Init checks would catch some of these, but only
/// after the workload is loaded and the fabric is half-built).
Status ValidateFaults(const FaultSpec& spec, int num_sites) {
  auto probability = [](double p, const char* flag) -> Status {
    if (p < 0.0 || p > 1.0) {
      return InvalidArgumentError(std::string(flag) +
                                  " must be a probability in [0, 1], got " +
                                  std::to_string(p));
    }
    return OkStatus();
  };
  DCV_RETURN_IF_ERROR(probability(spec.loss, "--loss"));
  DCV_RETURN_IF_ERROR(probability(spec.duplicate, "--dup"));
  DCV_RETURN_IF_ERROR(probability(spec.delay, "--delay-prob"));
  if (spec.delay > 0.0 && spec.max_delay_epochs < 1) {
    return InvalidArgumentError(
        "--delay-prob > 0 contradicts --max-delay < 1: delayed messages "
        "would have nowhere to go");
  }
  if (spec.retry.enable_acks && spec.retry.max_attempts < 1) {
    return InvalidArgumentError(
        "--acks contradicts --max-attempts < 1: retries are enabled but no "
        "attempt is allowed");
  }
  for (const CrashWindow& w : spec.crashes) {
    if (w.site < 0 || w.site >= num_sites) {
      return InvalidArgumentError(
          "--crash site " + std::to_string(w.site) +
          " is out of range for " + std::to_string(num_sites) + " sites");
    }
    if (w.from < 0 || w.to <= w.from) {
      return InvalidArgumentError(
          "--crash window for site " + std::to_string(w.site) +
          " must satisfy 0 <= from < to, got " + std::to_string(w.from) +
          ":" + std::to_string(w.to));
    }
  }
  for (size_t i = 0; i < spec.crashes.size(); ++i) {
    for (size_t j = i + 1; j < spec.crashes.size(); ++j) {
      const CrashWindow& a = spec.crashes[i];
      const CrashWindow& b = spec.crashes[j];
      if (a.site == b.site && a.from < b.to && b.from < a.to) {
        return InvalidArgumentError(
            "--crash windows for site " + std::to_string(a.site) +
            " overlap (" + std::to_string(a.from) + ":" +
            std::to_string(a.to) + " vs " + std::to_string(b.from) + ":" +
            std::to_string(b.to) + ")");
      }
    }
  }
  for (const EpochWindow& w : spec.partitions) {
    if (w.from < 0 || w.to <= w.from) {
      return InvalidArgumentError(
          "--partition windows must satisfy 0 <= from < to, got " +
          std::to_string(w.from) + ":" + std::to_string(w.to));
    }
  }
  return OkStatus();
}

Status RunSimulate(const ParsedFlags& flags) {
  DCV_ASSIGN_OR_RETURN(std::string trace_path, flags.GetRequired("trace"));
  DCV_ASSIGN_OR_RETURN(Trace trace, LoadTrace(trace_path));
  DCV_ASSIGN_OR_RETURN(int64_t train_epochs,
                       flags.GetInt("train-epochs", trace.num_epochs() / 2));
  DCV_ASSIGN_OR_RETURN(int64_t threshold, flags.GetInt("threshold", -1));
  DCV_ASSIGN_OR_RETURN(double eps, flags.GetDouble("eps", 0.05));
  DCV_ASSIGN_OR_RETURN(int64_t poll_period, flags.GetInt("poll-period", 5));
  DCV_ASSIGN_OR_RETURN(int64_t levels, flags.GetInt("levels", 4));
  std::string scheme_name = flags.GetString("scheme", "fptas");
  if (train_epochs < 1 || train_epochs >= trace.num_epochs()) {
    return InvalidArgumentError("--train-epochs out of range");
  }
  DCV_ASSIGN_OR_RETURN(Trace training, trace.Slice(0, train_epochs));
  DCV_ASSIGN_OR_RETURN(Trace eval,
                       trace.Slice(train_epochs, trace.num_epochs()));
  if (threshold < 0) {
    // Default: 1% overflow on the evaluation period.
    DCV_ASSIGN_OR_RETURN(threshold,
                         ThresholdForOverflowFraction(eval, {}, 0.01));
  }

  std::unique_ptr<ThresholdSolver> base;
  std::unique_ptr<DetectionScheme> scheme;
  if (scheme_name == "fptas" || scheme_name == "equal-value" ||
      scheme_name == "equal-tail" || scheme_name == "exact-dp" ||
      scheme_name == "local") {
    // "local" is the paper's local-threshold scheme with its default
    // (FPTAS) solver; the solver names select the same scheme with a
    // specific threshold-selection algorithm.
    DCV_ASSIGN_OR_RETURN(
        base, MakeSolver(scheme_name == "local" ? "fptas" : scheme_name, eps));
    LocalThresholdScheme::Options options;
    options.solver = base.get();
    scheme = std::make_unique<LocalThresholdScheme>(options);
  } else if (scheme_name == "geometric") {
    scheme = std::make_unique<GeometricScheme>();
  } else if (scheme_name == "polling") {
    scheme = std::make_unique<PollingScheme>(poll_period);
  } else if (scheme_name == "filters") {
    scheme = std::make_unique<AdaptiveFilterScheme>();
  } else if (scheme_name == "multilevel") {
    DCV_ASSIGN_OR_RETURN(base, MakeSolver("fptas", eps));
    MultiLevelScheme::Options options;
    options.solver = base.get();
    options.num_levels = static_cast<int>(levels);
    scheme = std::make_unique<MultiLevelScheme>(options);
  } else {
    return InvalidArgumentError("unknown scheme '" + scheme_name + "'");
  }

  const std::string metrics_json = flags.GetString("metrics-json", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string trace_format = flags.GetString("trace-format", "jsonl");
  const bool quiet = flags.GetBool("quiet");
  if (trace_format != "jsonl" && trace_format != "chrome") {
    return InvalidArgumentError("--trace-format must be jsonl or chrome");
  }

  SimOptions sim;
  sim.global_threshold = threshold;
  DCV_ASSIGN_OR_RETURN(sim.faults, ParseFaultFlags(flags));

  // Observability is attached only when an export was requested, so plain
  // runs keep the uninstrumented fast path.
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder(/*capacity=*/1 << 20);
  if (!metrics_json.empty()) {
    sim.metrics = &registry;
  }
  if (!trace_out.empty()) {
    sim.recorder = &recorder;
  }

  DCV_ASSIGN_OR_RETURN(SimResult result,
                       RunSimulation(scheme.get(), sim, training, eval));

  if (!metrics_json.empty()) {
    DCV_RETURN_IF_ERROR(WriteFile(metrics_json, result.ToJson() + "\n"));
  }
  if (!trace_out.empty()) {
    if (trace_format == "chrome") {
      DCV_RETURN_IF_ERROR(recorder.WriteChromeTrace(trace_out));
    } else {
      DCV_RETURN_IF_ERROR(recorder.WriteJsonl(trace_out));
    }
  }
  if (quiet) {
    return OkStatus();
  }

  std::printf("scheme: %s\n", result.scheme_name.c_str());
  std::printf("threshold: %lld\n", static_cast<long long>(threshold));
  std::printf("epochs: %lld\n", static_cast<long long>(result.epochs));
  std::printf("messages: %lld\n",
              static_cast<long long>(result.messages.total()));
  std::printf("messages-breakdown: %s\n", result.messages.ToString().c_str());
  std::printf("messages-per-epoch: %.3f\n", result.MessagesPerEpoch());
  std::printf("true-violations: %lld\n",
              static_cast<long long>(result.true_violations));
  std::printf("detected: %lld\n",
              static_cast<long long>(result.detected_violations));
  std::printf("missed: %lld\n",
              static_cast<long long>(result.missed_violations));
  std::printf("false-alarm-epochs: %lld\n",
              static_cast<long long>(result.false_alarm_epochs));
  if (sim.faults.any_faults() || sim.faults.retry.enable_acks) {
    std::printf("reliability: %s\n", result.reliability.ToString().c_str());
    std::printf("retransmissions: %lld\n",
                static_cast<long long>(result.reliability.retransmissions));
    std::printf("timed-out-polls: %lld\n",
                static_cast<long long>(result.reliability.timed_out_polls));
    std::printf("degraded-decisions: %lld\n",
                static_cast<long long>(result.reliability.degraded_decisions));
  }
  return OkStatus();
}

// ----------------------------------------------------------------------
// `dcvtool run`: the concurrent coordinator/site runtime.
Status PrintRuntimeResult(const RuntimeResult& result, bool show_reliability,
                          bool show_socket) {
  std::printf("protocol: %s\n", result.protocol.c_str());
  std::printf("mode: %s\n", result.mode.c_str());
  std::printf("sites: %zu\n", result.site_updates.size());
  std::printf("messages: %lld\n",
              static_cast<long long>(result.messages.total()));
  std::printf("messages-breakdown: %s\n", result.messages.ToString().c_str());
  if (result.mode == "virtual") {
    std::printf("epochs: %lld\n", static_cast<long long>(result.epochs));
    std::printf("alarm-epochs: %lld\n",
                static_cast<long long>(result.alarm_epochs));
    std::printf("polled-epochs: %lld\n",
                static_cast<long long>(result.polled_epochs));
    std::printf("true-violations: %lld\n",
                static_cast<long long>(result.true_violations));
    std::printf("detected: %lld\n",
                static_cast<long long>(result.detected_violations));
    std::printf("missed: %lld\n",
                static_cast<long long>(result.missed_violations));
    std::printf("false-alarm-epochs: %lld\n",
                static_cast<long long>(result.false_alarm_epochs));
  } else {
    std::printf("alarms: %lld\n", static_cast<long long>(result.total_alarms));
    std::printf("polls: %lld\n", static_cast<long long>(result.polled_epochs));
    std::printf("violations-flagged: %lld\n",
                static_cast<long long>(result.violations_flagged));
  }
  std::printf("updates: %lld\n", static_cast<long long>(result.total_updates));
  std::printf("elapsed-seconds: %.3f\n", result.elapsed_seconds);
  std::printf("updates-per-second: %.0f\n", result.updates_per_second);
  if (show_reliability) {
    std::printf("reliability: %s\n", result.reliability.ToString().c_str());
  }
  if (show_socket) {
    std::printf("socket: %s\n", result.socket.ToString().c_str());
  }
  return OkStatus();
}

/// Live progress for long free-running runs: prints one "stats: ..." line
/// every interval from the shared registry, on its own thread. RAII so
/// every early-return path in RunRuntime joins it before the registry
/// goes out of scope.
class ScopedStatsPrinter {
 public:
  ScopedStatsPrinter(obs::MetricsRegistry* registry, int interval_ms)
      : registry_(registry), interval_ms_(interval_ms) {
    if (registry_ != nullptr && interval_ms_ > 0) {
      thread_ = std::thread([this] { Loop(); });
    }
  }

  ~ScopedStatsPrinter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                         [this] { return stop_; })) {
      lock.unlock();
      PrintOnce();
      lock.lock();
    }
  }

  void PrintOnce() {
    obs::MetricsSnapshot snap = registry_->Snapshot();
    auto counter = [&snap](const char* name) -> long long {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0
                                       : static_cast<long long>(it->second);
    };
    std::string lag;
    auto hit = snap.histograms.find("runtime/detection_lag_epochs");
    if (hit != snap.histograms.end() && hit->second.count > 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " lag-p50=%.1f lag-p99=%.1f",
                    hit->second.Quantile(0.5), hit->second.Quantile(0.99));
      lag = buf;
    }
    std::printf("stats: alarms=%lld polls=%lld frames-rx=%lld%s\n",
                counter("runtime/coordinator/alarms"),
                counter("runtime/coordinator/polls"),
                counter("runtime/socket/frames_rx"), lag.c_str());
    std::fflush(stdout);
  }

  obs::MetricsRegistry* registry_;
  int interval_ms_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

Status RunRuntime(const ParsedFlags& flags) {
  RuntimeOptions options;
  DCV_ASSIGN_OR_RETURN(options.faults, ParseFaultFlags(flags));
  DCV_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 0));
  DCV_RETURN_IF_ERROR(ValidateCount(threads, 0, "--threads"));
  options.num_workers = static_cast<int>(threads);
  DCV_ASSIGN_OR_RETURN(int64_t shards, flags.GetInt("shards", 1));
  if (shards < 1) {
    return InvalidArgumentError(
        "--shards must be >= 1, got " + std::to_string(shards));
  }
  // An upper bound (shards <= sites) is enforced by the runtime once the
  // site count is known; both paths exit with a clear error.
  options.num_shards = static_cast<int>(shards);
  options.virtual_time = flags.GetBool("virtual-time");

  DCV_ASSIGN_OR_RETURN(options.chaos.kind,
                       ParseChaosKind(flags.GetString("chaos", "none")));
  DCV_ASSIGN_OR_RETURN(int64_t chaos_seed, flags.GetInt("chaos-seed", 1));
  options.chaos.seed = static_cast<uint64_t>(chaos_seed);
  options.socket.allow_reconnect = flags.GetBool("allow-reconnect");

  const std::string transport_name = flags.GetString("transport", "thread");
  if (transport_name == "socket") {
    options.transport = TransportKind::kSocket;
    DCV_ASSIGN_OR_RETURN(int64_t port, flags.GetInt("listen-port", 0));
    options.listen_port = static_cast<int>(port);
    // The smoke scripts parse this line to learn the ephemeral port, so it
    // must hit the pipe before the (long) accept wait starts.
    options.on_listening = [](int bound_port) {
      std::printf("listening-port: %d\n", bound_port);
      std::fflush(stdout);
    };
  } else if (transport_name != "thread") {
    return InvalidArgumentError(
        "--transport must be thread or socket, got '" + transport_name + "'");
  }
  DCV_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  options.seed = static_cast<uint64_t>(seed);
  DCV_ASSIGN_OR_RETURN(options.synthetic_max,
                       flags.GetInt("synthetic-max", 1'000'000));
  DCV_ASSIGN_OR_RETURN(options.poll_period, flags.GetInt("poll-period", 5));
  DCV_ASSIGN_OR_RETURN(double eps, flags.GetDouble("eps", 0.05));

  const std::string scheme_name = flags.GetString("scheme", "local");
  if (scheme_name == "local") {
    options.protocol = RuntimeProtocol::kLocalThreshold;
  } else if (scheme_name == "polling") {
    options.protocol = RuntimeProtocol::kPolling;
  } else {
    return InvalidArgumentError(
        "run --scheme must be local or polling, got '" + scheme_name + "'");
  }
  DCV_ASSIGN_OR_RETURN(auto solver,
                       MakeSolver(flags.GetString("solver", "fptas"), eps));
  options.solver = solver.get();

  const std::string metrics_json = flags.GetString("metrics-json", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string trace_format = flags.GetString("trace-format", "jsonl");
  if (trace_format != "jsonl" && trace_format != "chrome") {
    return InvalidArgumentError("--trace-format must be jsonl or chrome");
  }
  DCV_ASSIGN_OR_RETURN(int64_t stats_interval,
                       flags.GetInt("stats-interval-ms", 0));
  if (stats_interval < 0) {
    return InvalidArgumentError("--stats-interval-ms must be >= 0");
  }
  const bool quiet = flags.GetBool("quiet");
  const bool conformance = flags.GetBool("conformance");
  const bool show_reliability =
      options.faults.any_faults() || options.faults.retry.enable_acks;

  // Observability is attached only when an export (or live stats) was
  // requested, so plain runs keep the uninstrumented fast path. On socket
  // runs the registry holds the coordinator side; the workers' final
  // telemetry pushes are merged in by the runtime before ToJson.
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder(/*capacity=*/1 << 20);
  if (!metrics_json.empty() || stats_interval > 0) {
    options.metrics = &registry;
  }
  if (!trace_out.empty()) {
    options.recorder = &recorder;
  }
  ScopedStatsPrinter stats_printer(options.metrics,
                                   static_cast<int>(stats_interval));
  auto write_outputs = [&](const RuntimeResult& result) -> Status {
    if (!metrics_json.empty()) {
      DCV_RETURN_IF_ERROR(WriteFile(metrics_json, result.ToJson() + "\n"));
    }
    if (!trace_out.empty()) {
      if (trace_format == "chrome") {
        DCV_RETURN_IF_ERROR(recorder.WriteChromeTrace(trace_out));
      } else {
        DCV_RETURN_IF_ERROR(recorder.WriteJsonl(trace_out));
      }
    }
    return OkStatus();
  };

  const std::string trace_path = flags.GetString("trace", "");
  if (flags.Has("alarm-fraction") &&
      (!trace_path.empty() ||
       options.protocol != RuntimeProtocol::kLocalThreshold)) {
    // A trace run's thresholds come from the solver, and polling has none.
    return InvalidArgumentError(
        "--alarm-fraction only applies to synthetic --scheme local runs "
        "(no --trace)");
  }
  if (trace_path.empty()) {
    // Synthetic workload: per-site (seed, site) streams.
    if (conformance) {
      return InvalidArgumentError("--conformance needs --trace");
    }
    DCV_ASSIGN_OR_RETURN(int64_t sites, flags.GetInt("sites", 4));
    DCV_RETURN_IF_ERROR(ValidateCount(sites, 1, "--sites"));
    DCV_RETURN_IF_ERROR(
        ValidateFaults(options.faults, static_cast<int>(sites)));
    DCV_ASSIGN_OR_RETURN(int64_t updates, flags.GetInt("updates", 100000));
    DCV_RETURN_IF_ERROR(ValidateWorkload(sites, updates));
    DCV_RETURN_IF_ERROR(ValidateSyntheticMax(options.synthetic_max,
                                             static_cast<int>(sites)));
    DCV_ASSIGN_OR_RETURN(
        int64_t threshold,
        flags.GetInt("threshold",
                     static_cast<int64_t>(sites) * options.synthetic_max));
    options.global_threshold = threshold;
    // Local constraints at a small breach rate (2% by default) keep
    // protocol traffic honest without serializing every update on the
    // coordinator.
    if (options.protocol == RuntimeProtocol::kLocalThreshold) {
      DCV_ASSIGN_OR_RETURN(
          double alarm_fraction,
          flags.GetDouble("alarm-fraction", kDefaultAlarmFraction));
      if (!(alarm_fraction >= 0.0 && alarm_fraction <= 1.0)) {
        return InvalidArgumentError(
            "--alarm-fraction must be in [0, 1], got " +
            flags.GetString("alarm-fraction", ""));
      }
      options.thresholds.assign(
          static_cast<size_t>(sites),
          SyntheticSiteThreshold(options.synthetic_max, alarm_fraction));
      options.domain_max.assign(static_cast<size_t>(sites),
                                options.synthetic_max);
    }
    DCV_ASSIGN_OR_RETURN(
        RuntimeResult result,
        RunSyntheticRuntime(static_cast<int>(sites), updates, options));
    DCV_RETURN_IF_ERROR(write_outputs(result));
    if (quiet) {
      return OkStatus();
    }
    return PrintRuntimeResult(result, show_reliability,
                              options.transport == TransportKind::kSocket);
  }

  DCV_ASSIGN_OR_RETURN(Trace trace, LoadTrace(trace_path));
  DCV_ASSIGN_OR_RETURN(int64_t train_epochs,
                       flags.GetInt("train-epochs", trace.num_epochs() / 2));
  if (train_epochs < 1 || train_epochs >= trace.num_epochs()) {
    return InvalidArgumentError("--train-epochs out of range");
  }
  DCV_ASSIGN_OR_RETURN(Trace training, trace.Slice(0, train_epochs));
  DCV_ASSIGN_OR_RETURN(Trace eval,
                       trace.Slice(train_epochs, trace.num_epochs()));
  DCV_RETURN_IF_ERROR(ValidateFaults(options.faults, eval.num_sites()));
  DCV_ASSIGN_OR_RETURN(int64_t threshold, flags.GetInt("threshold", -1));
  if (threshold < 0) {
    DCV_ASSIGN_OR_RETURN(threshold,
                         ThresholdForOverflowFraction(eval, {}, 0.01));
  }
  options.global_threshold = threshold;

  if (conformance) {
    ConformanceSpec spec;
    spec.protocol = options.protocol;
    spec.solver = options.solver;
    spec.poll_period = options.poll_period;
    spec.global_threshold = threshold;
    spec.faults = options.faults;
    spec.num_workers = options.num_workers;
    spec.num_shards = options.num_shards;
    spec.transport = options.transport;
    spec.chaos = options.chaos;
    DCV_ASSIGN_OR_RETURN(ConformanceReport report,
                         RunConformance(training, eval, spec));
    if (!quiet) {
      std::printf("threshold: %lld\n", static_cast<long long>(threshold));
      std::printf("epochs: %lld\n",
                  static_cast<long long>(report.lockstep.epochs));
      std::printf("lockstep-messages: %lld\n",
                  static_cast<long long>(report.lockstep.messages.total()));
      std::printf("runtime-messages: %lld\n",
                  static_cast<long long>(report.runtime.messages.total()));
      if (report.ran_socket) {
        std::printf("socket-messages: %lld\n",
                    static_cast<long long>(
                        report.socket_runtime.messages.total()));
        std::printf("socket: %s\n",
                    report.socket_runtime.socket.ToString().c_str());
      }
      std::printf("conformance: %s\n",
                  report.identical ? "IDENTICAL" : "MISMATCH");
      if (!report.identical) {
        std::printf("mismatch: %s\n", report.mismatch.c_str());
      }
    }
    if (!report.identical) {
      return InternalError("runtime diverged from the lockstep simulator: " +
                           report.mismatch);
    }
    return OkStatus();
  }

  DCV_ASSIGN_OR_RETURN(RuntimeResult result,
                       RunMonitorRuntime(training, eval, options));
  DCV_RETURN_IF_ERROR(write_outputs(result));
  if (quiet) {
    return OkStatus();
  }
  std::printf("threshold: %lld\n", static_cast<long long>(threshold));
  return PrintRuntimeResult(result, show_reliability,
                            options.transport == TransportKind::kSocket);
}

// ----------------------------------------------------------------------
// `dcvtool site-worker`: the worker-process half of a socket run.
Status RunSiteWorkerCommand(const ParsedFlags& flags) {
  SiteWorkerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  DCV_ASSIGN_OR_RETURN(int64_t port, flags.GetInt("port", 0));
  if (port < 1 || port > 65535) {
    return InvalidArgumentError("site-worker needs --port in [1, 65535]");
  }
  options.port = static_cast<int>(port);
  DCV_ASSIGN_OR_RETURN(int64_t worker, flags.GetInt("worker", 0));
  DCV_ASSIGN_OR_RETURN(int64_t workers, flags.GetInt("workers", 1));
  DCV_RETURN_IF_ERROR(ValidateCount(workers, 1, "--workers"));
  if (worker < 0 || worker >= workers) {
    return InvalidArgumentError(
        "--worker " + std::to_string(worker) + " is out of range for " +
        std::to_string(workers) + " workers (must be in [0, --workers))");
  }
  options.worker = static_cast<int>(worker);
  options.num_workers = static_cast<int>(workers);
  DCV_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  options.seed = static_cast<uint64_t>(seed);
  DCV_ASSIGN_OR_RETURN(options.synthetic_max,
                       flags.GetInt("synthetic-max", 1'000'000));
  DCV_ASSIGN_OR_RETURN(
      int64_t attempts,
      flags.GetInt("connect-attempts", options.socket.connect_attempts));
  options.socket.connect_attempts = static_cast<int>(attempts);
  DCV_ASSIGN_OR_RETURN(
      int64_t connect_timeout,
      flags.GetInt("connect-timeout-ms", options.socket.connect_timeout_ms));
  options.socket.connect_timeout_ms = static_cast<int>(connect_timeout);
  options.socket.allow_reconnect = flags.GetBool("allow-reconnect");
  DCV_ASSIGN_OR_RETURN(
      int64_t reconnect_window,
      flags.GetInt("reconnect-window-ms", options.socket.reconnect_window_ms));
  options.socket.reconnect_window_ms = static_cast<int>(reconnect_window);
  const bool quiet = flags.GetBool("quiet");

  // Workload: the eval slice of a trace (must match the coordinator's
  // --trace/--train-epochs split) or a synthetic per-site stream (must
  // match its --sites/--updates/--seed).
  Trace eval(0);
  bool have_trace = false;
  const std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    DCV_ASSIGN_OR_RETURN(Trace trace, LoadTrace(trace_path));
    DCV_ASSIGN_OR_RETURN(int64_t train_epochs,
                         flags.GetInt("train-epochs", trace.num_epochs() / 2));
    if (train_epochs < 1 || train_epochs >= trace.num_epochs()) {
      return InvalidArgumentError("--train-epochs out of range");
    }
    DCV_ASSIGN_OR_RETURN(eval, trace.Slice(train_epochs, trace.num_epochs()));
    options.num_sites = eval.num_sites();
    have_trace = true;
  } else {
    DCV_ASSIGN_OR_RETURN(int64_t sites, flags.GetInt("sites", 4));
    DCV_RETURN_IF_ERROR(ValidateCount(sites, 1, "--sites"));
    options.num_sites = static_cast<int>(sites);
    DCV_ASSIGN_OR_RETURN(options.synthetic_updates,
                         flags.GetInt("updates", 100000));
    DCV_RETURN_IF_ERROR(ValidateWorkload(sites, options.synthetic_updates));
  }

  // Always instrument the worker: the per-process registry/recorder is what
  // the periodic + final kTelemetry pushes serialize, and a bare worker
  // would leave an empty hole in the coordinator's merged document. The
  // ring is modest — pushes ship only the freshest events anyway.
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder(/*capacity=*/1 << 16);
  options.metrics = &registry;
  options.recorder = &recorder;

  DCV_ASSIGN_OR_RETURN(
      SiteWorkerReport report,
      RunSiteWorker(have_trace ? &eval : nullptr, options));
  if (quiet) {
    return OkStatus();
  }
  std::printf("worker: %d\n", options.worker);
  std::string owned;
  for (size_t i = 0; i < report.sites.size(); ++i) {
    owned += (i > 0 ? "," : "") + std::to_string(report.sites[i]);
  }
  std::printf("sites-owned: %s\n", owned.c_str());
  std::printf("mode: %s\n", report.virtual_time ? "virtual" : "free-running");
  std::printf("updates: %lld\n", static_cast<long long>(report.total_updates));
  std::printf("socket: %s\n", report.socket.ToString().c_str());
  return OkStatus();
}

// ----------------------------------------------------------------------
Status RunCheck(const ParsedFlags& flags) {
  // Replay a trace against a shipped monitor plan: per-epoch local checks
  // plus exact evaluation of the plan's constraint, reporting alarm and
  // violation statistics — what an operator runs before rolling a plan out.
  DCV_ASSIGN_OR_RETURN(std::string plan_path, flags.GetRequired("plan"));
  DCV_ASSIGN_OR_RETURN(std::string trace_path, flags.GetRequired("trace"));
  DCV_ASSIGN_OR_RETURN(MonitorPlan plan, MonitorPlan::ReadFromFile(plan_path));
  DCV_ASSIGN_OR_RETURN(Trace trace, LoadTrace(trace_path));
  if (trace.site_names() != plan.site_names) {
    return InvalidArgumentError(
        "trace site columns do not match the plan's sites");
  }
  BoolExpr constraint = BoolExpr::Atom(
      AggExpr::Linear(LinearExpr::FromConstant(0)), CmpOp::kLe, 0);
  bool have_constraint = false;
  if (!plan.constraint_text.empty()) {
    DCV_ASSIGN_OR_RETURN(
        constraint,
        ParseConstraintWithVars(plan.constraint_text, plan.site_names));
    have_constraint = true;
  }

  int64_t alarm_epochs = 0;
  int64_t total_alarms = 0;
  int64_t violations = 0;
  int64_t covered = 0;
  for (int64_t t = 0; t < trace.num_epochs(); ++t) {
    const auto& values = trace.epoch(t);
    int alarms = 0;
    for (int i = 0; i < trace.num_sites(); ++i) {
      if (!plan.SiteOk(i, values[static_cast<size_t>(i)])) {
        ++alarms;
      }
    }
    alarm_epochs += alarms > 0 ? 1 : 0;
    total_alarms += alarms;
    if (have_constraint && !constraint.Evaluate(values)) {
      ++violations;
      covered += alarms > 0 ? 1 : 0;
    }
  }
  std::printf("epochs: %lld\n", static_cast<long long>(trace.num_epochs()));
  std::printf("alarm-epochs: %lld\n", static_cast<long long>(alarm_epochs));
  std::printf("total-alarms: %lld\n", static_cast<long long>(total_alarms));
  if (have_constraint) {
    std::printf("constraint-violations: %lld\n",
                static_cast<long long>(violations));
    std::printf("violations-covered-by-alarms: %lld\n",
                static_cast<long long>(covered));
    if (covered != violations) {
      return InternalError(
          "covering property violated on this trace — do not deploy");
    }
    std::printf("covering: OK\n");
  }
  return OkStatus();
}

// ----------------------------------------------------------------------
// Per-command flag declarations: Parse rejects anything not declared here,
// so a typo aborts instead of silently running with a default.
FlagSet GenerateFlags() {
  FlagSet flags;
  flags.Value("out").Value("sites").Value("weeks").Value("seed")
      .Value("shift-week");
  DeclareBinFlags(&flags);
  return flags;
}

FlagSet ConvertFlags() {
  FlagSet flags;
  flags.Value("in").Value("out");
  DeclareBinFlags(&flags);
  return flags;
}

FlagSet PlanFlags() {
  FlagSet flags;
  flags.Value("trace").Value("constraint").Value("train-epochs").Value("eps")
      .Value("buckets").Value("solver").Value("out");
  return flags;
}

FlagSet SimulateFlags() {
  FlagSet flags;
  flags.Value("trace").Value("train-epochs").Value("threshold").Value("eps")
      .Value("poll-period").Value("levels").Value("scheme")
      .Value("metrics-json").Value("trace-out").Value("trace-format");
  flags.Boolean("quiet");
  DeclareFaultFlags(&flags);
  return flags;
}

FlagSet RunFlags() {
  FlagSet flags;
  flags.Value("trace").Value("train-epochs").Value("threshold").Value("eps")
      .Value("scheme").Value("solver").Value("poll-period").Value("threads")
      .Value("shards").Value("sites").Value("updates").Value("seed")
      .Value("synthetic-max").Value("alarm-fraction").Value("metrics-json")
      .Value("transport").Value("listen-port").Value("chaos")
      .Value("chaos-seed").Value("trace-out")
      .Value("trace-format").Value("stats-interval-ms");
  flags.Boolean("virtual-time").Boolean("quiet").Boolean("conformance")
      .Boolean("allow-reconnect");
  DeclareFaultFlags(&flags);
  return flags;
}

FlagSet SiteWorkerFlags() {
  FlagSet flags;
  flags.Value("host").Value("port").Value("worker").Value("workers")
      .Value("trace").Value("train-epochs").Value("sites").Value("updates")
      .Value("seed").Value("synthetic-max").Value("connect-attempts")
      .Value("connect-timeout-ms").Value("reconnect-window-ms");
  flags.Boolean("quiet").Boolean("allow-reconnect");
  return flags;
}

FlagSet CheckFlags() {
  FlagSet flags;
  flags.Value("plan").Value("trace");
  return flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dcvtool "
               "<generate|convert|plan|simulate|run|site-worker|check> "
               "--flag value ...\nsee the header of tools/dcvtool.cc for "
               "details\n");
  return 2;
}

int Main(int argc, char** argv) {
  // Pin numeric formatting to the C locale so the printed tables (and any
  // %.3f therein) are byte-identical regardless of the caller's LC_ALL.
  std::setlocale(LC_ALL, "C");
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  FlagSet flag_set;
  Status (*handler)(const ParsedFlags&) = nullptr;
  if (command == "generate") {
    flag_set = GenerateFlags();
    handler = RunGenerate;
  } else if (command == "convert") {
    flag_set = ConvertFlags();
    handler = RunConvert;
  } else if (command == "plan") {
    flag_set = PlanFlags();
    handler = RunPlan;
  } else if (command == "simulate") {
    flag_set = SimulateFlags();
    handler = RunSimulate;
  } else if (command == "run") {
    flag_set = RunFlags();
    handler = RunRuntime;
  } else if (command == "site-worker") {
    flag_set = SiteWorkerFlags();
    handler = RunSiteWorkerCommand;
  } else if (command == "check") {
    flag_set = CheckFlags();
    handler = RunCheck;
  } else {
    return Usage();
  }
  auto flags = flag_set.Parse(argc, argv, 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return Usage();
  }
  Status status = handler(*flags);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dcv

int main(int argc, char** argv) { return dcv::Main(argc, argv); }

// Throughput of the concurrent runtime (src/runtime) in free-running mode:
// site worker threads push synthetic updates through the mailbox transport
// while the coordinator serves alarms and poll rounds. Reports aggregate
// updates/sec per (site count, shard count) — the scaling story for the
// threaded runtime vs. the single-threaded lockstep simulator, and for the
// two-level coordinator tree across shard counts (--shards; 1 = one leg
// inline on the coordinator's thread).
//
// Usage: bench_runtime [--updates U] [--sites 2,4,8,16] [--shards 1]
//                      [--seed 42] [--alarm-fraction 0.02] [--workers 0]
//                      [--transport thread|socket] [--json out.json]
//                      [--chaos none|kill-shard] [--chaos-seed 3]
//                      [--heartbeat-timeout-ms 500]
//                      [--trace file [--train-epochs N] [--threshold T]]
//
// When --updates is omitted, each configuration gets a per-site update
// count derived from a fixed total budget (~2e8 updates, clamped to
// [50, 200000] per site), so a single sweep can span 2 sites to a million
// sites without either finishing in microseconds or running for hours.
//
// --trace switches from the synthetic sweep to free-running replay of a
// recorded trace (CSV or the dcvb binary format — sniffed by magic bytes):
// the first --train-epochs epochs train local thresholds (FPTAS), the rest
// replay through the runtime at full speed, one row per site update. The
// --sites list is ignored (the trace fixes the site count); --shards still
// sweeps.
//
// --shards takes a comma list of coordinator shard counts; each is run
// against each site count (shard counts above the site count are skipped).
// --json writes every configuration's updates/sec, coordinator latency
// distribution, and detection-lag quantiles (p50/p95/p99 of
// runtime/detection_lag_epochs — how far the free-running coordinator
// trails the lockstep ground truth per poll round) to a metrics JSON file
// (the BENCH_runtime.json artifact).
// --transport socket runs the same workload through the TCP transport on
// loopback (worker drivers in-process, one per worker thread), measuring
// the framing + kernel socket overhead against the mailbox baseline.
// --chaos kill-shard injects one seed-resolved shard crash into every
// configuration and reports the measured recovery time; shards=1 configs
// run healthy (a 1-shard tree has no shard thread to lose). Recovery gauges
// (shard_recoveries, recovery_ms) are always emitted so the JSON schema
// is stable with and without chaos.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/strings.h"
#include "obs/obs.h"
#include "runtime/chaos.h"
#include "runtime/runtime.h"
#include "runtime/site_worker.h"
#include "threshold/fptas.h"
#include "trace/stats.h"
#include "trace/trace_bin.h"

namespace dcv {
namespace {

struct BenchConfig {
  int64_t updates = 0;  ///< Per site; 0 = auto budget (see header comment).
  std::vector<int> site_counts = {2, 4, 8, 16};
  std::vector<int> shard_counts = {1};
  uint64_t seed = 42;
  double alarm_fraction = 0.02;  ///< Fraction of updates breaching T_i.
  int workers = 0;               ///< 0 = auto (RuntimeOptions::num_workers).
  bool socket = false;           ///< Loopback TCP instead of mailboxes.
  std::string json_path;         ///< Empty = no JSON artifact.
  ChaosSpec chaos;               ///< One injected failure per config.
  int heartbeat_timeout_ms = 0;  ///< 0 = 500 when chaos is requested.
  std::string trace_path;        ///< Empty = synthetic sweep.
  int64_t train_epochs = 0;      ///< 0 = half the trace.
  int64_t threshold = -1;        ///< <0 = 1% overflow on the eval slice.
};

/// Largest site/shard/worker count any flag accepts. Same ceiling dcvtool
/// enforces: keeps every derived quantity (mailbox capacities of
/// 2 * sites + 16, budget divisions, per-run totals) inside int64 and the
/// per-element static_cast<int> below lossless.
constexpr int64_t kMaxSites = 50'000'000;

/// Parses a comma list of counts, validating each element against
/// [1, kMaxSites] so a value like 10e9 fails loudly here instead of
/// wrapping negative in the int narrowing and crashing the fabric setup.
Result<std::vector<int>> ParseIntList(const std::string& csv,
                                      const char* flag) {
  std::vector<int> out;
  for (const std::string& tok : StrSplit(csv, ',')) {
    DCV_ASSIGN_OR_RETURN(int64_t n, ParseInt64(tok));
    if (n < 1 || n > kMaxSites) {
      return InvalidArgumentError(
          std::string(flag) + " entries must be in [1, " +
          std::to_string(kMaxSites) + "], got " + std::to_string(n));
    }
    out.push_back(static_cast<int>(n));
  }
  if (out.empty()) {
    return InvalidArgumentError(std::string(flag) +
                                " needs at least one value");
  }
  return out;
}

/// Per-site update count for one configuration: the explicit --updates
/// value, or a slice of the fixed total budget when the flag was omitted.
int64_t UpdatesPerSite(const BenchConfig& config, int sites) {
  if (config.updates > 0) {
    return config.updates;
  }
  constexpr int64_t kTotalBudget = 200'000'000;
  constexpr int64_t kMinPerSite = 50;
  constexpr int64_t kMaxPerSite = 200'000;
  const int64_t per_site = kTotalBudget / std::max(sites, 1);
  return std::min(kMaxPerSite, std::max(kMinPerSite, per_site));
}

Result<BenchConfig> ParseArgs(int argc, char** argv) {
  FlagSet flags;
  flags.Value("updates").Value("sites").Value("shards").Value("seed")
      .Value("alarm-fraction").Value("workers").Value("transport")
      .Value("json").Value("chaos").Value("chaos-seed")
      .Value("heartbeat-timeout-ms").Value("trace").Value("train-epochs")
      .Value("threshold");
  DCV_ASSIGN_OR_RETURN(ParsedFlags parsed, flags.Parse(argc, argv, 1));
  BenchConfig config;
  DCV_ASSIGN_OR_RETURN(config.updates,
                       parsed.GetInt("updates", config.updates));
  if (parsed.Has("updates") && config.updates < 1) {
    return InvalidArgumentError("--updates must be >= 1, got " +
                                std::to_string(config.updates));
  }
  DCV_ASSIGN_OR_RETURN(
      int64_t seed, parsed.GetInt("seed", static_cast<int64_t>(config.seed)));
  config.seed = static_cast<uint64_t>(seed);
  DCV_ASSIGN_OR_RETURN(
      config.alarm_fraction,
      parsed.GetDouble("alarm-fraction", config.alarm_fraction));
  DCV_ASSIGN_OR_RETURN(int64_t workers,
                       parsed.GetInt("workers", config.workers));
  if (workers < 0 || workers > kMaxSites) {
    return InvalidArgumentError("--workers must be in [0, " +
                                std::to_string(kMaxSites) + "], got " +
                                std::to_string(workers));
  }
  config.workers = static_cast<int>(workers);
  if (parsed.Has("sites")) {
    DCV_ASSIGN_OR_RETURN(
        config.site_counts,
        ParseIntList(parsed.GetString("sites", ""), "--sites"));
  }
  if (parsed.Has("shards")) {
    DCV_ASSIGN_OR_RETURN(
        config.shard_counts,
        ParseIntList(parsed.GetString("shards", ""), "--shards"));
  }
  for (int sites : config.site_counts) {
    if (config.updates > 0 &&
        config.updates > std::numeric_limits<int64_t>::max() / sites) {
      return InvalidArgumentError(
          "--sites * --updates overflows a 64-bit total");
    }
  }
  config.json_path = parsed.GetString("json", "");
  const std::string transport = parsed.GetString("transport", "thread");
  if (transport == "socket") {
    config.socket = true;
  } else if (transport != "thread") {
    return InvalidArgumentError("--transport must be thread or socket");
  }
  if (parsed.Has("chaos")) {
    DCV_ASSIGN_OR_RETURN(config.chaos.kind,
                         ParseChaosKind(parsed.GetString("chaos", "none")));
  }
  DCV_ASSIGN_OR_RETURN(int64_t chaos_seed, parsed.GetInt("chaos-seed", 3));
  config.chaos.seed = static_cast<uint64_t>(chaos_seed);
  DCV_ASSIGN_OR_RETURN(
      int64_t heartbeat,
      parsed.GetInt("heartbeat-timeout-ms", config.heartbeat_timeout_ms));
  if (heartbeat < 0) {
    return InvalidArgumentError("--heartbeat-timeout-ms must be >= 0");
  }
  config.heartbeat_timeout_ms = static_cast<int>(heartbeat);
  if (config.chaos.kind != ChaosKind::kNone &&
      config.heartbeat_timeout_ms == 0) {
    // A chaos sweep with no failure detector would hang forever; that is
    // never what was asked for.
    config.heartbeat_timeout_ms = 500;
  }
  config.trace_path = parsed.GetString("trace", "");
  DCV_ASSIGN_OR_RETURN(config.train_epochs,
                       parsed.GetInt("train-epochs", config.train_epochs));
  DCV_ASSIGN_OR_RETURN(config.threshold,
                       parsed.GetInt("threshold", config.threshold));
  if (config.trace_path.empty() &&
      (config.train_epochs != 0 || config.threshold >= 0)) {
    return InvalidArgumentError(
        "--train-epochs/--threshold only apply with --trace");
  }
  return config;
}

/// Trace replay: free-running RunMonitorRuntime over the eval slice, one
/// table row per shard count. Accepts both trace formats via LoadTrace —
/// this is the disk-speed replay consumer of the binary container.
Status RunTraceBench(const BenchConfig& config) {
  DCV_ASSIGN_OR_RETURN(Trace trace, LoadTrace(config.trace_path));
  const int64_t train = config.train_epochs > 0 ? config.train_epochs
                                                : trace.num_epochs() / 2;
  if (train < 1 || train >= trace.num_epochs()) {
    return InvalidArgumentError("--train-epochs out of range");
  }
  DCV_ASSIGN_OR_RETURN(Trace training, trace.Slice(0, train));
  DCV_ASSIGN_OR_RETURN(Trace eval, trace.Slice(train, trace.num_epochs()));
  int64_t threshold = config.threshold;
  if (threshold < 0) {
    DCV_ASSIGN_OR_RETURN(threshold,
                         ThresholdForOverflowFraction(eval, {}, 0.01));
  }
  FptasSolver solver(0.05);

  obs::MetricsRegistry summary;
  std::printf("# free-running trace replay (%s: %d sites, %" PRId64
              " train + %" PRId64 " eval epochs, threshold %" PRId64 ")\n",
              config.trace_path.c_str(), eval.num_sites(), train,
              eval.num_epochs(), threshold);
  std::printf("%8s %8s %14s %12s %14s %10s %10s\n", "sites", "shards",
              "updates", "seconds", "updates/sec", "alarms", "polls");
  for (int shards : config.shard_counts) {
    if (shards > eval.num_sites()) {
      std::printf("# skipping shards=%d (shards > sites)\n", shards);
      continue;
    }
    obs::MetricsRegistry run_metrics;
    RuntimeOptions options;
    options.virtual_time = false;
    options.num_workers =
        config.workers == 0 ? 0 : std::min(config.workers, eval.num_sites());
    options.num_shards = shards;
    options.seed = config.seed;
    options.global_threshold = threshold;
    options.solver = &solver;
    options.metrics = &run_metrics;
    DCV_ASSIGN_OR_RETURN(RuntimeResult result,
                         RunMonitorRuntime(training, eval, options));
    std::printf("%8d %8d %14" PRId64 " %12.3f %14.0f %10" PRId64
                " %10" PRId64 "\n",
                eval.num_sites(), shards, result.total_updates,
                result.elapsed_seconds, result.updates_per_second,
                result.total_alarms, result.polled_epochs);
    const std::string prefix =
        "bench/runtime/trace/shards=" + std::to_string(shards) + "/";
    summary.gauge(prefix + "updates_per_sec")->Set(result.updates_per_second);
    summary.gauge(prefix + "elapsed_seconds")->Set(result.elapsed_seconds);
    summary.gauge(prefix + "alarms")
        ->Set(static_cast<double>(result.total_alarms));
    summary.gauge(prefix + "polls")
        ->Set(static_cast<double>(result.polled_epochs));
  }
  if (!config.json_path.empty() &&
      !bench::WriteMetricsJson(summary, config.json_path)) {
    return InternalError("cannot write " + config.json_path);
  }
  return OkStatus();
}

int RunBench(const BenchConfig& config) {
  constexpr int64_t kSyntheticMax = 1'000'000;
  // T_i so that roughly alarm_fraction of U[0, max] draws breach it:
  // enough protocol traffic to be honest, not enough to serialize on the
  // coordinator.
  const int64_t site_threshold = static_cast<int64_t>(
      static_cast<double>(kSyntheticMax) * (1.0 - config.alarm_fraction));

  // Every configuration's headline numbers land in this registry under a
  // "bench/runtime/sites=N/shards=K/" prefix; --json dumps it at the end.
  obs::MetricsRegistry summary;

  if (config.updates > 0) {
    std::printf("# free-running runtime throughput (updates/site: %" PRId64
                ", alarm fraction: %.3f, transport: %s)\n",
                config.updates, config.alarm_fraction,
                config.socket ? "socket" : "thread");
  } else {
    std::printf("# free-running runtime throughput (updates/site: auto "
                "budget, alarm fraction: %.3f, transport: %s)\n",
                config.alarm_fraction, config.socket ? "socket" : "thread");
  }
  std::printf("%8s %8s %8s %14s %12s %14s %10s %10s %14s\n", "sites",
              "threads", "shards", "updates", "seconds", "updates/sec",
              "alarms", "polls", "poll-us(mean)");
  for (int sites : config.site_counts) {
    for (int shards : config.shard_counts) {
      if (shards > sites) {
        std::printf("# skipping shards=%d for sites=%d (shards > sites)\n",
                    shards, sites);
        continue;
      }
      const int64_t updates = UpdatesPerSite(config, sites);
      // Per-run registry so the coordinator latency histograms are not
      // merged across configurations.
      obs::MetricsRegistry run_metrics;
      RuntimeOptions options;
      options.virtual_time = false;
      options.num_workers =
          config.workers == 0 ? 0 : std::min(config.workers, sites);
      options.num_shards = shards;
      options.seed = config.seed;
      options.synthetic_max = kSyntheticMax;
      options.global_threshold =
          static_cast<int64_t>(sites) * kSyntheticMax;  // Polls never flag.
      options.thresholds.assign(static_cast<size_t>(sites), site_threshold);
      options.domain_max.assign(static_cast<size_t>(sites), kSyntheticMax);
      options.metrics = &run_metrics;
      options.chaos = config.chaos;
      options.heartbeat_timeout_ms = config.heartbeat_timeout_ms;
      if (config.chaos.kind == ChaosKind::kKillShard && shards < 2) {
        // A 1-shard tree has no shard thread to lose; run this config healthy
        // so the sweep still covers it.
        std::printf("# shards=1 for sites=%d runs healthy (kill-shard needs "
                    "a sharded tree)\n",
                    sites);
        options.chaos = ChaosSpec{};
        options.heartbeat_timeout_ms = 0;
      }

      // Socket mode: the coordinator listens on an ephemeral loopback port
      // and each worker drives its sites through a real TCP connection from
      // an in-process thread.
      std::vector<std::thread> worker_threads;
      if (config.socket) {
        const int num_workers =
            options.num_workers == 0 ? sites : options.num_workers;
        options.transport = TransportKind::kSocket;
        options.listen_port = 0;
        options.on_listening = [&worker_threads, num_workers, sites, updates,
                                &config](int port) {
          for (int w = 0; w < num_workers; ++w) {
            worker_threads.emplace_back([w, port, num_workers, sites, updates,
                                         &config] {
              SiteWorkerOptions wo;
              wo.port = port;
              wo.worker = w;
              wo.num_workers = num_workers;
              wo.num_sites = sites;
              wo.synthetic_updates = updates;
              wo.seed = config.seed;
              wo.synthetic_max = 1'000'000;
              auto report = RunSiteWorker(nullptr, wo);
              if (!report.ok()) {
                std::fprintf(stderr, "bench_runtime worker %d: %s\n", w,
                             std::string(report.status().message()).c_str());
              }
            });
          }
        };
      }
      auto result = RunSyntheticRuntime(sites, updates, options);
      for (std::thread& t : worker_threads) {
        t.join();
      }
      if (!result.ok()) {
        std::fprintf(stderr, "bench_runtime: %s\n",
                     std::string(result.status().message()).c_str());
        return 1;
      }
      const obs::HistogramSnapshot poll_us =
          run_metrics.histogram("runtime/coordinator/poll_round_us")
              ->Snapshot();
      // Detection lag: how many watermark epochs the free-running
      // coordinator trails the lockstep ground truth (which detects in the
      // trigger epoch itself) per poll round.
      const obs::HistogramSnapshot lag =
          run_metrics.histogram("runtime/detection_lag_epochs",
                                obs::Histogram::ExponentialBounds(1.0, 2.0, 16))
              ->Snapshot();
      // Mirror Launch's auto-resolution: one worker thread per core.
      const int hw = std::max(
          1, static_cast<int>(std::thread::hardware_concurrency()));
      const int threads = options.num_workers != 0 ? options.num_workers
                                                   : std::min(sites, hw);
      std::printf("%8d %8d %8d %14" PRId64 " %12.3f %14.0f %10" PRId64
                  " %10" PRId64 " %14.1f\n",
                  sites, threads, shards, result->total_updates,
                  result->elapsed_seconds, result->updates_per_second,
                  result->total_alarms, result->polled_epochs,
                  poll_us.mean());
      if (lag.count > 0) {
        std::printf("# detection lag (epochs): p50=%.1f p95=%.1f p99=%.1f "
                    "over %" PRId64 " rounds\n",
                    lag.Quantile(0.5), lag.Quantile(0.95), lag.Quantile(0.99),
                    lag.count);
      }
      if (result->shard_recoveries > 0) {
        std::printf("# recovered %" PRId64 " shard(s) in %.1f ms; no "
                    "updates lost\n",
                    result->shard_recoveries, result->recovery_ms);
      }

      const std::string prefix = "bench/runtime/sites=" +
                                 std::to_string(sites) +
                                 "/shards=" + std::to_string(shards) + "/";
      summary.gauge(prefix + "updates_per_sec")
          ->Set(result->updates_per_second);
      summary.gauge(prefix + "elapsed_seconds")->Set(result->elapsed_seconds);
      summary.gauge(prefix + "alarms")
          ->Set(static_cast<double>(result->total_alarms));
      summary.gauge(prefix + "polls")
          ->Set(static_cast<double>(result->polled_epochs));
      summary.gauge(prefix + "poll_round_us_mean")->Set(poll_us.mean());
      summary.gauge(prefix + "poll_round_us_max")->Set(poll_us.max);
      summary.gauge(prefix + "poll_round_count")
          ->Set(static_cast<double>(poll_us.count));
      summary.gauge(prefix + "shard_recoveries")
          ->Set(static_cast<double>(result->shard_recoveries));
      summary.gauge(prefix + "recovery_ms")->Set(result->recovery_ms);
      // Always emitted (0 when no poll round fired) so the JSON schema is
      // stable across sweep shapes.
      summary.gauge(prefix + "detection_lag_rounds")
          ->Set(static_cast<double>(lag.count));
      summary.gauge(prefix + "detection_lag_epochs_p50")
          ->Set(lag.count > 0 ? lag.Quantile(0.5) : 0.0);
      summary.gauge(prefix + "detection_lag_epochs_p95")
          ->Set(lag.count > 0 ? lag.Quantile(0.95) : 0.0);
      summary.gauge(prefix + "detection_lag_epochs_p99")
          ->Set(lag.count > 0 ? lag.Quantile(0.99) : 0.0);
    }
  }
  if (!config.json_path.empty() &&
      !bench::WriteMetricsJson(summary, config.json_path)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dcv

int main(int argc, char** argv) {
  auto config = dcv::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::fprintf(stderr, "bench_runtime: %s\n",
                 std::string(config.status().message()).c_str());
    return 2;
  }
  if (!config->trace_path.empty()) {
    dcv::Status status = dcv::RunTraceBench(*config);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_runtime: %s\n",
                   std::string(status.message()).c_str());
      return 1;
    }
    return 0;
  }
  return dcv::RunBench(*config);
}

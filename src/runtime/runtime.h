#ifndef DCV_RUNTIME_RUNTIME_H_
#define DCV_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "runtime/coordinator.h"
#include "runtime/runtime_result.h"
#include "runtime/socket_transport.h"
#include "sim/channel.h"
#include "threshold/solver.h"
#include "trace/trace.h"

namespace dcv {

/// Which message fabric carries the coordinator <-> site traffic.
enum class TransportKind {
  kThread,  ///< In-process bounded mailboxes (the default).
  kSocket,  ///< TCP: this process is the coordinator; site-worker processes
            ///< connect over loopback or the network (see site_worker.h).
};

/// Configuration for one threaded-runtime run (the concurrent counterpart
/// of SimOptions).
struct RuntimeOptions {
  RuntimeProtocol protocol = RuntimeProtocol::kLocalThreshold;

  /// Per-site weights A_i; empty = all ones.
  std::vector<int64_t> weights;
  int64_t global_threshold = 0;
  int64_t poll_period = 5;  ///< kPolling only.

  /// Site-to-worker multiplexing: k in [1, num_sites] packs the sites onto
  /// k worker threads (site s -> s % k), each driving one SiteEngine over
  /// its sites. 0 = auto: min(num_sites, hardware_concurrency) on the
  /// thread transport (a million sites must not mean a million threads);
  /// one worker connection per site on the socket transport.
  int num_workers = 0;

  /// Coordinator-side sharding: partition the sites across this many shard
  /// legs feeding a root aggregator (two-level tree). Must be in
  /// [1, num_sites]; 1 runs the single leg inline on the coordinator's
  /// thread, k >= 2 runs one shard thread per leg.
  /// Virtual-time results are bit-identical for every legal value (the
  /// conformance harness asserts shards in {1, 2, 4}).
  int num_shards = 1;

  /// Virtual-time mode runs the sites in epoch lockstep with the
  /// coordinator and is bit-identical to the lockstep simulator (the
  /// conformance harness asserts this). Free-running mode lets every site
  /// push updates as fast as its thread allows — throughput numbers, no
  /// per-epoch determinism.
  bool virtual_time = true;

  /// Local-threshold provisioning. When `thresholds` is nonempty it (with
  /// `domain_max`) is used verbatim; otherwise trace-driven runs build the
  /// plan with `solver` via BuildLocalPlan, and synthetic runs leave the
  /// sites unconstrained (no local alarms).
  std::vector<int64_t> thresholds;
  std::vector<int64_t> domain_max;
  const ThresholdSolver* solver = nullptr;
  int histogram_buckets = 100;
  double domain_headroom = 4.0;

  FaultSpec faults;

  /// Chaos injection (chaos.h): kill a shard coordinator, sever a worker
  /// link, or push a mid-run reshard at a seed-resolved point. Requires
  /// `heartbeat_timeout_ms > 0` for kill-shard so the root notices.
  ChaosSpec chaos;
  /// Sharded runs: root-side dead-shard detection window in milliseconds.
  /// 0 (default) disables detection — the root waits forever.
  int heartbeat_timeout_ms = 0;

  /// Synthetic workloads: per-site streams derive from (seed, site), so a
  /// seed pins every site's update sequence regardless of thread schedule.
  uint64_t seed = 42;
  int64_t synthetic_max = 1000000;

  /// Record every consumed update into RuntimeResult::captured_updates
  /// (seed-determinism tests; memory-proportional to the workload). Not
  /// supported over the socket transport (the updates live in the worker
  /// processes).
  bool capture_updates = false;

  /// kSocket: listen on `listen_port` (0 = ephemeral) and wait for
  /// `num_workers` site-worker processes. `on_listening` fires once the
  /// port is bound, before accepting — publish the port (or spawn local
  /// workers in tests) from it. Timeouts/backoff/capacities in `socket`;
  /// its virtual_time and metrics fields are overridden from this struct.
  TransportKind transport = TransportKind::kThread;
  int listen_port = 0;
  SocketTransport::Options socket;
  std::function<void(int port)> on_listening;

  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* recorder = nullptr;
};

/// Trace-driven run: site i consumes eval column i (one value per epoch in
/// virtual-time mode, free pace otherwise); `training` provisions the local
/// thresholds when the options don't carry a precomputed plan. Virtual-time
/// results are scored against ground truth exactly like the lockstep
/// runner.
Result<RuntimeResult> RunMonitorRuntime(const Trace& training,
                                        const Trace& eval,
                                        const RuntimeOptions& options);

/// Synthetic run: `num_sites` sites each generate `updates_per_site` values
/// from their (seed, site) stream. The workhorse of bench_runtime and the
/// seed-determinism tests.
Result<RuntimeResult> RunSyntheticRuntime(int num_sites,
                                          int64_t updates_per_site,
                                          const RuntimeOptions& options);

}  // namespace dcv

#endif  // DCV_RUNTIME_RUNTIME_H_

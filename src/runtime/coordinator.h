#ifndef DCV_RUNTIME_COORDINATOR_H_
#define DCV_RUNTIME_COORDINATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "runtime/chaos.h"
#include "runtime/runtime_result.h"
#include "runtime/transport.h"
#include "sim/channel.h"

namespace dcv {

/// Which coordinator state machine to run.
enum class RuntimeProtocol {
  /// The paper's scheme: static local thresholds; any delivered (or
  /// delayed-then-arrived) alarm triggers a full poll round; recovered
  /// sites get their thresholds re-pushed.
  kLocalThreshold,
  /// Brute-force baseline: poll every `poll_period` epochs.
  kPolling,
};

/// The coordinator actor: the root of a two-level coordinator tree over
/// `num_shards` shard legs (shard.h). Each time mode has one loop over a
/// shard layout of any k >= 1. With k >= 2 every leg runs on its own shard
/// thread; with k == 1 the single leg runs inline on the caller's thread,
/// with no shard thread and no root-mailbox hop. Sites talk to the tree
/// only through the Transport.
///
/// Concurrency contract that makes virtual-time runs bit-identical to the
/// lockstep simulator: the fault-injecting `Channel` — the single source of
/// message fates, RNG draws, and MessageCounter charges — is owned by the
/// root and touched by no other thread. The legs deliver ground truth
/// (sites' observed values); the root then replays the protocol's sends
/// through the Channel in ascending site order, which is exactly the order
/// the single-threaded schemes use. Thread interleaving can reorder
/// transport deliveries, but never the Channel's RNG stream. In
/// free-running mode each leg owns a channel over its slice instead, and
/// the root merges their stats at shutdown.
class CoordinatorActor {
 public:
  struct Config {
    int num_sites = 0;
    std::vector<int64_t> weights;  ///< Size num_sites.
    int64_t global_threshold = 0;
    /// Two-level coordinator tree: partition the sites across this many
    /// shard legs feeding the root aggregator. 1 (the default) runs the
    /// single leg inline on the caller's thread; k >= 2 runs one shard
    /// thread per leg. Must satisfy 1 <= num_shards <= num_sites, and the
    /// transport must be built with the same shard count.
    int num_shards = 1;
    RuntimeProtocol protocol = RuntimeProtocol::kLocalThreshold;
    int64_t poll_period = 5;  ///< kPolling only.

    /// kLocalThreshold: the coordinator's threshold table (pushed to
    /// recovered sites) and the per-site pessimistic poll fallbacks.
    std::vector<int64_t> thresholds;
    std::vector<int64_t> domain_max;

    FaultSpec faults;

    /// Chaos injection (chaos.h): kill a shard / sever a worker link /
    /// push a reshard at a seed-resolved point. kNone = healthy run.
    ChaosSpec chaos;
    /// Shard threads (k >= 2): how long the root waits for shard traffic
    /// before it suspects a dead shard coordinator and starts recovery (virtual
    /// mode: re-execute the pending command itself; free mode: kPing probe
    /// and respawn the silent shards). 0 = detection off — the root waits
    /// forever, the pre-recovery behavior.
    int heartbeat_timeout_ms = 0;

    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceRecorder* recorder = nullptr;
  };

  explicit CoordinatorActor(Config config);

  /// Validates the config and initializes the channel. Call before Run*.
  Status Init();

  /// Virtual-time mode: drives `num_epochs` epochs in lockstep with the
  /// sites (epoch barrier via kEpochStart / kEpochReport), then shuts
  /// the sites down. Fills `out`'s detections, messages, and reliability.
  Status RunVirtual(Transport* transport, int64_t num_epochs,
                    RuntimeResult* out);

  /// Free-running mode: serves alarms and poll rounds in arrival order
  /// until every site reports kSiteDone, then shuts the sites down. Epoch
  /// semantics degrade to a watermark (the highest site-local update index
  /// seen), so fault windows still engage, but no per-epoch determinism is
  /// claimed.
  Status RunFree(Transport* transport, RuntimeResult* out);

 private:
  Config config_;
  MessageCounter counter_;
  Channel channel_;
  obs::Counter* alarms_rx_ = nullptr;  ///< "runtime/coordinator/alarms".
  obs::Counter* polls_ = nullptr;      ///< "runtime/coordinator/polls".
  /// Per-epoch (virtual) / per-poll-round (free) root latency, recorded
  /// for every shard count so bench_runtime can compare 1 vs k.
  obs::Histogram* epoch_us_ = nullptr;       ///< "runtime/coordinator/epoch_us".
  obs::Histogram* poll_round_us_ = nullptr;  ///< ".../poll_round_us".
  /// Free-running detection lag: epochs (watermark units) between the
  /// alarm that triggered a poll round and the round resolving. The
  /// lockstep ground truth detects in the trigger epoch itself, so this is
  /// the runtime's detection latency relative to the simulator.
  obs::Histogram* detection_lag_ = nullptr;  ///< "runtime/detection_lag_epochs".
};

}  // namespace dcv

#endif  // DCV_RUNTIME_COORDINATOR_H_

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
  /// sites get their thresholds re-synced (charged, not sent: a runtime
  /// never re-plans, so the site still holds its threshold).
  kLocalThreshold,
  /// Brute-force baseline: poll every `poll_period` epochs.
  kPolling,
};

/// The coordinator actor: the root of a two-level coordinator tree over
/// `num_shards` shards (shard.h), each owning a contiguous site range and
/// one transport inbox. Each time mode has one loop over a shard layout of
/// any k >= 1. Sites talk to the tree only through the Transport.
///
/// Virtual time runs no shard threads. It advances in windows of at most
/// VirtualWindowEpochs(N) epochs: for each, the root sends every site one
/// ranged epoch start and collects their alarmed reports from each shard
/// inbox in turn, steps the window through the channel epoch by epoch,
/// then fetches every polled epoch's values in one exchange per shard, all
/// on the caller's thread; `num_shards` only sets how the transport routes
/// the replies. The fault-injecting `Channel` — the single source of
/// message fates, RNG draws, and MessageCounter charges — is owned by the
/// root, which replays the protocol's sends through it in ascending site
/// order, exactly the order the single-threaded schemes use.
/// That is what makes virtual-time runs bit-identical to the lockstep
/// simulator for every shard count. Free-running mode runs one shard leg
/// per shard instead (on its own thread for k >= 2, inline on the caller's
/// thread for k == 1), each owning a channel over its slice (a
/// ShardContext), and the root merges their stats at shutdown.
class CoordinatorActor {
 public:
  struct Config {
    int num_sites = 0;
    std::vector<int64_t> weights;  ///< Size num_sites.
    int64_t global_threshold = 0;
    /// Two-level coordinator tree: partition the sites across this many
    /// shards. Free-running mode runs one leg per shard: 1 (the default)
    /// runs the single leg inline on the caller's thread, k >= 2 one shard
    /// thread per leg. Must satisfy 1 <= num_shards <= num_sites, and the
    /// transport must be built with the same shard count.
    int num_shards = 1;
    RuntimeProtocol protocol = RuntimeProtocol::kLocalThreshold;
    int64_t poll_period = 5;  ///< kPolling only.

    /// kLocalThreshold: the coordinator's threshold table (charged to
    /// recovered sites) and the per-site pessimistic poll fallbacks.
    std::vector<int64_t> thresholds;
    std::vector<int64_t> domain_max;

    FaultSpec faults;

    /// Chaos injection (chaos.h) at a seed-resolved epoch: sever a worker
    /// link (virtual time over a socket only). kNone = a healthy run. The
    /// coordinator does not check that the chaos fits the run: the caller
    /// does, with CheckChaosFits, before it builds the transport (the
    /// runtime's launcher does).
    ChaosSpec chaos;

    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceRecorder* recorder = nullptr;
  };

  explicit CoordinatorActor(Config config);

  /// Validates the config and initializes the channel. Call before Run*.
  Status Init();

  /// Virtual-time mode: drives `num_epochs` epochs in lockstep with the
  /// sites, a window at a time (a barrier per window via kEpochStart /
  /// kEpochReport), then shuts the sites down. A window ends early only
  /// before the kill-worker chaos fires. Every site observes every epoch;
  /// the channel alone knows which sites are down, and the root drops a
  /// down site's reports before they count or reach the channel, as the
  /// lockstep scheme skips the site. Fills `out`'s detections, their
  /// alarm and poll tallies (total_alarms, alarm_epochs, polled_epochs),
  /// messages, reliability, and update counts. Each poll fetch and the
  /// shutdown fan out one range envelope per worker (FanOutRange) per
  /// epoch; poll replies stay one per site, since the root replays every
  /// site's fate through its channel. "runtime/coordinator/epoch_us" gets
  /// one sample per epoch: its window's wall time over its epoch count.
  Status RunVirtual(Transport* transport, int64_t num_epochs,
                    RuntimeResult* out);

  /// Free-running mode: serves alarms and poll rounds in arrival order
  /// until every site reports kSiteDone, whose first count is the site's
  /// entry of `out`'s site_updates (each leg records its own sites' and
  /// tells the root once, when its last site is done), then shuts the
  /// sites down (each leg's poll rounds and shutdown are range fan-outs;
  /// on a perfect channel with uniform weights each worker answers a round
  /// with one sum, so a round costs O(workers) envelopes both ways). Epoch
  /// semantics degrade to a watermark (the highest site-local update index
  /// seen), so fault windows still engage, but no per-epoch determinism is
  /// claimed.
  Status RunFree(Transport* transport, RuntimeResult* out);

 private:
  /// One run object per time mode, defined in coordinator.cc.
  class VirtualRun;
  class FreeRun;

  Config config_;
  MessageCounter counter_;
  Channel channel_;
  obs::Counter* alarms_rx_ = nullptr;  ///< "runtime/coordinator/alarms".
  obs::Counter* polls_ = nullptr;      ///< "runtime/coordinator/polls".
  /// Per-epoch (virtual: a window's share) / per-poll-round (free) root
  /// latency, recorded for every shard count so runs at 1 and k shards can
  /// be compared.
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

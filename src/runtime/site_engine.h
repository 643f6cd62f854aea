#ifndef DCV_RUNTIME_SITE_ENGINE_H_
#define DCV_RUNTIME_SITE_ENGINE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "obs/obs.h"
#include "runtime/actor_message.h"
#include "runtime/transport.h"

namespace dcv {

/// Per-site RNG stream derived from (seed, site): the same seed always
/// yields the same per-site update sequence, independent of how site
/// workers interleave on threads. Derivation mixes the site id into the
/// seed with a SplitMix64-style odd multiplier before Rng's own SplitMix
/// expansion, so streams of neighboring sites are unrelated.
Rng MakeSiteRng(uint64_t seed, int site);

/// The site data plane: one engine instance owns every site a worker is
/// responsible for and keeps their state in parallel flat arrays indexed
/// by dense slot. The slot mapping mirrors the transport's round-robin
/// ownership (`WorkerOf(site) == site % num_workers`):
///
///   slot = site / num_workers        site = slot * num_workers + worker
///
/// so a worker's sites {w, w+W, w+2W, ...} land in slots {0, 1, 2, ...}
/// with no holes — `thresholds_[slot]`, `values_[slot]`, `cursors_[slot]`,
/// `updates_[slot]` are contiguous and the per-message dispatch is an
/// integer divide instead of a pointer chase through a per-site object.
///
/// Determinism contract (why virtual-time runs are bit-identical to the
/// lockstep simulator, which the conformance harness asserts):
///  * every per-site RNG stream is derived from (seed, site) alone
///    (MakeSiteRng), and each slot owns its Rng — the order sites are
///    processed within a batch never touches another site's stream;
///  * each epoch, a site observes its value, checks L_i : X_i <= T_i (a
///    down site observes but never alarms), and answers a poll with its
///    most recent value — the lockstep simulator's site step, one
///    message at a time;
///  * the coordinator replays alarms in ascending site order after
///    collecting every report, and the fault-injecting Channel lives on
///    the root thread only — transport arrival order (and therefore
///    batching) cannot perturb fates, charges, or detections.
///
/// Exactly one worker thread drives an engine; no engine state is ever
/// touched by two threads.
class SiteEngine {
 public:
  struct Config {
    int worker = 0;       ///< This engine's worker index.
    int num_workers = 1;  ///< Fabric worker count (fixes the slot mapping).
    int num_sites = 0;    ///< Global site count.

    /// Local thresholds in slot order (size = owned slot count);
    /// max() = no local constraint.
    std::vector<int64_t> thresholds;

    /// Trace-driven workload: owned sites' eval-trace columns in slot
    /// order. Empty (or all-empty) = synthetic workload below.
    std::vector<std::vector<int64_t>> series;
    int64_t synthetic_updates = 0;
    uint64_t seed = 42;
    int64_t synthetic_max = 1000000;  ///< Synthetic values ~ U[0, max].

    /// Record every consumed update per slot (seed-determinism tests).
    bool capture_updates = false;

    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceRecorder* recorder = nullptr;
  };

  explicit SiteEngine(Config config);

  int worker() const { return config_.worker; }
  size_t num_slots() const { return thresholds_.size(); }
  int SiteOf(size_t slot) const {
    return static_cast<int>(slot) * config_.num_workers + config_.worker;
  }

  /// updates-processed counters in slot order (valid after a run).
  const std::vector<int64_t>& updates_processed() const { return updates_; }

  /// Out-of-band threshold install (the socket worker's initial sync,
  /// which happens before the run loop starts). False = site not owned.
  bool ApplyThresholdUpdate(int32_t site, int64_t value) {
    const int slot = SlotOf(site);
    if (slot < 0) {
      return false;
    }
    thresholds_[static_cast<size_t>(slot)] = value;
    return true;
  }
  /// Captured update streams in slot order (capture_updates only).
  const std::vector<std::vector<int64_t>>& captured_updates() const {
    return captured_;
  }

  /// Virtual-time loop: batch-drains the worker inbox, applies every
  /// message to its slot, and pushes the replies back as one batch per
  /// drained burst. Exits when every owned site received kShutdown or the
  /// fabric closed.
  void RunVirtual(Transport* transport);

  /// Free-running loop: rotates through the live slots consuming updates;
  /// alarms, site-done markers, and poll responses accumulate in a pending
  /// outbox flushed with non-blocking TrySendBatch. The engine never
  /// blocks on a full coordinator inbox — it keeps draining its own inbox
  /// between flush attempts, so a coordinator blocked fanning polls at
  /// this worker always makes progress (no A/B mailbox deadlock). A full
  /// outbox pauses update production instead (bounded memory,
  /// backpressure preserved).
  void RunFree(Transport* transport);

 private:
  /// Dense slot of a site-addressed envelope; -1 when the site is out of
  /// range or not owned by this worker (such envelopes are dropped).
  int SlotOf(int32_t site) const;

  int64_t workload_size(size_t slot) const;
  int64_t ValueAt(size_t slot, int64_t index);

  /// Virtual time: observes epoch `epoch`'s value and returns the
  /// kEpochReport. A down site (up == false) observes the value but never
  /// alarms — the lockstep simulator's crash semantics.
  ActorMessage OnEpochStart(size_t slot, int64_t epoch, bool up);
  /// Free running: consumes the slot's next update; false when its
  /// workload is exhausted. `*alarmed` says whether L_i fired.
  bool NextUpdate(size_t slot, int64_t* value, bool* alarmed);
  /// kPollResponse carrying the slot's most recently observed value.
  ActorMessage OnPollRequest(size_t slot, int64_t epoch) const;

  Config config_;
  // Structure-of-arrays site state, all indexed by slot.
  std::vector<int64_t> thresholds_;
  std::vector<int64_t> values_;    ///< Most recently observed value.
  std::vector<int64_t> cursors_;   ///< Free-running stream position.
  std::vector<int64_t> updates_;   ///< Updates processed.
  std::vector<Rng> rngs_;          ///< (seed, site)-derived streams.
  std::vector<std::vector<int64_t>> captured_;
  obs::Counter* updates_counter_ = nullptr;  ///< "runtime/site/updates".
  obs::Counter* alarms_counter_ = nullptr;   ///< "runtime/site/alarms".
};

}  // namespace dcv

#endif  // DCV_RUNTIME_SITE_ENGINE_H_

#ifndef DCV_RUNTIME_SITE_ENGINE_H_
#define DCV_RUNTIME_SITE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "obs/obs.h"
#include "runtime/actor_message.h"
#include "runtime/transport.h"
#include "trace/trace.h"

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
/// with no holes — `thresholds_[slot]`, `values_[slot]`, `cursors_[slot]`
/// are contiguous and the per-message dispatch is an integer divide
/// instead of a pointer chase through a per-site object.
///
/// Determinism contract (why virtual-time runs are bit-identical to the
/// lockstep simulator, which the conformance harness asserts):
///  * every per-site RNG stream is derived from (seed, site) alone
///    (MakeSiteRng), and each slot owns its stream's 32-byte xoshiro state
///    — the order sites are processed within a batch never touches another
///    site's stream;
///  * each epoch of a window, a site observes its value and checks
///    L_i : X_i <= T_i, and it answers a poll with its value at the polled
///    epoch — the lockstep simulator's site step, a window at a time. A
///    site never learns whether it is down: like every fault, that is the
///    Channel's, and the root drops a down site's reports unreplayed;
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
    /// order. Empty (or all-empty) = synthetic workload below; otherwise an
    /// empty column is a site with no updates.
    std::vector<std::vector<int64_t>> series;
    int64_t synthetic_updates = 0;
    uint64_t seed = 42;
    int64_t synthetic_max = 1000000;  ///< Synthetic values ~ U[0, max].

    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceRecorder* recorder = nullptr;
  };

  /// Send cadence of the free-running production loop (DESIGN §14). At
  /// the top of each pass the engine flushes its pending outbox only when
  /// that pass's control drain queued a reply (a poll response or an epoch
  /// report is never held), when the unsent suffix holds at least
  /// kSendRunEnvelopes envelopes, or when kSendRunUpdates updates were
  /// produced since the last flush. Every other pass sends nothing, so an
  /// alarm waits at most kSendRunUpdates of this engine's updates.
  static constexpr size_t kSendRunEnvelopes = 64;
  static constexpr int64_t kSendRunUpdates = 256;

  /// Pending-outbox high-water mark: past this many unsent envelopes the
  /// free-running loop stops producing updates and spins on drain+flush
  /// until the coordinator catches up — backpressure with bounded memory,
  /// without ever blocking on a send.
  static constexpr size_t kOutboxCap = 8192;

  explicit SiteEngine(Config config);

  int worker() const { return config_.worker; }
  size_t num_slots() const { return thresholds_.size(); }
  int SiteOf(size_t slot) const {
    return static_cast<int>(slot) * config_.num_workers + config_.worker;
  }

  /// Updates each slot observed, in slot order: its cursor, which both
  /// time modes advance once per observation (valid after a run).
  const std::vector<int64_t>& updates_processed() const { return cursors_; }

  /// Out-of-band threshold install (the socket worker's initial sync,
  /// which happens before the run loop starts; no message changes a
  /// threshold during a run). False = site not owned.
  bool ApplyThresholdUpdate(int32_t site, int64_t value) {
    const int slot = SlotOf(site);
    if (slot < 0) {
      return false;
    }
    thresholds_[static_cast<size_t>(slot)] = value;
    return true;
  }

  /// Virtual time: no slot drives itself. The engine blocks on its own
  /// inbox and observes a slot only on its kEpochStart, which names a
  /// window of epochs: the slot observes each and reports every alarmed
  /// one and the last, so the coordinator's windows pace every site. A
  /// kPollRequest or kShutdown addressed to an owned site covers a range
  /// (CoveredEnd): each covered slot answers the poll with its value at the
  /// request's epoch when that epoch is in the last window the engine
  /// observed (else with its most recent value), or counts as shut down. A
  /// summed (flagged) poll is answered once, by the addressed site, with
  /// the sum of the covered slots' most recent values. Exits when every
  /// owned site was covered by a kShutdown or the fabric closed.
  void RunVirtual(Transport* transport);

  /// Free running: every slot drives itself, one update per live slot per
  /// pass, until its workload is exhausted (then a kSiteDone); the engine
  /// then answers the coordinator until shutdown like a virtual one.
  void RunFree(Transport* transport);

 private:
  /// The one engine loop behind both modes. `active` holds the
  /// self-driven slots; the loop rotates through them while there are
  /// any, then blocks on the inbox until every owned site is shut down.
  /// Every reply (alarm, site done, epoch report, poll response) queues in
  /// a pending outbox flushed with non-blocking TrySendBatch: no engine
  /// ever blocks on a full coordinator inbox. It keeps draining its own
  /// inbox between flush attempts, so a coordinator blocked fanning out
  /// to this worker always makes progress (no A/B mailbox deadlock), and
  /// a full outbox pauses update production instead (bounded memory,
  /// backpressure preserved).
  void Run(Transport* transport, std::vector<size_t> active);

  /// Dense slot of a site-addressed envelope; -1 when the site is out of
  /// range or not owned by this worker (such envelopes are dropped).
  int SlotOf(int32_t site) const;

  /// One past the last slot a range envelope covers (CoveredEnd), for an
  /// `e` addressed to an owned site: its owned sites below the covered end,
  /// capped at num_sites. A per-site envelope covers its own slot alone.
  size_t CoveredSlotEnd(const Envelope& e) const;

  int64_t workload_size(size_t slot) const;
  int64_t ValueAt(size_t slot, int64_t index);

  /// The slot's row of the window record: its value at each epoch of the
  /// window it is observing (allocated on first use, so a free-running
  /// engine never holds one).
  int64_t* WindowRecord(size_t slot);

  /// What a poll at `epoch` reads: the slot's value at that epoch from the
  /// record when the epoch is in the last observed window [window_first_,
  /// window_end_) and in the slot's workload, else its most recent value
  /// (so a workload that ends inside the window holds its last value).
  int64_t PolledValue(size_t slot, int64_t epoch) const;

  /// The site step of either mode: observes the slot's value at `index`
  /// (its epoch, or its free-running cursor) and returns whether L_i
  /// fired. Up or down is the Channel's to decide, so a crossing always
  /// counts as a local alarm. The caller advances the slot's cursor and
  /// adds the update to the tally. Defined (and only called) in
  /// site_engine.cc.
  [[gnu::always_inline]] inline bool Observe(size_t slot, int64_t index);

  /// Adds the tally of updates and alarms observed since the last call to
  /// the shared runtime/site/* counters: at the top of each production
  /// pass, after each drained inbox in the tail loop, and once at exit
  /// (a fabric that closes mid-pass ends the loop before another pass
  /// top), so an update costs no contended atomic add. A production pass
  /// counts its updates in a local and adds them to the tally when it
  /// ends, however it ends.
  void FlushTally();

  Config config_;  ///< Its thresholds move into thresholds_.
  /// Every column is empty: values come from the slots' streams, and
  /// config_.series holds nothing.
  bool synthetic_ = false;
  /// Synthetic draws are U[0, span_ - 1] (span_ = synthetic_max + 1), with
  /// the rejection threshold computed once per engine, not per draw.
  uint64_t span_ = 1;
  uint64_t reject_below_ = 0;
  /// The longest window a kEpochStart may cover (VirtualWindowEpochs).
  int64_t window_epochs_ = 1;
  /// The last window a kEpochStart covered, and every slot's values over
  /// it: window_epochs_ entries per slot, O(L·N) across the fabric.
  int64_t window_first_ = 0;
  int64_t window_end_ = 0;
  std::vector<int64_t> window_values_;
  // Structure-of-arrays site state, all indexed by slot (DESIGN §14): 64
  // bytes per synthetic slot with the free loop's 8-byte active index.
  std::vector<int64_t> thresholds_;
  std::vector<int64_t> values_;   ///< Most recently observed value.
  /// Updates observed: the free-running stream position, and in virtual
  /// time the count of kEpochStarts the slot observed.
  std::vector<int64_t> cursors_;
  /// (seed, site)-derived streams, MakeSiteRng's state (synthetic only).
  std::vector<XoshiroState> streams_;
  obs::Counter* updates_counter_ = nullptr;  ///< "runtime/site/updates".
  obs::Counter* alarms_counter_ = nullptr;   ///< "runtime/site/alarms".
  int64_t tally_updates_ = 0;  ///< Observed, not yet in updates_counter_.
  int64_t tally_alarms_ = 0;   ///< Fired, not yet in alarms_counter_.
};

/// Worker `worker`'s engine config over its sites w, w+W, w+2W, ... in
/// slot order: their `eval` columns (null = synthetic, `synthetic_updates`
/// per site) and their entries of the global `thresholds` (empty = no
/// local constraint). The caller sets the seed and sinks.
SiteEngine::Config WorkerEngineConfig(int worker, int num_workers,
                                      int num_sites, const Trace* eval,
                                      int64_t synthetic_updates,
                                      const std::vector<int64_t>& thresholds);

}  // namespace dcv

#endif  // DCV_RUNTIME_SITE_ENGINE_H_

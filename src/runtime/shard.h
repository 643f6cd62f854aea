#ifndef DCV_RUNTIME_SHARD_H_
#define DCV_RUNTIME_SHARD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "runtime/coordinator.h"
#include "runtime/mailbox.h"
#include "runtime/plan.h"
#include "runtime/shard_layout.h"
#include "runtime/transport.h"
#include "sim/channel.h"

namespace dcv {

/// The shard half of the two-level coordinator tree. Each shard leg owns a
/// contiguous range of sites (shard_layout.h): alarm intake, threshold
/// distribution, and the per-shard leg of every poll round for exactly
/// those sites. The root aggregator (coordinator.cc) drives the legs and
/// combines their partials into the global constraint decision, so
/// per-round work at the root is O(num_shards) messages instead of
/// O(num_sites). With k >= 2 every leg runs on its own shard thread; a
/// 1-shard tree runs its single leg inline on the root's thread (no shard
/// thread, no command box, no root-mailbox hop), which is the same code the
/// root runs after re-adopting a dead shard's sites.
///
/// Determinism contract (virtual-time mode): legs never touch a Channel.
/// They relay ground truth between the transport and the root; every
/// channel call — the single source of message fates, RNG draws, and
/// MessageCounter charges — stays on the root thread, issued in ascending
/// global site order. That is why virtual runs are bit-identical to the
/// lockstep simulator for every shard count (the conformance harness
/// asserts it for 1, 2, and 4 shards).
///
/// Free-running mode inverts the split: each leg owns a Channel over its
/// own site range (fault spec sliced via SliceFaultSpec) and aggregates
/// its poll leg locally — partial weighted SUM plus MIN/MAX — so the root
/// combines k partials without ever materializing per-site values. No
/// per-epoch determinism is claimed in this mode.

/// Root -> shard command, virtual-time mode only. Travels over an internal
/// Mailbox (never the transport): epoch commands carry vectors that do not
/// fit an Envelope, and in virtual mode the shard's blocking wait
/// alternates strictly between this box and the transport, so two sources
/// never race.
struct ShardCmd {
  enum class Kind {
    kEpoch,     ///< Run one epoch barrier over the shard's sites.
    kPoll,      ///< Fan out one poll round and report the responses.
    kLayout,    ///< Adopt a new shard layout (and plan slice) mid-run.
    kShutdown,  ///< Forward kShutdown to the sites and exit.
  };
  Kind kind = Kind::kEpoch;
  int64_t epoch = 0;
  /// kEpoch: up/down flag per shard-local site (the root owns the channel
  /// and thus the crash schedule).
  std::vector<char> up;
  /// kEpoch: global site ids whose threshold re-sync got through the wire
  /// this epoch (root already charged the sends); the shard pushes the
  /// transport messages so the per-site update-before-epoch-start FIFO
  /// holds with a single producer per site.
  std::vector<int> resync_sites;
  /// kLayout: the new versioned layout plus this shard's plan slice under
  /// it. Sent only at an epoch boundary (no in-flight data-plane traffic),
  /// after the transport itself adopted the layout, and the command box is
  /// FIFO — so the shard switches ranges strictly between epochs.
  ShardLayout layout;
  LocalPlan plan;
};

/// Shard -> root message (internal mailbox in both modes).
struct RootMsg {
  enum class Kind {
    kEpochPartial,  ///< Virtual: epoch barrier done; entries = alarmed sites.
    kPollPartial,   ///< Poll leg done. Virtual: entries = every site's value.
                    ///< Free: aggregated sum/min/max, no per-site entries.
    kAlarmNotice,   ///< Free: a delivered alarm needs a poll round.
    kSiteDone,      ///< Free: one owned site reported kSiteDone. Relayed
                    ///< per site (not batched per shard) so the root's
                    ///< done-tracking survives a shard death: whatever the
                    ///< dead shard already relayed stays counted, and the
                    ///< replacement relays the rest.
    kHeartbeat,     ///< Free: reply to the root's kPing liveness probe.
    kShardExit,     ///< Free: shard exiting; final per-shard accounting.
    kError,         ///< Shard hit a protocol/transport error; see status.
  };
  Kind kind = Kind::kEpochPartial;
  int shard = 0;
  int64_t epoch = 0;
  /// (global site, value) pairs in ascending site order. kEpochPartial:
  /// alarmed sites and their observed values. kPollPartial (virtual): every
  /// owned site's response. kSiteDone: the one site's update count.
  std::vector<std::pair<int, int64_t>> entries;
  // kPollPartial, free-running mode: the shard-aggregated poll leg.
  int64_t partial_sum = 0;  ///< Weighted sum over the shard's sites.
  int64_t partial_min = 0;  ///< Min/max of the resolved per-site values —
  int64_t partial_max = 0;  ///< groundwork for MIN/MAX runtime constraints.
  // kShardExit: merged into the run totals by the root.
  int64_t alarms = 0;
  MessageCounter messages;
  ChannelStats reliability;
  Status status;  ///< kError (and kShardExit on abnormal transport close).
};

/// Everything one shard leg needs. Pointers are owned by the root and
/// outlive the leg.
struct ShardContext {
  int shard = 0;
  ShardLayout layout;
  Transport* transport = nullptr;
  Mailbox<ShardCmd>* cmds = nullptr;  ///< Virtual mode only.
  Mailbox<RootMsg>* to_root = nullptr;
  /// Shard-local plan slice: thresholds for re-sync pushes (virtual mode,
  /// SliceForShard) and domain_max as the pessimistic poll fallback.
  LocalPlan plan;
  RuntimeProtocol protocol = RuntimeProtocol::kLocalThreshold;
  // Free-running mode only.
  std::vector<int64_t> weights;  ///< Shard-local slice.
  FaultSpec faults;              ///< Sliced via SliceFaultSpec.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* recorder = nullptr;
  obs::Counter* alarms_rx = nullptr;  ///< Shared "runtime/coordinator/alarms".
  // Chaos injection (tests / --chaos runs): the shard kills itself at a
  // deterministic point, simulating a crashed coordinator thread.
  /// Virtual mode: die the instant the kEpoch command for this epoch
  /// arrives, before sending anything — the root re-executes the command.
  int64_t die_at_epoch = -1;
  /// Free mode: die after fully processing this many inbox batches. Dying
  /// at a batch boundary means every consumed message was handled and
  /// every unconsumed one is still queued for the replacement shard.
  int64_t die_after_batches = -1;
};

/// Body of one shard coordinator thread, virtual-time mode: serve ShardCmds
/// until kShutdown (or a closed box / transport error).
void RunShardVirtual(ShardContext ctx);

/// The three virtual-mode shard legs, exposed so the root can run a leg
/// itself: the single leg of a 1-shard tree, or a dead shard's pending
/// command (direct attachment after a shard crash). Shard threads and the
/// root run exactly this code, which is what makes recovery transparent:
/// the sites cannot tell who is on the other end of the transport.
///
/// ShardEpochLeg: threshold re-syncs, then the epoch barrier over the
/// shard's sites; `alarmed` gets (global site, value) for every alarmed
/// site in ascending order. ShardPollLeg: one poll fan-out; `values` gets
/// every owned site's response in ascending order. ShardShutdownLeg:
/// forwards kShutdown to every owned site.
Status ShardEpochLeg(Transport* transport, const ShardLayout& layout,
                     int shard, const LocalPlan& plan, const ShardCmd& cmd,
                     std::vector<std::pair<int, int64_t>>* alarmed);
Status ShardPollLeg(Transport* transport, const ShardLayout& layout,
                    int shard, int64_t epoch,
                    std::vector<std::pair<int, int64_t>>* values);
void ShardShutdownLeg(Transport* transport, const ShardLayout& layout,
                      int shard);

/// One free-running shard leg as a step function. It owns the shard's
/// private channel (over shard-local site ids) and counter, the watermark,
/// the poll-leg state, and the one-notice-per-round collapsing. Each Step
/// serves one envelope from the shard inbox and appends what the root must
/// see to `out`. A shard thread drives it from its inbox (RunShardFree); a
/// 1-shard tree's root steps it inline, handing it commands directly.
class ShardFreeLeg {
 public:
  /// Takes the slice (shard, layout, transport, plan, weights, faults,
  /// protocol) and observers from `ctx`; the driver keeps `to_root` and
  /// the chaos fields.
  explicit ShardFreeLeg(ShardContext ctx);
  ShardFreeLeg(const ShardFreeLeg&) = delete;
  ShardFreeLeg& operator=(const ShardFreeLeg&) = delete;

  /// Initializes the private channel. On failure the leg stops and `out`
  /// gets its kShardExit carrying the error.
  void Start(std::vector<RootMsg>* out);

  /// Serves one inbox envelope: a site's kAlarm, kPollResponse or
  /// kSiteDone, or a root command (from == kCoordinatorId): kPollRequest
  /// opens a poll leg, kPing asks for a kHeartbeat, kShutdown stops the
  /// leg. The step that stops the leg appends its final kShardExit; a
  /// stopped leg ignores every later envelope.
  void Step(const Envelope& e, std::vector<RootMsg>* out);

  /// Steps batch[begin], batch[begin + 1], ... and stops right after the
  /// first envelope that appends to `out`, so the driver can act on that
  /// output (and hand the leg a command) before the next envelope. Returns
  /// the index of the first envelope not stepped.
  size_t StepBatch(const std::vector<Envelope>& batch, size_t begin,
                   std::vector<RootMsg>* out);

  /// Stops the leg: forwards kShutdown to its sites and appends the
  /// kShardExit (final accounting plus `status`). No-op once stopped.
  void Stop(Status status, std::vector<RootMsg>* out);

  bool running() const { return running_; }

 private:
  /// Fans one poll request out to every owned site; false = transport
  /// closed.
  bool StartPoll();
  /// A root command: kPollRequest, kPing or kShutdown.
  void OnCommand(const ActorMessage& cmd, std::vector<RootMsg>* out);
  void OnAlarm(const Envelope& e, std::vector<RootMsg>* out);
  void OnSiteDone(const Envelope& e, std::vector<RootMsg>* out);
  /// The last response is in: resolve the leg into one kPollPartial.
  void FinishPoll(std::vector<RootMsg>* out);
  void OnUnexpected(ActorMsgKind kind, std::vector<RootMsg>* out);

  ShardContext ctx_;
  int start_ = 0;
  int size_ = 0;
  MessageCounter counter_;
  Channel channel_;
  int64_t watermark_ = -1;
  bool poll_outstanding_ = false;
  int poll_pending_ = 0;
  bool notice_sent_ = false;  ///< Collapse alarms into one notice per round.
  std::vector<int64_t> poll_values_;
  std::vector<Envelope> poll_fanout_;
  int64_t alarms_ = 0;
  bool running_ = true;
};

/// Body of one shard coordinator thread, free-running mode: receive inbox
/// batches, step the shard's ShardFreeLeg over them, and push its output
/// to the root until the leg stops (or `die_after_batches` chaos fires).
void RunShardFree(ShardContext ctx);

/// Remaps a global fault spec onto one shard's contiguous site range:
/// per-site loss and crash windows are sliced and shifted to shard-local
/// site ids, partitions (coordinator-wide by definition) are kept, and the
/// channel seed is decorrelated per shard so the k private RNG streams are
/// unrelated while still a pure function of (seed, shard).
FaultSpec SliceFaultSpec(const FaultSpec& faults, const ShardLayout& layout,
                         int shard);

}  // namespace dcv

#endif  // DCV_RUNTIME_SHARD_H_

#ifndef DCV_RUNTIME_SHARD_H_
#define DCV_RUNTIME_SHARD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "runtime/coordinator.h"
#include "runtime/mailbox.h"
#include "runtime/shard_layout.h"
#include "runtime/transport.h"
#include "sim/channel.h"

namespace dcv {

/// The shard half of the two-level coordinator tree. Each shard owns a
/// contiguous range of sites (shard_layout.h) and one transport inbox,
/// where its sites' replies arrive.
///
/// Virtual-time mode runs no shard threads. The root fans every window of
/// epochs and every poll fetch out to the sites itself and collects each
/// shard's replies from that shard's inbox with CollectShardReplies, on
/// its own thread. It
/// owns the only Channel and calls it in ascending global site order, so
/// virtual runs are bit-identical to the lockstep simulator for every
/// shard count (the conformance harness asserts it for 1 to 4 shards).
///
/// Free-running mode is where shard legs live. Each leg owns a Channel
/// over its own site range (fault spec sliced via SliceFaultSpec), serves
/// alarm intake and its leg of every poll round for exactly those sites,
/// and aggregates the leg locally into a partial weighted SUM, so the root
/// combines k partials without ever materializing per-site values:
/// O(num_shards) root messages per round instead of O(num_sites). A leg's
/// fan-out is one range request per worker (FanOutRange). On a perfect
/// channel slice with uniform weights the requests are summed (flagged):
/// each worker answers with the sum of its sites' values, so a round costs
/// O(workers) envelopes both ways. Otherwise every site answers on its own
/// (O(sites) replies back), since per-site fates, last-known values and
/// mixed weights need per-site values. Either way the leg's channel
/// charges the paper's 2n messages per round.
/// With k >= 2 every leg runs on its own shard thread; a 1-shard tree's
/// root steps its single leg inline. No per-epoch determinism is claimed
/// in this mode.

/// A shard's final accounting, merged into the run totals by the root.
/// Rides only on kShardExit.
struct ShardReport {
  int64_t alarms = 0;
  MessageCounter messages;
  ChannelStats reliability;
  /// Non-OK when the shard failed: a protocol or transport error, or (free
  /// mode) an abnormal transport close.
  Status status;
};

/// Free-running shard leg -> root message: over the root's internal
/// mailbox from a shard thread, or straight from an inline leg.
struct RootMsg {
  enum class Kind : uint8_t {
    kPollPartial,   ///< Poll leg done: its weighted sum.
    kAlarmNotice,   ///< A delivered alarm needs a poll round.
    kLegDone,       ///< Every owned site reported kSiteDone; their counts
                    ///< are in the leg's slice of the root's site_updates.
    kShardExit,     ///< Shard exiting; `report` holds its final accounting.
  };
  Kind kind = Kind::kPollPartial;
  int64_t epoch = 0;
  int64_t partial_sum = 0;  ///< kPollPartial: weighted sum over the shard.
  /// kLegDone: when the leg recorded its first and its last distinct done.
  std::chrono::steady_clock::time_point first_done;
  std::chrono::steady_clock::time_point last_done;
  std::unique_ptr<ShardReport> report;  ///< kShardExit only.
};
// Two of these cross between the inline leg and the root on every poll
// round (the alarm notice that starts it, the partial that ends it), so the
// hot message stays small and the one-shot accounting lives behind `report`.
static_assert(sizeof(RootMsg) <= 80, "RootMsg is on the poll-round hot path");

/// Everything one free-running shard leg needs. Pointers are owned by the
/// root and outlive the leg.
struct ShardContext {
  int shard = 0;
  ShardLayout layout;
  /// The root's config. The leg cuts its own slice of the weights, the
  /// pessimistic poll fallbacks and the fault spec (SliceFaultSpec) from it,
  /// and reports to its observers.
  const CoordinatorActor::Config* config = nullptr;
  Transport* transport = nullptr;
  Mailbox<RootMsg>* to_root = nullptr;
  obs::Counter* alarms_rx = nullptr;  ///< Shared "runtime/coordinator/alarms".
  /// The leg's slice of the root's site_updates, one entry per owned site
  /// from the shard's first. The leg writes each site's first done count
  /// here; the root reads the slice only after the leg's kShardExit has
  /// crossed the root mailbox (or, inline, on the leg's own thread).
  std::span<int64_t> site_updates;
};

/// One reply the root collected in a virtual exchange: the replying site,
/// the index of the reply's epoch in the exchange's `epochs`, and its value.
struct ShardReply {
  int site = 0;
  int pos = 0;
  int64_t value = 0;
};

/// The root's collect step of one virtual exchange, for one shard: after
/// the fan-out, takes the `want` replies of every site of [first_site,
/// first_site + num_sites) out of `shard`'s inbox until each has answered
/// `epochs.back()`. `epochs` ascends, and each site's replies ascend with
/// it, since a worker answers its inbox in order. A poll fetch
/// (`alarmed_only` false) is answered at every epoch of `epochs`; a
/// window's reports (`alarmed_only` true) only at its alarmed epochs (the
/// reply's flag) and at its last one. Anything else — another kind, an
/// epoch out of turn, a site outside the range or one already done — fails
/// with "out-of-order message at <stage>". Appends a ShardReply per poll
/// answer, or per alarmed report, in arrival order: the root replays them
/// by (epoch, site), so arrival order (and with it batching) never reaches
/// the result.
Status CollectShardReplies(Transport* transport, int shard, int first_site,
                           int num_sites, ActorMsgKind want,
                           std::span<const int64_t> epochs, const char* stage,
                           bool alarmed_only, std::vector<ShardReply>* replies);

/// One free-running shard leg as a step function. It owns the shard's
/// private channel (over shard-local site ids) and counter, the watermark,
/// the poll-leg state, and the one-notice-per-round collapsing. Each Step
/// serves one envelope from the shard inbox and appends what the root must
/// see to `out`. A shard thread drives it from its inbox (RunShardFree); a
/// 1-shard tree's root steps it inline, handing it commands directly.
class ShardFreeLeg {
 public:
  /// Takes the shard, layout, transport, config, observers and done slice
  /// from `ctx`; the caller keeps `to_root`.
  explicit ShardFreeLeg(ShardContext ctx);
  ShardFreeLeg(const ShardFreeLeg&) = delete;
  ShardFreeLeg& operator=(const ShardFreeLeg&) = delete;

  /// Initializes the private channel. On failure the leg stops and `out`
  /// gets its kShardExit carrying the error.
  void Start(std::vector<RootMsg>* out);

  /// Serves one inbox envelope: a site's kAlarm, kPollResponse or
  /// kSiteDone, or a root command (from == kCoordinatorId): kPollRequest
  /// opens a poll leg, kShutdown stops the leg. A site's first kSiteDone
  /// records its count in the done slice, a repeat is ignored, and the
  /// step that records the last owned site appends one kLegDone. The step
  /// that stops the leg appends its final kShardExit; a stopped leg
  /// ignores every later envelope.
  void Step(const Envelope& e, std::vector<RootMsg>* out);

  /// Steps batch[begin], batch[begin + 1], ... and stops right after the
  /// first step that appends to `out`, so the driver can act on that
  /// output (and hand the leg a command) before the next envelope. Returns
  /// the index of the first envelope not stepped.
  size_t StepBatch(const std::vector<Envelope>& batch, size_t begin,
                   std::vector<RootMsg>* out);

  /// Stops the leg: sends one range kShutdown per worker covering its
  /// sites and appends the kShardExit (final accounting plus `status`).
  /// No-op once stopped.
  void Stop(Status status, std::vector<RootMsg>* out);

  bool running() const { return running_; }

 private:
  /// Fans one range poll request out to each worker with a site in the
  /// shard (FanOutRange), flagged when the leg sums: then each target
  /// answers once with its worker's sum, else every site answers on its
  /// own. The request epoch is the leg's round number, 1-based, which the
  /// sites echo. False = transport closed.
  bool StartPoll();
  /// A root command: kPollRequest or kShutdown.
  void OnCommand(const ActorMessage& cmd, std::vector<RootMsg>* out);
  void OnAlarm(const Envelope& e, std::vector<RootMsg>* out);
  void OnSiteDone(const Envelope& e, std::vector<RootMsg>* out);
  /// The last response is in: resolve the leg into one kPollPartial.
  void FinishPoll(std::vector<RootMsg>* out);
  void OnUnexpected(ActorMsgKind kind, std::vector<RootMsg>* out);

  ShardContext ctx_;
  int start_ = 0;
  int size_ = 0;
  std::vector<int64_t> weights_;     ///< Shard-local slice.
  std::vector<int64_t> domain_max_;  ///< Empty (optimistic) under polling.
  MessageCounter counter_;
  Channel channel_;
  int64_t watermark_ = -1;
  bool poll_outstanding_ = false;
  int64_t poll_round_ = 0;  ///< Rounds fanned out: the open (or last) one.
  int poll_pending_ = 0;
  bool notice_sent_ = false;  ///< Collapse alarms into one notice per round.
  /// Chosen once: a perfect channel slice and equal weights. Then a round
  /// is one summed answer per fan-out target, and the partial is
  /// weight * their total.
  const bool summed_;
  /// The open round's responders, indexed from start_: the fan-out targets
  /// when summed, else every site of the shard. Whether each has answered,
  /// and its first answer (0 until then).
  std::vector<char> answered_;
  std::vector<int64_t> answers_;
  std::vector<Envelope> fanout_;  ///< The last range fan-out (FanOutRange).
  /// Which owned sites reported done (indexed from start_), how many, and
  /// when the first of them did.
  std::vector<char> done_;
  int sites_done_ = 0;
  std::chrono::steady_clock::time_point first_done_;
  int64_t alarms_ = 0;
  bool running_ = true;
};

/// Body of one shard coordinator thread, free-running mode: receive inbox
/// batches, step the shard's ShardFreeLeg over them, and push its output
/// to the root until the leg stops. The thread's last push is the leg's
/// kShardExit.
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

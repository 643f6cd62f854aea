#ifndef DCV_RUNTIME_SHARD_H_
#define DCV_RUNTIME_SHARD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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
  /// Filled by the shard thread's supervisor (RunShardFree): crashed legs
  /// it replaced, and the slowest replacement's restart time.
  int64_t recoveries = 0;
  double recovery_ms = 0.0;
};

/// Free-running shard leg -> root message: over the root's internal
/// mailbox from a shard thread, or straight from an inline leg.
struct RootMsg {
  enum class Kind : uint8_t {
    kPollPartial,   ///< Poll leg done: its weighted sum.
    kAlarmNotice,   ///< A delivered alarm needs a poll round.
    kSiteDone,      ///< One run of owned sites reported kSiteDone.
                    ///< Relayed per run of consecutive dones in one inbox
                    ///< batch (not batched per shard) and counted per site,
                    ///< so the root's done-tracking survives a leg's death:
                    ///< whatever the dead leg already relayed stays
                    ///< counted, and the replacement relays the rest.
    kShardExit,     ///< Shard exiting; `report` holds its final accounting.
  };
  Kind kind = Kind::kPollPartial;
  int64_t epoch = 0;
  /// kSiteDone: one run's (global site, update count) pairs, in arrival
  /// order.
  std::vector<std::pair<int, int64_t>> entries;
  int64_t partial_sum = 0;  ///< kPollPartial: weighted sum over the shard.
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
  /// Chaos injection (tests / --chaos runs; RunShardFree only): the leg
  /// dies at the first inbox batch boundary after consuming this many
  /// envelopes, simulating a crashed shard coordinator, and the thread
  /// starts a replacement. Dying at a batch boundary means every consumed
  /// message was handled and every unconsumed one is still queued for the
  /// replacement. Envelopes, not batches: how many batches a run takes
  /// depends on how the transport drains, and a short run may end before
  /// a batch count is reached.
  int64_t die_after_envelopes = -1;
  /// Which leg on this shard id this is: 0 for the first, one more for
  /// each replacement. Part of every poll-round id the leg stamps, so no
  /// round of one incarnation shares an id with any round of another.
  int64_t incarnation = 0;
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
  /// Takes the shard, layout, transport, config and observers from `ctx`;
  /// the caller keeps `to_root` and the chaos field.
  explicit ShardFreeLeg(ShardContext ctx);
  ShardFreeLeg(const ShardFreeLeg&) = delete;
  ShardFreeLeg& operator=(const ShardFreeLeg&) = delete;

  /// Initializes the private channel. On failure the leg stops and `out`
  /// gets its kShardExit carrying the error.
  void Start(std::vector<RootMsg>* out);

  /// Serves one inbox envelope: a site's kAlarm, kPollResponse or
  /// kSiteDone, or a root command (from == kCoordinatorId): kPollRequest
  /// opens a poll leg, kShutdown stops the leg. The step that stops the
  /// leg appends its final kShardExit; a stopped leg ignores every later
  /// envelope.
  void Step(const Envelope& e, std::vector<RootMsg>* out);

  /// Steps batch[begin], batch[begin + 1], ... and stops right after the
  /// first step that appends to `out`, so the driver can act on that
  /// output (and hand the leg a command) before the next envelope. A run
  /// of consecutive site kSiteDone envelopes is one step: it appends one
  /// kSiteDone listing every site of the run in arrival order. Returns the
  /// index of the first envelope not stepped.
  size_t StepBatch(const std::vector<Envelope>& batch, size_t begin,
                   std::vector<RootMsg>* out);

  /// Stops the leg: sends one range kShutdown per worker covering its
  /// sites and appends the kShardExit (final accounting plus `status`).
  /// No-op once stopped.
  void Stop(Status status, std::vector<RootMsg>* out);

  bool running() const { return running_; }
  /// A poll leg is open: kicked, and its partial not yet appended.
  bool poll_outstanding() const { return poll_outstanding_; }
  int64_t watermark() const { return watermark_; }

  /// The id a poll fan-out carries in its request epoch (and the sites echo
  /// back): incarnation * 2^32 + the leg's round number, 1-based.
  static int64_t PollRoundId(int64_t incarnation, int64_t round) {
    return (incarnation << 32) + round;
  }

 private:
  /// Fans one range poll request out to each worker with a site in the
  /// shard (FanOutRange), flagged when the leg sums: then each target
  /// answers once with its worker's sum, else every site answers on its
  /// own. False = transport closed.
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
  int64_t poll_round_ = 0;  ///< Rounds this leg has fanned out.
  int64_t poll_id_ = 0;     ///< PollRoundId of the open (or last) round.
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
  int64_t alarms_ = 0;
  bool running_ = true;
};

/// Body of one shard coordinator thread, free-running mode: receive inbox
/// batches, step the shard's ShardFreeLeg over them, and push its output
/// to the root until the leg stops. It also supervises the leg: when
/// `die_after_envelopes` chaos kills it, the thread records shard_death,
/// starts a replacement on the same inbox (incarnation + 1, a fresh
/// channel from the plan's fault slice), re-delivers the root's kick if
/// the dead leg had a round open, and records shard_respawn. The root
/// still gets exactly one kPollPartial per kick and one kShardExit, whose
/// report carries the recovery count and time.
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

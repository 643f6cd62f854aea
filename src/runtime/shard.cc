#include "runtime/shard.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace dcv {

namespace {

using Clock = std::chrono::steady_clock;

/// Records one coordinator-tree lifecycle event (a leg's death or its
/// replacement) on the shard's trace lane.
void RecordTreeEvent(obs::TraceRecorder* recorder, obs::TraceEventKind kind,
                     int64_t epoch, int shard) {
  if (recorder != nullptr) {
    recorder->Record(obs::TraceEvent{
        .kind = kind, .epoch = epoch, .value = shard, .shard = shard});
  }
}

/// Pushes everything in `out` to the root, in order, and empties it; false
/// once the root's box is closed.
bool Forward(Mailbox<RootMsg>* to_root, std::vector<RootMsg>* out) {
  const bool ok = to_root->PushAll(std::move(*out));
  out->clear();
  return ok;
}

std::vector<int64_t> Slice(const std::vector<int64_t>& v, int start, int size) {
  return std::vector<int64_t>(v.begin() + start, v.begin() + start + size);
}

/// True when every weight equals the first (and there is one).
bool Uniform(const std::vector<int64_t>& weights) {
  return !weights.empty() &&
         std::all_of(weights.begin(), weights.end(),
                     [&](int64_t w) { return w == weights.front(); });
}

}  // namespace

FaultSpec SliceFaultSpec(const FaultSpec& faults, const ShardLayout& layout,
                         int shard) {
  const int start = layout.ShardStart(shard);
  const int size = layout.ShardSize(shard);
  FaultSpec out = faults;
  if (!faults.per_site_loss.empty()) {
    out.per_site_loss.clear();
    for (int i = 0; i < size; ++i) {
      const size_t global = static_cast<size_t>(start + i);
      out.per_site_loss.push_back(global < faults.per_site_loss.size()
                                      ? faults.per_site_loss[global]
                                      : faults.loss);
    }
  }
  out.crashes.clear();
  for (const CrashWindow& crash : faults.crashes) {
    if (crash.site >= start && crash.site < start + size) {
      CrashWindow local = crash;
      local.site = crash.site - start;
      out.crashes.push_back(local);
    }
  }
  // Splitmix64 increment times (shard + 1): distinct, seed-deterministic
  // streams per shard, including the single leg of a k = 1 tree, whose
  // stream therefore differs from the unsliced spec's. Free-running mode
  // claims no cross-configuration determinism, so that is fine.
  out.seed = faults.seed ^ (0x9e3779b97f4a7c15ULL *
                            static_cast<uint64_t>(shard + 1));
  return out;
}

Status CollectShardReplies(Transport* transport, int shard, int first_site,
                           int num_sites, ActorMsgKind want,
                           std::span<const int64_t> epochs, const char* stage,
                           bool alarmed_only, std::vector<ShardReply>* replies) {
  const auto failed = [&](const char* what) {
    return InternalError(std::string(what) + stage);
  };
  const int last = static_cast<int>(epochs.size()) - 1;
  // Per site, the index in `epochs` of the next reply it owes; past `last`
  // once it is done.
  std::vector<int> next(static_cast<size_t>(num_sites), 0);
  std::vector<Envelope> batch;
  for (int pending = num_sites; pending > 0;) {
    batch.clear();
    if (transport->RecvShardAll(shard, &batch) == 0) {
      return failed("transport closed during ");
    }
    for (const Envelope& e : batch) {
      const int64_t i = int64_t{e.from} - first_site;
      if (e.msg.kind != want || i < 0 || i >= num_sites ||
          next[static_cast<size_t>(i)] > last) {
        return failed("out-of-order message at ");
      }
      int& owed = next[static_cast<size_t>(i)];
      // A report may skip the alarm-free epochs before it; a poll answer
      // may not skip any.
      const auto it = alarmed_only
                          ? std::lower_bound(epochs.begin() + owed,
                                             epochs.end(), e.msg.epoch)
                          : epochs.begin() + owed;
      const int pos = static_cast<int>(it - epochs.begin());
      if (it == epochs.end() || *it != e.msg.epoch ||
          (alarmed_only && !e.msg.flag && pos != last)) {
        return failed("out-of-order message at ");
      }
      owed = pos + 1;
      pending -= pos == last ? 1 : 0;
      if (!alarmed_only || e.msg.flag) {
        replies->push_back(ShardReply{e.from, pos, e.msg.value});
      }
    }
  }
  return OkStatus();
}

ShardFreeLeg::ShardFreeLeg(ShardContext ctx)
    : ctx_(std::move(ctx)),
      start_(ctx_.layout.ShardStart(ctx_.shard)),
      size_(ctx_.layout.ShardSize(ctx_.shard)),
      weights_(Slice(ctx_.config->weights, start_, size_)),
      // A free leg never re-syncs thresholds; it needs only the pessimistic
      // poll fallbacks, and only under the local-threshold protocol.
      domain_max_(ctx_.config->protocol == RuntimeProtocol::kLocalThreshold
                      ? Slice(ctx_.config->domain_max, start_, size_)
                      : std::vector<int64_t>()),
      channel_(SliceFaultSpec(ctx_.config->faults, ctx_.layout, ctx_.shard)),
      // Per-site fates and last-known values need per-site answers, and
      // mixed weights need per-site values; otherwise each worker sums.
      summed_(channel_.perfect() && Uniform(weights_)) {}

void ShardFreeLeg::Start(std::vector<RootMsg>* out) {
  if (Status init = channel_.Init(size_, &counter_); !init.ok()) {
    Stop(std::move(init), out);
    return;
  }
  channel_.SetObserver(ctx_.config->metrics, ctx_.config->recorder);
}

bool ShardFreeLeg::StartPoll() {
  // The request epoch carries the round id, not a watermark: the sites
  // echo it, and only responses echoing the open round's id count. A dead
  // predecessor's stale responses can share this inbox with the fresh ones
  // in any order, and must not resolve this round early.
  poll_id_ = PollRoundId(ctx_.incarnation, ++poll_round_);
  FanOutRange(ActorMsgKind::kPollRequest, poll_id_, start_, start_ + size_,
              ctx_.transport->num_workers(), &fanout_);
  for (Envelope& e : fanout_) {
    e.msg.flag = summed_;
  }
  if (!ctx_.transport->SendBatch(fanout_)) {
    return false;
  }
  // Summed, the responders are the fan-out targets: the range's first
  // sites, one per worker. Otherwise they are the shard's sites.
  const size_t responders =
      summed_ ? fanout_.size() : static_cast<size_t>(size_);
  answered_.assign(responders, 0);
  answers_.assign(responders, 0);
  poll_pending_ = static_cast<int>(responders);
  poll_outstanding_ = true;
  return true;
}

size_t ShardFreeLeg::StepBatch(const std::vector<Envelope>& batch,
                               size_t begin, std::vector<RootMsg>* out) {
  const size_t emitted = out->size();
  while (begin < batch.size() && out->size() == emitted) {
    Step(batch[begin++], out);
  }
  // A done run is one step: the rest of the run joins the relay its first
  // done opened, so a completion burst costs one root message per inbox
  // batch instead of one per site.
  if (out->size() > emitted && out->back().kind == RootMsg::Kind::kSiteDone) {
    std::vector<std::pair<int, int64_t>>& entries = out->back().entries;
    for (; begin < batch.size() &&
           batch[begin].msg.kind == ActorMsgKind::kSiteDone;
         ++begin) {
      entries.emplace_back(batch[begin].from, batch[begin].msg.value);
    }
  }
  return begin;
}

void ShardFreeLeg::Stop(Status status, std::vector<RootMsg>* out) {
  if (!running_) {
    return;
  }
  running_ = false;
  // A closed transport means the sites are already gone.
  FanOutRange(ActorMsgKind::kShutdown, /*epoch=*/0, start_, start_ + size_,
              ctx_.transport->num_workers(), &fanout_);
  (void)ctx_.transport->SendBatch(fanout_);
  RootMsg& exit = out->emplace_back();
  exit.kind = RootMsg::Kind::kShardExit;
  exit.report = std::make_unique<ShardReport>(
      ShardReport{alarms_, counter_, channel_.stats(), std::move(status)});
}

void ShardFreeLeg::Step(const Envelope& e, std::vector<RootMsg>* out) {
  if (!running_) {
    return;
  }
  if (e.from == kCoordinatorId) {
    OnCommand(e.msg, out);
    return;
  }
  // A large round is mostly poll responses: that path stays small enough
  // to inline into StepBatch; every other path is a call.
  switch (e.msg.kind) {
    case ActorMsgKind::kAlarm:
      OnAlarm(e, out);
      break;
    case ActorMsgKind::kPollResponse: {
      // Only a responder's first answer to the open round counts; a
      // resolved round's, another incarnation's, a repeat and a site that
      // is not a responder leave the round as it is.
      const size_t i = static_cast<size_t>(int64_t{e.from} - start_);
      if (!poll_outstanding_ || e.msg.epoch != poll_id_ ||
          i >= answered_.size() || answered_[i] != 0) {
        break;
      }
      answered_[i] = 1;
      answers_[i] = e.msg.value;
      if (--poll_pending_ == 0) {
        FinishPoll(out);
      }
      break;
    }
    case ActorMsgKind::kSiteDone:
      OnSiteDone(e, out);
      break;
    default:
      OnUnexpected(e.msg.kind, out);
      break;
  }
}

void ShardFreeLeg::OnCommand(const ActorMessage& cmd,
                             std::vector<RootMsg>* out) {
  // Over the transport's shard inbox for a shard thread (SendToShard, never
  // the wire), or handed over directly to an inline leg.
  if (cmd.kind == ActorMsgKind::kShutdown) {
    Stop(OkStatus(), out);
  } else if (cmd.kind == ActorMsgKind::kPollRequest && !poll_outstanding_) {
    notice_sent_ = false;
    if (!StartPoll()) {
      Stop(InternalError("transport closed during poll round"), out);
    }
  }
}

void ShardFreeLeg::OnSiteDone(const Envelope& e, std::vector<RootMsg>* out) {
  // Opens one relay per run of consecutive dones (StepBatch appends the
  // rest of the run), never one per shard: the root counts the sites in
  // each run, so its done-tracking survives a leg's death and replacement
  // mid-drain. A leg dies only at an inbox-batch boundary, so a run is
  // relayed whole or left queued for the replacement.
  RootMsg& done = out->emplace_back();
  done.kind = RootMsg::Kind::kSiteDone;
  done.entries.emplace_back(e.from, e.msg.value);
}

void ShardFreeLeg::OnUnexpected(ActorMsgKind kind,
                                std::vector<RootMsg>* out) {
  Stop(InternalError(std::string("unexpected ") +
                     std::string(ActorMsgKindName(kind)) +
                     " in free-running mode"),
       out);
}

void ShardFreeLeg::OnAlarm(const Envelope& e, std::vector<RootMsg>* out) {
  if (e.msg.epoch > watermark_) {
    channel_.BeginEpoch(e.msg.epoch);
    watermark_ = e.msg.epoch;
  }
  DCV_OBS_COUNT(ctx_.alarms_rx, 1);
  ++alarms_;
  SendStatus s = channel_.SendFromSite(e.from - start_, MessageType::kAlarm,
                                       /*reliable=*/true, e.msg.value);
  std::vector<Channel::Arrival> stale =
      channel_.TakeArrivals(MessageType::kAlarm);
  if ((s == SendStatus::kDelivered || !stale.empty()) && !notice_sent_) {
    // One notice per round: the root collapses notices from k legs into
    // at most one outstanding global round plus one catch-up, so alarm
    // fan-in costs O(k) root messages per round no matter how many sites
    // fire.
    RootMsg& notice = out->emplace_back();
    notice.kind = RootMsg::Kind::kAlarmNotice;
      notice.epoch = watermark_;
    notice_sent_ = true;
  }
}

void ShardFreeLeg::FinishPoll(std::vector<RootMsg>* out) {
  int64_t sum = 0;
  if (summed_) {
    // Still 2n messages charged: n requests and n answers in the paper's
    // accounting, however few envelopes carried them. Unsigned, as the
    // answers come off the wire; the launcher checks that every true sum
    // fits in int64.
    channel_.PollPerfect();
    uint64_t total = 0;
    for (int64_t answer : answers_) {
      total += static_cast<uint64_t>(answer);
    }
    sum = static_cast<int64_t>(static_cast<uint64_t>(weights_.front()) *
                               total);
  } else {
    // The root provisions domain_max only under the local-threshold
    // protocol, so polling legs pass an empty (optimistic) fallback.
    sum = channel_.PollSites(answers_, weights_, domain_max_).weighted_sum;
  }
  poll_outstanding_ = false;
  RootMsg& partial = out->emplace_back();
  partial.kind = RootMsg::Kind::kPollPartial;
  partial.epoch = watermark_;
  partial.partial_sum = sum;
}

void RunShardFree(ShardContext ctx) {
  Transport* const transport = ctx.transport;
  Mailbox<RootMsg>* const to_root = ctx.to_root;
  const int shard = ctx.shard;
  obs::TraceRecorder* const recorder = ctx.config->recorder;
  int64_t die_after_envelopes = std::exchange(ctx.die_after_envelopes, -1);
  // A free-running shard always terminates via kShardExit — even on init
  // failure — so the root can count k exits before joining.
  std::optional<ShardFreeLeg> leg(std::in_place, ctx);
  std::vector<RootMsg> out;
  leg->Start(&out);
  int64_t recoveries = 0;
  double recovery_ms = 0.0;  // The slowest replacement's restart.
  std::vector<Envelope> batch;
  int64_t consumed = 0;
  while (leg->running()) {
    if (die_after_envelopes >= 0 && consumed >= die_after_envelopes) {
      // Chaos: the leg crashes at a batch boundary — every consumed
      // message was fully handled (notices pushed, done runs relayed) and
      // every unconsumed one is still queued in the inbox, which the
      // replacement drains. Only the dead leg's channel and counter
      // accounting dies with it.
      die_after_envelopes = -1;
      const Clock::time_point died = Clock::now();
      const bool round_open = leg->poll_outstanding();
      const int64_t epoch = std::max<int64_t>(0, leg->watermark());
      RecordTreeEvent(recorder, obs::TraceEventKind::kShardDeath, epoch,
                      shard);
      ++ctx.incarnation;
      leg.emplace(ctx);
      leg->Start(&out);
      if (round_open) {
        // The dead leg consumed the root's kick and never answered it:
        // re-open the round, or the root waits for its partial forever.
        // The replacement counts no response to the dead leg's round (its
        // id differs), so the root still gets one partial per kick.
        ActorMessage kick;
        kick.kind = ActorMsgKind::kPollRequest;
        leg->Step(Envelope{kCoordinatorId, kCoordinatorId, kick}, &out);
      }
      RecordTreeEvent(recorder, obs::TraceEventKind::kShardRespawn, epoch,
                      shard);
      ++recoveries;
      recovery_ms = std::max(
          recovery_ms,
          std::chrono::duration<double, std::milli>(Clock::now() - died)
              .count());
      continue;
    }
    batch.clear();
    if (transport->RecvShardAll(shard, &batch) == 0) {
      leg->Stop(InternalError("transport closed while sites were live"),
                &out);
      break;
    }
    consumed += static_cast<int64_t>(batch.size());
    for (size_t next = 0; next < batch.size() && leg->running();) {
      next = leg->StepBatch(batch, next, &out);
      if (leg->running() && !Forward(to_root, &out)) {
        leg->Stop(OkStatus(), &out);  // The root is gone; so is its box.
      }
    }
  }
  // A stopped leg's last output is its kShardExit.
  ShardReport& report = *out.back().report;
  report.recoveries = recoveries;
  report.recovery_ms = recovery_ms;
  Forward(to_root, &out);
}

}  // namespace dcv

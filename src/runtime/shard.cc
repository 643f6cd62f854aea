#include "runtime/shard.h"

#include <algorithm>
#include <string>
#include <utility>

namespace dcv {

namespace {

/// Pushes a kError to the root; a shard never returns a Status because it
/// runs on its own thread — the root turns the first kError it sees into
/// the run's failure.
void ReportError(const ShardContext& ctx, Status status) {
  RootMsg err;
  err.kind = RootMsg::Kind::kError;
  err.shard = ctx.shard;
  err.status = std::move(status);
  ctx.to_root->Push(std::move(err));
}

/// Pushes everything in `out` to the root, in order, and empties it; false
/// once the root's box is closed.
bool Forward(Mailbox<RootMsg>* to_root, std::vector<RootMsg>* out) {
  bool ok = true;
  for (RootMsg& msg : *out) {
    ok = ok && to_root->Push(std::move(msg));
  }
  out->clear();
  return ok;
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

Status ShardEpochLeg(Transport* transport, const ShardLayout& layout,
                     int shard, const LocalPlan& plan, const ShardCmd& cmd,
                     std::vector<std::pair<int, int64_t>>* alarmed) {
  const int start = layout.ShardStart(shard);
  const int size = layout.ShardSize(shard);
  // Threshold re-syncs go out before this epoch's kEpochStart; the mailbox
  // is per-producer FIFO and one thread at a time produces for these sites
  // (the shard thread, or the root for an inline leg), so the site
  // installs the threshold before it evaluates — the lockstep scheme's
  // order, which re-syncs at the top of OnEpoch.
  // One batched fan-out per epoch leg: re-syncs first, then every start.
  // SendBatch preserves batch order per destination inbox, so a site's
  // re-sync still lands before its kEpochStart.
  std::vector<Envelope> fanout;
  fanout.reserve(cmd.resync_sites.size() + static_cast<size_t>(size));
  for (int site : cmd.resync_sites) {
    ActorMessage update;
    update.kind = ActorMsgKind::kThresholdUpdate;
    update.epoch = cmd.epoch;
    update.value = plan.thresholds[static_cast<size_t>(site - start)];
    fanout.push_back(Envelope{kCoordinatorId, site, update});
  }
  for (int i = 0; i < size; ++i) {
    ActorMessage begin;
    begin.kind = ActorMsgKind::kEpochStart;
    begin.epoch = cmd.epoch;
    begin.flag = cmd.up[static_cast<size_t>(i)] != 0;
    fanout.push_back(Envelope{kCoordinatorId, start + i, begin});
  }
  if (!transport->SendBatch(fanout)) {
    return InternalError("transport closed during epoch start");
  }
  std::vector<char> site_alarmed(static_cast<size_t>(size), 0);
  std::vector<int64_t> values(static_cast<size_t>(size), 0);
  std::vector<Envelope> batch;
  int pending = size;
  while (pending > 0) {
    batch.clear();
    if (transport->RecvShardAll(shard, &batch) == 0) {
      return InternalError("transport closed while collecting reports");
    }
    for (const Envelope& e : batch) {
      if (e.msg.kind != ActorMsgKind::kEpochReport ||
          e.msg.epoch != cmd.epoch) {
        return InternalError("out-of-order message at epoch barrier");
      }
      site_alarmed[static_cast<size_t>(e.from - start)] = e.msg.flag ? 1 : 0;
      values[static_cast<size_t>(e.from - start)] = e.msg.value;
      --pending;
    }
  }
  alarmed->clear();
  for (int i = 0; i < size; ++i) {
    if (site_alarmed[static_cast<size_t>(i)]) {
      alarmed->emplace_back(start + i, values[static_cast<size_t>(i)]);
    }
  }
  return OkStatus();
}

Status ShardPollLeg(Transport* transport, const ShardLayout& layout,
                    int shard, int64_t epoch,
                    std::vector<std::pair<int, int64_t>>* values) {
  const int start = layout.ShardStart(shard);
  const int size = layout.ShardSize(shard);
  ActorMessage request;
  request.kind = ActorMsgKind::kPollRequest;
  request.epoch = epoch;
  std::vector<Envelope> fanout;
  fanout.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    fanout.push_back(Envelope{kCoordinatorId, start + i, request});
  }
  if (!transport->SendBatch(fanout)) {
    return InternalError("transport closed during poll round");
  }
  std::vector<int64_t> responses(static_cast<size_t>(size), 0);
  std::vector<Envelope> batch;
  int pending = size;
  while (pending > 0) {
    batch.clear();
    if (transport->RecvShardAll(shard, &batch) == 0) {
      return InternalError("transport closed while collecting poll responses");
    }
    for (const Envelope& e : batch) {
      if (e.msg.kind != ActorMsgKind::kPollResponse) {
        return InternalError(std::string("unexpected ") +
                             std::string(ActorMsgKindName(e.msg.kind)) +
                             " during poll round");
      }
      responses[static_cast<size_t>(e.from - start)] = e.msg.value;
      --pending;
    }
  }
  values->clear();
  values->reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    values->emplace_back(start + i, responses[static_cast<size_t>(i)]);
  }
  return OkStatus();
}

void ShardShutdownLeg(Transport* transport, const ShardLayout& layout,
                      int shard) {
  const int start = layout.ShardStart(shard);
  const int size = layout.ShardSize(shard);
  ActorMessage shutdown;
  shutdown.kind = ActorMsgKind::kShutdown;
  std::vector<Envelope> fanout;
  fanout.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    fanout.push_back(Envelope{kCoordinatorId, start + i, shutdown});
  }
  transport->SendBatch(fanout);
}

void RunShardVirtual(ShardContext ctx) {
  // Mutable: a kLayout command re-ranges the shard mid-run.
  ShardLayout layout = ctx.layout;
  LocalPlan plan = std::move(ctx.plan);
  std::vector<std::pair<int, int64_t>> entries;

  ShardCmd cmd;
  while (ctx.cmds->Pop(&cmd)) {
    switch (cmd.kind) {
      case ShardCmd::Kind::kShutdown: {
        ShardShutdownLeg(ctx.transport, layout, ctx.shard);
        return;
      }
      case ShardCmd::Kind::kLayout: {
        layout = cmd.layout;
        plan = std::move(cmd.plan);
        break;
      }
      case ShardCmd::Kind::kEpoch: {
        if (cmd.epoch == ctx.die_at_epoch) {
          // Chaos: crash before sending anything for this epoch. The
          // consumed command is the only thing lost, and the root holds a
          // copy — it re-executes the command itself after the heartbeat
          // timeout, so the sites (still waiting for kEpochStart) see one
          // producer and one barrier, exactly as if the shard had lived.
          return;
        }
        if (Status st = ShardEpochLeg(ctx.transport, layout, ctx.shard, plan,
                                      cmd, &entries);
            !st.ok()) {
          ReportError(ctx, std::move(st));
          return;
        }
        RootMsg partial;
        partial.kind = RootMsg::Kind::kEpochPartial;
        partial.shard = ctx.shard;
        partial.epoch = cmd.epoch;
        partial.entries = std::move(entries);
        if (!ctx.to_root->Push(std::move(partial))) {
          return;
        }
        break;
      }
      case ShardCmd::Kind::kPoll: {
        if (Status st = ShardPollLeg(ctx.transport, layout, ctx.shard,
                                     cmd.epoch, &entries);
            !st.ok()) {
          ReportError(ctx, std::move(st));
          return;
        }
        RootMsg partial;
        partial.kind = RootMsg::Kind::kPollPartial;
        partial.shard = ctx.shard;
        partial.epoch = cmd.epoch;
        partial.entries = std::move(entries);
        if (!ctx.to_root->Push(std::move(partial))) {
          return;
        }
        break;
      }
    }
  }
}

ShardFreeLeg::ShardFreeLeg(ShardContext ctx)
    : ctx_(std::move(ctx)),
      start_(ctx_.layout.ShardStart(ctx_.shard)),
      size_(ctx_.layout.ShardSize(ctx_.shard)),
      channel_(ctx_.faults),
      poll_values_(static_cast<size_t>(size_), 0) {
  poll_fanout_.reserve(static_cast<size_t>(size_));
}

void ShardFreeLeg::Start(std::vector<RootMsg>* out) {
  if (Status init = channel_.Init(size_, &counter_); !init.ok()) {
    Stop(std::move(init), out);
    return;
  }
  channel_.SetObserver(ctx_.metrics, ctx_.recorder);
}

bool ShardFreeLeg::StartPoll() {
  ActorMessage request;
  request.kind = ActorMsgKind::kPollRequest;
  request.epoch = std::max<int64_t>(watermark_, 0);
  poll_fanout_.clear();
  for (int i = 0; i < size_; ++i) {
    poll_fanout_.push_back(Envelope{kCoordinatorId, start_ + i, request});
  }
  if (!ctx_.transport->SendBatch(poll_fanout_)) {
    return false;
  }
  std::fill(poll_values_.begin(), poll_values_.end(), 0);
  poll_pending_ = size_;
  poll_outstanding_ = true;
  return true;
}

size_t ShardFreeLeg::StepBatch(const std::vector<Envelope>& batch,
                               size_t begin, std::vector<RootMsg>* out) {
  const size_t emitted = out->size();
  while (begin < batch.size() && out->size() == emitted) {
    Step(batch[begin++], out);
  }
  return begin;
}

void ShardFreeLeg::Stop(Status status, std::vector<RootMsg>* out) {
  if (!running_) {
    return;
  }
  running_ = false;
  ShardShutdownLeg(ctx_.transport, ctx_.layout, ctx_.shard);
  RootMsg& exit = out->emplace_back();
  exit.kind = RootMsg::Kind::kShardExit;
  exit.shard = ctx_.shard;
  exit.alarms = alarms_;
  exit.messages = counter_;
  exit.reliability = channel_.stats();
  exit.status = std::move(status);
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
    case ActorMsgKind::kPollResponse:
      if (!poll_outstanding_) {
        break;  // Response to a round we already resolved; ignore.
      }
      poll_values_[static_cast<size_t>(e.from - start_)] = e.msg.value;
      if (--poll_pending_ == 0) {
        FinishPoll(out);
      }
      break;
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
  } else if (cmd.kind == ActorMsgKind::kPing) {
    RootMsg& beat = out->emplace_back();
    beat.kind = RootMsg::Kind::kHeartbeat;
    beat.shard = ctx_.shard;
    beat.epoch = cmd.epoch;  // Echo the probe id.
  } else if (cmd.kind == ActorMsgKind::kPollRequest && !poll_outstanding_) {
    notice_sent_ = false;
    if (!StartPoll()) {
      Stop(InternalError("transport closed during poll round"), out);
    }
  }
}

void ShardFreeLeg::OnSiteDone(const Envelope& e, std::vector<RootMsg>* out) {
  // Per-site relay (not batched per shard): the root counts sites, not
  // shards, so its done-tracking survives a shard death and respawn
  // mid-drain.
  RootMsg& done = out->emplace_back();
  done.kind = RootMsg::Kind::kSiteDone;
  done.shard = ctx_.shard;
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
    notice.shard = ctx_.shard;
    notice.epoch = watermark_;
    notice_sent_ = true;
  }
}

void ShardFreeLeg::FinishPoll(std::vector<RootMsg>* out) {
  // The root provisions domain_max only under the local-threshold
  // protocol, so polling legs pass an empty (optimistic) fallback.
  PollOutcome poll =
      channel_.PollSites(poll_values_, ctx_.weights, ctx_.plan.domain_max);
  poll_outstanding_ = false;
  RootMsg& partial = out->emplace_back();
  partial.kind = RootMsg::Kind::kPollPartial;
  partial.shard = ctx_.shard;
  partial.epoch = watermark_;
  partial.partial_sum = poll.weighted_sum;
  if (!poll.values.empty()) {
    // A plain reduction vectorizes; std::minmax_element does not.
    int64_t lo = poll.values[0];
    int64_t hi = lo;
    for (int64_t v : poll.values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    partial.partial_min = lo;
    partial.partial_max = hi;
  }
}

void RunShardFree(ShardContext ctx) {
  Transport* const transport = ctx.transport;
  Mailbox<RootMsg>* const to_root = ctx.to_root;
  const int shard = ctx.shard;
  const int64_t die_after_batches = ctx.die_after_batches;
  // A free-running shard always terminates via kShardExit — even on init
  // failure — so the root can count k exits before joining.
  ShardFreeLeg leg(std::move(ctx));
  std::vector<RootMsg> out;
  leg.Start(&out);
  std::vector<Envelope> batch;
  int64_t batches_survived = 0;
  while (leg.running()) {
    if (die_after_batches >= 0 && batches_survived >= die_after_batches) {
      // Chaos: crash at a batch boundary — every consumed message was
      // fully handled (notices pushed, done reports relayed) and every
      // unconsumed one is still queued in the shard inbox, which the
      // root's respawned replacement drains. Nothing is lost; only this
      // shard's channel/counter accounting dies with it.
      return;
    }
    batch.clear();
    if (transport->RecvShardAll(shard, &batch) == 0) {
      leg.Stop(InternalError("transport closed while sites were live"), &out);
      break;
    }
    ++batches_survived;
    for (size_t next = 0; next < batch.size();) {
      next = leg.StepBatch(batch, next, &out);
      if (!Forward(to_root, &out)) {
        leg.Stop(OkStatus(), &out);  // The root is gone; so is its box.
      }
    }
  }
  Forward(to_root, &out);
}

}  // namespace dcv

#include "runtime/coordinator.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "runtime/mailbox.h"
#include "runtime/plan.h"
#include "runtime/shard.h"
#include "runtime/shard_layout.h"

namespace dcv {

namespace {

int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Records one coordinator-tree lifecycle event (shard death or respawn,
/// layout rotation) on the shard's trace lane; shard -1 = the root.
void RecordTreeEvent(obs::TraceRecorder* recorder, obs::TraceEventKind kind,
                     int64_t epoch, int shard, int64_t value) {
  if (recorder == nullptr) {
    return;
  }
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.epoch = epoch;
  ev.shard = shard;
  ev.value = value;
  recorder->Record(ev);
}

}  // namespace

CoordinatorActor::CoordinatorActor(Config config)
    : config_(std::move(config)), channel_(config_.faults) {}

Status CoordinatorActor::Init() {
  if (config_.num_sites < 1) {
    return InvalidArgumentError("coordinator needs at least one site");
  }
  if (static_cast<int>(config_.weights.size()) != config_.num_sites) {
    return InvalidArgumentError("weights size mismatch");
  }
  if (config_.protocol == RuntimeProtocol::kPolling &&
      config_.poll_period < 1) {
    return InvalidArgumentError("polling period must be >= 1");
  }
  DCV_RETURN_IF_ERROR(
      MakeShardLayout(config_.num_sites, config_.num_shards).status());
  if (config_.chaos.kind == ChaosKind::kKillShard ||
      config_.chaos.kind == ChaosKind::kReshard) {
    if (config_.num_shards < 2) {
      return InvalidArgumentError(
          std::string(ChaosKindName(config_.chaos.kind)) +
          " chaos needs a sharded coordinator (num_shards >= 2)");
    }
  }
  if (config_.chaos.kind == ChaosKind::kKillShard &&
      config_.heartbeat_timeout_ms <= 0) {
    return InvalidArgumentError(
        "kill-shard chaos needs heartbeat_timeout_ms > 0 so the root can "
        "detect the death");
  }
  if (config_.protocol == RuntimeProtocol::kLocalThreshold) {
    if (static_cast<int>(config_.thresholds.size()) != config_.num_sites) {
      return InvalidArgumentError("thresholds size mismatch");
    }
    if (static_cast<int>(config_.domain_max.size()) != config_.num_sites) {
      return InvalidArgumentError("domain_max size mismatch");
    }
  }
  DCV_RETURN_IF_ERROR(channel_.Init(config_.num_sites, &counter_));
  channel_.SetObserver(config_.metrics, config_.recorder);
  if (config_.metrics != nullptr) {
    alarms_rx_ = config_.metrics->counter("runtime/coordinator/alarms");
    polls_ = config_.metrics->counter("runtime/coordinator/polls");
    epoch_us_ =
        config_.metrics->histogram("runtime/coordinator/epoch_us",
                                   obs::Histogram::DefaultLatencyBoundsUs());
    poll_round_us_ =
        config_.metrics->histogram("runtime/coordinator/poll_round_us",
                                   obs::Histogram::DefaultLatencyBoundsUs());
    // Epoch-scale bounds: lags are small integers (0 = resolved within the
    // trigger epoch), but a stalled poll under chaos can reach thousands.
    detection_lag_ = config_.metrics->histogram(
        "runtime/detection_lag_epochs",
        obs::Histogram::ExponentialBounds(1.0, 2.0, 16));
  }
  return OkStatus();
}

Status CoordinatorActor::RunVirtual(Transport* transport, int64_t num_epochs,
                                    RuntimeResult* out) {
  out->protocol = config_.protocol == RuntimeProtocol::kLocalThreshold
                      ? "local-threshold"
                      : "polling";
  out->mode = "virtual";
  out->epochs = num_epochs;
  out->detections.clear();
  out->detections.reserve(static_cast<size_t>(num_epochs));

  const int n = config_.num_sites;
  const int k = config_.num_shards;
  DCV_ASSIGN_OR_RETURN(ShardLayout layout, MakeShardLayout(n, k));
  if (transport->num_shards() != k) {
    return InvalidArgumentError(
        "transport shard count does not match coordinator num_shards");
  }
  const ResolvedChaos chaos = ResolveChaos(
      config_.chaos, num_epochs,
      config_.chaos.kind == ChaosKind::kKillWorker ? transport->num_workers()
                                                   : k);

  // Virtual-time shard legs are channel-free relays: they run the epoch
  // barrier and poll fan-out for their site range and feed ground truth
  // back; every Channel call stays on this thread in ascending site order,
  // so the run is bit-identical to the lockstep simulator for any k.
  //
  // A leg runs on its own shard thread or inline on this one. Shard 0 of a
  // 1-shard tree is inline from the start: no shard thread, no command
  // box, no root-mailbox hop. A shard thread that dies turns inline too
  // (direct attachment): the root re-executes the shard's pending command
  // from its own copy and runs every later command for that range itself.
  // Both run the exact shard-leg code, so the sites see one producer and
  // identical traffic, and the Channel call sequence never changes.
  std::vector<char> inline_leg(static_cast<size_t>(k), 0);
  inline_leg[0] = k == 1;
  const LocalPlan plan{config_.thresholds, config_.domain_max};
  // Per-shard plan slices, cut once per layout.
  std::vector<LocalPlan> slices;
  auto slice_plan = [&]() {
    slices.clear();
    for (int s = 0; s < k; ++s) {
      slices.push_back(SliceForShard(plan, layout, s));
    }
  };
  slice_plan();

  Mailbox<RootMsg> root_box(static_cast<size_t>(4 * k + 16));
  std::vector<std::unique_ptr<Mailbox<ShardCmd>>> cmd_boxes(
      static_cast<size_t>(k));
  std::vector<std::thread> shards;
  for (int s = 0; s < k; ++s) {
    if (inline_leg[static_cast<size_t>(s)]) {
      continue;
    }
    cmd_boxes[static_cast<size_t>(s)] = std::make_unique<Mailbox<ShardCmd>>(4);
    ShardContext ctx;
    ctx.shard = s;
    ctx.layout = layout;
    ctx.transport = transport;
    ctx.cmds = cmd_boxes[static_cast<size_t>(s)].get();
    ctx.to_root = &root_box;
    ctx.plan = slices[static_cast<size_t>(s)];
    ctx.protocol = config_.protocol;
    if (config_.chaos.kind == ChaosKind::kKillShard && s == chaos.target) {
      ctx.die_at_epoch = chaos.fire_epoch;
    }
    shards.emplace_back(RunShardVirtual, std::move(ctx));
  }

  // Abort path: close the transport and the command boxes so every shard
  // thread (blocked on either) wakes and exits, then join before returning.
  auto abort_run = [&](Status status) {
    transport->Shutdown();
    for (auto& box : cmd_boxes) {
      if (box != nullptr) {
        box->Close();
      }
    }
    for (std::thread& th : shards) {
      th.join();
    }
    return status;
  };

  // The root keeps every shard's pending command: an inline leg runs it
  // from here, and a shard thread that dies holding it gets it re-executed
  // from here.
  std::vector<ShardCmd> pending_cmds(static_cast<size_t>(k));

  // Collects one partial per thread leg for the current round; arrival
  // order across shards is free, content is not. A heartbeat timeout with
  // nothing delivered marks the still-missing shards dead and re-executes
  // their pending command inline.
  std::vector<std::vector<std::pair<int, int64_t>>> partials(
      static_cast<size_t>(k));
  std::vector<RootMsg> root_batch;
  // Runs shard s's pending command on this thread.
  auto run_inline = [&](int s, RootMsg::Kind want) -> Status {
    return want == RootMsg::Kind::kEpochPartial
               ? ShardEpochLeg(transport, layout, s,
                               slices[static_cast<size_t>(s)],
                               pending_cmds[static_cast<size_t>(s)],
                               &partials[static_cast<size_t>(s)])
               : ShardPollLeg(transport, layout, s,
                              pending_cmds[static_cast<size_t>(s)].epoch,
                              &partials[static_cast<size_t>(s)]);
  };
  auto recover = [&](int s, RootMsg::Kind want) -> Status {
    const auto t0 = std::chrono::steady_clock::now();
    inline_leg[static_cast<size_t>(s)] = 1;
    Status st = run_inline(s, want);
    ++out->shard_recoveries;
    out->recovery_ms = std::max(
        out->recovery_ms, static_cast<double>(ElapsedUs(t0)) / 1000.0);
    return st;
  };
  // Called once every thread leg has its command: runs the inline legs
  // here, then waits for the thread legs' partials.
  auto collect = [&](RootMsg::Kind want, int64_t epoch) -> Status {
    for (int s = 0; s < k; ++s) {
      if (inline_leg[static_cast<size_t>(s)]) {
        DCV_RETURN_IF_ERROR(run_inline(s, want));
      }
    }
    std::vector<char> got(inline_leg);
    int expected = static_cast<int>(
        std::count(inline_leg.begin(), inline_leg.end(), 0));
    int received = 0;
    while (received < expected) {
      root_batch.clear();
      bool timed_out = false;
      const size_t got_msgs =
          config_.heartbeat_timeout_ms > 0
              ? root_box.PopAllFor(&root_batch, config_.heartbeat_timeout_ms,
                                   &timed_out)
              : root_box.PopAll(&root_batch);
      if (got_msgs == 0) {
        if (!timed_out) {
          return InternalError(
              "root mailbox closed while collecting partials");
        }
        // Heartbeat timeout: every live shard still missing its partial is
        // presumed dead (a live shard's barrier completes well inside the
        // timeout); re-adopt its sites and run the leg here.
        for (int s = 0; s < k; ++s) {
          if (got[static_cast<size_t>(s)]) {
            continue;
          }
          RecordTreeEvent(config_.recorder, obs::TraceEventKind::kShardDeath,
                          epoch, s, s);
          DCV_RETURN_IF_ERROR(recover(s, want));
          got[static_cast<size_t>(s)] = 1;
          --expected;
        }
        continue;
      }
      for (RootMsg& msg : root_batch) {
        if (msg.kind == RootMsg::Kind::kError) {
          return msg.status;
        }
        if (msg.kind != want || msg.epoch != epoch) {
          return InternalError("out-of-order shard partial");
        }
        partials[static_cast<size_t>(msg.shard)] = std::move(msg.entries);
        got[static_cast<size_t>(msg.shard)] = 1;
        ++received;
      }
    }
    return OkStatus();
  };

  std::vector<int64_t> poll_values(static_cast<size_t>(n), 0);
  std::vector<std::vector<int>> resync(static_cast<size_t>(k));
  auto poll_shards = [&](int64_t t) -> Status {
    DCV_OBS_COUNT(polls_, 1);
    for (int s = 0; s < k; ++s) {
      ShardCmd& pending = pending_cmds[static_cast<size_t>(s)];
      pending.kind = ShardCmd::Kind::kPoll;
      pending.epoch = t;
      if (inline_leg[static_cast<size_t>(s)]) {
        continue;
      }
      ShardCmd cmd;
      cmd.kind = ShardCmd::Kind::kPoll;
      cmd.epoch = t;
      if (!cmd_boxes[static_cast<size_t>(s)]->Push(std::move(cmd))) {
        return InternalError("shard command box closed");
      }
    }
    DCV_RETURN_IF_ERROR(collect(RootMsg::Kind::kPollPartial, t));
    for (int s = 0; s < k; ++s) {
      for (const auto& [site, value] : partials[static_cast<size_t>(s)]) {
        poll_values[static_cast<size_t>(site)] = value;
      }
    }
    return OkStatus();
  };

  for (int64_t t = 0; t < num_epochs; ++t) {
    obs::ScopedTimer epoch_timer(epoch_us_);
    if (config_.chaos.kind == ChaosKind::kKillWorker &&
        t == chaos.fire_epoch) {
      Status severed = transport->InjectPeerFailure(chaos.target);
      (void)severed;  // Unimplemented on link-free transports; fine.
    }
    if (config_.chaos.kind == ChaosKind::kReshard && t == chaos.fire_epoch) {
      // Reshard at the epoch boundary: no data-plane message is in flight
      // (last epoch's barrier closed, this one has not started), so the
      // routing swap cannot strand anything. UpdateLayout fences on every
      // worker's ack; the FIFO command boxes make each shard adopt the new
      // range strictly before its next epoch command. Poll values, partial
      // order, and Channel calls are range-independent, so detections stay
      // bit-identical.
      ShardLayout next = RotateLayout(layout);
      if (Status st = transport->UpdateLayout(next); !st.ok()) {
        return abort_run(st);
      }
      layout = next;
      slice_plan();
      ++out->reshards;
      RecordTreeEvent(config_.recorder, obs::TraceEventKind::kLayoutRotation,
                      t, /*shard=*/-1, static_cast<int64_t>(next.version));
      for (int s = 0; s < k; ++s) {
        if (inline_leg[static_cast<size_t>(s)]) {
          continue;  // Inline legs read the root's `layout` directly.
        }
        ShardCmd cmd;
        cmd.kind = ShardCmd::Kind::kLayout;
        cmd.layout = layout;
        cmd.plan = slices[static_cast<size_t>(s)];
        if (!cmd_boxes[static_cast<size_t>(s)]->Push(std::move(cmd))) {
          return abort_run(InternalError("shard command box closed"));
        }
      }
    }
    // Same call order as the lockstep runner + scheme, so the channel's RNG
    // stream (and thus every fault fate) is bit-identical: BeginEpoch,
    // re-sync sends, (barrier), stale arrivals, alarm replays in ascending
    // site order, then the poll. Shards only move ground truth.
    channel_.BeginEpoch(t);

    // Recovered sites missed threshold pushes while down: re-sync, at the
    // top of the epoch like the lockstep scheme.
    for (auto& r : resync) {
      r.clear();
    }
    if (config_.protocol == RuntimeProtocol::kLocalThreshold &&
        !channel_.newly_recovered().empty()) {
      const std::vector<int> recovered = channel_.newly_recovered();
      for (int i : recovered) {
        SendStatus s = channel_.SendToSite(i, MessageType::kThresholdUpdate,
                                           /*reliable=*/true);
        if (s == SendStatus::kDelivered || s == SendStatus::kDelayed) {
          // The owning leg pushes the transport message (before its
          // kEpochStart, preserving the per-site FIFO); the wire charge
          // already happened here.
          resync[static_cast<size_t>(layout.ShardOf(i))].push_back(i);
          DCV_OBS_EVENT(config_.recorder, obs::TraceEventKind::kThresholdUpdate,
                        t, i, config_.thresholds[static_cast<size_t>(i)]);
        }
      }
      channel_.CountResync(static_cast<int64_t>(recovered.size()));
    }

    // Epoch barrier: every site observes its value and reports back whether
    // its local constraint fired. These are synchronization messages (they
    // model the passage of simulated time), not protocol traffic — the
    // protocol's alarms are replayed through the channel below.
    for (int s = 0; s < k; ++s) {
      ShardCmd& cmd = pending_cmds[static_cast<size_t>(s)];
      cmd.kind = ShardCmd::Kind::kEpoch;
      cmd.epoch = t;
      const int start = layout.ShardStart(s);
      const int size = layout.ShardSize(s);
      cmd.up.resize(static_cast<size_t>(size));
      for (int i = 0; i < size; ++i) {
        cmd.up[static_cast<size_t>(i)] = channel_.SiteUp(start + i) ? 1 : 0;
      }
      cmd.resync_sites.swap(resync[static_cast<size_t>(s)]);
      if (!inline_leg[static_cast<size_t>(s)] &&
          !cmd_boxes[static_cast<size_t>(s)]->Push(ShardCmd(cmd))) {
        return abort_run(InternalError("shard command box closed"));
      }
    }
    if (Status st = collect(RootMsg::Kind::kEpochPartial, t); !st.ok()) {
      return abort_run(st);
    }

    EpochDetection det;
    det.epoch = t;
    if (config_.protocol == RuntimeProtocol::kLocalThreshold) {
      // Delayed alarms arriving now still trigger a poll; late reports of
      // other kinds are consumed and ignored (mirrors the lockstep scheme).
      std::vector<Channel::Arrival> stale_alarms =
          channel_.TakeArrivals(MessageType::kAlarm);
      channel_.TakeArrivals(MessageType::kFilterReport);

      int delivered_alarms = 0;
      // Shards are contiguous and entries ascend within a shard, so this
      // double loop visits alarmed sites in ascending global order — the
      // lockstep scheme's replay order.
      for (int s = 0; s < k; ++s) {
        for (const auto& [site, value] : partials[static_cast<size_t>(s)]) {
          ++det.num_alarms;
          DCV_OBS_COUNT(alarms_rx_, 1);
          SendStatus st = channel_.SendFromSite(site, MessageType::kAlarm,
                                                /*reliable=*/true, value);
          if (st == SendStatus::kDelivered) {
            ++delivered_alarms;
          }
        }
      }
      if (delivered_alarms > 0 || !stale_alarms.empty()) {
        if (Status st = poll_shards(t); !st.ok()) {
          return abort_run(st);
        }
        PollOutcome poll = channel_.PollSites(poll_values, config_.weights,
                                              config_.domain_max);
        det.polled = true;
        det.violation_reported = poll.weighted_sum > config_.global_threshold;
      }
    } else {  // kPolling
      if (t % config_.poll_period == 0) {
        if (Status st = poll_shards(t); !st.ok()) {
          return abort_run(st);
        }
        PollOutcome poll = channel_.PollSites(poll_values, config_.weights,
                                              /*pessimistic=*/{});
        det.polled = true;
        det.violation_reported = poll.weighted_sum > config_.global_threshold;
      }
    }
    out->detections.push_back(det);
  }

  for (int s = 0; s < k; ++s) {
    if (inline_leg[static_cast<size_t>(s)]) {
      // Inline legs' sites get their shutdown from the root directly.
      ShardShutdownLeg(transport, layout, s);
      continue;
    }
    ShardCmd cmd;
    cmd.kind = ShardCmd::Kind::kShutdown;
    cmd_boxes[static_cast<size_t>(s)]->Push(std::move(cmd));
  }
  for (auto& box : cmd_boxes) {
    if (box != nullptr) {
      box->Close();
    }
  }
  for (std::thread& th : shards) {
    th.join();
  }
  out->messages = counter_;
  out->reliability = channel_.stats();
  return OkStatus();
}

Status CoordinatorActor::RunFree(Transport* transport, RuntimeResult* out) {
  out->protocol = config_.protocol == RuntimeProtocol::kLocalThreshold
                      ? "local-threshold"
                      : "polling";
  out->mode = "free-running";

  const int n = config_.num_sites;
  const int k = config_.num_shards;
  DCV_ASSIGN_OR_RETURN(ShardLayout layout, MakeShardLayout(n, k));
  if (transport->num_shards() != k) {
    return InvalidArgumentError(
        "transport shard count does not match coordinator num_shards");
  }
  out->site_updates.assign(static_cast<size_t>(n), 0);
  const ResolvedChaos chaos = ResolveChaos(config_.chaos, /*num_epochs=*/0, k);

  // Free-running shard legs own the data plane for their slice: alarm
  // intake, a private channel over shard-local ids (SliceFaultSpec), and
  // the per-shard leg of every poll round, aggregated down to one partial
  // SUM/MIN/MAX message. The root only routes round lifecycles — O(k)
  // messages per round — and merges the per-shard accounting at exit.
  // Simulated time degrades to a watermark: the highest site-local update
  // index seen on any alarm, so fault windows still engage.
  //
  // With k >= 2 every leg runs on a shard thread and talks to the root
  // through `root_box`. A 1-shard tree steps its leg inline on this thread
  // instead: the root drains shard 0's inbox itself and serves what the
  // leg emits through the same handler.
  Mailbox<RootMsg> root_box(static_cast<size_t>(4 * k + 16));
  std::vector<std::thread> shards;
  shards.reserve(static_cast<size_t>(k));
  auto make_ctx = [&](int s, int64_t die_after_batches) {
    ShardContext ctx;
    ctx.shard = s;
    ctx.layout = layout;
    ctx.transport = transport;
    ctx.to_root = &root_box;
    ctx.protocol = config_.protocol;
    const int start = layout.ShardStart(s);
    const int size = layout.ShardSize(s);
    ctx.weights.assign(
        config_.weights.begin() + start,
        config_.weights.begin() + start + size);
    // A free leg never re-syncs thresholds; it needs only the pessimistic
    // poll fallbacks, and only under the local-threshold protocol.
    if (config_.protocol == RuntimeProtocol::kLocalThreshold) {
      ctx.plan.domain_max.assign(config_.domain_max.begin() + start,
                                 config_.domain_max.begin() + start + size);
    }
    ctx.faults = SliceFaultSpec(config_.faults, layout, s);
    ctx.metrics = config_.metrics;
    ctx.recorder = config_.recorder;
    ctx.alarms_rx = alarms_rx_;
    ctx.die_after_batches = die_after_batches;
    return ctx;
  };
  std::optional<ShardFreeLeg> inline_leg;
  if (k == 1) {
    inline_leg.emplace(make_ctx(0, /*die_after_batches=*/-1));
  }

  obs::Gauge* poll_min_gauge =
      config_.metrics != nullptr
          ? config_.metrics->gauge("runtime/coordinator/poll_min")
          : nullptr;
  obs::Gauge* poll_max_gauge =
      config_.metrics != nullptr
          ? config_.metrics->gauge("runtime/coordinator/poll_max")
          : nullptr;

  bool poll_outstanding = false;
  bool poll_dirty = false;  ///< Notice arrived mid-round: re-poll after.
  int partials_pending = 0;
  // Max shard watermark seen on alarm notices / poll partials; the lag
  // histogram measures how far it moved between a round's trigger and its
  // resolution.
  int64_t watermark = 0;
  int64_t round_trigger_epoch = 0;
  int64_t round_sum = 0;
  int64_t round_min = 0;
  int64_t round_max = 0;
  int sites_done = 0;
  int shard_exits = 0;
  std::vector<char> partial_from(static_cast<size_t>(k), 0);
  std::vector<char> exited(static_cast<size_t>(k), 0);
  std::vector<char> respawned(static_cast<size_t>(k), 0);
  int64_t probe_seq = 0;
  std::vector<char>* probe_beats = nullptr;
  int probe_beats_seen = 0;
  Status run_error = OkStatus();
  std::chrono::steady_clock::time_point round_start;
  std::vector<RootMsg> leg_out;  ///< Inline leg output not yet served.

  // With failure detection on, the root must never block pushing into a
  // shard inbox: a dead shard's inbox stays full of blocked site updates,
  // and a blocking push there would wedge the root — and with it the
  // probe/respawn machinery — forever. Commands that do not fit are kept
  // here (per-shard FIFO, so command order is preserved) and retried on
  // every loop iteration; a replacement shard drains the inbox and the
  // backlog follows. Without detection the historical blocking send is
  // kept: every shard is assumed to stay in its receive loop. Detection
  // covers shard threads only; an inline leg cannot die on its own.
  const bool detect = config_.heartbeat_timeout_ms > 0 && !inline_leg;
  std::vector<std::deque<ActorMessage>> cmd_backlog(static_cast<size_t>(k));
  auto send_cmd = [&](int s, const ActorMessage& m) {
    const Envelope env{kCoordinatorId, kCoordinatorId, m};
    if (inline_leg) {
      // Straight into the inline leg, before it steps another envelope, so
      // a round starts at the point of the stream where it was triggered.
      inline_leg->Step(env, &leg_out);
      return;
    }
    if (!detect) {
      if (!transport->SendToShard(s, env) && run_error.ok()) {
        run_error = InternalError("transport closed during a shard command");
      }
      return;
    }
    auto& backlog = cmd_backlog[static_cast<size_t>(s)];
    if (backlog.empty() && transport->TrySendToShard(s, env)) {
      return;
    }
    backlog.push_back(m);
  };
  auto flush_cmds = [&]() {
    if (!detect) {
      return;
    }
    for (int s = 0; s < k; ++s) {
      auto& backlog = cmd_backlog[static_cast<size_t>(s)];
      while (!backlog.empty() &&
             transport->TrySendToShard(
                 s, Envelope{kCoordinatorId, kCoordinatorId,
                             backlog.front()})) {
        backlog.pop_front();
      }
    }
  };

  auto start_round = [&]() {
    // Kick every shard's poll leg. For a shard thread the command is an
    // envelope from kCoordinatorId injected straight into the shard inbox
    // (SendToShard never crosses a wire), so each shard still blocks on one
    // source.
    ActorMessage kick;
    kick.kind = ActorMsgKind::kPollRequest;
    for (int s = 0; s < k; ++s) {
      send_cmd(s, kick);
    }
    partials_pending = k;
    round_trigger_epoch = watermark;
    round_sum = 0;
    round_min = std::numeric_limits<int64_t>::max();
    round_max = std::numeric_limits<int64_t>::min();
    std::fill(partial_from.begin(), partial_from.end(), 0);
    poll_outstanding = true;
    DCV_OBS_COUNT(polls_, 1);
    if (poll_round_us_ != nullptr) {
      round_start = std::chrono::steady_clock::now();
    }
  };
  auto merge_exit = [&](RootMsg& msg) {
    // A respawn that raced a live-but-slow shard leaves two threads
    // serving the same shard id; both report kShardExit. Their stats are
    // disjoint halves of the shard's work — merge both — but the shard
    // counts as exited once.
    if (!exited[static_cast<size_t>(msg.shard)]) {
      ++shard_exits;
      exited[static_cast<size_t>(msg.shard)] = 1;
    }
    out->total_alarms += msg.alarms;
    counter_.Merge(msg.messages);
    out->reliability = out->reliability + msg.reliability;
    if (!msg.status.ok() && run_error.ok()) {
      run_error = msg.status;
    }
  };
  bool draining = false;  ///< Post-kShutdown: late messages are expected.
  auto handle = [&](RootMsg& msg) {
    // During a probe, ANY traffic from a shard proves it alive — the root
    // box was empty when the silence was declared, so whatever arrives now
    // was pushed inside the probe window. This matters when the ping
    // itself is stuck in the command backlog behind a full inbox: a live
    // shard grinding through that backlog must not get a twin respawned.
    if (probe_beats != nullptr && msg.shard >= 0 && msg.shard < k &&
        !(*probe_beats)[static_cast<size_t>(msg.shard)]) {
      (*probe_beats)[static_cast<size_t>(msg.shard)] = 1;
      ++probe_beats_seen;
    }
    if ((msg.kind == RootMsg::Kind::kAlarmNotice ||
         msg.kind == RootMsg::Kind::kPollPartial) &&
        msg.epoch > watermark) {
      watermark = msg.epoch;
    }
    switch (msg.kind) {
      case RootMsg::Kind::kAlarmNotice: {
        if (draining) {
          break;
        }
        // At most one outstanding global round: notices during a round
        // collapse into one catch-up round after it resolves.
        if (poll_outstanding) {
          poll_dirty = true;
        } else {
          start_round();
        }
        break;
      }
      case RootMsg::Kind::kPollPartial: {
        if (draining || !poll_outstanding) {
          break;
        }
        partial_from[static_cast<size_t>(msg.shard)] = 1;
        round_sum += msg.partial_sum;
        round_min = std::min(round_min, msg.partial_min);
        round_max = std::max(round_max, msg.partial_max);
        if (--partials_pending == 0) {
          ++out->polled_epochs;
          if (round_sum > config_.global_threshold) {
            ++out->violations_flagged;
          }
          poll_outstanding = false;
          if (poll_round_us_ != nullptr) {
            poll_round_us_->Observe(
                static_cast<double>(ElapsedUs(round_start)));
          }
          if (detection_lag_ != nullptr) {
            // Lag in watermark epochs between the triggering alarm and the
            // round resolving (the lockstep ground truth detects at the
            // trigger epoch itself).
            detection_lag_->Observe(static_cast<double>(
                std::max<int64_t>(0, watermark - round_trigger_epoch)));
          }
          if (poll_min_gauge != nullptr) {
            poll_min_gauge->Set(static_cast<double>(round_min));
            poll_max_gauge->Set(static_cast<double>(round_max));
          }
          if (poll_dirty) {
            poll_dirty = false;
            start_round();
          }
        }
        break;
      }
      case RootMsg::Kind::kSiteDone: {
        // Relayed per site, so a shard death between relays loses nothing:
        // the already-relayed sites stay counted and the replacement shard
        // relays the rest from the same inbox.
        for (const auto& [site, updates] : msg.entries) {
          out->site_updates[static_cast<size_t>(site)] = updates;
          ++sites_done;
        }
        break;
      }
      case RootMsg::Kind::kHeartbeat: {
        break;  // Liveness was credited by the any-traffic marking above.
      }
      case RootMsg::Kind::kShardExit: {
        // Shards only exit unprompted when the transport died under
        // them; surface that as the run error but keep their stats.
        merge_exit(msg);
        if (!draining && run_error.ok()) {
          run_error = InternalError("shard exited while sites were live");
        }
        break;
      }
      case RootMsg::Kind::kError: {
        run_error = msg.status;
        break;
      }
      default:
        break;  // Virtual-mode partials cannot appear here.
    }
  };
  // Serves the inline leg's output in order. A command the handler answers
  // with (kick, stop) steps the leg at once and appends to `leg_out`, so
  // it is served in this same call, before the leg sees another envelope.
  std::vector<RootMsg> serving;
  auto serve_leg_out = [&]() {
    while (!leg_out.empty()) {
      serving.swap(leg_out);
      for (RootMsg& msg : serving) {
        handle(msg);
      }
      serving.clear();
    }
  };

  std::vector<RootMsg> batch;
  // One drain of the root box into `batch`; with detection on, waits at
  // most one heartbeat window.
  auto pop_root = [&](bool* timed_out) {
    batch.clear();
    return detect ? root_box.PopAllFor(&batch, config_.heartbeat_timeout_ms,
                                       timed_out)
                  : root_box.PopAll(&batch);
  };
  // Liveness probe after a silent stretch: ping every shard; the silent
  // ones are dead — respawn a replacement that drains the SAME shard
  // inbox, so every queued alarm / response / site-done survives the
  // crash (bounded mailboxes mean nothing was dropped, senders just
  // blocked). Replacement channels restart from the plan's fault slice.
  auto probe_and_respawn = [&]() {
    ++probe_seq;
    std::vector<char> beats(static_cast<size_t>(k), 0);
    probe_beats = &beats;
    probe_beats_seen = 0;
    const auto probe_start = std::chrono::steady_clock::now();
    ActorMessage ping;
    ping.kind = ActorMsgKind::kPing;
    ping.epoch = probe_seq;
    for (int s = 0; s < k; ++s) {
      send_cmd(s, ping);
    }
    const auto deadline =
        probe_start + std::chrono::milliseconds(config_.heartbeat_timeout_ms);
    while (probe_beats_seen < k && run_error.ok()) {
      flush_cmds();
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        break;
      }
      const int64_t remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count();
      batch.clear();
      bool timed_out = false;
      if (root_box.PopAllFor(&batch, std::max<int64_t>(1, remaining_ms),
                             &timed_out) == 0) {
        if (timed_out) {
          break;
        }
        run_error = InternalError("root mailbox closed during probe");
        break;
      }
      for (RootMsg& msg : batch) {
        handle(msg);
      }
    }
    probe_beats = nullptr;
    for (int s = 0; s < k && run_error.ok(); ++s) {
      if (beats[static_cast<size_t>(s)] || exited[static_cast<size_t>(s)]) {
        continue;
      }
      if (respawned[static_cast<size_t>(s)]) {
        run_error = InternalError(
            "shard " + std::to_string(s) +
            " went silent again after a respawn; giving up");
        break;
      }
      respawned[static_cast<size_t>(s)] = 1;
      RecordTreeEvent(config_.recorder, obs::TraceEventKind::kShardDeath,
                      watermark, s, s);
      shards.emplace_back(RunShardFree, make_ctx(s, /*die_after_batches=*/-1));
      RecordTreeEvent(config_.recorder, obs::TraceEventKind::kShardRespawn,
                      watermark, s, s);
      ++out->shard_recoveries;
      out->recovery_ms =
          std::max(out->recovery_ms,
                   static_cast<double>(ElapsedUs(probe_start)) / 1000.0);
      if (poll_outstanding && !partial_from[static_cast<size_t>(s)]) {
        // The round the dead shard was serving would hang forever;
        // re-kick the replacement's leg (fresh kPollRequest — stale
        // responses already queued are ignored by the replacement).
        ActorMessage kick;
        kick.kind = ActorMsgKind::kPollRequest;
        send_cmd(s, kick);
      }
    }
  };

  if (inline_leg) {
    inline_leg->Start(&leg_out);
    serve_leg_out();
  } else {
    for (int s = 0; s < k; ++s) {
      shards.emplace_back(
          RunShardFree,
          make_ctx(s, config_.chaos.kind == ChaosKind::kKillShard &&
                              s == chaos.target
                          ? chaos.fire_after_batches
                          : -1));
    }
  }

  std::vector<Envelope> burst;  ///< Inline leg: one shard-inbox drain.
  while ((sites_done < n || poll_outstanding) && run_error.ok()) {
    if (inline_leg) {
      burst.clear();
      if (transport->RecvShardAll(0, &burst) == 0) {
        run_error = InternalError("transport closed while sites were live");
        break;
      }
      for (size_t next = 0; next < burst.size();) {
        next = inline_leg->StepBatch(burst, next, &leg_out);
        serve_leg_out();
      }
      continue;
    }
    flush_cmds();
    bool timed_out = false;
    if (pop_root(&timed_out) == 0) {
      if (timed_out) {
        probe_and_respawn();
        continue;
      }
      run_error = InternalError("root mailbox closed while shards were live");
      break;
    }
    for (RootMsg& msg : batch) {
      if (!run_error.ok()) {
        break;
      }
      handle(msg);
    }
  }

  // Shutdown: command every shard to stop; each forwards kShutdown to its
  // sites and reports final accounting (an inline leg does so at once).
  // Exits are counted (not joined-for) so a shard blocked pushing to the
  // root box can always drain. A shard thread that died between the main
  // loop and its kShutdown still gets one respawn (the replacement finds
  // the queued kShutdown and exits).
  draining = true;
  ActorMessage stop;
  stop.kind = ActorMsgKind::kShutdown;
  for (int s = 0; s < k; ++s) {
    send_cmd(s, stop);
    if (respawned[static_cast<size_t>(s)]) {
      // If the respawn raced a live-but-slow original, two threads serve
      // this shard id and each needs a stop; a surplus stop to a single
      // survivor just sits unconsumed in the inbox.
      send_cmd(s, stop);
    }
  }
  serve_leg_out();
  while (shard_exits < k) {
    flush_cmds();
    bool timed_out = false;
    if (pop_root(&timed_out) == 0) {
      if (!timed_out) {
        break;
      }
      bool acted = false;
      for (int s = 0; s < k; ++s) {
        if (!exited[static_cast<size_t>(s)] &&
            !respawned[static_cast<size_t>(s)]) {
          respawned[static_cast<size_t>(s)] = 1;
          shards.emplace_back(RunShardFree,
                              make_ctx(s, /*die_after_batches=*/-1));
          ++out->shard_recoveries;
          // The original's stop is already queued or backlogged; one more
          // covers the twin in case the original was merely slow.
          send_cmd(s, stop);
          acted = true;
        }
      }
      if (!acted) {
        if (run_error.ok()) {
          run_error =
              InternalError("timed out waiting for shard exits at shutdown");
        }
        break;
      }
      continue;
    }
    for (RootMsg& msg : batch) {
      if (msg.kind == RootMsg::Kind::kShardExit) {
        merge_exit(msg);
      }
      // Notices/partials that raced with shutdown are dropped.
    }
  }
  for (std::thread& th : shards) {
    th.join();
  }

  out->messages = counter_;
  for (int64_t u : out->site_updates) {
    out->total_updates += u;
  }
  return run_error;
}

}  // namespace dcv

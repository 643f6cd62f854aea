#include "runtime/coordinator.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "runtime/mailbox.h"
#include "runtime/shard.h"
#include "runtime/shard_layout.h"

namespace dcv {

namespace {

using Clock = std::chrono::steady_clock;

const char* ProtocolName(RuntimeProtocol protocol) {
  return protocol == RuntimeProtocol::kLocalThreshold ? "local-threshold"
                                                      : "polling";
}

/// The run's layout; the transport must route as many shards.
Result<ShardLayout> TreeLayout(const CoordinatorActor::Config& config,
                               const Transport& transport) {
  if (transport.num_shards() != config.num_shards) {
    return InvalidArgumentError(
        "transport shard count does not match coordinator num_shards");
  }
  return MakeShardLayout(config.num_sites, config.num_shards);
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

// A virtual-time run: the root owns the Channel, fans every exchange out to
// all sites and collects every shard's replies itself, on the caller's
// thread (see the concurrency contract in coordinator.h).
class CoordinatorActor::VirtualRun {
 public:
  VirtualRun(CoordinatorActor* actor, Transport* transport,
             int64_t num_epochs, RuntimeResult* out)
      : actor_(*actor),
        transport_(transport),
        out_(out),
        num_epochs_(num_epochs) {}

  Status Run() {
    DCV_ASSIGN_OR_RETURN(layout_, TreeLayout(config_, *transport_));
    Status status = OkStatus();
    for (int64_t t = 0; t < num_epochs_ && status.ok(); ++t) {
      status = Epoch(t);
    }
    return Finish(std::move(status));
  }

 private:
  Status Epoch(int64_t t) {
    obs::ScopedTimer epoch_timer(actor_.epoch_us_);
    if (config_.chaos.kind == ChaosKind::kKillWorker &&
        t == chaos_.fire_epoch) {
      // Unimplemented on link-free transports: a chaos run that cannot
      // fire fails instead of running healthy (CheckChaosFits rejects it
      // before any transport is built).
      DCV_RETURN_IF_ERROR(transport_->InjectPeerFailure(chaos_.target));
    }
    // Same call order as the lockstep runner + scheme, so the channel's RNG
    // stream (and thus every fault fate) is bit-identical: BeginEpoch,
    // re-sync sends, (barrier), stale arrivals, alarm replays in ascending
    // site order, then the poll. The transport only moves ground truth.
    channel_.BeginEpoch(t);
    Resync(t);
    DCV_RETURN_IF_ERROR(Barrier(t));
    EpochDetection det;
    det.epoch = t;
    bool poll = !local_ && t % config_.poll_period == 0;
    if (local_) {
      // Delayed alarms arriving now still trigger a poll; late reports of
      // other kinds are consumed and ignored (mirrors the lockstep scheme).
      poll = !channel_.TakeArrivals(MessageType::kAlarm).empty();
      channel_.TakeArrivals(MessageType::kFilterReport);
      // The lockstep scheme's replay order: entries_ ascends by site.
      for (const auto& [site, value] : entries_) {
        ++det.num_alarms;
        DCV_OBS_COUNT(actor_.alarms_rx_, 1);
        poll |= channel_.SendFromSite(site, MessageType::kAlarm,
                                      /*reliable=*/true, value) ==
                SendStatus::kDelivered;
      }
    }
    if (poll) {
      DCV_RETURN_IF_ERROR(Poll(t));
      // Only the local-threshold protocol provisions pessimistic fallbacks.
      PollOutcome outcome =
          channel_.PollSites(poll_values_, config_.weights,
                             local_ ? config_.domain_max : no_fallbacks_);
      det.polled = true;
      det.violation_reported = outcome.weighted_sum > config_.global_threshold;
    }
    out_->detections.push_back(det);
    return OkStatus();
  }

  /// Recovered sites missed threshold pushes while down: re-sync, at the top
  /// of the epoch like the lockstep scheme. The wire charge happens here;
  /// the transport message opens the epoch's fan-out, ahead of the site's
  /// kEpochStart.
  void Resync(int64_t t) {
    fanout_.clear();
    if (!local_ || channel_.newly_recovered().empty()) {
      return;
    }
    const std::vector<int>& recovered = channel_.newly_recovered();
    for (int i : recovered) {
      SendStatus s = channel_.SendToSite(i, MessageType::kThresholdUpdate,
                                         /*reliable=*/true);
      if (s == SendStatus::kDelivered || s == SendStatus::kDelayed) {
        const int64_t threshold = config_.thresholds[static_cast<size_t>(i)];
        ActorMessage update;
        update.kind = ActorMsgKind::kThresholdUpdate;
        update.epoch = t;
        update.value = threshold;
        fanout_.push_back(Envelope{kCoordinatorId, i, update});
        DCV_OBS_EVENT(config_.recorder, obs::TraceEventKind::kThresholdUpdate,
                      t, i, threshold);
      }
    }
    channel_.CountResync(static_cast<int64_t>(recovered.size()));
  }

  /// Every site observes its value and reports whether its local constraint
  /// fired. These synchronization messages model the passage of simulated
  /// time; they are not protocol traffic, which Epoch replays through the
  /// channel afterwards. One fan-out: the re-syncs Resync queued, then every
  /// site's kEpochStart with its up flag. SendBatch keeps batch order per
  /// inbox, so a site installs its re-synced threshold before it evaluates
  /// — the lockstep scheme's order, which re-syncs at the top of OnEpoch.
  Status Barrier(int64_t t) {
    ActorMessage begin;
    begin.kind = ActorMsgKind::kEpochStart;
    begin.epoch = t;
    for (int i = 0; i < config_.num_sites; ++i) {
      begin.flag = channel_.SiteUp(i);
      fanout_.push_back(Envelope{kCoordinatorId, i, begin});
    }
    return Exchange(ActorMsgKind::kEpochReport, t, "epoch barrier",
                    /*alarmed_only=*/true);
  }

  Status Poll(int64_t t) {
    DCV_OBS_COUNT(actor_.polls_, 1);
    FanOutRange(ActorMsgKind::kPollRequest, t, 0, config_.num_sites,
                transport_->num_workers(), &fanout_);
    DCV_RETURN_IF_ERROR(Exchange(ActorMsgKind::kPollResponse, t, "poll round",
                                 /*alarmed_only=*/false));
    for (const auto& [site, value] : entries_) {
      poll_values_[static_cast<size_t>(site)] = value;
    }
    return OkStatus();
  }

  /// Sends `fanout_` in one batch, then takes every shard's replies from
  /// its inbox in turn. Shards are contiguous and each shard's entries
  /// ascend, so `entries_` ascends by global site.
  Status Exchange(ActorMsgKind want, int64_t t, const char* stage,
                  bool alarmed_only) {
    entries_.clear();
    if (!transport_->SendBatch(fanout_)) {
      return InternalError(std::string("transport closed during ") + stage);
    }
    for (int s = 0; s < layout_.num_shards; ++s) {
      DCV_RETURN_IF_ERROR(CollectShardReplies(
          transport_, s, layout_.ShardStart(s), layout_.ShardSize(s), want, t,
          stage, alarmed_only, &entries_));
    }
    return OkStatus();
  }

  /// On success every worker gets one range shutdown covering its sites,
  /// and every site observed every epoch; on failure the transport closes
  /// instead.
  Status Finish(Status status) {
    if (status.ok()) {
      // A closed transport means the sites are already gone.
      FanOutRange(ActorMsgKind::kShutdown, /*epoch=*/0, 0, config_.num_sites,
                  transport_->num_workers(), &fanout_);
      (void)transport_->SendBatch(fanout_);
      out_->site_updates.assign(static_cast<size_t>(config_.num_sites),
                                num_epochs_);
      out_->total_updates = config_.num_sites * num_epochs_;
    } else {
      transport_->Shutdown();
    }
    out_->messages = actor_.counter_;
    out_->reliability = channel_.stats();
    return status;
  }

  CoordinatorActor& actor_;
  Transport* const transport_;
  RuntimeResult* const out_;
  const int64_t num_epochs_;
  const Config& config_ = actor_.config_;
  Channel& channel_ = actor_.channel_;
  const bool local_ = config_.protocol == RuntimeProtocol::kLocalThreshold;
  const std::vector<int64_t> no_fallbacks_;
  // Kill-worker is the one chaos kind that fires in virtual time.
  const ResolvedChaos chaos_ =
      ResolveChaos(config_.chaos, num_epochs_, transport_->num_workers());
  ShardLayout layout_;
  std::vector<Envelope> fanout_;  ///< This exchange's sends, in send order.
  /// This exchange's (site, value) replies, ascending by site: the alarmed
  /// sites after a barrier, every site after a poll.
  std::vector<std::pair<int, int64_t>> entries_;
  std::vector<int64_t> poll_values_ =
      std::vector<int64_t>(static_cast<size_t>(config_.num_sites), 0);
};

Status CoordinatorActor::RunVirtual(Transport* transport, int64_t num_epochs,
                                    RuntimeResult* out) {
  out->protocol = ProtocolName(config_.protocol);
  out->mode = "virtual";
  out->epochs = num_epochs;
  out->detections.clear();
  out->detections.reserve(static_cast<size_t>(num_epochs));
  VirtualRun run(this, transport, num_epochs, out);
  return run.Run();
}

// A free-running run: the legs own the data plane for their slice (shard.h)
// and the root only routes round lifecycles, O(k) messages per round.
class CoordinatorActor::FreeRun {
 public:
  FreeRun(CoordinatorActor* actor, Transport* transport, RuntimeResult* out)
      : actor_(*actor), transport_(transport), out_(out) {}

  Status Run() {
    DCV_ASSIGN_OR_RETURN(layout_, TreeLayout(config_, *transport_));
    out_->site_updates.assign(static_cast<size_t>(config_.num_sites), 0);
    if (k_ == 1) {
      inline_leg_.emplace(MakeContext(0, /*die_after_envelopes=*/-1));
      inline_leg_->Start(&leg_out_);
      ServeLegOut();
    } else {
      for (int s = 0; s < k_; ++s) {
        const bool doomed =
            config_.chaos.kind == ChaosKind::kKillShard && s == chaos_.target;
        threads_.emplace_back(
            RunShardFree,
            MakeContext(s, doomed ? chaos_.fire_after_envelopes : -1));
      }
    }
    while ((sites_done_ < config_.num_sites || partials_pending_ > 0) &&
           run_error_.ok()) {
      if (inline_leg_) {
        StepInline();
      } else {
        Pump();
      }
    }
    SetGaugeMs(completion_ms_gauge_, last_done_ - first_done_);
    const Clock::time_point drain_start = Clock::now();
    Drain();
    SetGaugeMs(drain_ms_gauge_, Clock::now() - drain_start);
    out_->messages = actor_.counter_;
    for (int64_t u : out_->site_updates) {
      out_->total_updates += u;
    }
    return run_error_;
  }

 private:
  ShardContext MakeContext(int s, int64_t die_after_envelopes) {
    return ShardContext{s,          layout_,    &config_,
                        transport_, &root_box_, actor_.alarms_rx_,
                        die_after_envelopes};
  }

  void Fail(Status status) {
    if (run_error_.ok()) {
      run_error_ = std::move(status);
    }
  }

  /// The single handler for shard output: root box or inline leg.
  void Handle(RootMsg& msg) {
    // Only notices and partials carry an epoch; the other kinds leave it 0.
    watermark_ = std::max(watermark_, msg.epoch);
    switch (msg.kind) {
      case RootMsg::Kind::kAlarmNotice:
        // At most one outstanding global round: notices during a round
        // collapse into one catch-up round after it resolves.
        if (partials_pending_ > 0) {
          poll_dirty_ = true;
        } else if (!draining_) {
          StartRound();
        }
        break;
      case RootMsg::Kind::kPollPartial:
        if (draining_ || partials_pending_ == 0) {
          break;
        }
        round_sum_ += msg.partial_sum;
        if (--partials_pending_ == 0) {
          FinishRound();
        }
        break;
      case RootMsg::Kind::kSiteDone:
        // One clock read per relayed run, never per site or update.
        last_done_ = Clock::now();
        if (sites_done_ == 0) {
          first_done_ = last_done_;
        }
        for (const auto& [site, updates] : msg.entries) {
          out_->site_updates[static_cast<size_t>(site)] = updates;
          ++sites_done_;
        }
        break;
      case RootMsg::Kind::kShardExit: {
        ++shard_exits_;
        const ShardReport& report = *msg.report;
        out_->total_alarms += report.alarms;
        actor_.counter_.Merge(report.messages);
        out_->reliability = out_->reliability + report.reliability;
        out_->shard_recoveries += report.recoveries;
        out_->recovery_ms = std::max(out_->recovery_ms, report.recovery_ms);
        if (!report.status.ok()) {
          Fail(report.status);
        }
        // Shards only exit unprompted when the transport died under them.
        if (!draining_) {
          Fail(InternalError("shard exited while sites were live"));
        }
        break;
      }
    }
  }

  /// Kicks every shard's poll leg.
  void StartRound() {
    for (int s = 0; s < k_; ++s) {
      SendCommand(s, ActorMsgKind::kPollRequest);
    }
    partials_pending_ = k_;
    round_trigger_epoch_ = watermark_;
    round_sum_ = 0;
    DCV_OBS_COUNT(actor_.polls_, 1);
    round_timer_.emplace(actor_.poll_round_us_);
  }

  void FinishRound() {
    ++out_->polled_epochs;
    if (round_sum_ > config_.global_threshold) {
      ++out_->violations_flagged;
    }
    round_timer_.reset();  // Observes the round's latency.
    if (actor_.detection_lag_ != nullptr) {
      // Watermark epochs from the trigger to the decision; the lockstep
      // ground truth decides in the trigger epoch itself.
      actor_.detection_lag_->Observe(static_cast<double>(
          std::max<int64_t>(0, watermark_ - round_trigger_epoch_)));
    }
    if (poll_dirty_) {
      poll_dirty_ = false;
      StartRound();
    }
  }

  /// Hands a root command (poll kick, stop) to shard `s`'s leg. An inline
  /// leg steps it at once, before it steps another envelope, so a round
  /// starts at the point of the stream where it was triggered. A shard
  /// thread gets it in its inbox from kCoordinatorId (SendToShard never
  /// crosses a wire), so each shard still blocks on one source. The send
  /// may block on a full inbox; every shard thread stays in its receive
  /// loop — a crashed leg is replaced on the same thread (RunShardFree) —
  /// so the inbox drains.
  void SendCommand(int s, ActorMsgKind kind) {
    ActorMessage cmd;
    cmd.kind = kind;
    const Envelope env{kCoordinatorId, kCoordinatorId, cmd};
    if (inline_leg_) {
      inline_leg_->Step(env, &leg_out_);
    } else if (!transport_->SendToShard(s, env)) {
      Fail(InternalError("transport closed during a shard command"));
    }
  }

  /// Serves the inline leg's output in order. A command the handler answers
  /// with (kick, stop) steps the leg at once and appends to `leg_out_`, so
  /// it is served in this same call, before the leg sees another envelope.
  void ServeLegOut() {
    for (size_t i = 0; i < leg_out_.size(); ++i) {
      RootMsg msg = std::move(leg_out_[i]);  // Handle may grow `leg_out_`.
      Handle(msg);
    }
    leg_out_.clear();
  }

  /// The inline leg's turn of the main loop: one drain of shard 0's inbox.
  void StepInline() {
    burst_.clear();
    if (transport_->RecvShardAll(0, &burst_) == 0) {
      Fail(InternalError("transport closed while sites were live"));
    }
    for (size_t next = 0; next < burst_.size();) {
      next = inline_leg_->StepBatch(burst_, next, &leg_out_);
      ServeLegOut();
    }
  }

  /// Shard threads' turn of the main loop (and of the drain): one blocking
  /// drain of the root box, every message through Handle. Nothing closes
  /// the box, so there is no empty return to handle; a shard thread's last
  /// push is always its kShardExit.
  void Pump() {
    batch_.clear();
    root_box_.PopAll(&batch_);
    for (RootMsg& msg : batch_) {
      Handle(msg);
    }
  }

  /// Stops every leg and counts exits instead of joining, so a shard
  /// blocked pushing to the root box can always drain.
  void Drain() {
    draining_ = true;
    for (int s = 0; s < k_; ++s) {
      SendCommand(s, ActorMsgKind::kShutdown);
    }
    ServeLegOut();
    while (shard_exits_ < k_) {
      Pump();
    }
    for (std::thread& th : threads_) {
      th.join();
    }
  }

  obs::Gauge* GaugeOrNull(const char* name) const {
    return config_.metrics == nullptr ? nullptr : config_.metrics->gauge(name);
  }

  static void SetGaugeMs(obs::Gauge* gauge, Clock::duration took) {
    if (gauge != nullptr) {
      gauge->Set(std::chrono::duration<double, std::milli>(took).count());
    }
  }

  CoordinatorActor& actor_;
  Transport* const transport_;
  RuntimeResult* const out_;
  const Config& config_ = actor_.config_;
  const int k_ = config_.num_shards;
  const ResolvedChaos chaos_ =
      ResolveChaos(config_.chaos, /*num_epochs=*/0, k_);
  ShardLayout layout_;
  Mailbox<RootMsg> root_box_{static_cast<size_t>(4 * k_ + 16)};
  std::vector<std::thread> threads_;
  std::optional<ShardFreeLeg> inline_leg_;
  /// Once per run: the first counted site done to the last, and Drain().
  obs::Gauge* const completion_ms_gauge_ =
      GaugeOrNull("runtime/coordinator/completion_ms");
  obs::Gauge* const drain_ms_gauge_ =
      GaugeOrNull("runtime/coordinator/drain_ms");

  int partials_pending_ = 0;  ///< > 0 while a round is outstanding.
  bool poll_dirty_ = false;  ///< Notice arrived mid-round: re-poll after.
  int64_t watermark_ = 0;
  int64_t round_trigger_epoch_ = 0;
  int64_t round_sum_ = 0;
  std::optional<obs::ScopedTimer> round_timer_;
  int sites_done_ = 0;
  Clock::time_point first_done_;  ///< When the root counted its first done.
  Clock::time_point last_done_;   ///< ... and its latest.
  int shard_exits_ = 0;
  bool draining_ = false;  ///< Post-kShutdown: late messages are expected.
  Status run_error_;
  std::vector<RootMsg> batch_;    ///< One root-box drain.
  std::vector<RootMsg> leg_out_;  ///< Inline leg output not yet served.
  std::vector<Envelope> burst_;   ///< Inline leg: one shard-inbox drain.
};

Status CoordinatorActor::RunFree(Transport* transport, RuntimeResult* out) {
  out->protocol = ProtocolName(config_.protocol);
  out->mode = "free-running";
  FreeRun run(this, transport, out);
  return run.Run();
}

}  // namespace dcv

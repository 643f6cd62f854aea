#include "runtime/coordinator.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
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
    // trigger epoch), but a round stalled behind a long burst can reach
    // thousands.
    detection_lag_ = config_.metrics->histogram(
        "runtime/detection_lag_epochs",
        obs::Histogram::ExponentialBounds(1.0, 2.0, 16));
  }
  return OkStatus();
}

// A virtual-time run: the root owns the Channel, fans every exchange out to
// all sites and collects every shard's replies itself, on the caller's
// thread (see the concurrency contract in coordinator.h). Time advances in
// windows of epochs: one exchange starts a window at every site, the root
// then steps the window through the channel epoch by epoch, and one poll
// fetch per shard brings in the values of the window's polled epochs.
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
    for (int64_t t0 = 0; t0 < num_epochs_ && status.ok();) {
      const int64_t t1 = WindowEnd(t0);
      status = Window(t0, t1);
      t0 = t1;
    }
    return Finish(std::move(status));
  }

 private:
  /// One past the last epoch of the window that starts at `t0`: at most
  /// VirtualWindowEpochs(N) epochs, and it ends before the kill-worker
  /// chaos fires, so the chaos fires at a window's start. Faults need no
  /// cut: crashes and partitions live in the channel, which Step consults
  /// epoch by epoch.
  int64_t WindowEnd(int64_t t0) const {
    const int64_t t1 = std::min(num_epochs_, t0 + window_epochs_);
    const bool fires_inside = chaos_.fire_epoch > t0 && chaos_.fire_epoch < t1;
    return fires_inside ? chaos_.fire_epoch : t1;
  }

  Status Window(int64_t t0, int64_t t1) {
    const Clock::time_point start = Clock::now();
    if (t0 == chaos_.fire_epoch) {
      // Unimplemented on link-free transports: a chaos run that cannot
      // fire fails instead of running healthy (CheckChaosFits rejects it
      // before any transport is built).
      DCV_RETURN_IF_ERROR(transport_->InjectPeerFailure(chaos_.target));
    }
    // Same channel call order as the lockstep runner + scheme, epoch by
    // epoch, so the channel's RNG stream (and thus every fault fate) is
    // bit-identical: BeginEpoch, re-sync sends, stale arrivals, alarm
    // replays of the up sites in ascending site order, then the poll's
    // fates. The transport only moves ground truth: the sites' reports
    // come in before the window is stepped, and the polled values after
    // it, for the value half of each poll.
    DCV_RETURN_IF_ERROR(StartWindow(t0, t1));
    polled_.clear();
    for (int64_t t = t0; t < t1; ++t) {
      channel_.BeginEpoch(t);
      Step(t);
    }
    if (!polled_.empty()) {
      DCV_RETURN_IF_ERROR(FetchPolls());
      Decide();
    }
    if (actor_.epoch_us_ != nullptr) {
      // One sample per epoch, each the window's share.
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count() /
          static_cast<double>(t1 - t0);
      for (int64_t t = t0; t < t1; ++t) {
        actor_.epoch_us_->Observe(us);
      }
    }
    return OkStatus();
  }

  /// Every site observes the window [t0, t1) and reports each alarmed epoch
  /// and the last one. These synchronization messages model the passage of
  /// simulated time; they are not protocol traffic, which Step replays
  /// through the channel afterwards. Leaves the alarmed reports in
  /// `reports_`, ordered by (epoch, site).
  Status StartWindow(int64_t t0, int64_t t1) {
    epochs_.clear();
    for (int64_t t = t0; t < t1; ++t) {
      epochs_.push_back(t);
    }
    fanout_.clear();
    ActorMessage begin;
    begin.kind = ActorMsgKind::kEpochStart;
    begin.epoch = t0;
    begin.value = t1;
    for (int i = 0; i < config_.num_sites; ++i) {
      fanout_.push_back(Envelope{kCoordinatorId, i, begin});
    }
    if (!transport_->SendBatch(fanout_)) {
      return InternalError("transport closed during epoch barrier");
    }
    // Each worker answers its starts in site order, so its reports leave
    // it in shard order and the shards can be collected in turn: none of a
    // worker's reports to the shard being collected waits behind one to a
    // later shard's full inbox.
    reports_.clear();
    for (int s = 0; s < layout_.num_shards; ++s) {
      DCV_RETURN_IF_ERROR(CollectShardReplies(
          transport_, s, layout_.ShardStart(s), layout_.ShardSize(s),
          ActorMsgKind::kEpochReport, epochs_, "epoch barrier",
          /*alarmed_only=*/true, &reports_));
    }
    std::sort(reports_.begin(), reports_.end(),
              [](const ShardReply& a, const ShardReply& b) {
                return a.pos != b.pos ? a.pos < b.pos : a.site < b.site;
              });
    next_report_ = 0;
    return OkStatus();
  }

  /// Epoch `t` of the window through the channel, up to the poll's fates.
  void Step(int64_t t) {
    Resync(t);
    EpochDetection det;
    det.epoch = t;
    bool poll = !local_ && t % config_.poll_period == 0;
    if (local_) {
      // Delayed alarms arriving now still trigger a poll; late reports of
      // other kinds are consumed and ignored (mirrors the lockstep scheme).
      poll = !channel_.TakeArrivals(MessageType::kAlarm).empty();
      channel_.TakeArrivals(MessageType::kFilterReport);
      // The lockstep scheme's replay order: ascending site within the epoch.
      // A crashed site observes nothing and sends nothing: its report
      // stops here, as the scheme skips the site.
      const int pos = static_cast<int>(t - epochs_.front());
      for (; next_report_ < reports_.size() &&
             reports_[next_report_].pos == pos;
           ++next_report_) {
        const ShardReply& report = reports_[next_report_];
        if (!channel_.SiteUp(report.site)) {
          continue;
        }
        ++det.num_alarms;
        DCV_OBS_COUNT(actor_.alarms_rx_, 1);
        poll |= channel_.SendFromSite(report.site, MessageType::kAlarm,
                                      /*reliable=*/true, report.value) ==
                SendStatus::kDelivered;
      }
    }
    if (poll) {
      DCV_OBS_COUNT(actor_.polls_, 1);
      const size_t n = static_cast<size_t>(config_.num_sites);
      fates_.resize((polled_.size() + 1) * n);
      channel_.PollFates(std::span<char>(fates_).subspan(polled_.size() * n));
      polled_.push_back(t);
      det.polled = true;
      ++out_->polled_epochs;
    }
    if (det.num_alarms > 0) {
      ++out_->alarm_epochs;
      out_->total_alarms += det.num_alarms;
    }
    out_->detections.push_back(det);
  }

  /// Recovered sites missed threshold pushes while down: re-sync, at the top
  /// of the epoch like the lockstep scheme. A runtime never re-plans, so a
  /// recovered site still holds the threshold it would be sent: the re-sync
  /// is charged and recorded, and no envelope carries it.
  void Resync(int64_t t) {
    if (!local_ || channel_.newly_recovered().empty()) {
      return;
    }
    const std::vector<int>& recovered = channel_.newly_recovered();
    for (int i : recovered) {
      SendStatus s = channel_.SendToSite(i, MessageType::kThresholdUpdate,
                                         /*reliable=*/true);
      if (s == SendStatus::kDelivered || s == SendStatus::kDelayed) {
        DCV_OBS_EVENT(config_.recorder, obs::TraceEventKind::kThresholdUpdate,
                      t, i, config_.thresholds[static_cast<size_t>(i)]);
      }
    }
    channel_.CountResync(static_cast<int64_t>(recovered.size()));
  }

  /// Every site's value at each polled epoch of the window, into
  /// `poll_values_` (one row of N per polled epoch). One exchange per
  /// shard: each worker gets one range request per polled epoch over the
  /// shard's sites, so every reply of an exchange lands in the inbox being
  /// collected.
  Status FetchPolls() {
    const size_t n = static_cast<size_t>(config_.num_sites);
    poll_values_.resize(polled_.size() * n);
    for (int s = 0; s < layout_.num_shards; ++s) {
      const int first = layout_.ShardStart(s);
      const int end = first + layout_.ShardSize(s);
      fanout_.clear();
      for (int64_t t : polled_) {
        FanOutRange(ActorMsgKind::kPollRequest, t, first, end,
                    transport_->num_workers(), &range_);
        fanout_.insert(fanout_.end(), range_.begin(), range_.end());
      }
      if (!transport_->SendBatch(fanout_)) {
        return InternalError("transport closed during poll round");
      }
      answers_.clear();
      DCV_RETURN_IF_ERROR(CollectShardReplies(
          transport_, s, first, end - first, ActorMsgKind::kPollResponse,
          polled_, "poll round", /*alarmed_only=*/false, &answers_));
      for (const ShardReply& a : answers_) {
        poll_values_[static_cast<size_t>(a.pos) * n +
                     static_cast<size_t>(a.site)] = a.value;
      }
    }
    return OkStatus();
  }

  /// The value half of each polled epoch's round, in epoch order.
  void Decide() {
    const size_t n = static_cast<size_t>(config_.num_sites);
    for (size_t k = 0; k < polled_.size(); ++k) {
      // Only the local-threshold protocol provisions pessimistic fallbacks.
      const PollOutcome outcome = channel_.PollValues(
          std::span<const char>(fates_).subspan(k * n, n),
          std::span<const int64_t>(poll_values_).subspan(k * n, n),
          config_.weights, local_ ? config_.domain_max : no_fallbacks_);
      out_->detections[static_cast<size_t>(polled_[k])].violation_reported =
          outcome.weighted_sum > config_.global_threshold;
    }
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
  const int64_t window_epochs_ = VirtualWindowEpochs(config_.num_sites);
  const std::vector<int64_t> no_fallbacks_;
  // The kill-worker chaos; its fire epoch is -1 on a healthy run.
  const ResolvedChaos chaos_ =
      ResolveChaos(config_.chaos, num_epochs_, transport_->num_workers());
  ShardLayout layout_;
  // Window buffers, O(L·N) at most and reused across windows.
  std::vector<Envelope> fanout_;  ///< This exchange's sends, in send order.
  std::vector<Envelope> range_;   ///< One FanOutRange, before it joins.
  std::vector<int64_t> epochs_;   ///< The window's epochs, ascending.
  /// The window's alarmed reports, by (epoch, site), and the next to replay.
  std::vector<ShardReply> reports_;
  size_t next_report_ = 0;
  std::vector<int64_t> polled_;      ///< The window's polled epochs.
  std::vector<char> fates_;          ///< PollFates' record, a row per poll.
  std::vector<ShardReply> answers_;  ///< One shard's poll answers.
  std::vector<int64_t> poll_values_;  ///< Polled values, a row per poll.
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
      inline_leg_.emplace(MakeContext(0));
      inline_leg_->Start(&leg_out_);
      ServeLegOut();
    } else {
      for (int s = 0; s < k_; ++s) {
        threads_.emplace_back(RunShardFree, MakeContext(s));
      }
    }
    while ((legs_done_ < k_ || partials_pending_ > 0) && run_error_.ok()) {
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
    // Every leg's exit has crossed the root box (or its inline leg stopped
    // on this thread), so the legs' writes to their slices are visible.
    for (int64_t u : out_->site_updates) {
      out_->total_updates += u;
    }
    return run_error_;
  }

 private:
  ShardContext MakeContext(int s) {
    return ShardContext{
        s,          layout_,    &config_,
        transport_, &root_box_, actor_.alarms_rx_,
        std::span<int64_t>(out_->site_updates)
            .subspan(static_cast<size_t>(layout_.ShardStart(s)),
                     static_cast<size_t>(layout_.ShardSize(s)))};
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
      case RootMsg::Kind::kLegDone:
        // The run's first done is the earliest leg's first, its last the
        // latest leg's last.
        first_done_ = legs_done_ == 0 ? msg.first_done
                                      : std::min(first_done_, msg.first_done);
        last_done_ = std::max(last_done_, msg.last_done);
        ++legs_done_;
        break;
      case RootMsg::Kind::kShardExit: {
        ++shard_exits_;
        const ShardReport& report = *msg.report;
        out_->total_alarms += report.alarms;
        actor_.counter_.Merge(report.messages);
        out_->reliability = out_->reliability + report.reliability;
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
  /// loop until its leg stops, so the inbox drains.
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
  ShardLayout layout_;
  Mailbox<RootMsg> root_box_{static_cast<size_t>(4 * k_ + 16)};
  std::vector<std::thread> threads_;
  std::optional<ShardFreeLeg> inline_leg_;
  /// Once per run: the first site done to the last, and Drain().
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
  int legs_done_ = 0;  ///< Legs whose every site reported done.
  Clock::time_point first_done_;  ///< The run's first site done.
  Clock::time_point last_done_;   ///< ... and its last.
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

#include "runtime/site_engine.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace dcv {
namespace {

/// Compact the pending outbox (erase the sent prefix) once the dead
/// prefix grows past this, so a long run with a slow coordinator never
/// accumulates an unbounded vector of already-sent envelopes.
constexpr size_t kCompactThreshold = 4096;

}  // namespace

Rng MakeSiteRng(uint64_t seed, int site) {
  // Mix the site id in with an odd multiplier (SplitMix64's increment) so
  // site k's stream is unrelated to site k+1's even for adjacent seeds; the
  // Rng constructor then SplitMix-expands the mixed seed into full state.
  uint64_t mixed =
      seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(site) + 1));
  return Rng(mixed);
}

SiteEngine::Config WorkerEngineConfig(int worker, int num_workers,
                                      int num_sites, const Trace* eval,
                                      int64_t synthetic_updates,
                                      const std::vector<int64_t>& thresholds) {
  SiteEngine::Config config;
  config.worker = worker;
  config.num_workers = num_workers;
  config.num_sites = num_sites;
  for (int site = worker; site < num_sites; site += num_workers) {
    config.thresholds.push_back(
        thresholds.empty() ? std::numeric_limits<int64_t>::max()
                           : thresholds[static_cast<size_t>(site)]);
    if (eval != nullptr) {
      config.series.push_back(eval->SiteSeries(site));
    }
  }
  config.synthetic_updates = eval == nullptr ? synthetic_updates : 0;
  return config;
}

SiteEngine::SiteEngine(Config config)
    : config_(std::move(config)),
      synthetic_(std::all_of(config_.series.begin(), config_.series.end(),
                             [](const auto& column) { return column.empty(); })),
      window_epochs_(VirtualWindowEpochs(config_.num_sites)),
      thresholds_(std::move(config_.thresholds)) {
  const size_t slots = thresholds_.size();
  values_.assign(slots, 0);
  cursors_.assign(slots, 0);
  if (synthetic_) {
    DCV_CHECK(config_.synthetic_max >= 0) << "synthetic_max must be >= 0";
    config_.series = {};
    span_ = static_cast<uint64_t>(config_.synthetic_max) + 1;
    reject_below_ = RejectBelow(span_);
    streams_.reserve(slots);
    for (size_t slot = 0; slot < slots; ++slot) {
      streams_.push_back(MakeSiteRng(config_.seed, SiteOf(slot)).state());
    }
  }
  if (config_.metrics != nullptr) {
    updates_counter_ = config_.metrics->counter("runtime/site/updates");
    alarms_counter_ = config_.metrics->counter("runtime/site/alarms");
  }
}

int SiteEngine::SlotOf(int32_t site) const {
  if (site < 0 || site >= config_.num_sites ||
      site % config_.num_workers != config_.worker) {
    return -1;
  }
  const int slot = site / config_.num_workers;
  return slot < static_cast<int>(num_slots()) ? slot : -1;
}

size_t SiteEngine::CoveredSlotEnd(const Envelope& e) const {
  // Owned sites are worker + slot * W; the ones below the covered end,
  // capped at the fabric (the end may come off the wire), are the slots
  // below ceil((end - worker) / W). `e.to` is owned, so end > worker.
  const int64_t end = std::min<int64_t>(CoveredEnd(e), config_.num_sites);
  const int64_t w = config_.num_workers;
  return std::min(num_slots(),
                  static_cast<size_t>((end - config_.worker + w - 1) / w));
}

int64_t SiteEngine::workload_size(size_t slot) const {
  return synthetic_ ? config_.synthetic_updates
                    : static_cast<int64_t>(config_.series[slot].size());
}

int64_t SiteEngine::ValueAt(size_t slot, int64_t index) {
  if (!synthetic_) {
    return config_.series[slot][static_cast<size_t>(index)];
  }
  // Synthetic stream: one draw per update, in stream order, from the
  // (seed, site)-derived stream owned by this slot — the same stream no
  // matter how slots interleave within a batch or across workers. It is
  // MakeSiteRng(seed, site).UniformInt(0, synthetic_max), draw for draw.
  return static_cast<int64_t>(
      XoshiroBounded(streams_[slot], span_, reject_below_));
}

int64_t* SiteEngine::WindowRecord(size_t slot) {
  if (window_values_.empty()) {
    window_values_.assign(num_slots() * static_cast<size_t>(window_epochs_),
                          0);
  }
  return &window_values_[slot * static_cast<size_t>(window_epochs_)];
}

int64_t SiteEngine::PolledValue(size_t slot, int64_t epoch) const {
  if (epoch < window_first_ || epoch >= window_end_) {
    return values_[slot];
  }
  if (synthetic_) {
    return window_values_[slot * static_cast<size_t>(window_epochs_) +
                          static_cast<size_t>(epoch - window_first_)];
  }
  const std::vector<int64_t>& column = config_.series[slot];
  return epoch < static_cast<int64_t>(column.size())
             ? column[static_cast<size_t>(epoch)]
             : values_[slot];
}

bool SiteEngine::Observe(size_t slot, int64_t index, bool up) {
  const int64_t value = ValueAt(slot, index);
  values_[slot] = value;
  const bool alarmed = up && value > thresholds_[slot];
  if (alarmed) {
    ++tally_alarms_;
    DCV_OBS_EVENT(config_.recorder, obs::TraceEventKind::kLocalAlarm, index,
                  SiteOf(slot), value);
  }
  return alarmed;
}

void SiteEngine::FlushTally() {
  if (tally_updates_ == 0) {
    return;  // An alarm is always an update: nothing to add.
  }
  DCV_OBS_COUNT(updates_counter_, tally_updates_);
  DCV_OBS_COUNT(alarms_counter_, tally_alarms_);
  tally_updates_ = 0;
  tally_alarms_ = 0;
}

void SiteEngine::RunVirtual(Transport* transport) { Run(transport, {}); }

void SiteEngine::RunFree(Transport* transport) {
  std::vector<size_t> active(num_slots());
  std::iota(active.begin(), active.end(), size_t{0});
  Run(transport, std::move(active));
}

void SiteEngine::Run(Transport* transport, std::vector<size_t> active) {
  size_t shutdowns_pending = num_slots();
  std::vector<Envelope> inbox;
  std::vector<Envelope> pending;  ///< Unsent outbox suffix [pending_begin..).
  size_t pending_begin = 0;
  int64_t produced = 0;  ///< Updates produced since the last flush.
  bool closed = false;

  auto flush = [&]() {
    produced = 0;
    if (pending_begin < pending.size()) {
      pending_begin += transport->TrySendBatch(pending, pending_begin, &closed);
    }
    if (pending_begin == pending.size()) {
      pending.clear();
      pending_begin = 0;
    } else if (pending_begin >= kCompactThreshold) {
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<ptrdiff_t>(pending_begin));
      pending_begin = 0;
    }
  };

  auto reply = [&](size_t slot, ActorMsgKind kind, int64_t epoch,
                   int64_t value, bool flag = false) {
    pending.push_back(Envelope{
        SiteOf(slot), kCoordinatorId,
        ActorMessage{
            .epoch = epoch, .value = value, .kind = kind, .flag = flag}});
  };

  auto handle = [&](const Envelope& env) {
    const int owned = SlotOf(env.to);
    if (owned < 0) {
      return;
    }
    const size_t slot = static_cast<size_t>(owned);
    switch (env.msg.kind) {
      case ActorMsgKind::kEpochStart: {
        // A window [epoch, max(value, epoch + 1)) that may come off the
        // wire: capped at the slot's workload and at window_epochs_, and
        // dropped like an envelope for an unowned site when it starts
        // outside the workload. Every epoch is observed with the window's
        // up flag; each alarmed one and the last one are reported.
        const int64_t first = env.msg.epoch;
        const int64_t size = workload_size(slot);
        if (first < 0 || first >= size) {
          break;
        }
        const int64_t end =
            first + std::min({size - first, window_epochs_,
                              env.msg.value > first ? env.msg.value - first
                                                    : int64_t{1}});
        int64_t* const record = synthetic_ ? WindowRecord(slot) : nullptr;
        for (int64_t epoch = first; epoch < end; ++epoch) {
          const bool alarmed = Observe(slot, epoch, env.msg.flag);
          if (record != nullptr) {
            record[epoch - first] = values_[slot];
          }
          if (alarmed || epoch + 1 == end) {
            reply(slot, ActorMsgKind::kEpochReport, epoch,
                  alarmed ? values_[slot] : 0, alarmed);
          }
        }
        cursors_[slot] += end - first;
        tally_updates_ += end - first;
        window_first_ = first;
        window_end_ = end;
        break;
      }
      case ActorMsgKind::kPollRequest:
        if (env.msg.flag) {
          // Summed: one answer from the addressed site for its whole
          // range. Unsigned, so a range off the wire cannot overflow; the
          // launcher checks that every real sum fits in int64.
          uint64_t sum = 0;
          for (size_t s = slot, end = CoveredSlotEnd(env); s < end; ++s) {
            sum += static_cast<uint64_t>(values_[s]);
          }
          reply(slot, ActorMsgKind::kPollResponse, env.msg.epoch,
                static_cast<int64_t>(sum));
          break;
        }
        for (size_t s = slot, end = CoveredSlotEnd(env); s < end; ++s) {
          reply(s, ActorMsgKind::kPollResponse, env.msg.epoch,
                PolledValue(s, env.msg.epoch));
        }
        break;
      case ActorMsgKind::kShutdown:
        // Saturating: a second stop for a site (ranges can come off the
        // wire) must not wrap the count.
        shutdowns_pending -=
            std::min(shutdowns_pending, CoveredSlotEnd(env) - slot);
        break;
      default:
        break;
    }
  };

  auto drain_controls = [&]() {
    inbox.clear();
    const size_t got = transport->TryRecvWorkerAll(config_.worker, &inbox);
    for (const Envelope& e : inbox) {
      handle(e);
    }
    return got;
  };

  // The key deadlock-freedom invariant at scale: this loop NEVER blocks
  // on a send. Replies accumulate in `pending` and go out through
  // non-blocking TrySendBatch; when the coordinator inbox is full we keep
  // draining our own inbox (so a coordinator blocked fanning polls at this
  // worker always unblocks) and pause update production once `pending`
  // passes the high-water mark (backpressure without an unbounded queue).
  //
  // A pass sends only on the cadence of kSendRunEnvelopes/kSendRunUpdates,
  // or when its control drain owes the coordinator a reply: each send is
  // a lane lock and may wake a parked coordinator, so coalescing alarms
  // into runs is what keeps the engines off the coordinator's futex.
  while (!active.empty() && !closed) {
    FlushTally();
    const size_t owed = pending.size();
    drain_controls();
    if (pending.size() > owed ||
        pending.size() - pending_begin >= kSendRunEnvelopes ||
        produced >= kSendRunUpdates) {
      flush();
    }
    int64_t observed = 0;  ///< This pass's updates, tallied when it ends.
    for (size_t i = 0; i < active.size() && !closed;) {
      const size_t slot = active[i];
      if (cursors_[slot] >= workload_size(slot)) {
        reply(slot, ActorMsgKind::kSiteDone, cursors_[slot], cursors_[slot]);
        active[i] = active.back();
        active.pop_back();
      } else {
        const int64_t index = cursors_[slot]++;
        if (Observe(slot, index, /*up=*/true)) {
          reply(slot, ActorMsgKind::kAlarm, index, values_[slot]);
        }
        ++observed;
        ++produced;
        ++i;
      }
      while (!closed && pending.size() - pending_begin >= kOutboxCap) {
        const size_t backlog = pending.size() - pending_begin;
        const size_t got = drain_controls();
        flush();
        if (got == 0 && !pending.empty() &&
            pending.size() - pending_begin >= backlog) {
          std::this_thread::yield();
        }
      }
    }
    tally_updates_ += observed;
  }

  // No self-driven slot is left (a virtual engine has none): flush the
  // tail and keep answering the coordinator until every owned site has
  // been shut down — in virtual time every epoch start and poll, in free
  // running the polls of in-flight rounds.
  while (!closed && (shutdowns_pending > 0 || !pending.empty())) {
    flush();
    if (closed) {
      break;
    }
    if (pending.empty()) {
      if (shutdowns_pending == 0) {
        break;
      }
      // Nothing owed to the coordinator: block for control traffic.
      inbox.clear();
      if (transport->RecvWorkerAll(config_.worker, &inbox) == 0) {
        break;  // Closed and drained.
      }
      for (const Envelope& e : inbox) {
        handle(e);
      }
    } else if (drain_controls() == 0) {
      std::this_thread::yield();
    }
    FlushTally();
  }
  FlushTally();
}

}  // namespace dcv

#include "runtime/site_engine.h"

#include <numeric>
#include <thread>
#include <utility>

namespace dcv {
namespace {

/// Pending-outbox high-water mark: past this many unsent envelopes the
/// free-running loop stops producing updates and spins on drain+flush
/// until the coordinator catches up — backpressure with bounded memory,
/// without ever blocking on a send.
constexpr size_t kOutboxCap = 8192;

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

SiteEngine::SiteEngine(Config config) : config_(std::move(config)) {
  const size_t slots = config_.thresholds.size();
  thresholds_ = config_.thresholds;
  values_.assign(slots, 0);
  cursors_.assign(slots, 0);
  updates_.assign(slots, 0);
  if (config_.series.empty()) {
    config_.series.resize(slots);
  }
  rngs_.reserve(slots);
  for (size_t slot = 0; slot < slots; ++slot) {
    rngs_.push_back(MakeSiteRng(config_.seed, SiteOf(slot)));
  }
  if (config_.capture_updates) {
    captured_.resize(slots);
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

int64_t SiteEngine::workload_size(size_t slot) const {
  return config_.series[slot].empty()
             ? config_.synthetic_updates
             : static_cast<int64_t>(config_.series[slot].size());
}

int64_t SiteEngine::ValueAt(size_t slot, int64_t index) {
  if (!config_.series[slot].empty()) {
    return config_.series[slot][static_cast<size_t>(index)];
  }
  // Synthetic stream: one draw per update, in stream order, from the
  // (seed, site)-derived RNG owned by this slot — the same stream no
  // matter how slots interleave within a batch or across workers.
  return rngs_[slot].UniformInt(0, config_.synthetic_max);
}

ActorMessage SiteEngine::OnEpochStart(size_t slot, int64_t epoch, bool up) {
  const int64_t value = ValueAt(slot, epoch);
  values_[slot] = value;
  ++updates_[slot];
  DCV_OBS_COUNT(updates_counter_, 1);
  if (config_.capture_updates) {
    captured_[slot].push_back(value);
  }
  ActorMessage report;
  report.kind = ActorMsgKind::kEpochReport;
  report.epoch = epoch;
  const bool alarmed = up && value > thresholds_[slot];
  report.flag = alarmed;
  report.value = alarmed ? value : 0;
  if (alarmed) {
    DCV_OBS_COUNT(alarms_counter_, 1);
    DCV_OBS_EVENT(config_.recorder, obs::TraceEventKind::kLocalAlarm, epoch,
                  SiteOf(slot), value);
  }
  return report;
}

bool SiteEngine::NextUpdate(size_t slot, int64_t* value, bool* alarmed) {
  if (cursors_[slot] >= workload_size(slot)) {
    return false;
  }
  const int64_t v = ValueAt(slot, cursors_[slot]);
  values_[slot] = v;
  ++cursors_[slot];
  ++updates_[slot];
  DCV_OBS_COUNT(updates_counter_, 1);
  if (config_.capture_updates) {
    captured_[slot].push_back(v);
  }
  *value = v;
  *alarmed = v > thresholds_[slot];
  if (*alarmed) {
    DCV_OBS_COUNT(alarms_counter_, 1);
    DCV_OBS_EVENT(config_.recorder, obs::TraceEventKind::kLocalAlarm,
                  cursors_[slot] - 1, SiteOf(slot), v);
  }
  return true;
}

ActorMessage SiteEngine::OnPollRequest(size_t slot, int64_t epoch) const {
  ActorMessage response;
  response.kind = ActorMsgKind::kPollResponse;
  response.epoch = epoch;
  response.value = values_[slot];
  return response;
}

void SiteEngine::RunVirtual(Transport* transport) {
  size_t live = num_slots();
  std::vector<Envelope> inbox;
  std::vector<Envelope> outbox;
  while (live > 0) {
    inbox.clear();
    if (transport->RecvWorkerAll(config_.worker, &inbox) == 0) {
      break;  // Fabric closed.
    }
    outbox.clear();
    for (const Envelope& e : inbox) {
      const int slot = SlotOf(e.to);
      if (slot < 0) {
        continue;
      }
      switch (e.msg.kind) {
        case ActorMsgKind::kEpochStart:
          outbox.push_back(
              Envelope{SiteOf(static_cast<size_t>(slot)), kCoordinatorId,
                       OnEpochStart(static_cast<size_t>(slot), e.msg.epoch,
                                    e.msg.flag)});
          break;
        case ActorMsgKind::kPollRequest:
          outbox.push_back(
              Envelope{SiteOf(static_cast<size_t>(slot)), kCoordinatorId,
                       OnPollRequest(static_cast<size_t>(slot), e.msg.epoch)});
          break;
        case ActorMsgKind::kThresholdUpdate:
          thresholds_[static_cast<size_t>(slot)] = e.msg.value;
          break;
        case ActorMsgKind::kShutdown:
          --live;
          break;
        default:
          break;
      }
    }
    // One batched reply per drained burst. Blocking is safe here: shard
    // inbox capacity covers every in-flight report + poll response of an
    // epoch (2 per owned site + headroom), and the shard coordinator is
    // always in its receive loop.
    if (!outbox.empty() && !transport->SendBatch(outbox)) {
      break;
    }
  }
}

void SiteEngine::RunFree(Transport* transport) {
  size_t shutdowns_pending = num_slots();
  std::vector<size_t> active(num_slots());
  std::iota(active.begin(), active.end(), size_t{0});
  std::vector<Envelope> inbox;
  std::vector<Envelope> pending;  ///< Unsent outbox suffix [pending_begin..).
  size_t pending_begin = 0;
  bool closed = false;

  auto flush = [&]() {
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

  auto handle = [&](const Envelope& env) {
    const int slot = SlotOf(env.to);
    if (slot < 0) {
      return;
    }
    switch (env.msg.kind) {
      case ActorMsgKind::kPollRequest:
        pending.push_back(
            Envelope{SiteOf(static_cast<size_t>(slot)), kCoordinatorId,
                     OnPollRequest(static_cast<size_t>(slot), env.msg.epoch)});
        break;
      case ActorMsgKind::kThresholdUpdate:
        thresholds_[static_cast<size_t>(slot)] = env.msg.value;
        break;
      case ActorMsgKind::kShutdown:
        --shutdowns_pending;
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
  // on a send. Alarms/dones/poll responses accumulate in `pending` and go
  // out through non-blocking TrySendBatch; when the coordinator inbox is
  // full we keep draining our own inbox (so a coordinator blocked fanning
  // polls at this worker always unblocks) and pause update production
  // once `pending` passes the high-water mark (backpressure without an
  // unbounded queue).
  while (!active.empty() && !closed) {
    drain_controls();
    flush();
    for (size_t i = 0; i < active.size() && !closed;) {
      const size_t slot = active[i];
      int64_t value = 0;
      bool alarmed = false;
      if (!NextUpdate(slot, &value, &alarmed)) {
        ActorMessage done;
        done.kind = ActorMsgKind::kSiteDone;
        done.epoch = updates_[slot];
        done.value = updates_[slot];
        pending.push_back(Envelope{SiteOf(slot), kCoordinatorId, done});
        active[i] = active.back();
        active.pop_back();
      } else {
        if (alarmed) {
          ActorMessage alarm;
          alarm.kind = ActorMsgKind::kAlarm;
          alarm.epoch = updates_[slot] - 1;
          alarm.value = value;
          pending.push_back(Envelope{SiteOf(slot), kCoordinatorId, alarm});
        }
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
  }

  // Workloads drained; flush the alarm/done tail and keep answering polls
  // until every owned site has been shut down (the coordinator may still
  // be resolving in-flight rounds).
  while (!closed && (shutdowns_pending > 0 || !pending.empty())) {
    flush();
    if (closed) {
      break;
    }
    if (pending.empty()) {
      if (shutdowns_pending == 0) {
        break;
      }
      // Nothing owed to the coordinator: block for control traffic (polls
      // of in-flight rounds, then the kShutdown broadcast).
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
  }
}

}  // namespace dcv

#include "runtime/transport.h"

#include <algorithm>
#include <utility>

namespace dcv {

std::string_view ActorMsgKindName(ActorMsgKind kind) {
  switch (kind) {
    case ActorMsgKind::kEpochStart:
      return "epoch_start";
    case ActorMsgKind::kEpochReport:
      return "epoch_report";
    case ActorMsgKind::kShutdown:
      return "shutdown";
    case ActorMsgKind::kSiteDone:
      return "site_done";
    case ActorMsgKind::kAlarm:
      return "alarm";
    case ActorMsgKind::kPollRequest:
      return "poll_request";
    case ActorMsgKind::kPollResponse:
      return "poll_response";
    case ActorMsgKind::kThresholdUpdate:
      return "threshold_update";
  }
  return "unknown";
}

void FanOutRange(ActorMsgKind kind, int64_t epoch, int first, int end,
                 int num_workers, std::vector<Envelope>* out) {
  Envelope e{kCoordinatorId, first,
             ActorMessage{.epoch = epoch, .value = end, .kind = kind}};
  const int64_t last = std::min(CoveredEnd(e), int64_t{first} + num_workers);
  out->clear();
  for (; e.to < last; ++e.to) {
    out->push_back(e);
  }
}

Result<std::unique_ptr<ThreadTransport>> ThreadTransport::Create(
    int num_sites, int num_workers, size_t coordinator_capacity,
    size_t worker_capacity, int num_shards) {
  if (num_sites < 1) {
    return InvalidArgumentError("transport needs at least one site");
  }
  if (num_workers < 1 || num_workers > num_sites) {
    return InvalidArgumentError(
        "num_workers must be in [1, num_sites]");
  }
  DCV_ASSIGN_OR_RETURN(ShardLayout layout,
                       MakeShardLayout(num_sites, num_shards));
  return std::unique_ptr<ThreadTransport>(new ThreadTransport(
      std::move(layout), num_workers, coordinator_capacity, worker_capacity));
}

ThreadTransport::ThreadTransport(ShardLayout layout, int num_workers,
                                 size_t coordinator_capacity,
                                 size_t worker_capacity)
    : layout_(layout), num_workers_(num_workers) {
  if (coordinator_capacity == 0) {
    // Per-shard fan-in; one shard is the whole-coordinator 2N+16 formula.
    coordinator_capacity = CoordinatorInboxCapacity(layout_.MaxShardSites());
  }
  if (worker_capacity == 0) {
    worker_capacity = WorkerInboxCapacity(layout_.num_sites, num_workers);
  }
  const int num_shards = layout_.num_shards;
  // num_workers + 1 lanes. A thread pushes into lane ProducerIndex() %
  // lanes, and the producer index counts every thread that ever pushed into
  // a laned box, so the root may share a lane with an engine or a socket
  // reader: that costs contention, never order.
  shard_boxes_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_boxes_.push_back(std::make_unique<LanedMailbox<Envelope>>(
        static_cast<size_t>(num_workers) + 1, coordinator_capacity));
  }
  worker_boxes_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    worker_boxes_.push_back(std::make_unique<Mailbox<Envelope>>(worker_capacity));
  }
}

int ThreadTransport::InboxOf(const Envelope& e) const {
  if (e.to == kCoordinatorId) {
    return e.from >= 0 && e.from < layout_.num_sites ? ShardOf(e.from) : -1;
  }
  if (e.to < 0 || e.to >= layout_.num_sites) {
    return -1;
  }
  return static_cast<int>(shard_boxes_.size()) + WorkerOf(e.to);
}

Mailbox<Envelope>* ThreadTransport::PushBox(int inbox) {
  const size_t k = shard_boxes_.size();
  const size_t i = static_cast<size_t>(inbox);
  return i < k ? &shard_boxes_[i]->lane() : worker_boxes_[i - k].get();
}

bool ThreadTransport::Send(const Envelope& e) {
  const int inbox = InboxOf(e);
  return inbox >= 0 && PushBox(inbox)->Push(e);
}

bool ThreadTransport::SendBatch(const std::vector<Envelope>& batch) {
  // Group by destination mailbox so each box pays one PushAll per burst
  // instead of one Push per envelope. A coordinator fan-out over N sites
  // alternates workers every envelope (site % num_workers), so grouping —
  // not run-length detection — is what recovers the batching win. Order
  // within each group is batch order, preserving the per-producer FIFO
  // guarantee every barrier in the runtime leans on.
  // Groups are sized exactly first: a million-site fan-out's groups would
  // otherwise overshoot by up to 2x while they grow.
  std::vector<size_t> sizes(shard_boxes_.size() + worker_boxes_.size(), 0);
  for (const Envelope& e : batch) {
    const int inbox = InboxOf(e);
    if (inbox < 0) {
      return false;
    }
    ++sizes[static_cast<size_t>(inbox)];
  }
  std::vector<std::vector<Envelope>> to_box(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    to_box[i].reserve(sizes[i]);
  }
  for (const Envelope& e : batch) {
    to_box[static_cast<size_t>(InboxOf(e))].push_back(e);
  }
  for (size_t i = 0; i < to_box.size(); ++i) {
    if (!to_box[i].empty() &&
        !PushBox(static_cast<int>(i))->PushAll(std::move(to_box[i]))) {
      return false;
    }
  }
  return true;
}

size_t ThreadTransport::TrySendBatch(const std::vector<Envelope>& batch,
                                     size_t begin, bool* closed) {
  // Prefix semantics: stop at the first full/closed/unroutable destination
  // so the caller's retry cursor stays a plain offset. `*closed` flags the
  // permanent stop reasons (closed box, unroutable envelope) — a full box
  // leaves it false so the caller retries after draining its own inbox.
  // Each maximal run of envelopes bound for one inbox goes in with one
  // TryPushAll: one lock and one wake-up per run, not per envelope. An
  // engine's outbox is all coordinator-bound, so with one shard the whole
  // batch is a single run.
  size_t next = begin;
  while (next < batch.size()) {
    const int inbox = InboxOf(batch[next]);
    if (inbox < 0) {
      if (closed != nullptr) {
        *closed = true;
      }
      break;
    }
    size_t end = next + 1;
    while (end < batch.size() && InboxOf(batch[end]) == inbox) {
      ++end;
    }
    bool box_closed = false;
    const size_t pushed =
        PushBox(inbox)->TryPushAll(batch, next, end, &box_closed);
    next += pushed;
    if (next < end) {
      if (box_closed && closed != nullptr) {
        *closed = true;
      }
      break;
    }
  }
  return next - begin;
}

bool ThreadTransport::SendToShard(int shard, const Envelope& e) {
  if (shard < 0 || shard >= static_cast<int>(shard_boxes_.size())) {
    return false;
  }
  return shard_boxes_[static_cast<size_t>(shard)]->lane().Push(e);
}

bool ThreadTransport::TrySendToShard(int shard, const Envelope& e) {
  if (shard < 0 || shard >= static_cast<int>(shard_boxes_.size())) {
    return false;
  }
  return shard_boxes_[static_cast<size_t>(shard)]->lane().TryPush(e) ==
         MailboxPush::kOk;
}

bool ThreadTransport::RecvShard(int shard, Envelope* out) {
  return shard_boxes_[static_cast<size_t>(shard)]->Pop(out);
}

bool ThreadTransport::TryRecvShard(int shard, Envelope* out) {
  return shard_boxes_[static_cast<size_t>(shard)]->TryPop(out);
}

size_t ThreadTransport::RecvShardAll(int shard, std::vector<Envelope>* out) {
  return shard_boxes_[static_cast<size_t>(shard)]->PopAll(out);
}

size_t ThreadTransport::RecvShardAllFor(int shard, std::vector<Envelope>* out,
                                        int64_t timeout_ms, bool* timed_out) {
  return shard_boxes_[static_cast<size_t>(shard)]->PopAllFor(out, timeout_ms,
                                                             timed_out);
}

bool ThreadTransport::RecvWorker(int worker, Envelope* out) {
  return worker_boxes_[static_cast<size_t>(worker)]->Pop(out);
}

bool ThreadTransport::TryRecvWorker(int worker, Envelope* out) {
  return worker_boxes_[static_cast<size_t>(worker)]->TryPop(out);
}

size_t ThreadTransport::RecvWorkerAll(int worker, std::vector<Envelope>* out) {
  return worker_boxes_[static_cast<size_t>(worker)]->PopAll(out);
}

size_t ThreadTransport::TryRecvWorkerAll(int worker,
                                         std::vector<Envelope>* out) {
  return worker_boxes_[static_cast<size_t>(worker)]->TryPopAll(out);
}

void ThreadTransport::Shutdown() {
  for (auto& box : shard_boxes_) {
    box->Close();
  }
  for (auto& box : worker_boxes_) {
    box->Close();
  }
}

}  // namespace dcv

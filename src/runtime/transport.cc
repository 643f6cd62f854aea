#include "runtime/transport.h"

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
    case ActorMsgKind::kPing:
      return "ping";
  }
  return "unknown";
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
  if (coordinator_capacity == 0) {
    // Per-shard fan-in; one shard is the whole-coordinator 2N+16 formula.
    coordinator_capacity = CoordinatorInboxCapacity(layout.MaxShardSites());
  }
  if (worker_capacity == 0) {
    worker_capacity = WorkerInboxCapacity(num_sites, num_workers);
  }
  return std::unique_ptr<ThreadTransport>(new ThreadTransport(
      layout, num_workers, coordinator_capacity, worker_capacity));
}

ThreadTransport::ThreadTransport(ShardLayout layout, int num_workers,
                                 size_t coordinator_capacity,
                                 size_t worker_capacity)
    : num_sites_(layout.num_sites), num_workers_(num_workers) {
  layouts_.push_back(std::make_unique<ShardLayout>(std::move(layout)));
  layout_ptr_.store(layouts_.back().get(), std::memory_order_release);
  const int num_shards = layouts_.back()->num_shards;
  shard_boxes_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_boxes_.push_back(
        std::make_unique<Mailbox<Envelope>>(coordinator_capacity));
  }
  worker_boxes_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    worker_boxes_.push_back(std::make_unique<Mailbox<Envelope>>(worker_capacity));
  }
}

bool ThreadTransport::Send(const Envelope& e) {
  if (e.to == kCoordinatorId) {
    if (e.from < 0 || e.from >= num_sites_) {
      return false;
    }
    return shard_boxes_[static_cast<size_t>(ShardOf(e.from))]->Push(e);
  }
  if (e.to < 0 || e.to >= num_sites_) {
    return false;
  }
  return worker_boxes_[static_cast<size_t>(WorkerOf(e.to))]->Push(e);
}

bool ThreadTransport::SendBatch(const std::vector<Envelope>& batch) {
  // Group by destination mailbox so each box pays one PushAll per burst
  // instead of one Push per envelope. A coordinator fan-out over N sites
  // alternates workers every envelope (site % num_workers), so grouping —
  // not run-length detection — is what recovers the batching win. Order
  // within each group is batch order, preserving the per-producer FIFO
  // guarantee every barrier in the runtime leans on.
  std::vector<std::vector<Envelope>> to_shard(shard_boxes_.size());
  std::vector<std::vector<Envelope>> to_worker(worker_boxes_.size());
  for (const Envelope& e : batch) {
    if (e.to == kCoordinatorId) {
      if (e.from < 0 || e.from >= num_sites_) {
        return false;
      }
      to_shard[static_cast<size_t>(ShardOf(e.from))].push_back(e);
    } else {
      if (e.to < 0 || e.to >= num_sites_) {
        return false;
      }
      to_worker[static_cast<size_t>(WorkerOf(e.to))].push_back(e);
    }
  }
  for (size_t s = 0; s < to_shard.size(); ++s) {
    if (!to_shard[s].empty() &&
        !shard_boxes_[s]->PushAll(std::move(to_shard[s]))) {
      return false;
    }
  }
  for (size_t w = 0; w < to_worker.size(); ++w) {
    if (!to_worker[w].empty() &&
        !worker_boxes_[w]->PushAll(std::move(to_worker[w]))) {
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
  size_t sent = 0;
  while (begin + sent < batch.size()) {
    const Envelope& e = batch[begin + sent];
    Mailbox<Envelope>* box = nullptr;
    if (e.to == kCoordinatorId) {
      if (e.from < 0 || e.from >= num_sites_) {
        if (closed != nullptr) {
          *closed = true;
        }
        break;
      }
      box = shard_boxes_[static_cast<size_t>(ShardOf(e.from))].get();
    } else {
      if (e.to < 0 || e.to >= num_sites_) {
        if (closed != nullptr) {
          *closed = true;
        }
        break;
      }
      box = worker_boxes_[static_cast<size_t>(WorkerOf(e.to))].get();
    }
    const MailboxPush push = box->TryPush(e);
    if (push != MailboxPush::kOk) {
      if (push == MailboxPush::kClosed && closed != nullptr) {
        *closed = true;
      }
      break;
    }
    ++sent;
  }
  return sent;
}

bool ThreadTransport::SendToShard(int shard, const Envelope& e) {
  if (shard < 0 || shard >= static_cast<int>(shard_boxes_.size())) {
    return false;
  }
  return shard_boxes_[static_cast<size_t>(shard)]->Push(e);
}

bool ThreadTransport::TrySendToShard(int shard, const Envelope& e) {
  if (shard < 0 || shard >= static_cast<int>(shard_boxes_.size())) {
    return false;
  }
  return shard_boxes_[static_cast<size_t>(shard)]->TryPush(e) ==
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

Status ThreadTransport::UpdateLayout(const ShardLayout& next) {
  std::lock_guard<std::mutex> lock(layout_mu_);
  const ShardLayout* live = current();
  if (next.num_sites != live->num_sites ||
      next.num_shards != live->num_shards) {
    return InvalidArgumentError(
        "layout update must keep the fabric shape (sites, shards)");
  }
  if (next.version <= live->version) {
    return InvalidArgumentError("layout update version must be newer than " +
                                std::to_string(live->version));
  }
  layouts_.push_back(std::make_unique<ShardLayout>(next));
  layout_ptr_.store(layouts_.back().get(), std::memory_order_release);
  return OkStatus();
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

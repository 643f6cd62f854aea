#ifndef DCV_RUNTIME_TRANSPORT_H_
#define DCV_RUNTIME_TRANSPORT_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/result.h"
#include "runtime/actor_message.h"
#include "runtime/mailbox.h"
#include "runtime/shard_layout.h"

namespace dcv {

/// Which message fabric carries the coordinator <-> site traffic.
enum class TransportKind {
  kThread,  ///< In-process bounded mailboxes (the default).
  kSocket,  ///< TCP: this process is the coordinator; site-worker processes
            ///< connect over loopback or the network (see site_worker.h).
};

/// Message fabric between the coordinator tree and the site workers:
/// opaque routed envelopes, a blocking receive per endpoint, an explicit
/// shutdown. The coordinator and site engines cannot tell its
/// implementations apart. There is one queue fabric, `ThreadTransport`
/// below (one bounded Mailbox per worker plus one laned inbox per shard
/// coordinator), and two kinds of pump: in-process, the engine threads
/// push into it and drain it directly; `SocketTransport` (TCP, one
/// connection per worker process; see socket_transport.h) is the same
/// fabric whose engine side is a socket, with reader and writer threads
/// moving envelopes between its boxes and the wire.
///
/// Sites are multiplexed onto workers round-robin: `WorkerOf(site)` names
/// the worker inbox a site-addressed envelope lands in (how `dcvtool run
/// --threads` maps N sites onto K threads).
///
/// Coordinator-bound traffic is fanned across `num_shards` shard inboxes:
/// a site-to-coordinator envelope lands in shard `ShardOf(e.from)`'s inbox
/// (contiguous balanced ranges; see shard_layout.h). With num_shards == 1
/// — the default — shard 0's inbox is the single coordinator inbox.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_sites() const = 0;
  virtual int num_workers() const = 0;
  virtual int WorkerOf(int site) const = 0;

  virtual int num_shards() const = 0;
  virtual int ShardOf(int site) const = 0;

  /// Routes by e.to; blocks when the destination inbox is full
  /// (backpressure). Returns false iff the destination is closed.
  /// Coordinator-bound envelopes (e.to == kCoordinatorId) land in shard
  /// ShardOf(e.from)'s inbox.
  virtual bool Send(const Envelope& e) = 0;

  /// Batched Send: routes every envelope exactly as Send would (per-
  /// destination FIFO order preserved — envelopes to the same inbox land in
  /// batch order), but implementations amortize locking/framing across the
  /// batch: the thread transport groups by destination mailbox and pays one
  /// mutex round trip per box per burst (Mailbox::PushAll); over a socket,
  /// the writer then frames each drained burst as kEnvelopeBatch frames.
  /// Blocks on full inboxes like Send; returns false iff a destination was
  /// closed or an envelope was unroutable (a prefix may have been
  /// delivered, exactly as a loop of Sends interrupted mid-way).
  virtual bool SendBatch(const std::vector<Envelope>& batch) {
    for (const Envelope& e : batch) {
      if (!Send(e)) {
        return false;
      }
    }
    return true;
  }

  /// Non-blocking SendBatch: consumes the longest routable prefix of
  /// batch[begin..] that fits right now and returns its length. The
  /// site engine uses this for data-plane pushes so a worker
  /// never blocks on a full coordinator inbox while the coordinator blocks
  /// fanning out to that worker — the classic A/B full-mailbox deadlock;
  /// the engine keeps the unsent suffix and retries after draining its own
  /// inbox. When the stop reason is permanent — destination closed or
  /// envelope unroutable — `*closed` (if non-null) is set so the caller
  /// stops retrying a dead fabric; a plain full inbox leaves it false.
  /// Base transports without a non-blocking path may block (they fall back
  /// to Send); ThreadTransport, and with it the socket transport,
  /// overrides this.
  virtual size_t TrySendBatch(const std::vector<Envelope>& batch, size_t begin,
                              bool* closed = nullptr) {
    size_t sent = 0;
    while (begin + sent < batch.size()) {
      if (!Send(batch[begin + sent])) {
        if (closed != nullptr) {
          *closed = true;
        }
        break;
      }
      ++sent;
    }
    return sent;
  }

  /// Injects a root-aggregator command (poll kick, shutdown) directly into
  /// a shard coordinator's inbox, bypassing site routing. Local to the
  /// coordinator process — never crosses the wire, so the socket transport
  /// needs no new frame types for it. Blocks while the inbox is full: the
  /// free-running root sends every command this way, since each shard
  /// thread stays in its receive loop (a crashed leg is replaced on the
  /// same thread) and so drains its inbox. Returns false iff the inbox is
  /// closed.
  virtual bool SendToShard(int shard, const Envelope& e) = 0;

  /// Non-blocking SendToShard: queues the command iff the inbox has room
  /// right now; false = full or closed, nothing was queued.
  ///
  /// This, RecvShard, TryRecvShard, RecvShardAllFor, layout and
  /// UpdateLayout have no caller in the runtime: it receives shard inboxes
  /// only through RecvShardAll and commands them only through SendToShard.
  /// They stay because perfbench's TimedTransport and its bench fakes
  /// override them.
  virtual bool TrySendToShard(int shard, const Envelope& e) = 0;

  /// Blocking receive on one shard coordinator inbox; false = closed and
  /// drained.
  virtual bool RecvShard(int shard, Envelope* out) = 0;
  virtual bool TryRecvShard(int shard, Envelope* out) = 0;

  /// Batch drain of one shard inbox: blocks for the first message, then
  /// moves every queued message (for the thread transport, one lock per
  /// non-empty lane). Appends to `out`; 0 = closed and drained.
  virtual size_t RecvShardAll(int shard, std::vector<Envelope>* out) = 0;

  /// RecvShardAll with a deadline: waits at most `timeout_ms` for the first
  /// message. 0 with `*timed_out = true` means the deadline expired; 0 with
  /// `*timed_out = false` means closed and drained.
  virtual size_t RecvShardAllFor(int shard, std::vector<Envelope>* out,
                                 int64_t timeout_ms, bool* timed_out) = 0;

  /// Blocking receive on a worker inbox; false = closed and drained.
  virtual bool RecvWorker(int worker, Envelope* out) = 0;
  virtual bool TryRecvWorker(int worker, Envelope* out) = 0;

  /// Batch drain of a worker inbox — the worker-side mirror of
  /// RecvShardAll: blocks for the first message, then moves every queued
  /// message. Appends to `out`; 0 = closed and drained. The default
  /// composes RecvWorker + TryRecvWorker; mailbox-backed transports
  /// override with Mailbox::PopAll (one lock per burst).
  virtual size_t RecvWorkerAll(int worker, std::vector<Envelope>* out) {
    Envelope e;
    if (!RecvWorker(worker, &e)) {
      return 0;
    }
    out->push_back(e);
    size_t moved = 1;
    while (TryRecvWorker(worker, &e)) {
      out->push_back(e);
      ++moved;
    }
    return moved;
  }

  /// Non-blocking batch drain of a worker inbox; 0 = nothing immediately
  /// available (says nothing about the box being closed).
  virtual size_t TryRecvWorkerAll(int worker, std::vector<Envelope>* out) {
    Envelope e;
    size_t moved = 0;
    while (TryRecvWorker(worker, &e)) {
      out->push_back(e);
      ++moved;
    }
    return moved;
  }

  /// Closes every inbox (receivers drain, then their Recv returns false).
  virtual void Shutdown() = 0;

  /// The site->shard assignment, fixed for the life of the transport.
  virtual ShardLayout layout() const = 0;

  /// A run's layout never changes, so no transport in the runtime
  /// implements this; it stays only so an overriding decorator still
  /// compiles. Always Unimplemented.
  virtual Status UpdateLayout(const ShardLayout& next) {
    (void)next;
    return UnimplementedError("transport does not support layout updates");
  }

  /// Test/chaos hook: forcibly severs the link to one worker, simulating a
  /// worker crash or network partition (for the socket transport, a hard
  /// shutdown of the TCP connection). Transports without a severable link
  /// report Unimplemented.
  virtual Status InjectPeerFailure(int worker) {
    (void)worker;
    return UnimplementedError("transport has no severable worker links");
  }
};

/// The one fan-out of a range message (kPollRequest or kShutdown, see
/// CoveredEnd) over the sites [first, end), first < end: replaces `out`
/// with a `kind` message stamped `epoch` to each of the first
/// min(num_workers, end - first) sites of the range, each with value =
/// end. Sites are dealt to workers round-robin (WorkerOf), so those are
/// the first owned sites of as many distinct workers, and each envelope
/// covers every site its worker owns in the range: a poll or shutdown
/// fan-out is O(workers) envelopes, not O(sites).
void FanOutRange(ActorMsgKind kind, int64_t epoch, int first, int end,
                 int num_workers, std::vector<Envelope>* out);

/// Auto mailbox capacities (DESIGN §8). Each lane of a coordinator
/// (shard) inbox fed by `sites` sites holds 2 messages per site plus root
/// commands. In free running that bounds how far the engines run ahead of
/// the root; a virtual window's replies may outnumber it and wait in the
/// engines' outboxes (no engine blocks on a send) while the root drains
/// that very shard.
inline size_t CoordinatorInboxCapacity(int sites) {
  return 2 * static_cast<size_t>(sites) + 16;
}

/// The lane capacity an in-process virtual-time run gives a shard inbox
/// fed by `sites` of its `num_sites` sites: one exchange's replies for the
/// shard, up to VirtualWindowEpochs(num_sites) per site (a window's
/// reports, or a poll fetch's answers), plus root commands, and never less
/// than the free-running formula. An exchange then lands whole while the
/// root drains, so no engine idles on a full lane. The memory is what one
/// exchange sends, O(L·N) in all, since a box grows only as it fills. (A
/// socket coordinator keeps CoordinatorInboxCapacity: its readers, not the
/// engines, wait on a full lane.)
inline size_t VirtualInboxCapacity(int num_sites, int sites) {
  const size_t window = static_cast<size_t>(VirtualWindowEpochs(num_sites));
  return std::max(CoordinatorInboxCapacity(sites),
                  window * static_cast<size_t>(sites) + 16);
}

/// The most sites one worker owns under round-robin ownership:
/// ceil(sites / workers).
inline int MaxWorkerSites(int num_sites, int num_workers) {
  return (num_sites + num_workers - 1) / num_workers;
}

/// A worker inbox serves MaxWorkerSites sites. In virtual time the root
/// collects every exchange before it sends the next, so the inbox holds at
/// most one window's epoch starts (one per owned site), or one shard's poll
/// fetch (a range request per polled epoch, at most VirtualWindowEpochs),
/// plus the shutdown. In free running each leg has at most one range poll
/// and one range shutdown in flight at a worker (FanOutRange), and a
/// worker meets at most one leg per owned site. 2 per owned site plus the
/// window covers both.
inline size_t WorkerInboxCapacity(int num_sites, int num_workers) {
  return 2 * static_cast<size_t>(MaxWorkerSites(num_sites, num_workers)) +
         static_cast<size_t>(VirtualWindowEpochs(num_sites));
}

/// The queue fabric over bounded mailboxes: one per worker, and one laned
/// inbox per shard coordinator (LanedMailbox, num_workers + 1 lanes, so
/// its producers spread over several locks instead of sharing one). A
/// thread pushes into lane ProducerIndex() % lanes; the index is
/// process-wide, so two producers — the root and an engine, say — may
/// share a lane. In-process, engine threads and shard coordinators use it
/// directly; SocketTransport derives from it and pumps the same boxes over
/// TCP. Capacity invariants the runtime relies on to stay deadlock-free
/// with blocking sends:
///
///  * the coordinator tree never blocks on a worker inbox: worker
///    capacity covers everything that can be in flight to a worker
///    (WorkerInboxCapacity);
///  * a sender may block pushing into a shard inbox (a socket reader's
///    SendBatch; an engine never blocks, it retries TrySendBatch), but
///    every shard coordinator is always in its receive loop, so the box
///    drains. Each lane alone holds the per-shard formula, so a
///    blocked sender waits only for its own lane. The root's SendToShard
///    commands ride the same guarantee. The virtual root drains one shard
///    at a time, so each of its exchanges is shaped for that: a window's
///    replies leave every worker in shard order, and a poll fetch is one
///    exchange per shard, so no reply to the shard being drained waits
///    behind one to another shard's full lane.
class ThreadTransport : public Transport {
 public:
  /// `coordinator_capacity` 0 = auto (2 * max-sites-per-shard + 16; with
  /// one shard that is the historical 2 * num_sites + 16).
  /// `worker_capacity` 0 = auto (WorkerInboxCapacity).
  static Result<std::unique_ptr<ThreadTransport>> Create(
      int num_sites, int num_workers, size_t coordinator_capacity = 0,
      size_t worker_capacity = 0, int num_shards = 1);

  int num_sites() const override { return layout_.num_sites; }
  int num_workers() const override { return num_workers_; }
  int WorkerOf(int site) const override { return site % num_workers_; }
  int num_shards() const override { return layout_.num_shards; }
  int ShardOf(int site) const override { return layout_.ShardOf(site); }

  bool Send(const Envelope& e) override;
  bool SendBatch(const std::vector<Envelope>& batch) override;
  size_t TrySendBatch(const std::vector<Envelope>& batch, size_t begin,
                      bool* closed = nullptr) override;
  bool SendToShard(int shard, const Envelope& e) override;
  bool TrySendToShard(int shard, const Envelope& e) override;
  bool RecvShard(int shard, Envelope* out) override;
  bool TryRecvShard(int shard, Envelope* out) override;
  size_t RecvShardAll(int shard, std::vector<Envelope>* out) override;
  size_t RecvShardAllFor(int shard, std::vector<Envelope>* out,
                         int64_t timeout_ms, bool* timed_out) override;
  bool RecvWorker(int worker, Envelope* out) override;
  bool TryRecvWorker(int worker, Envelope* out) override;
  size_t RecvWorkerAll(int worker, std::vector<Envelope>* out) override;
  size_t TryRecvWorkerAll(int worker, std::vector<Envelope>* out) override;
  void Shutdown() override;
  ShardLayout layout() const override { return layout_; }

  /// Capacity of each lane of each shard coordinator inbox (identical
  /// across shards; the formula uses the most-loaded shard's site count).
  size_t coordinator_capacity() const {
    return shard_boxes_[0]->lane_capacity();
  }

  /// Capacity of each worker inbox (identical across workers; with uneven
  /// site division the formula uses ceil(sites/workers), so the most-loaded
  /// worker still fits its worst case).
  size_t worker_capacity() const {
    return worker_boxes_.empty() ? 0 : worker_boxes_[0]->capacity();
  }

 protected:
  /// `coordinator_capacity` and `worker_capacity` 0 = auto (the Create
  /// formulas).
  ThreadTransport(ShardLayout layout, int num_workers,
                  size_t coordinator_capacity = 0, size_t worker_capacity = 0);

  LanedMailbox<Envelope>& shard_box(int shard) {
    return *shard_boxes_[static_cast<size_t>(shard)];
  }
  Mailbox<Envelope>& worker_box(int worker) {
    return *worker_boxes_[static_cast<size_t>(worker)];
  }

 private:
  /// The inbox `e` routes to: shard s is s, worker w is num_shards + w;
  /// -1 = unroutable.
  int InboxOf(const Envelope& e) const;
  /// Inbox `inbox` (from InboxOf) as the calling thread pushes into it:
  /// for a shard inbox, the thread's lane.
  Mailbox<Envelope>* PushBox(int inbox);

  const ShardLayout layout_;
  int num_workers_;
  std::vector<std::unique_ptr<LanedMailbox<Envelope>>> shard_boxes_;
  std::vector<std::unique_ptr<Mailbox<Envelope>>> worker_boxes_;
};

}  // namespace dcv

#endif  // DCV_RUNTIME_TRANSPORT_H_

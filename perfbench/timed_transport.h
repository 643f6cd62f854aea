#ifndef PERFBENCH_TIMED_TRANSPORT_H_
#define PERFBENCH_TIMED_TRANSPORT_H_

// The traced run's instrument: a Transport decorator that forwards every
// call to the wrapped transport and times it, recording into a per-thread
// ledger. Every layer boundary the benchmark can see from outside the
// program is a transport call — site engines and coordinators talk only
// through it — so a thread's time splits into time inside transport calls
// (sends, blocking receives, non-blocking receives) and the layer's own
// time around them. Spans stay in memory (a bounded ring per thread) and
// are written out as a Chrome trace when the run ends.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/transport.h"

namespace perfbench {

/// The layer a thread belongs to.
enum class Role {
  kSiteEngine,   ///< A worker thread running SiteEngine::Run*.
  kCoordinator,  ///< Drains coordinator inboxes: the flat coordinator, or
                 ///< one shard coordinator of a two-level tree.
  kRoot,         ///< The root of a two-level tree (talks to its shards
                 ///< through its own mailbox, so only its commands show).
};

/// Transport call families.
enum class CallKind {
  kSend,     ///< Send, SendBatch, SendToShard (may block on a full inbox).
  kTrySend,  ///< TrySendBatch, TrySendToShard.
  kWait,     ///< Blocking receives: the caller has nothing else to do.
  kTryRecv,  ///< Non-blocking receives.
};
inline constexpr int kNumCallKinds = 4;

struct Span {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  CallKind kind = CallKind::kSend;
  int64_t envs = 0;
};

/// One thread's totals. Written only by its thread; read after it joined.
struct ThreadLedger {
  Role role = Role::kCoordinator;
  int index = -1;
  bool owned = false;     ///< Started by the benchmark (BeginThread).
  int64_t begin_ns = -1;  ///< Window: run-loop start (or first call) ...
  int64_t end_ns = 0;     ///< ... to run-loop end (or last call).
  /// Thread CPU time at the first and last sample, and the ledger times
  /// of those samples. Sampled at most once a millisecond inside calls,
  /// and exactly at BeginThread / EndThread.
  int64_t cpu_first_ns = -1;
  int64_t cpu_last_ns = 0;
  int64_t cpu_first_at_ns = 0;
  int64_t cpu_last_at_ns = 0;
  std::array<int64_t, kNumCallKinds> calls{};
  std::array<int64_t, kNumCallKinds> hits{};  ///< Calls that moved >= 1.
  std::array<int64_t, kNumCallKinds> ns{};
  std::array<int64_t, kNumCallKinds> envs{};
  int64_t short_sends = 0;  ///< TrySendBatch calls that took less than offered.
  std::vector<Span> ring;
  size_t spans = 0;  ///< Spans recorded; the ring keeps the newest.

  int64_t window_ns() const { return end_ns - begin_ns; }
  int64_t transport_ns() const;
};

class Ledger {
 public:
  explicit Ledger(size_t spans_per_thread = 4096);
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Threads the benchmark starts call these around their run loop; the
  /// window is then exactly the loop. Other threads (a tree's shard
  /// coordinators) are registered as kCoordinator on their first call, and
  /// their window runs from their first call to their last.
  void BeginThread(Role role, int index);
  void EndThread();

  /// Nanoseconds since the ledger was made.
  int64_t Now() const;

  /// Adds one timed call to the calling thread's record.
  void Record(CallKind kind, int64_t start_ns, int64_t end_ns, int64_t envs,
              bool short_send = false);

  /// Every thread's record. Call once all recording threads have joined.
  std::vector<const ThreadLedger*> threads() const;

  /// The spans as a Chrome trace document (chrome://tracing, Perfetto):
  /// one lane per thread, the run loop as the parent span, transport calls
  /// as its children.
  std::string ChromeTrace() const;

 private:
  ThreadLedger* Current();
  void SampleCpu(ThreadLedger* t, int64_t now_ns);

  const uint64_t id_;  ///< Tells this ledger's threads from an earlier one's.
  const size_t spans_per_thread_;
  const int64_t origin_ns_;
  std::mutex mu_;  ///< Guards threads_ (registration only).
  std::vector<std::unique_ptr<ThreadLedger>> threads_;
};

/// Forwards to `inner`, timing every call into `ledger`.
class TimedTransport : public dcv::Transport {
 public:
  TimedTransport(dcv::Transport* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  int num_sites() const override { return inner_->num_sites(); }
  int num_workers() const override { return inner_->num_workers(); }
  int WorkerOf(int site) const override { return inner_->WorkerOf(site); }
  int num_shards() const override { return inner_->num_shards(); }
  int ShardOf(int site) const override { return inner_->ShardOf(site); }
  dcv::ShardLayout layout() const override { return inner_->layout(); }

  bool Send(const dcv::Envelope& e) override;
  bool SendBatch(const std::vector<dcv::Envelope>& batch) override;
  size_t TrySendBatch(const std::vector<dcv::Envelope>& batch, size_t begin,
                      bool* closed = nullptr) override;
  bool SendToShard(int shard, const dcv::Envelope& e) override;
  bool TrySendToShard(int shard, const dcv::Envelope& e) override;
  bool RecvShard(int shard, dcv::Envelope* out) override;
  bool TryRecvShard(int shard, dcv::Envelope* out) override;
  size_t RecvShardAll(int shard, std::vector<dcv::Envelope>* out) override;
  size_t RecvShardAllFor(int shard, std::vector<dcv::Envelope>* out,
                         int64_t timeout_ms, bool* timed_out) override;
  bool RecvWorker(int worker, dcv::Envelope* out) override;
  bool TryRecvWorker(int worker, dcv::Envelope* out) override;
  size_t RecvWorkerAll(int worker, std::vector<dcv::Envelope>* out) override;
  size_t TryRecvWorkerAll(int worker,
                          std::vector<dcv::Envelope>* out) override;
  void Shutdown() override { inner_->Shutdown(); }
  dcv::Status UpdateLayout(const dcv::ShardLayout& next) override {
    return inner_->UpdateLayout(next);
  }
  dcv::Status InjectPeerFailure(int worker) override {
    return inner_->InjectPeerFailure(worker);
  }

 private:
  dcv::Transport* inner_;
  Ledger* ledger_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_TRANSPORT_H_

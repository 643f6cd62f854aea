#include "timed_transport.h"

#include <time.h>

#include <atomic>
#include <chrono>

#include "obs/json_writer.h"

namespace perfbench {
namespace {

/// Thread CPU clock reads are system calls; inside calls the ledger reads
/// it at most this often per thread.
constexpr int64_t kCpuSampleNs = 1'000'000;

std::atomic<uint64_t> g_next_ledger_id{1};

/// The calling thread's record in the ledger with id `ledger_id`.
struct ThreadSlot {
  uint64_t ledger_id = 0;
  ThreadLedger* record = nullptr;
};
thread_local ThreadSlot tls_slot;

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

const char* RoleName(Role role) {
  switch (role) {
    case Role::kSiteEngine:
      return "site_engine";
    case Role::kCoordinator:
      return "coordinator";
    case Role::kRoot:
      return "root";
  }
  return "?";
}

const char* CallName(CallKind kind) {
  switch (kind) {
    case CallKind::kSend:
      return "transport.send";
    case CallKind::kTrySend:
      return "transport.try_send";
    case CallKind::kWait:
      return "transport.wait";
    case CallKind::kTryRecv:
      return "transport.try_recv";
  }
  return "?";
}

}  // namespace

int64_t ThreadLedger::transport_ns() const {
  int64_t total = 0;
  for (int64_t v : ns) {
    total += v;
  }
  return total;
}

Ledger::Ledger(size_t spans_per_thread)
    : id_(g_next_ledger_id.fetch_add(1)),
      spans_per_thread_(spans_per_thread),
      origin_ns_(SteadyNs()) {}

int64_t Ledger::Now() const { return SteadyNs() - origin_ns_; }

ThreadLedger* Ledger::Current() {
  if (tls_slot.ledger_id == id_) {
    return tls_slot.record;
  }
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadLedger>());
  ThreadLedger* t = threads_.back().get();
  t->index = static_cast<int>(threads_.size()) - 1;
  t->ring.resize(spans_per_thread_);
  tls_slot = ThreadSlot{id_, t};
  return t;
}

void Ledger::SampleCpu(ThreadLedger* t, int64_t now_ns) {
  const int64_t cpu = ThreadCpuNs();
  if (t->cpu_first_ns < 0) {
    t->cpu_first_ns = cpu;
    t->cpu_first_at_ns = now_ns;
  }
  t->cpu_last_ns = cpu;
  t->cpu_last_at_ns = now_ns;
}

void Ledger::BeginThread(Role role, int index) {
  ThreadLedger* t = Current();
  t->role = role;
  t->index = index;
  t->owned = true;
  t->begin_ns = Now();
  SampleCpu(t, t->begin_ns);
}

void Ledger::EndThread() {
  ThreadLedger* t = Current();
  t->end_ns = Now();
  SampleCpu(t, t->end_ns);
}

void Ledger::Record(CallKind kind, int64_t start_ns, int64_t end_ns,
                    int64_t envs, bool short_send) {
  ThreadLedger* t = Current();
  const size_t k = static_cast<size_t>(kind);
  ++t->calls[k];
  t->ns[k] += end_ns - start_ns;
  t->envs[k] += envs;
  if (envs > 0) {
    ++t->hits[k];
  }
  if (short_send) {
    ++t->short_sends;
  }
  if (!t->owned) {
    if (t->begin_ns < 0) {
      t->begin_ns = start_ns;
    }
    t->end_ns = end_ns;
  }
  if (!t->ring.empty()) {
    t->ring[t->spans % t->ring.size()] =
        Span{start_ns, end_ns - start_ns, kind, envs};
  }
  ++t->spans;
  if (t->cpu_first_ns < 0 || end_ns - t->cpu_last_at_ns >= kCpuSampleNs) {
    SampleCpu(t, end_ns);
  }
}

std::vector<const ThreadLedger*> Ledger::threads() const {
  std::vector<const ThreadLedger*> out;
  for (const auto& t : threads_) {
    out.push_back(t.get());
  }
  return out;
}

std::string Ledger::ChromeTrace() const {
  dcv::obs::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  int tid = 0;
  for (const auto& t : threads_) {
    ++tid;
    const std::string lane =
        std::string(RoleName(t->role)) + " " + std::to_string(t->index);
    w.BeginObject();
    w.Key("name").Value("thread_name");
    w.Key("ph").Value("M");
    w.Key("pid").Value(int64_t{1});
    w.Key("tid").Value(static_cast<int64_t>(tid));
    w.Key("args").BeginObject().Key("name").Value(lane).EndObject();
    w.EndObject();
    auto span = [&](const char* name, int64_t start_ns, int64_t dur_ns,
                    int64_t envs) {
      w.BeginObject();
      w.Key("name").Value(name);
      w.Key("ph").Value("X");
      w.Key("pid").Value(int64_t{1});
      w.Key("tid").Value(static_cast<int64_t>(tid));
      w.Key("ts").Value(static_cast<double>(start_ns) / 1000.0);
      w.Key("dur").Value(static_cast<double>(dur_ns) / 1000.0);
      if (envs >= 0) {
        w.Key("args").BeginObject().Key("envs").Value(envs).EndObject();
      }
      w.EndObject();
    };
    const std::string loop = std::string(RoleName(t->role)) + ".run";
    span(loop.c_str(), t->begin_ns, t->window_ns(), -1);
    const size_t cap = t->ring.size();
    const size_t kept = t->spans < cap ? t->spans : cap;
    for (size_t i = t->spans - kept; i < t->spans; ++i) {
      const Span& s = t->ring[i % cap];
      span(CallName(s.kind), s.start_ns, s.dur_ns, s.envs);
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

bool TimedTransport::Send(const dcv::Envelope& e) {
  const int64_t start = ledger_->Now();
  const bool ok = inner_->Send(e);
  ledger_->Record(CallKind::kSend, start, ledger_->Now(), ok ? 1 : 0);
  return ok;
}

bool TimedTransport::SendBatch(const std::vector<dcv::Envelope>& batch) {
  const int64_t start = ledger_->Now();
  const bool ok = inner_->SendBatch(batch);
  ledger_->Record(CallKind::kSend, start, ledger_->Now(),
                  ok ? static_cast<int64_t>(batch.size()) : 0);
  return ok;
}

size_t TimedTransport::TrySendBatch(const std::vector<dcv::Envelope>& batch,
                                    size_t begin, bool* closed) {
  const int64_t start = ledger_->Now();
  const size_t sent = inner_->TrySendBatch(batch, begin, closed);
  ledger_->Record(CallKind::kTrySend, start, ledger_->Now(),
                  static_cast<int64_t>(sent), begin + sent < batch.size());
  return sent;
}

bool TimedTransport::SendToShard(int shard, const dcv::Envelope& e) {
  const int64_t start = ledger_->Now();
  const bool ok = inner_->SendToShard(shard, e);
  ledger_->Record(CallKind::kSend, start, ledger_->Now(), ok ? 1 : 0);
  return ok;
}

bool TimedTransport::TrySendToShard(int shard, const dcv::Envelope& e) {
  const int64_t start = ledger_->Now();
  const bool ok = inner_->TrySendToShard(shard, e);
  ledger_->Record(CallKind::kTrySend, start, ledger_->Now(), ok ? 1 : 0, !ok);
  return ok;
}

bool TimedTransport::RecvShard(int shard, dcv::Envelope* out) {
  const int64_t start = ledger_->Now();
  const bool ok = inner_->RecvShard(shard, out);
  ledger_->Record(CallKind::kWait, start, ledger_->Now(), ok ? 1 : 0);
  return ok;
}

bool TimedTransport::TryRecvShard(int shard, dcv::Envelope* out) {
  const int64_t start = ledger_->Now();
  const bool ok = inner_->TryRecvShard(shard, out);
  ledger_->Record(CallKind::kTryRecv, start, ledger_->Now(), ok ? 1 : 0);
  return ok;
}

size_t TimedTransport::RecvShardAll(int shard,
                                    std::vector<dcv::Envelope>* out) {
  const int64_t start = ledger_->Now();
  const size_t n = inner_->RecvShardAll(shard, out);
  ledger_->Record(CallKind::kWait, start, ledger_->Now(),
                  static_cast<int64_t>(n));
  return n;
}

size_t TimedTransport::RecvShardAllFor(int shard,
                                       std::vector<dcv::Envelope>* out,
                                       int64_t timeout_ms, bool* timed_out) {
  const int64_t start = ledger_->Now();
  const size_t n = inner_->RecvShardAllFor(shard, out, timeout_ms, timed_out);
  ledger_->Record(CallKind::kWait, start, ledger_->Now(),
                  static_cast<int64_t>(n));
  return n;
}

bool TimedTransport::RecvWorker(int worker, dcv::Envelope* out) {
  const int64_t start = ledger_->Now();
  const bool ok = inner_->RecvWorker(worker, out);
  ledger_->Record(CallKind::kWait, start, ledger_->Now(), ok ? 1 : 0);
  return ok;
}

bool TimedTransport::TryRecvWorker(int worker, dcv::Envelope* out) {
  const int64_t start = ledger_->Now();
  const bool ok = inner_->TryRecvWorker(worker, out);
  ledger_->Record(CallKind::kTryRecv, start, ledger_->Now(), ok ? 1 : 0);
  return ok;
}

size_t TimedTransport::RecvWorkerAll(int worker,
                                     std::vector<dcv::Envelope>* out) {
  const int64_t start = ledger_->Now();
  const size_t n = inner_->RecvWorkerAll(worker, out);
  ledger_->Record(CallKind::kWait, start, ledger_->Now(),
                  static_cast<int64_t>(n));
  return n;
}

size_t TimedTransport::TryRecvWorkerAll(int worker,
                                        std::vector<dcv::Envelope>* out) {
  const int64_t start = ledger_->Now();
  const size_t n = inner_->TryRecvWorkerAll(worker, out);
  ledger_->Record(CallKind::kTryRecv, start, ledger_->Now(),
                  static_cast<int64_t>(n));
  return n;
}

}  // namespace perfbench

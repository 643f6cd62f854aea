#include "runtime/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace dcv {
namespace {

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

/// Every connected socket, on both sides: no Nagle delay for small frames,
/// and a bounded send so a stalled peer cannot wedge a writer forever.
void ConfigureSocket(int fd, int send_timeout_ms) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (send_timeout_ms <= 0) {
    return;
  }
  timeval tv;
  tv.tv_sec = send_timeout_ms / 1000;
  tv.tv_usec = (send_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Writes the whole buffer; false on any error (including send timeout).
bool WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking read of exactly one frame, bounded by `timeout_ms` total.
/// Handshake-only: steady-state reads go through ReaderLoop.
Result<WireFrame> ReadFrame(int fd, int timeout_ms, FrameReader* reader) {
  WireFrame frame;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    DCV_ASSIGN_OR_RETURN(bool ready, reader->Next(&frame));
    if (ready) {
      return frame;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return ResourceExhaustedError("timed out waiting for handshake frame");
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    pollfd p{fd, POLLIN, 0};
    int rc = ::poll(&p, 1, std::max(1, wait_ms));
    if (rc < 0 && errno != EINTR) {
      return ErrnoError("poll during handshake");
    }
    if (rc <= 0) {
      continue;
    }
    uint8_t buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      return InternalError("peer closed the connection during handshake");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return ErrnoError("recv during handshake");
    }
    reader->Append(buf, static_cast<size_t>(n));
  }
}

/// One non-blocking connect attempt bounded by `timeout_ms`; returns the
/// connected fd (restored to blocking mode) or an error.
Result<int> ConnectOnce(const sockaddr_in& addr, int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return ErrnoError("socket");
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return ErrnoError("connect");
  }
  if (rc != 0) {
    pollfd p{fd, POLLOUT, 0};
    rc = ::poll(&p, 1, timeout_ms);
    if (rc <= 0) {
      ::close(fd);
      return ResourceExhaustedError("connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      errno = err != 0 ? err : errno;
      return ErrnoError("connect");
    }
  }
  // Back to blocking mode for the reader/writer threads.
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
  return fd;
}

}  // namespace

using Self = SocketTransport;
using Stats = SocketStats;

// Registry twins are named "runtime/socket/<name>".
const SocketTransport::LedgerEntry SocketTransport::kLedger[] = {
    {&Self::frames_sent_, &Stats::frames_sent, "frames_tx"},
    {&Self::frames_received_, &Stats::frames_received, "frames_rx"},
    {&Self::bytes_sent_, &Stats::bytes_sent, "bytes_tx"},
    {&Self::bytes_received_, &Stats::bytes_received, "bytes_rx"},
    {&Self::connect_attempts_, &Stats::connect_attempts, "connect_attempts"},
    {&Self::connect_retries_, &Stats::connect_retries, "connect_retries"},
    {&Self::accept_timeouts_, &Stats::accept_timeouts, "accept_timeouts"},
    {&Self::decode_errors_, &Stats::decode_errors, "decode_errors"},
    {&Self::disconnects_, &Stats::disconnects, "disconnects"},
    {&Self::truncated_frames_, &Stats::truncated_frames, "truncated_frames"},
    {&Self::reconnects_, &Stats::reconnects, "reconnects"},
    {&Self::replayed_frames_, &Stats::replayed_frames, "replayed_frames"},
    {&Self::duplicate_frames_, &Stats::duplicate_frames, "duplicate_frames"},
};

void SocketTransport::StatCounter::Add(int64_t n) {
  value.fetch_add(n, std::memory_order_relaxed);
  DCV_OBS_COUNT(twin, n);
}

SocketTransport::SocketTransport(Role role, ShardLayout layout,
                                 int num_workers, int worker,
                                 const Options& options)
    : ThreadTransport(
          layout, num_workers,
          // A worker's outbound box (its one shard inbox) carries only its
          // own engine's replies: at most 2 per owned site per epoch, the
          // DESIGN §8 bound over its sites instead of the whole fabric's.
          role == Role::kWorker
              ? CoordinatorInboxCapacity(
                    MaxWorkerSites(layout.num_sites, num_workers))
              : 0),
      role_(role),
      worker_(worker),
      options_(options) {
  if (role_ == Role::kCoordinator) {
    worker_telemetry_.resize(static_cast<size_t>(num_workers));
    worker_telemetry_valid_.assign(static_cast<size_t>(num_workers), 0);
    worker_telemetry_final_.assign(static_cast<size_t>(num_workers), 0);
  }
  for (int c = role_ == Role::kCoordinator ? num_workers : 1; c > 0; --c) {
    conns_.push_back(std::make_unique<Connection>());
  }
  if (options_.metrics != nullptr) {
    // Every SocketStats field has a registry twin so --metrics-json covers
    // the wire layer without the "socket:" side channel.
    for (const LedgerEntry& entry : kLedger) {
      (this->*entry.counter).twin = options_.metrics->counter(
          std::string("runtime/socket/") + entry.name);
    }
  }
}

SocketTransport::~SocketTransport() { Shutdown(); }

Result<std::unique_ptr<SocketTransport>> SocketTransport::Listen(
    int num_sites, int num_workers, int port, const Options& options) {
  if (num_sites < 1) {
    return InvalidArgumentError("socket transport needs at least one site");
  }
  if (num_workers < 1 || num_workers > num_sites) {
    return InvalidArgumentError("num_workers must be in [1, num_sites]");
  }
  if (port < 0 || port > 65535) {
    return InvalidArgumentError("listen port must be in [0, 65535]");
  }
  // Built before binding, so a bad shard count fails first.
  DCV_ASSIGN_OR_RETURN(ShardLayout layout,
                       MakeShardLayout(num_sites, options.num_shards));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoError("socket");
  }
  auto fail = [fd](const std::string& what) {
    Status s = ErrnoError(what);
    ::close(fd);
    return s;
  };
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind to port " + std::to_string(port));
  }
  if (::listen(fd, num_workers) != 0) {
    return fail("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return fail("getsockname");
  }
  auto transport = std::unique_ptr<SocketTransport>(
      new SocketTransport(Role::kCoordinator, std::move(layout), num_workers,
                          /*worker=*/-1, options));
  transport->listen_fd_ = fd;
  transport->port_ = static_cast<int>(ntohs(bound.sin_port));
  transport->virtual_time_ = options.virtual_time;
  return transport;
}

Status SocketTransport::AcceptWorkers() {
  if (role_ != Role::kCoordinator || listen_fd_ < 0) {
    return FailedPreconditionError("AcceptWorkers needs a listening transport");
  }
  // Accepted links wait in conns_ (no threads yet) until every worker has
  // handshaken; any failure closes them all.
  auto reject_all = [this](Status s) {
    for (auto& c : conns_) {
      if (c->fd >= 0) {
        ::close(c->fd);
        c->fd = -1;
      }
    }
    return s;
  };
  auto not_twice = [this](const HelloFrame& hello, HelloAckFrame*) {
    if (conns_[static_cast<size_t>(hello.worker)]->fd >= 0) {
      return InvalidArgumentError("worker " + std::to_string(hello.worker) +
                                  " connected twice");
    }
    return OkStatus();
  };
  for (int pending = num_workers(); pending > 0; --pending) {
    pollfd p{listen_fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, options_.accept_timeout_ms);
    if (rc < 0 && errno != EINTR) {
      return reject_all(ErrnoError("poll on listen socket"));
    }
    if (rc <= 0) {
      accept_timeouts_.Add(1);
      return reject_all(ResourceExhaustedError(
          "timed out waiting for worker connections (" +
          std::to_string(num_workers() - pending) + " of " +
          std::to_string(num_workers()) + " connected)"));
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return reject_all(ErrnoError("accept"));
    }
    std::string residual;
    auto hello = AnswerHello(fd, options_.io_timeout_ms, not_twice, &residual);
    if (!hello.ok()) {
      ::close(fd);
      return reject_all(hello.status());
    }
    Connection& c = *conns_[static_cast<size_t>(hello->worker)];
    c.fd = fd;
    c.residual = std::move(residual);
  }
  for (size_t w = 0; w < conns_.size(); ++w) {
    StartConnection(w);
  }
  if (options_.allow_reconnect) {
    acceptor_ = std::thread([this] { AcceptorLoop(); });
  }
  return OkStatus();
}

Result<HelloFrame> SocketTransport::AnswerHello(
    int fd, int timeout_ms,
    const std::function<Status(const HelloFrame&, HelloAckFrame*)>& verdict,
    std::string* residual) {
  ConfigureSocket(fd, options_.io_timeout_ms);
  FrameReader reader;
  auto frame = ReadFrame(fd, timeout_ms, &reader);
  const int64_t t2 = WallClockUs();  // Hello receive time (clock-offset t2).
  HelloAckFrame ack;
  ack.num_sites = num_sites();
  ack.num_workers = num_workers();
  ack.virtual_time = virtual_time_ ? 1 : 0;
  Status refusal = OkStatus();
  if (!frame.ok()) {
    refusal = InternalError("worker handshake failed: " +
                            std::string(frame.status().message()));
  } else if (frame->type != FrameType::kHello) {
    refusal = InternalError("expected hello frame, got another type");
  } else {
    const HelloFrame& hello = frame->hello;
    ack.t1_us = hello.t1_us;
    if (hello.num_sites != num_sites() || hello.num_workers != num_workers()) {
      refusal = InvalidArgumentError(
          "worker fabric shape mismatch: worker says " +
          std::to_string(hello.num_sites) + " sites / " +
          std::to_string(hello.num_workers) + " workers, coordinator has " +
          std::to_string(num_sites()) + " / " + std::to_string(num_workers()));
    } else if (hello.worker < 0 || hello.worker >= num_workers()) {
      refusal = InvalidArgumentError("worker index " +
                                     std::to_string(hello.worker) +
                                     " out of range");
    } else {
      refusal = verdict(hello, &ack);
    }
  }
  ack.ok = refusal.ok() ? 1 : 0;
  ack.t2_us = t2;
  ack.t3_us = WallClockUs();
  std::string reply;
  AppendHelloAckFrame(ack, &reply);
  if (!WriteAll(fd, reply.data(), reply.size()) && refusal.ok()) {
    refusal = ErrnoError("sending hello-ack");
  }
  if (!refusal.ok()) {
    return refusal;
  }
  *residual = reader.TakeBuffered();
  return frame->hello;
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::Connect(
    const std::string& host, int port, int worker, int num_sites,
    int num_workers, const Options& options) {
  if (num_sites < 1 || num_workers < 1 || num_workers > num_sites) {
    return InvalidArgumentError("bad fabric shape");
  }
  if (worker < 0 || worker >= num_workers) {
    return InvalidArgumentError("worker index out of range");
  }
  // Workers never see the shard split: their fabric has one shard.
  DCV_ASSIGN_OR_RETURN(ShardLayout layout, MakeShardLayout(num_sites, 1));
  auto transport = std::unique_ptr<SocketTransport>(new SocketTransport(
      Role::kWorker, std::move(layout), num_workers, worker, options));
  // Parsed once: every redial reuses it.
  sockaddr_in& addr = transport->peer_;
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("cannot parse host address '" + host +
                                "' (dotted IPv4 expected)");
  }
  const int attempts = std::max(1, options.connect_attempts);
  Result<int> fd = InternalError("no connect attempt made");
  HelloAckFrame ack;
  std::string residual;
  bool dialed = false;
  transport->Redial([attempts](int attempt) { return attempt < attempts; },
                    [&] {
                      fd = transport->Handshake(/*generation=*/0, &ack,
                                                &residual, &dialed);
                      return dialed;
                    });
  if (!dialed) {
    return InternalError("could not connect to " + host + ":" +
                         std::to_string(port) + " after " +
                         std::to_string(attempts) +
                         " attempts: " + std::string(fd.status().message()));
  }
  if (!fd.ok()) {
    return fd.status();
  }
  transport->virtual_time_ = ack.virtual_time != 0;
  // TCP can coalesce the ack with the coordinator's first data frames
  // (e.g. the initial threshold sync); hand the tail to the reader thread.
  transport->conns_[0]->fd = *fd;
  transport->conns_[0]->residual = std::move(residual);
  transport->StartConnection(0);
  return transport;
}

Result<int> SocketTransport::Handshake(uint32_t generation,
                                       HelloAckFrame* ack,
                                       std::string* residual, bool* dialed) {
  Result<int> fd = ConnectOnce(peer_, options_.connect_timeout_ms);
  *dialed = fd.ok();
  if (!fd.ok()) {
    return fd;
  }
  ConfigureSocket(*fd, options_.io_timeout_ms);
  HelloFrame hello;
  hello.worker = worker_;
  hello.num_workers = num_workers();
  hello.num_sites = num_sites();
  hello.generation = generation;
  hello.last_seq_received =
      conns_[0]->last_seq_received.load(std::memory_order_relaxed);
  hello.t1_us = WallClockUs();
  std::string out;
  AppendHelloFrame(hello, &out);
  FrameReader reader;
  Status failure = OkStatus();
  if (!WriteAll(*fd, out.data(), out.size())) {
    failure = ErrnoError("sending hello");
  } else if (auto reply = ReadFrame(*fd, options_.io_timeout_ms, &reader);
             !reply.ok()) {
    failure = reply.status();
  } else if (reply->type != FrameType::kHelloAck) {
    failure = InternalError("expected hello-ack frame");
  } else if (reply->hello_ack.ok == 0) {
    failure = InvalidArgumentError(
        "coordinator rejected the handshake (shape mismatch or duplicate "
        "worker)");
  } else {
    *ack = reply->hello_ack;
    if (ack->t2_us != 0) {
      // NTP-style offset, refreshed on every handshake: assuming symmetric
      // one-way delays, the coordinator clock reads (t2 - t1 + t3 - t4) / 2
      // ahead of the worker clock.
      const int64_t t4 = WallClockUs();
      clock_offset_us_.store(
          ((ack->t2_us - hello.t1_us) + (ack->t3_us - t4)) / 2,
          std::memory_order_relaxed);
    }
  }
  if (!failure.ok()) {
    ::close(*fd);
    return failure;
  }
  *residual = reader.TakeBuffered();
  return fd;
}

bool SocketTransport::Redial(const std::function<bool(int)>& more,
                             const std::function<bool()>& dial) {
  int backoff = std::max(1, options_.connect_backoff_ms);
  for (int attempt = 0; more(attempt); ++attempt) {
    if (attempt > 0) {
      connect_retries_.Add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, 2000);  // Capped at 2 s.
    }
    connect_attempts_.Add(1);
    if (dial()) {
      return true;
    }
  }
  return false;
}

void SocketTransport::StartConnection(size_t index) {
  Connection& c = *conns_[index];
  c.reader = std::thread([this, index] { ReaderLoop(index); });
  c.writer = std::thread([this, index] { WriterLoop(index); });
}

void SocketTransport::ReaderLoop(size_t index) {
  Connection& c = *conns_[index];
  uint8_t buf[65536];

  // Coordinator role: the peer's final_flush telemetry frame arrived, so it
  // is exiting in order and has nothing left to send but its end of stream.
  bool final_flushed = false;
  bool orderly = false;  // A clean end of stream after the final flush.
  // Decodes everything buffered in `reader`; false = drop the connection.
  WireFrame frame;  // Reused: a small frame decodes without allocating.
  auto drain_frames = [&](FrameReader& reader) {
    for (;;) {
      auto r = reader.Next(&frame);
      if (!r.ok()) {
        decode_errors_.Add(1);
        return false;
      }
      if (!*r) {
        return true;
      }
      // Handshake frames never arrive mid-run, and the one control frame,
      // kTelemetry, flows worker -> coordinator only: any other frame is
      // malformed input here.
      if (frame.type != FrameType::kEnvelopeBatch &&
          (frame.type != FrameType::kTelemetry ||
           role_ != Role::kCoordinator)) {
        decode_errors_.Add(1);
        continue;
      }
      if (frame.type == FrameType::kTelemetry) {
        if (frame.telemetry.worker < 0 ||
            frame.telemetry.worker >= num_workers()) {
          decode_errors_.Add(1);
          continue;
        }
        frames_received_.Add(1);
        final_flushed = final_flushed || frame.telemetry.final_flush != 0;
        // Snapshots are cumulative, so latest-wins per worker: overwrite
        // the slot and remember whether the worker's shutdown flush landed.
        const size_t slot = static_cast<size_t>(frame.telemetry.worker);
        {
          std::lock_guard<std::mutex> lock(telemetry_mu_);
          worker_telemetry_[slot] = std::move(frame.telemetry);
          worker_telemetry_valid_[slot] = 1;
          if (worker_telemetry_[slot].final_flush != 0) {
            worker_telemetry_final_[slot] = 1;
          }
        }
        telemetry_cv_.notify_all();
        continue;
      }
      // Sequence dedup: a resume replays the suffix the peer thinks we
      // missed; anything at or below our high-water mark already arrived
      // on the previous incarnation. A batch frame carries one seq for all
      // its envelopes, so the burst is accepted or dropped whole.
      if (frame.seq != 0) {
        if (frame.seq <= c.last_seq_received.load(std::memory_order_relaxed)) {
          duplicate_frames_.Add(1);
          continue;
        }
        c.last_seq_received.store(frame.seq, std::memory_order_relaxed);
      }
      frames_received_.Add(1);
      const size_t misdirected = std::erase_if(
          frame.batch, [this](const Envelope& e) { return !Inbound(e); });
      if (misdirected > 0) {
        decode_errors_.Add(static_cast<int64_t>(misdirected));
      }
      if (!frame.batch.empty() && !SendBatch(frame.batch)) {
        return false;  // A box closed: we are shutting down.
      }
    }
  };

  // One outer iteration per connection incarnation: read until the stream
  // ends, then (with reconnection enabled) park for a resume and go again.
  for (;;) {
    int fd = -1;
    uint32_t gen = 0;
    FrameReader reader;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      fd = c.fd;
      gen = c.generation;
      // Bytes the handshake read past its own frame come first: they are
      // earlier in the stream than anything recv() will return.
      reader.Append(reinterpret_cast<const uint8_t*>(c.residual.data()),
                    c.residual.size());
      c.residual.clear();
    }
    bool clean = false;
    bool stream_ok = drain_frames(reader);
    while (stream_ok) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) {
        clean = true;  // Peer finished sending: graceful end of stream.
        break;
      }
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;  // Reset/abort — or our own Shutdown closed the socket.
      }
      bytes_received_.Add(n);
      reader.Append(buf, static_cast<size_t>(n));
      stream_ok = drain_frames(reader);
    }
    if (stream_ok && !reader.Finish().ok()) {
      // The connection dropped inside a length-prefixed frame: a distinct
      // failure mode from both a clean end and a decode error. The partial
      // bytes are discarded; a resume replays the full frame.
      truncated_frames_.Add(1);
      clean = false;
    }
    const bool down = shutting_down_.load(std::memory_order_relaxed);
    if (!clean && !down) {
      disconnects_.Add(1);
    }
    orderly = clean && final_flushed;
    if (down || orderly || !options_.allow_reconnect) {
      break;
    }
    if (!AwaitResume(index, gen)) {
      break;  // Window expired or shutdown: fail like a real crash.
    }
  }
  // End of stream with no resume coming means no more messages can arrive
  // on this connection. After a final flush that is an orderly exit: the
  // worker's engine stopped on its sites' kShutdown, and every envelope it
  // sent was read before the end of stream, so the shard inboxes — which
  // other workers still feed, and the root still commands — stay open.
  // Otherwise the worker is gone mid-run: close them so blocked receivers
  // drain and exit, matching ThreadTransport's closed-and-drained contract.
  if (!orderly) {
    CloseInbound();
  }
  CloseOutbound(index);
}

void SocketTransport::RecordLifecycle(obs::TraceEventKind kind,
                                      int64_t value) {
  if (options_.recorder == nullptr) {
    return;
  }
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.value = value;
  ev.ts_us = WallClockUs();
  options_.recorder->Record(ev);
}

bool SocketTransport::WriteDirect(Connection* c, const std::string& bytes) {
  std::lock_guard<std::mutex> wl(c->write_mu);
  return c->fd >= 0 && WriteAll(c->fd, bytes.data(), bytes.size());
}

bool SocketTransport::Inbound(const Envelope& e) const {
  if (role_ == Role::kCoordinator) {
    return e.to == kCoordinatorId && e.from >= 0 && e.from < num_sites();
  }
  return e.to >= 0 && e.to < num_sites() && WorkerOf(e.to) == worker_;
}

void SocketTransport::CloseOutbound(size_t index) {
  if (role_ == Role::kCoordinator) {
    worker_box(static_cast<int>(index)).Close();
  } else {
    shard_box(0).Close();
  }
}

void SocketTransport::CloseInbound() {
  if (role_ == Role::kCoordinator) {
    for (int s = 0; s < num_shards(); ++s) {
      shard_box(s).Close();
    }
  } else {
    worker_box(worker_).Close();
  }
}

void SocketTransport::WriterLoop(size_t index) {
  Connection& c = *conns_[index];
  std::string frame;
  std::vector<Envelope> pending;
  // Blocks for the outbound box's next burst; 0 = closed and drained.
  auto take = [&] {
    return role_ == Role::kCoordinator
               ? RecvWorkerAll(static_cast<int>(index), &pending)
               : RecvShardAll(0, &pending);
  };
  while (take() > 0) {
    for (size_t first = 0; first < pending.size();) {
      const size_t count =
          std::min<size_t>(kMaxBatchEnvelopes, pending.size() - first);
      bool wrote = false;
      uint32_t gen = 0;
      {
        std::lock_guard<std::mutex> wl(c.write_mu);
        {
          std::lock_guard<std::mutex> lock(c.mu);
          gen = c.generation;  // Incarnation this write lands on.
        }
        // Up to kMaxBatchEnvelopes of the burst become ONE kEnvelopeBatch
        // frame under one sequence number; the whole frame is one
        // sent-ring entry, so resume replay and the peer's high-water-mark
        // dedup treat it atomically (never half-applied).
        frame.clear();
        AppendEnvelopeBatchFrame(pending.data() + first, count, &frame,
                                 c.next_send_seq);
        if (options_.allow_reconnect) {
          c.sent_ring.emplace_back(c.next_send_seq, frame);
          while (c.sent_ring.size() > options_.replay_capacity) {
            c.sent_ring.pop_front();
          }
        }
        ++c.next_send_seq;
        wrote = c.fd >= 0 && WriteAll(c.fd, frame.data(), frame.size());
        if (wrote) {
          frames_sent_.Add(1);
          bytes_sent_.Add(static_cast<int64_t>(frame.size()));
        }
      }
      first += count;
      if (wrote) {
        continue;
      }
      // Write failed. With reconnection the frame is already in the sent
      // ring, so a resume replays it — park for the new incarnation instead
      // of giving up.
      if (!shutting_down_.load(std::memory_order_relaxed)) {
        disconnects_.Add(1);
      }
      if (options_.allow_reconnect &&
          AwaitGeneration(&c, gen,
                          std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(
                                  options_.reconnect_window_ms +
                                  options_.reconnect_grace_ms))) {
        continue;  // The installer replayed the failed frame already.
      }
      if (!shutting_down_.load(std::memory_order_relaxed)) {
        CloseInbound();
      }
      CloseOutbound(index);  // Blocked senders wake and see closed.
      return;
    }
    pending.clear();
  }
  // Outbound box closed and drained: our side is done sending. Half-close
  // so the peer's reader sees a clean end of stream once it drains.
  std::lock_guard<std::mutex> wl(c.write_mu);
  if (c.fd >= 0) {
    ::shutdown(c.fd, SHUT_WR);
  }
}

bool SocketTransport::InstallResumedFd(Connection* c, int fd,
                                       uint32_t generation,
                                       uint64_t peer_last_seq,
                                       std::string residual) {
  std::lock_guard<std::mutex> wl(c->write_mu);
  // The ring holds the sent-frame suffix [next_send_seq - ring, next - 1].
  // If the peer missed more than that, the link cannot be healed
  // losslessly; fail the resume so the run aborts instead of silently
  // dropping protocol messages.
  const uint64_t want_from = peer_last_seq + 1;
  if (want_from < c->next_send_seq &&
      (c->sent_ring.empty() || c->sent_ring.front().first > want_from)) {
    return false;
  }
  std::string replay;
  int64_t replayed = 0;
  for (const auto& [seq, bytes] : c->sent_ring) {
    if (seq >= want_from) {
      replay += bytes;
      ++replayed;
    }
  }
  if (!replay.empty() && !WriteAll(fd, replay.data(), replay.size())) {
    return false;
  }
  replayed_frames_.Add(replayed);
  bytes_sent_.Add(static_cast<int64_t>(replay.size()));
  if (replayed > 0) {
    RecordLifecycle(obs::TraceEventKind::kFrameReplay, replayed);
  }
  {
    std::lock_guard<std::mutex> lock(c->mu);
    if (c->fd >= 0 && c->fd != fd) {
      // Fence the stale incarnation: sever it now, but close it only at
      // Shutdown (closing immediately could race a thread still blocked in
      // a syscall on it).
      ::shutdown(c->fd, SHUT_RDWR);
      std::lock_guard<std::mutex> retired_lock(retired_mu_);
      retired_fds_.push_back(c->fd);
    }
    c->fd = fd;
    c->generation = generation;
    c->residual = std::move(residual);
  }
  c->cv.notify_all();
  return true;
}

bool SocketTransport::AwaitResume(size_t index, uint32_t seen_gen) {
  Connection& c = *conns_[index];
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.reconnect_window_ms);
  if (role_ == Role::kWorker) {
    // Only this thread installs a worker-side resume, so the generation
    // stays at `seen_gen` until the redial below succeeds.
    const uint32_t generation = seen_gen + 1;
    // Grace period (ends early on shutdown): on a graceful shutdown the
    // site engine is already holding their kShutdown envelopes, so
    // shutting_down_ flips almost immediately — don't redial a coordinator
    // that is simply done.
    AwaitGeneration(&c, seen_gen,
                    std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.reconnect_grace_ms));
    const bool resumed = Redial(
        [&](int) {
          return !shutting_down_.load(std::memory_order_relaxed) &&
                 std::chrono::steady_clock::now() < deadline;
        },
        [&] {
          if (shutting_down_.load(std::memory_order_relaxed)) {
            return false;  // Shutdown landed during the backoff sleep.
          }
          HelloAckFrame ack;
          std::string tail;
          bool dialed = false;
          auto fd = Handshake(generation, &ack, &tail, &dialed);
          if (fd.ok() && !InstallResumedFd(&c, *fd, generation,
                                           ack.last_seq_received,
                                           std::move(tail))) {
            ::close(*fd);
            return false;
          }
          return fd.ok();
        });
    if (!resumed) {
      return false;
    }
    reconnects_.Add(1);
    RecordLifecycle(obs::TraceEventKind::kWorkerReconnect, worker_);
  }
  // The coordinator's acceptor thread installs the resumed fd; a worker's
  // redial above already has.
  return AwaitGeneration(&c, seen_gen, deadline);
}

bool SocketTransport::AwaitGeneration(
    Connection* c, uint32_t seen_gen,
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(c->mu);
  c->cv.wait_until(lock, deadline, [&] {
    return shutting_down_.load(std::memory_order_relaxed) ||
           c->generation != seen_gen;
  });
  return !shutting_down_.load(std::memory_order_relaxed) &&
         c->generation != seen_gen;
}

void SocketTransport::AcceptorLoop() {
  // Generation fence: only a strictly newer incarnation may replace the
  // connection; a stale or duplicate dial is rejected. The ack tells the
  // worker where to resume.
  auto fence = [this](const HelloFrame& hello, HelloAckFrame* ack) {
    Connection& c = *conns_[static_cast<size_t>(hello.worker)];
    std::lock_guard<std::mutex> lock(c.mu);
    if (hello.generation <= c.generation) {
      return FailedPreconditionError("stale worker generation");
    }
    ack->generation = hello.generation;
    ack->last_seq_received =
        c.last_seq_received.load(std::memory_order_relaxed);
    return OkStatus();
  };
  while (!shutting_down_.load(std::memory_order_relaxed)) {
    pollfd p{listen_fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, 100);
    if (rc <= 0) {
      continue;  // Timeout tick (checks shutting_down_) or EINTR.
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    std::string residual;
    auto hello = AnswerHello(
        fd, std::min(options_.io_timeout_ms, options_.reconnect_window_ms),
        fence, &residual);
    if (!hello.ok() ||
        !InstallResumedFd(conns_[static_cast<size_t>(hello->worker)].get(),
                          fd, hello->generation, hello->last_seq_received,
                          std::move(residual))) {
      ::close(fd);
      continue;
    }
    reconnects_.Add(1);
    RecordLifecycle(obs::TraceEventKind::kWorkerReconnect, hello->worker);
  }
}

Status SocketTransport::InjectPeerFailure(int worker) {
  if (role_ != Role::kCoordinator) {
    return FailedPreconditionError("failure injection needs the coordinator");
  }
  if (worker < 0 || worker >= num_workers()) {
    return InvalidArgumentError("worker index out of range");
  }
  Connection& c = *conns_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.fd >= 0) {
    // Hard sever both directions: the worker sees end-of-stream, our own
    // reader/writer see failures — exactly the observable footprint of a
    // crashed peer or a cut link.
    ::shutdown(c.fd, SHUT_RDWR);
  }
  return OkStatus();
}

Status SocketTransport::SendTelemetry(const TelemetryFrame& t) {
  if (role_ != Role::kWorker) {
    return FailedPreconditionError("telemetry flows worker -> coordinator");
  }
  std::string bytes;
  DCV_RETURN_IF_ERROR(AppendTelemetryFrame(t, &bytes));
  // Telemetry bypasses the envelope boxes and replay ring: frames are
  // unsequenced cumulative snapshots, so a resume never needs to replay
  // them and dedup can never double-count them.
  if (!WriteDirect(conns_[0].get(), bytes)) {
    return InternalError("telemetry push failed (connection down)");
  }
  frames_sent_.Add(1);
  bytes_sent_.Add(static_cast<int64_t>(bytes.size()));
  return OkStatus();
}

std::vector<TelemetryFrame> SocketTransport::TakeWorkerTelemetry() {
  std::vector<TelemetryFrame> out;
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  for (size_t w = 0; w < worker_telemetry_.size(); ++w) {
    if (worker_telemetry_valid_[w] != 0) {
      out.push_back(std::move(worker_telemetry_[w]));
      worker_telemetry_[w] = TelemetryFrame{};
      worker_telemetry_valid_[w] = 0;
    }
  }
  return out;
}

bool SocketTransport::WaitForFinalTelemetry(int timeout_ms) {
  if (role_ != Role::kCoordinator) {
    return false;
  }
  std::unique_lock<std::mutex> lock(telemetry_mu_);
  return telemetry_cv_.wait_for(
      lock, std::chrono::milliseconds(std::max(0, timeout_ms)), [&] {
        return shutting_down_.load(std::memory_order_relaxed) ||
               std::all_of(worker_telemetry_final_.begin(),
                           worker_telemetry_final_.end(),
                           [](uint8_t f) { return f != 0; });
      });
}

void SocketTransport::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shutdown_done_) {
    return;
  }
  shutdown_done_ = true;
  shutting_down_.store(true, std::memory_order_relaxed);
  // Wake anything parked waiting for a resume; no resume is coming.
  for (auto& c : conns_) {
    c->cv.notify_all();
  }
  telemetry_cv_.notify_all();
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  // Phase 1: flush. Closing a mailbox still lets the writers drain it, so
  // they push every queued frame (including a final kShutdown broadcast)
  // before half-closing their sockets.
  for (size_t i = 0; i < conns_.size(); ++i) {
    CloseOutbound(i);
  }
  for (auto& c : conns_) {
    if (c->writer.joinable()) {
      c->writer.join();
    }
  }
  // Phase 2: stop receiving. Shut the sockets to wake blocked readers and
  // close every box so blocked receivers drain out.
  for (auto& c : conns_) {
    if (c->fd >= 0) {
      ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  ThreadTransport::Shutdown();
  for (auto& c : conns_) {
    if (c->reader.joinable()) {
      c->reader.join();
    }
    if (c->fd >= 0) {
      ::close(c->fd);
      c->fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> retired_lock(retired_mu_);
    for (int fd : retired_fds_) {
      ::close(fd);
    }
    retired_fds_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

SocketStats SocketTransport::stats() const {
  SocketStats s;
  for (const LedgerEntry& entry : kLedger) {
    s.*entry.field =
        (this->*entry.counter).value.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace dcv

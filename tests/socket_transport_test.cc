#include "runtime/socket_transport.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/site_engine.h"

namespace dcv {
namespace {

SocketTransport::Options FastOptions() {
  SocketTransport::Options options;
  options.accept_timeout_ms = 5000;
  options.connect_timeout_ms = 1000;
  options.connect_attempts = 3;
  options.connect_backoff_ms = 10;
  options.io_timeout_ms = 5000;
  return options;
}

Envelope ToSite(int site, ActorMsgKind kind, int64_t epoch, int64_t value) {
  Envelope e;
  e.from = kCoordinatorId;
  e.to = site;
  e.msg.kind = kind;
  e.msg.epoch = epoch;
  e.msg.value = value;
  return e;
}

Envelope ToCoordinator(int site, ActorMsgKind kind, int64_t epoch,
                       int64_t value) {
  Envelope e;
  e.from = site;
  e.to = kCoordinatorId;
  e.msg.kind = kind;
  e.msg.epoch = epoch;
  e.msg.value = value;
  return e;
}

/// Connects `num_workers` worker transports to `coordinator` on loopback
/// (each from its own thread, since AcceptWorkers blocks the caller).
std::vector<std::unique_ptr<SocketTransport>> ConnectWorkers(
    SocketTransport* coordinator, int num_sites, int num_workers) {
  std::vector<std::unique_ptr<SocketTransport>> workers(
      static_cast<size_t>(num_workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < num_workers; ++w) {
    threads.emplace_back([&workers, coordinator, num_sites, num_workers, w] {
      auto t = SocketTransport::Connect("127.0.0.1", coordinator->port(), w,
                                        num_sites, num_workers, FastOptions());
      if (t.ok()) {
        workers[static_cast<size_t>(w)] = std::move(*t);
      }
    });
  }
  EXPECT_TRUE(coordinator->AcceptWorkers().ok());
  for (std::thread& t : threads) {
    t.join();
  }
  return workers;
}

bool SendRaw(int fd, const std::string& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// Dials the coordinator on loopback over a raw socket and sends `bytes`;
/// returns the fd (-1 on failure).
int DialRaw(int port, const std::string& bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      !SendRaw(fd, bytes)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Dials the coordinator on loopback over a raw socket and sends `hello`
/// as hand-built wire bytes; returns the fd (-1 on failure).
int DialRawHello(int port, const HelloFrame& hello) {
  std::string bytes;
  AppendHelloFrame(hello, &bytes);
  return DialRaw(port, bytes);
}

/// Reads the next frame off a raw socket and checks it is a `want` frame
/// (5 s budget).
Result<WireFrame> ReadRawFrame(int fd, FrameType want) {
  FrameReader reader;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    WireFrame frame;
    DCV_ASSIGN_OR_RETURN(bool ready, reader.Next(&frame));
    if (ready) {
      if (frame.type != want) {
        return InternalError("unexpected frame type");
      }
      return frame;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) {
      continue;
    }
    uint8_t buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      return InternalError("stream ended before the expected frame");
    }
    reader.Append(buf, static_cast<size_t>(n));
  }
  return ResourceExhaustedError("no frame within 5 s");
}

/// Reads envelopes out of kEnvelopeBatch frames off a raw socket until `n`
/// arrived, the stream ended or 5 s passed; returns what arrived.
std::vector<Envelope> ReadRawEnvelopes(int fd, size_t n) {
  std::vector<Envelope> got;
  FrameReader reader;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.size() < n && std::chrono::steady_clock::now() < deadline) {
    WireFrame frame;
    auto ready = reader.Next(&frame);
    if (!ready.ok()) {
      break;
    }
    if (*ready) {
      if (frame.type == FrameType::kEnvelopeBatch) {
        got.insert(got.end(), frame.batch.begin(), frame.batch.end());
      }
      continue;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) {
      continue;
    }
    uint8_t buf[4096];
    const ssize_t bytes = ::recv(fd, buf, sizeof(buf), 0);
    if (bytes <= 0) {
      break;
    }
    reader.Append(buf, static_cast<size_t>(bytes));
  }
  return got;
}

/// Reads the coordinator's hello-ack off a raw socket (5 s budget).
Result<HelloAckFrame> ReadRawAck(int fd) {
  DCV_ASSIGN_OR_RETURN(WireFrame frame,
                       ReadRawFrame(fd, FrameType::kHelloAck));
  return frame.hello_ack;
}

/// A loopback listener on an ephemeral port; returns the fd (-1 on
/// failure) and sets `*port`.
int ListenRaw(int* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 1) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = static_cast<int>(ntohs(addr.sin_port));
  return fd;
}

/// Plays the coordinator's side of the handshake over raw wire bytes:
/// accepts one worker, reads its hello, acks it for the given fabric
/// shape, then writes `tail`. Returns the connection fd (-1 on failure).
int AcceptRawWorker(int listen_fd, int num_sites, int num_workers,
                    const std::string& tail) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    return -1;
  }
  auto hello = ReadRawFrame(fd, FrameType::kHello);
  HelloAckFrame ack;
  ack.ok = 1;
  ack.virtual_time = 1;
  ack.num_sites = num_sites;
  ack.num_workers = num_workers;
  std::string bytes;
  AppendHelloAckFrame(ack, &bytes);
  bytes += tail;
  if (!hello.ok() || !SendRaw(fd, bytes)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(SocketTransportTest, RoutesEnvelopesBothWays) {
  auto listen = SocketTransport::Listen(/*num_sites=*/4, /*num_workers=*/2,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  ASSERT_GT(coordinator->port(), 0);
  auto workers = ConnectWorkers(coordinator.get(), 4, 2);
  ASSERT_TRUE(workers[0] != nullptr && workers[1] != nullptr);

  // Coordinator -> sites: worker w owns sites {w, w+2}.
  for (int site = 0; site < 4; ++site) {
    ASSERT_TRUE(coordinator->Send(
        ToSite(site, ActorMsgKind::kThresholdUpdate, 0, 100 + site)));
  }
  for (int w = 0; w < 2; ++w) {
    std::set<int> seen;
    Envelope e;
    for (int k = 0; k < 2; ++k) {
      ASSERT_TRUE(workers[static_cast<size_t>(w)]->RecvWorker(w, &e));
      EXPECT_EQ(e.msg.kind, ActorMsgKind::kThresholdUpdate);
      EXPECT_EQ(e.msg.value, 100 + e.to);
      seen.insert(e.to);
    }
    EXPECT_EQ(seen, (std::set<int>{w, w + 2}));
  }

  // Sites -> coordinator.
  for (int w = 0; w < 2; ++w) {
    ASSERT_TRUE(workers[static_cast<size_t>(w)]->Send(
        ToCoordinator(w, ActorMsgKind::kAlarm, 5, 999)));
  }
  std::set<int> froms;
  Envelope e;
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(coordinator->RecvShard(0, &e));
    EXPECT_EQ(e.msg.kind, ActorMsgKind::kAlarm);
    froms.insert(e.from);
  }
  EXPECT_EQ(froms, (std::set<int>{0, 1}));

  workers[0]->Shutdown();
  workers[1]->Shutdown();
  coordinator->Shutdown();
  SocketStats stats = coordinator->stats();
  // Four envelopes over two connections: the writer coalesces whatever is
  // queued into one kEnvelopeBatch frame, so 2..4 frames depending on timing.
  EXPECT_GE(stats.frames_sent, 2);
  EXPECT_LE(stats.frames_sent, 4);
  EXPECT_EQ(stats.frames_received, 2);
  EXPECT_GT(stats.bytes_sent, 0);
  EXPECT_EQ(stats.decode_errors, 0);
  EXPECT_EQ(stats.disconnects, 0);
}

// A worker's outbound box carries only its own engine's replies, so it is
// sized by the sites that worker owns: CoordinatorInboxCapacity(ceil(N/W)).
// The coordinator's shard inboxes keep the per-shard formula.
TEST(SocketTransportTest, WorkerOutboundBoxIsSizedByItsOwnSites) {
  constexpr int kSites = 10;
  constexpr int kWorkers = 3;
  SocketTransport::Options options = FastOptions();
  options.num_shards = 2;
  auto listen = SocketTransport::Listen(kSites, kWorkers, /*port=*/0, options);
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  EXPECT_EQ(coordinator->coordinator_capacity(),
            CoordinatorInboxCapacity(kSites / 2));
  auto workers = ConnectWorkers(coordinator.get(), kSites, kWorkers);
  for (const auto& worker : workers) {
    ASSERT_TRUE(worker != nullptr);
    EXPECT_EQ(worker->coordinator_capacity(), CoordinatorInboxCapacity(4));
    EXPECT_EQ(worker->worker_capacity(),
              WorkerInboxCapacity(kSites, kWorkers));
    worker->Shutdown();
  }
  coordinator->Shutdown();
}

TEST(SocketTransportTest, PreservesPerSenderOrderUnderLoad) {
  // Many more frames than any queue capacity: exercises the writer's
  // batching and the bounded boxes without losing or reordering anything.
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);
  auto workers = ConnectWorkers(coordinator.get(), 1, 1);
  ASSERT_TRUE(workers[0] != nullptr);

  constexpr int kFrames = 500;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(coordinator->Send(
          ToSite(0, ActorMsgKind::kPollRequest, i, 2 * i)));
    }
  });
  Envelope e;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(workers[0]->RecvWorker(0, &e));
    EXPECT_EQ(e.msg.epoch, i);
    EXPECT_EQ(e.msg.value, 2 * i);
  }
  producer.join();
  workers[0]->Shutdown();
  coordinator->Shutdown();
}

TEST(SocketTransportTest, ShutdownFlushesQueuedFrames) {
  // Frames queued before Shutdown must still reach the peer: the writers
  // drain their boxes before the sockets half-close (a graceful kShutdown
  // broadcast is never lost).
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);
  auto workers = ConnectWorkers(coordinator.get(), 1, 1);
  ASSERT_TRUE(workers[0] != nullptr);

  ASSERT_TRUE(coordinator->Send(ToSite(0, ActorMsgKind::kShutdown, 9, 0)));
  coordinator->Shutdown();

  Envelope e;
  ASSERT_TRUE(workers[0]->RecvWorker(0, &e));
  EXPECT_EQ(e.msg.kind, ActorMsgKind::kShutdown);
  EXPECT_EQ(e.msg.epoch, 9);
  // After the flush the stream ends cleanly: drained inbox reports closed.
  EXPECT_FALSE(workers[0]->RecvWorker(0, &e));
  workers[0]->Shutdown();
  EXPECT_EQ(workers[0]->stats().disconnects, 0);
}

TEST(SocketTransportTest, SendAfterPeerShutdownReportsClosed) {
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);
  auto workers = ConnectWorkers(coordinator.get(), 1, 1);
  ASSERT_TRUE(workers[0] != nullptr);

  coordinator->Shutdown();
  Envelope e;
  // The worker's inbox closes once the coordinator's stream ends.
  EXPECT_FALSE(workers[0]->RecvWorker(0, &e));
  workers[0]->Shutdown();
  EXPECT_FALSE(workers[0]->Send(ToCoordinator(0, ActorMsgKind::kAlarm, 0, 0)));
}

TEST(SocketTransportTest, ConnectRetriesAreBoundedAndCounted) {
  SocketTransport::Options options = FastOptions();
  options.connect_attempts = 2;
  // Nothing listens on this port of the test's own ephemeral coordinator
  // after it is closed; use a fresh unlikely port instead.
  auto worker = SocketTransport::Connect("127.0.0.1", 1, /*worker=*/0,
                                         /*num_sites=*/1, /*num_workers=*/1,
                                         options);
  ASSERT_FALSE(worker.ok());
  EXPECT_NE(worker.status().message().find("after 2 attempts"),
            std::string::npos)
      << worker.status().message();
}

TEST(SocketTransportTest, AcceptTimesOutWhenWorkersMissing) {
  SocketTransport::Options options = FastOptions();
  options.accept_timeout_ms = 50;
  auto listen = SocketTransport::Listen(/*num_sites=*/2, /*num_workers=*/2,
                                        /*port=*/0, options);
  ASSERT_TRUE(listen.ok());
  Status s = (*listen)->AcceptWorkers();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("timed out waiting for worker"),
            std::string::npos)
      << s.message();
  EXPECT_EQ((*listen)->stats().accept_timeouts, 1);
}

TEST(SocketTransportTest, RejectsShapeMismatchAndAdvertisesMode) {
  SocketTransport::Options options = FastOptions();
  options.virtual_time = false;
  auto listen = SocketTransport::Listen(/*num_sites=*/2, /*num_workers=*/1,
                                        /*port=*/0, options);
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);

  // Wrong shape first: the coordinator rejects and AcceptWorkers fails.
  Result<std::unique_ptr<SocketTransport>> bad = InternalError("unset");
  std::thread t([&bad, &coordinator] {
    bad = SocketTransport::Connect("127.0.0.1", coordinator->port(),
                                   /*worker=*/0, /*num_sites=*/3,
                                   /*num_workers=*/1, FastOptions());
  });
  Status accept = coordinator->AcceptWorkers();
  t.join();
  EXPECT_FALSE(accept.ok());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("rejected"), std::string::npos)
      << bad.status().message();

  // A matching worker on a fresh coordinator adopts its advertised mode.
  auto relisten = SocketTransport::Listen(2, 1, 0, options);
  ASSERT_TRUE(relisten.ok());
  auto workers = ConnectWorkers(relisten->get(), 2, 1);
  ASSERT_TRUE(workers[0] != nullptr);
  EXPECT_FALSE(workers[0]->virtual_time());
  workers[0]->Shutdown();
  (*relisten)->Shutdown();
}

TEST(SocketTransportTest, ConnectRetryExhaustionReturnsWithinDeadline) {
  // Regression: a worker dialing a dead port must burn through its bounded
  // retry budget and return a clean error well inside the configured
  // deadline — never hang in connect() or sleep forever in backoff.
  SocketTransport::Options options = FastOptions();
  options.connect_attempts = 3;
  options.connect_timeout_ms = 500;
  options.connect_backoff_ms = 10;
  const auto t0 = std::chrono::steady_clock::now();
  // Port 1 on loopback: nothing listens there, connect() is refused fast.
  auto worker = SocketTransport::Connect("127.0.0.1", 1, /*worker=*/0,
                                         /*num_sites=*/1, /*num_workers=*/1,
                                         options);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(worker.ok());
  EXPECT_NE(worker.status().message().find("after 3 attempts"),
            std::string::npos)
      << worker.status().message();
  // Worst case: 3 * connect_timeout + 10 + 20 ms of backoff = 1.53 s.
  // A generous 4 s bound still catches an unbounded hang.
  EXPECT_LT(elapsed, std::chrono::seconds(4));
}

TEST(SocketTransportTest, ReconnectsAndReplaysAfterSeveredLink) {
  // Kill the TCP link mid-run: with allow_reconnect on both sides the
  // worker redials, the resume handshake fences the old connection, and
  // both directions replay whatever the peer missed — nothing is lost and
  // nothing is delivered twice.
  SocketTransport::Options options = FastOptions();
  options.allow_reconnect = true;
  options.reconnect_window_ms = 5000;
  options.reconnect_grace_ms = 20;
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, options);
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);

  std::unique_ptr<SocketTransport> worker;
  std::thread dial([&] {
    auto t = SocketTransport::Connect("127.0.0.1", coordinator->port(),
                                      /*worker=*/0, /*num_sites=*/1,
                                      /*num_workers=*/1, options);
    if (t.ok()) {
      worker = std::move(*t);
    }
  });
  ASSERT_TRUE(coordinator->AcceptWorkers().ok());
  dial.join();
  ASSERT_TRUE(worker != nullptr);

  // Sanity: one round trip on the healthy link.
  ASSERT_TRUE(
      coordinator->Send(ToSite(0, ActorMsgKind::kThresholdUpdate, 0, 50)));
  Envelope e;
  ASSERT_TRUE(worker->RecvWorker(0, &e));
  EXPECT_EQ(e.msg.value, 50);

  ASSERT_TRUE(coordinator->InjectPeerFailure(0).ok());

  // Both directions keep sending through the outage; the bounded send
  // queues absorb the burst and the resume replays the rest.
  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        coordinator->Send(ToSite(0, ActorMsgKind::kPollRequest, i, 10 + i)));
    ASSERT_TRUE(
        worker->Send(ToCoordinator(0, ActorMsgKind::kAlarm, i, 20 + i)));
  }
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(worker->RecvWorker(0, &e)) << "frame " << i;
    EXPECT_EQ(e.msg.epoch, i);
    EXPECT_EQ(e.msg.value, 10 + i);
  }
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(coordinator->RecvShard(0, &e)) << "frame " << i;
    EXPECT_EQ(e.msg.epoch, i);
    EXPECT_EQ(e.msg.value, 20 + i);
  }

  worker->Shutdown();
  coordinator->Shutdown();
  SocketStats cstats = coordinator->stats();
  EXPECT_GE(cstats.disconnects, 1);
  EXPECT_EQ(cstats.reconnects, 1);
  // The dedup layer keeps duplicates off the inboxes; the counter just
  // records how many the replay produced (bounded by the ring).
  EXPECT_LE(cstats.duplicate_frames,
            static_cast<int64_t>(options.replay_capacity));
  EXPECT_EQ(worker->stats().reconnects, 1);
}

TEST(SocketTransportTest, ValidatesArguments) {
  EXPECT_FALSE(SocketTransport::Listen(0, 1, 0, FastOptions()).ok());
  EXPECT_FALSE(SocketTransport::Listen(2, 3, 0, FastOptions()).ok());
  EXPECT_FALSE(SocketTransport::Listen(2, 1, 70000, FastOptions()).ok());
  EXPECT_FALSE(
      SocketTransport::Connect("not-an-ip", 80, 0, 1, 1, FastOptions()).ok());
  EXPECT_FALSE(
      SocketTransport::Connect("127.0.0.1", 80, 5, 4, 2, FastOptions()).ok());
  // A bad shard count is a named error, as ThreadTransport::Create makes it.
  for (int shards : {0, -1}) {
    SocketTransport::Options options = FastOptions();
    options.num_shards = shards;
    auto listen = SocketTransport::Listen(2, 1, 0, options);
    ASSERT_FALSE(listen.ok()) << "num_shards " << shards;
    EXPECT_EQ(listen.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(listen.status().message().find("num_shards"), std::string::npos)
        << listen.status().message();
  }
}

TEST(SocketTransportTest, StatsMatchRegistryAfterReplay) {
#ifdef DCV_OBS_DISABLE
  GTEST_SKIP() << "registry twins compile out under DCV_OBS_DISABLE";
#endif
  // stats() and the "runtime/socket/*" registry counters are one ledger:
  // after a severed link resumes and replays, every field still agrees on
  // both sides (replay bytes included).
  obs::MetricsRegistry coordinator_metrics;
  obs::MetricsRegistry worker_metrics;
  SocketTransport::Options options = FastOptions();
  options.allow_reconnect = true;
  options.reconnect_window_ms = 5000;
  options.reconnect_grace_ms = 20;
  SocketTransport::Options coordinator_options = options;
  coordinator_options.metrics = &coordinator_metrics;
  SocketTransport::Options worker_options = options;
  worker_options.metrics = &worker_metrics;
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, coordinator_options);
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  std::unique_ptr<SocketTransport> worker;
  std::thread dial([&] {
    auto t = SocketTransport::Connect("127.0.0.1", coordinator->port(),
                                      /*worker=*/0, /*num_sites=*/1,
                                      /*num_workers=*/1, worker_options);
    if (t.ok()) {
      worker = std::move(*t);
    }
  });
  ASSERT_TRUE(coordinator->AcceptWorkers().ok());
  dial.join();
  ASSERT_TRUE(worker != nullptr);

  ASSERT_TRUE(coordinator->InjectPeerFailure(0).ok());
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        coordinator->Send(ToSite(0, ActorMsgKind::kPollRequest, i, i)));
    ASSERT_TRUE(worker->Send(ToCoordinator(0, ActorMsgKind::kAlarm, i, i)));
  }
  Envelope e;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(worker->RecvWorker(0, &e)) << "frame " << i;
    ASSERT_TRUE(coordinator->RecvShard(0, &e)) << "frame " << i;
  }
  worker->Shutdown();
  coordinator->Shutdown();

  const SocketStats cstats = coordinator->stats();
  EXPECT_EQ(cstats.reconnects, 1);
  EXPECT_GT(cstats.replayed_frames, 0);
  struct Field {
    const char* name;
    int64_t SocketStats::*field;
  };
  const Field fields[] = {
      {"frames_tx", &SocketStats::frames_sent},
      {"frames_rx", &SocketStats::frames_received},
      {"bytes_tx", &SocketStats::bytes_sent},
      {"bytes_rx", &SocketStats::bytes_received},
      {"connect_attempts", &SocketStats::connect_attempts},
      {"connect_retries", &SocketStats::connect_retries},
      {"accept_timeouts", &SocketStats::accept_timeouts},
      {"decode_errors", &SocketStats::decode_errors},
      {"disconnects", &SocketStats::disconnects},
      {"truncated_frames", &SocketStats::truncated_frames},
      {"reconnects", &SocketStats::reconnects},
      {"replayed_frames", &SocketStats::replayed_frames},
      {"duplicate_frames", &SocketStats::duplicate_frames},
  };
  const std::pair<const char*, std::pair<SocketStats, obs::MetricsRegistry*>>
      sides[] = {{"coordinator", {cstats, &coordinator_metrics}},
                 {"worker", {worker->stats(), &worker_metrics}}};
  for (const auto& [side, ledgers] : sides) {
    const obs::MetricsSnapshot snap = ledgers.second->Snapshot();
    for (const Field& f : fields) {
      const std::string name = std::string("runtime/socket/") + f.name;
      ASSERT_EQ(snap.counters.count(name), 1u) << side << " " << name;
      EXPECT_EQ(snap.counters.at(name), ledgers.first.*f.field)
          << side << " " << name;
    }
  }
}

TEST(SocketTransportTest, InitialAcceptRejectsDuplicateWorker) {
  // Two hand-built hellos claiming the same worker index: the first is
  // accepted, the second gets ok == 0 and fails the whole accept.
  auto listen = SocketTransport::Listen(/*num_sites=*/2, /*num_workers=*/2,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  Status accept = OkStatus();
  std::thread acceptor([&] { accept = coordinator->AcceptWorkers(); });
  HelloFrame hello;
  hello.worker = 0;
  hello.num_workers = 2;
  hello.num_sites = 2;
  const int first = DialRawHello(coordinator->port(), hello);
  ASSERT_GE(first, 0);
  auto first_ack = ReadRawAck(first);
  const int second = DialRawHello(coordinator->port(), hello);
  auto second_ack = second >= 0 ? ReadRawAck(second)
                                : Result<HelloAckFrame>(
                                      InternalError("second dial failed"));
  acceptor.join();
  ::close(first);
  if (second >= 0) {
    ::close(second);
  }
  ASSERT_TRUE(first_ack.ok()) << first_ack.status().message();
  EXPECT_EQ(first_ack->ok, 1);
  ASSERT_TRUE(second_ack.ok()) << second_ack.status().message();
  EXPECT_EQ(second_ack->ok, 0);
  ASSERT_FALSE(accept.ok());
  EXPECT_NE(accept.message().find("connected twice"), std::string::npos)
      << accept.message();
  coordinator->Shutdown();
}

TEST(SocketTransportTest, ResumeRejectsStaleGeneration) {
  // A resume hello whose generation is not newer than the live link's is
  // fenced off: ok == 0, and the live link keeps working untouched.
  SocketTransport::Options options = FastOptions();
  options.allow_reconnect = true;
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, options);
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  std::unique_ptr<SocketTransport> worker;
  std::thread dial([&] {
    auto t = SocketTransport::Connect("127.0.0.1", coordinator->port(),
                                      /*worker=*/0, /*num_sites=*/1,
                                      /*num_workers=*/1, options);
    if (t.ok()) {
      worker = std::move(*t);
    }
  });
  ASSERT_TRUE(coordinator->AcceptWorkers().ok());
  dial.join();
  ASSERT_TRUE(worker != nullptr);

  HelloFrame stale;
  stale.worker = 0;
  stale.num_workers = 1;
  stale.num_sites = 1;
  stale.generation = 0;  // The live link's own generation: not newer.
  const int fd = DialRawHello(coordinator->port(), stale);
  ASSERT_GE(fd, 0);
  auto ack = ReadRawAck(fd);
  ::close(fd);
  ASSERT_TRUE(ack.ok()) << ack.status().message();
  EXPECT_EQ(ack->ok, 0);

  ASSERT_TRUE(
      coordinator->Send(ToSite(0, ActorMsgKind::kThresholdUpdate, 0, 7)));
  ASSERT_TRUE(worker->Send(ToCoordinator(0, ActorMsgKind::kAlarm, 1, 8)));
  Envelope e;
  ASSERT_TRUE(worker->RecvWorker(0, &e));
  EXPECT_EQ(e.msg.value, 7);
  ASSERT_TRUE(coordinator->RecvShard(0, &e));
  EXPECT_EQ(e.msg.value, 8);
  worker->Shutdown();
  coordinator->Shutdown();
  EXPECT_EQ(coordinator->stats().reconnects, 0);
  EXPECT_EQ(worker->stats().reconnects, 0);
}

TEST(SocketTransportTest, LanedInboxKeepsEachConnectionsOrderAcrossSendPaths) {
  // The socket twin of ThreadTransportTest's laned-inbox order test: each
  // worker's run crosses its own connection and reader thread into the
  // shard inbox while the root interleaves commands; every producer's
  // order must survive.
  constexpr int kWorkers = 2;
  constexpr int kPerProducer = 6000;
  auto listen = SocketTransport::Listen(/*num_sites=*/4, kWorkers,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  auto workers = ConnectWorkers(coordinator.get(), 4, kWorkers);
  ASSERT_TRUE(workers[0] != nullptr && workers[1] != nullptr);
  // Producer p tags its envelopes with epoch p and value = its sequence.
  auto tagged = [](int site, int producer, int64_t seq) {
    return ToCoordinator(site, ActorMsgKind::kAlarm, producer, seq);
  };
  std::vector<std::thread> producers;
  for (int w = 0; w < kWorkers; ++w) {
    // Worker w speaks for its sites w and w + 2, rotating through every
    // send path in bursts of up to 7.
    producers.emplace_back([&, w] {
      Transport& t = *workers[static_cast<size_t>(w)];
      int64_t seq = 0;
      for (int burst = 0; seq < kPerProducer; ++burst) {
        std::vector<Envelope> batch;
        for (int i = 0; i < 7 && seq < kPerProducer; ++i) {
          batch.push_back(tagged(w + 2 * (i % 2), w, seq++));
        }
        if (burst % 3 == 0) {
          ASSERT_TRUE(t.SendBatch(batch));
        } else if (burst % 3 == 1) {
          for (const Envelope& e : batch) {
            ASSERT_TRUE(t.Send(e));
          }
        } else {
          for (size_t next = 0; next < batch.size();) {
            bool closed = false;
            next += t.TrySendBatch(batch, next, &closed);
            ASSERT_FALSE(closed);
            std::this_thread::yield();
          }
        }
      }
    });
  }
  producers.emplace_back([&] {  // The root: commands via SendToShard.
    for (int64_t seq = 0; seq < kPerProducer; ++seq) {
      Envelope cmd = tagged(0, kWorkers, seq);
      cmd.from = kCoordinatorId;
      ASSERT_TRUE(coordinator->SendToShard(0, cmd));
    }
  });
  std::vector<int64_t> next_seq(kWorkers + 1, 0);
  std::vector<Envelope> batch;
  int64_t received = 0;
  while (received < (kWorkers + 1) * kPerProducer) {
    batch.clear();
    const size_t got = coordinator->RecvShardAll(0, &batch);
    ASSERT_GT(got, 0u);
    for (const Envelope& e : batch) {
      const size_t p = static_cast<size_t>(e.msg.epoch);
      ASSERT_LT(p, next_seq.size());
      ASSERT_EQ(e.msg.value, next_seq[p]) << "producer " << p;
      ++next_seq[p];
    }
    received += static_cast<int64_t>(got);
  }
  for (std::thread& th : producers) {
    th.join();
  }
  Envelope extra;
  EXPECT_FALSE(coordinator->TryRecvShard(0, &extra));  // The total is exact.
  workers[0]->Shutdown();
  workers[1]->Shutdown();
  coordinator->Shutdown();
  EXPECT_EQ(coordinator->stats().decode_errors, 0);
}

TEST(SocketTransportTest, CoordinatorDropsEnvelopesNotBoundForIt) {
  // A worker may only send coordinator-bound envelopes. A site-to-site
  // envelope from a site in range must not reach a shard inbox, nor be
  // routed back out to a worker: it counts as a decode error and is gone.
  auto listen = SocketTransport::Listen(/*num_sites=*/2, /*num_workers=*/1,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  Status accept = OkStatus();
  std::thread acceptor([&] { accept = coordinator->AcceptWorkers(); });
  HelloFrame hello;
  hello.worker = 0;
  hello.num_workers = 1;
  hello.num_sites = 2;
  const int fd = DialRawHello(coordinator->port(), hello);
  auto ack = fd >= 0 ? ReadRawAck(fd)
                     : Result<HelloAckFrame>(InternalError("dial failed"));
  acceptor.join();
  ASSERT_TRUE(accept.ok()) << accept.message();
  ASSERT_TRUE(ack.ok()) << ack.status().message();
  ASSERT_EQ(ack->ok, 1);

  Envelope envs[2] = {ToSite(1, ActorMsgKind::kAlarm, 0, 5),
                      ToCoordinator(1, ActorMsgKind::kAlarm, 0, 6)};
  envs[0].from = 0;  // Site 0 to site 1.
  std::string bytes;
  AppendEnvelopeBatchFrame(envs, 2, &bytes, /*seq=*/1);
  ASSERT_TRUE(SendRaw(fd, bytes));
  Envelope e;
  ASSERT_TRUE(coordinator->RecvShard(0, &e));
  EXPECT_EQ(e.msg.value, 6);
  EXPECT_EQ(coordinator->stats().decode_errors, 1);
  EXPECT_FALSE(coordinator->TryRecvShard(0, &e));
  ::close(fd);
  coordinator->Shutdown();
}

TEST(SocketTransportTest, OrderlyWorkerExitKeepsShardInboxesOpen) {
  // Worker 1 exits in order: its last envelope, its final_flush telemetry
  // frame, then a clean end of stream. That closes only its own worker box;
  // the shard inbox stays open for worker 0's envelopes and the root's
  // commands. Worker 0 then drops without a final flush, as a crashed
  // worker does, and that closes the shard inbox.
  auto listen = SocketTransport::Listen(/*num_sites=*/2, /*num_workers=*/2,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  Status accept = OkStatus();
  std::thread acceptor([&] { accept = coordinator->AcceptWorkers(); });
  int fds[2] = {-1, -1};
  for (int w = 0; w < 2; ++w) {
    HelloFrame hello;
    hello.worker = w;
    hello.num_workers = 2;
    hello.num_sites = 2;
    fds[w] = DialRawHello(coordinator->port(), hello);
    ASSERT_GE(fds[w], 0);
    auto ack = ReadRawAck(fds[w]);
    ASSERT_TRUE(ack.ok()) << ack.status().message();
    ASSERT_EQ(ack->ok, 1);
  }
  acceptor.join();
  ASSERT_TRUE(accept.ok()) << accept.message();

  const Envelope done = ToCoordinator(1, ActorMsgKind::kSiteDone, 0, 7);
  std::string bytes;
  AppendEnvelopeBatchFrame(&done, 1, &bytes, /*seq=*/1);
  TelemetryFrame final_flush;
  final_flush.worker = 1;
  final_flush.final_flush = 1;
  ASSERT_TRUE(AppendTelemetryFrame(final_flush, &bytes).ok());
  ASSERT_TRUE(SendRaw(fds[1], bytes));
  ::shutdown(fds[1], SHUT_WR);
  // The reader closes worker 1's box once it reaches the end of stream.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (coordinator->Send(ToSite(1, ActorMsgKind::kPollRequest, 0, 0)) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(coordinator->Send(ToSite(1, ActorMsgKind::kPollRequest, 0, 0)));
  Envelope command =
      ToCoordinator(kCoordinatorId, ActorMsgKind::kShutdown, 0, 9);
  EXPECT_TRUE(coordinator->SendToShard(0, command));
  Envelope e;
  ASSERT_TRUE(coordinator->RecvShard(0, &e));
  EXPECT_EQ(e.msg.kind, ActorMsgKind::kSiteDone);
  EXPECT_EQ(e.msg.value, 7);
  ASSERT_TRUE(coordinator->RecvShard(0, &e));
  EXPECT_EQ(e.msg.kind, ActorMsgKind::kShutdown);
  EXPECT_EQ(coordinator->stats().disconnects, 0);

  ::close(fds[0]);
  std::vector<Envelope> rest;
  bool timed_out = false;
  EXPECT_EQ(coordinator->RecvShardAllFor(0, &rest, 5000, &timed_out), 0u);
  EXPECT_FALSE(timed_out);
  ::close(fds[1]);
  coordinator->Shutdown();
}

TEST(SocketTransportTest, WorkerDropsEnvelopesForSitesItDoesNotOwn) {
  // Worker 0 of 2 owns sites 0 and 2. An envelope for site 1 (worker 1's)
  // or for the coordinator would sit in a box no thread drains: both count
  // as decode errors and only the envelope for site 2 arrives.
  int port = 0;
  const int listen_fd = ListenRaw(&port);
  ASSERT_GE(listen_fd, 0);
  const Envelope envs[3] = {ToSite(1, ActorMsgKind::kPollRequest, 0, 5),
                            ToCoordinator(0, ActorMsgKind::kAlarm, 0, 6),
                            ToSite(2, ActorMsgKind::kPollRequest, 0, 7)};
  std::string tail;
  AppendEnvelopeBatchFrame(envs, 3, &tail, /*seq=*/1);
  int conn = -1;
  std::thread raw_coordinator(
      [&] { conn = AcceptRawWorker(listen_fd, 4, 2, tail); });
  auto worker = SocketTransport::Connect("127.0.0.1", port, /*worker=*/0,
                                         /*num_sites=*/4, /*num_workers=*/2,
                                         FastOptions());
  raw_coordinator.join();
  ASSERT_TRUE(worker.ok()) << worker.status().message();
  ASSERT_GE(conn, 0);
  Envelope e;
  ASSERT_TRUE((*worker)->RecvWorker(0, &e));
  EXPECT_EQ(e.to, 2);
  EXPECT_EQ(e.msg.value, 7);
  EXPECT_EQ((*worker)->stats().decode_errors, 2);
  EXPECT_FALSE((*worker)->TryRecvWorker(0, &e));
  ::close(conn);
  ::close(listen_fd);
  (*worker)->Shutdown();
}

TEST(SocketTransportTest, WorkerAnswersOnlyOwnedSitesOfUntrustedRanges) {
  // A range poll's end comes off the wire. Worker 1 of 3 owns sites 1, 4
  // and 7 of 10, whose columns open with 100, 400 and 700; whatever the end
  // says, only those of its sites in [to, max(end, to + 1)) capped at the
  // fabric answer, each once. A flagged (summed) range is answered once, by
  // its addressed site, with the sum over the same sites.
  //
  // An epoch start's window end comes off the wire too: a reversed range
  // is its first epoch alone, a window past the column is dropped, one
  // reaching past it is cut at the column, and one longer than
  // VirtualWindowEpochs(10) is cut to that length. A poll inside the last
  // window reads that epoch of the column.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t window = VirtualWindowEpochs(10);
  const int64_t column = window + 10;
  int port = 0;
  const int listen_fd = ListenRaw(&port);
  ASSERT_GE(listen_fd, 0);
  auto summed = [](Envelope e) {
    e.msg.flag = true;
    return e;
  };
  const Envelope envs[] = {
      ToSite(1, ActorMsgKind::kEpochStart, 0, 0),
      ToSite(4, ActorMsgKind::kEpochStart, 0, 0),
      ToSite(7, ActorMsgKind::kEpochStart, 0, 0),
      ToSite(1, ActorMsgKind::kPollRequest, 1, kMax),   // 1, 4, 7.
      ToSite(4, ActorMsgKind::kPollRequest, 2, -5),     // 4.
      ToSite(7, ActorMsgKind::kPollRequest, 3, 3),      // 7: end below to.
      ToSite(4, ActorMsgKind::kPollRequest, 4, 1000),   // 4, 7.
      ToSite(7, ActorMsgKind::kPollRequest, 5, kMin),   // 7.
      ToSite(1, ActorMsgKind::kPollRequest, 6, 5),      // 1, 4.
      summed(ToSite(1, ActorMsgKind::kPollRequest, 7, kMax)),  // 1, 4, 7.
      summed(ToSite(4, ActorMsgKind::kPollRequest, 8, -5)),    // 4.
      summed(ToSite(7, ActorMsgKind::kPollRequest, 9, kMin)),  // 7.
      summed(ToSite(1, ActorMsgKind::kPollRequest, 10, 5)),    // 1, 4.
      ToSite(1, ActorMsgKind::kEpochStart, 5, -3),             // 5.
      ToSite(4, ActorMsgKind::kEpochStart, column, kMax),      // None.
      ToSite(7, ActorMsgKind::kEpochStart, kMax, kMin),        // None.
      ToSite(7, ActorMsgKind::kEpochStart, column - 2, kMax),  // 2.
      ToSite(4, ActorMsgKind::kEpochStart, 0, kMax),           // `window`.
      ToSite(4, ActorMsgKind::kPollRequest, window - 1, 0),  // In it.
      ToSite(4, ActorMsgKind::kPollRequest, window + 3, 0),  // Past it.
      ToSite(1, ActorMsgKind::kShutdown, 0, kMax)};     // Every slot.
  const std::map<int64_t, std::vector<int>> want = {
      {1, {1, 4, 7}}, {2, {4}}, {3, {7}}, {4, {4, 7}}, {5, {7}}, {6, {1, 4}}};
  const std::map<int64_t, std::vector<std::pair<int, int64_t>>> want_sums = {
      {7, {{1, 1200}}}, {8, {{4, 400}}}, {9, {{7, 700}}}, {10, {{1, 500}}}};
  // Site 4's column holds 400 + e at epoch e; its last window ends at
  // `window`, so a poll past it reads the most recent value.
  const std::map<int64_t, std::vector<std::pair<int, int64_t>>> want_window =
      {{window - 1, {{4, 400 + window - 1}}},
       {window + 3, {{4, 400 + window - 1}}}};
  // Per site, the epochs it reported: every site alarms at every epoch
  // (threshold 0) and reports each.
  std::map<int, std::vector<int64_t>> want_reports = {
      {1, {0, 5}}, {4, {0}}, {7, {0, column - 2, column - 1}}};
  for (int64_t e = 0; e < window; ++e) {
    want_reports[4].push_back(e);
  }
  std::string tail;
  AppendEnvelopeBatchFrame(envs, sizeof(envs) / sizeof(envs[0]), &tail,
                           /*seq=*/1);
  int conn = -1;
  std::thread raw_coordinator(
      [&] { conn = AcceptRawWorker(listen_fd, 10, 3, tail); });
  auto worker = SocketTransport::Connect("127.0.0.1", port, /*worker=*/1,
                                         /*num_sites=*/10, /*num_workers=*/3,
                                         FastOptions());
  raw_coordinator.join();
  ASSERT_TRUE(worker.ok()) << worker.status().message();
  ASSERT_GE(conn, 0);

  SiteEngine::Config cfg;
  cfg.worker = 1;
  cfg.num_workers = 3;
  cfg.num_sites = 10;
  cfg.thresholds.assign(3, 0);
  for (const int64_t base : {100, 400, 700}) {
    cfg.series.emplace_back();
    for (int64_t e = 0; e < column; ++e) {
      cfg.series.back().push_back(base + e);
    }
  }
  SiteEngine engine(std::move(cfg));
  engine.RunVirtual(worker->get());  // Returns on the covering shutdown.
  EXPECT_EQ((*worker)->stats().decode_errors, 0);
  (*worker)->Shutdown();  // Flushes the replies, then ends the stream.

  std::map<int64_t, std::vector<int>> answered;
  std::map<int64_t, std::vector<std::pair<int, int64_t>>> sums;
  std::map<int64_t, std::vector<std::pair<int, int64_t>>> windowed;
  std::map<int, std::vector<int64_t>> reports;
  for (const Envelope& e : ReadRawEnvelopes(conn, SIZE_MAX)) {
    if (e.msg.kind == ActorMsgKind::kEpochReport) {
      reports[e.from].push_back(e.msg.epoch);
      continue;
    }
    EXPECT_EQ(e.msg.kind, ActorMsgKind::kPollResponse);
    if (e.msg.epoch > 10) {
      windowed[e.msg.epoch].emplace_back(e.from, e.msg.value);
    } else if (e.msg.epoch >= 7) {
      sums[e.msg.epoch].emplace_back(e.from, e.msg.value);
    } else {
      answered[e.msg.epoch].push_back(e.from);
    }
  }
  EXPECT_EQ(reports, want_reports);
  EXPECT_EQ(answered, want);
  EXPECT_EQ(sums, want_sums);
  EXPECT_EQ(windowed, want_window);
  ::close(conn);
  ::close(listen_fd);
}

/// Dials a coordinator with a hello stamped `version` and checks that the
/// accept fails on the wire version.
void ExpectHelloVersionRejected(uint8_t version) {
  ASSERT_NE(version, kWireVersion);
  auto listen = SocketTransport::Listen(/*num_sites=*/2, /*num_workers=*/1,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  Status accept = OkStatus();
  std::thread acceptor([&] { accept = coordinator->AcceptWorkers(); });
  HelloFrame hello;
  hello.worker = 0;
  hello.num_workers = 1;
  hello.num_sites = 2;
  std::string bytes;
  AppendHelloFrame(hello, &bytes);
  bytes[4] = static_cast<char>(version);  // After the u32 length prefix.
  const int fd = DialRaw(coordinator->port(), bytes);
  acceptor.join();
  ASSERT_GE(fd, 0);
  ASSERT_FALSE(accept.ok());
  EXPECT_NE(accept.message().find("wire version"), std::string::npos)
      << accept.message();
  ::close(fd);
  coordinator->Shutdown();
}

TEST(SocketTransportTest, RejectsAWireV6Hello) {
  // Wire v7 retired the layout frame types; a v6 peer must fail at the
  // hello, not on its first layout frame.
  ExpectHelloVersionRejected(6);
}

TEST(SocketTransportTest, RejectsAWireV7Hello) {
  // Wire v8 gave the poll request's flag a meaning (one summed answer per
  // range); a v7 worker would answer per site, so it must fail at the
  // hello, not mid-round.
  ExpectHelloVersionRejected(7);
}

TEST(SocketTransportTest, RejectsAWireV8Hello) {
  // Wire v9 gave the epoch start's value a meaning (the end of a window of
  // epochs); a v8 worker would observe one epoch per start and hang the
  // window, so it must fail at the hello.
  ExpectHelloVersionRejected(8);
}

TEST(SocketTransportTest, RejectsAWireV9Hello) {
  // Wire v10 took the up meaning away from the epoch start's flag; a v9
  // worker would read the unset flag as a down site and never alarm, so it
  // must fail at the hello.
  ExpectHelloVersionRejected(9);
}

TEST(SocketTransportTest, RejectsAWireV10Hello) {
  // Wire v11 renumbered the telemetry frame's trace-event kinds; a v10
  // worker's reconnect events would be read as other kinds, so it must
  // fail at the hello.
  ExpectHelloVersionRejected(10);
}

}  // namespace
}  // namespace dcv

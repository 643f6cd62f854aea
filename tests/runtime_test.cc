#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/shard.h"
#include "runtime/site_worker.h"
#include "runtime/transport.h"
#include "trace/trace.h"

namespace dcv {
namespace {

// --- Transport ------------------------------------------------------------

TEST(ThreadTransportTest, ValidatesShape) {
  EXPECT_FALSE(ThreadTransport::Create(0, 1).ok());
  EXPECT_FALSE(ThreadTransport::Create(4, 0).ok());
  EXPECT_FALSE(ThreadTransport::Create(4, 5).ok());
  EXPECT_TRUE(ThreadTransport::Create(4, 4).ok());
  // Shard count must fit [1, num_sites].
  EXPECT_FALSE(ThreadTransport::Create(4, 2, 0, 0, 0).ok());
  EXPECT_FALSE(ThreadTransport::Create(4, 2, 0, 0, 5).ok());
  EXPECT_TRUE(ThreadTransport::Create(4, 2, 0, 0, 4).ok());
}

TEST(ThreadTransportTest, ShardsRouteCoordinatorTrafficBySender) {
  // 5 sites over 2 shards: shard 0 owns {0, 1, 2}, shard 1 owns {3, 4}.
  auto transport = ThreadTransport::Create(5, 2, 0, 0, 2);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  EXPECT_EQ(t.num_shards(), 2);
  EXPECT_EQ(t.ShardOf(0), 0);
  EXPECT_EQ(t.ShardOf(2), 0);
  EXPECT_EQ(t.ShardOf(3), 1);
  EXPECT_EQ(t.ShardOf(4), 1);
  // The shard inbox is sized for the most-loaded shard (3 sites here).
  EXPECT_EQ((*transport)->coordinator_capacity(), 2u * 3u + 16u);

  ActorMessage msg;
  msg.kind = ActorMsgKind::kEpochReport;
  ASSERT_TRUE(t.Send(Envelope{4, kCoordinatorId, msg}));
  ASSERT_TRUE(t.Send(Envelope{0, kCoordinatorId, msg}));

  Envelope e;
  // Site 4's report lands in shard 1's inbox, site 0's in shard 0's.
  ASSERT_TRUE(t.TryRecvShard(1, &e));
  EXPECT_EQ(e.from, 4);
  EXPECT_FALSE(t.TryRecvShard(1, &e));
  ASSERT_TRUE(t.TryRecvShard(0, &e));
  EXPECT_EQ(e.from, 0);
}

TEST(ThreadTransportTest, SendToShardAndBatchDrain) {
  auto transport = ThreadTransport::Create(6, 2, 0, 0, 3);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;

  // Root command straight into shard 2's inbox, interleaved with site
  // traffic; RecvShardAll drains the whole backlog in arrival order.
  ActorMessage report;
  report.kind = ActorMsgKind::kEpochReport;
  ASSERT_TRUE(t.Send(Envelope{4, kCoordinatorId, report}));
  ActorMessage cmd;
  cmd.kind = ActorMsgKind::kPollRequest;
  ASSERT_TRUE(t.SendToShard(2, Envelope{kCoordinatorId, kCoordinatorId, cmd}));
  ASSERT_TRUE(t.Send(Envelope{5, kCoordinatorId, report}));

  std::vector<Envelope> batch;
  EXPECT_EQ(t.RecvShardAll(2, &batch), 3u);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].from, 4);
  EXPECT_EQ(batch[1].from, kCoordinatorId);
  EXPECT_EQ(batch[1].msg.kind, ActorMsgKind::kPollRequest);
  EXPECT_EQ(batch[2].from, 5);

  // Out-of-range shard ids are rejected, not misrouted.
  EXPECT_FALSE(t.SendToShard(3, Envelope{kCoordinatorId, kCoordinatorId, cmd}));
  EXPECT_FALSE(t.SendToShard(-1, Envelope{kCoordinatorId, kCoordinatorId,
                                          cmd}));

  t.Shutdown();
  batch.clear();
  EXPECT_EQ(t.RecvShardAll(2, &batch), 0u);
}

TEST(ThreadTransportTest, SingleShardIsTheFlatCoordinatorInbox) {
  // With one shard, shard 0's inbox receives all coordinator-bound traffic.
  auto transport = ThreadTransport::Create(3, 1);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  EXPECT_EQ(t.num_shards(), 1);
  ActorMessage msg;
  msg.kind = ActorMsgKind::kAlarm;
  ASSERT_TRUE(t.Send(Envelope{2, kCoordinatorId, msg}));
  Envelope e;
  ASSERT_TRUE(t.TryRecvShard(0, &e));
  EXPECT_EQ(e.from, 2);
}

TEST(ThreadTransportTest, RoutesBySiteAndMultiplexesWorkers) {
  auto transport = ThreadTransport::Create(5, 2);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  EXPECT_EQ(t.WorkerOf(0), 0);
  EXPECT_EQ(t.WorkerOf(1), 1);
  EXPECT_EQ(t.WorkerOf(4), 0);

  ActorMessage msg;
  msg.kind = ActorMsgKind::kPollRequest;
  msg.epoch = 7;
  ASSERT_TRUE(t.Send(Envelope{kCoordinatorId, 4, msg}));
  msg.kind = ActorMsgKind::kEpochReport;
  ASSERT_TRUE(t.Send(Envelope{3, kCoordinatorId, msg}));

  Envelope e;
  // Site 4 lives in worker 0's inbox; worker 1's is empty.
  ASSERT_TRUE(t.TryRecvWorker(0, &e));
  EXPECT_EQ(e.to, 4);
  EXPECT_EQ(e.msg.kind, ActorMsgKind::kPollRequest);
  EXPECT_EQ(e.msg.epoch, 7);
  EXPECT_FALSE(t.TryRecvWorker(1, &e));
  ASSERT_TRUE(t.TryRecvShard(0, &e));
  EXPECT_EQ(e.from, 3);

  t.Shutdown();
  EXPECT_FALSE(t.RecvShard(0, &e));
  EXPECT_FALSE(t.RecvWorker(0, &e));
  EXPECT_FALSE(t.Send(Envelope{kCoordinatorId, 0, msg}));
}

TEST(ThreadTransportTest, WorkerCapacityRoundsUpForUnevenShapes) {
  // 5 sites over 2 workers: worker 0 owns 3 sites, so the per-worker inbox
  // must be sized for ceil(5/2) = 3 sites (2 * 3 plus a window's poll
  // ranges), not floor = 2. With floor sizing a window's epoch starts plus
  // a free leg's shutdowns could overfill worker 0's inbox.
  auto window = [](int sites) {
    return static_cast<size_t>(VirtualWindowEpochs(sites));
  };
  auto uneven = ThreadTransport::Create(5, 2);
  ASSERT_TRUE(uneven.ok());
  EXPECT_EQ((*uneven)->worker_capacity(), 2u * 3u + window(5));

  auto even = ThreadTransport::Create(6, 2);
  ASSERT_TRUE(even.ok());
  EXPECT_EQ((*even)->worker_capacity(), 2u * 3u + window(6));

  auto single = ThreadTransport::Create(7, 1);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ((*single)->worker_capacity(), 2u * 7u + window(7));
}

TEST(ThreadTransportTest, UnevenShapeSurvivesBurstWithoutBlocking) {
  // The invariant behind the capacity formula: the coordinator can push
  // two envelopes per site (a window's kEpochStart and a leg's range
  // shutdown, say) and more at the most-loaded worker without anyone
  // draining.
  auto transport = ThreadTransport::Create(5, 2);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  ActorMessage msg;
  msg.kind = ActorMsgKind::kEpochStart;
  for (int round = 0; round < 4; ++round) {
    for (int site : {0, 2, 4}) {  // Worker 0's sites.
      ASSERT_TRUE(t.Send(Envelope{kCoordinatorId, site, msg}));
    }
  }
  Envelope e;
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(t.TryRecvWorker(0, &e));
  }
  EXPECT_FALSE(t.TryRecvWorker(0, &e));
}

// --- Laned shard inboxes ---------------------------------------------------
//
// A shard inbox is one lane per producing thread (num_workers + 1 of them).
// Each producer's sequence stays FIFO, every envelope is delivered exactly
// once to however many consumers, and no wake-up is lost.

Envelope Tagged(int from, int producer, int64_t seq) {
  ActorMessage msg;
  msg.kind = ActorMsgKind::kAlarm;
  msg.epoch = producer;
  msg.value = seq;
  return Envelope{from, kCoordinatorId, msg};
}

TEST(ThreadTransportTest, LanedInboxKeepsEachProducersOrderAcrossSendPaths) {
  constexpr int kEngines = 3;
  constexpr int kPerProducer = 6000;
  auto transport = ThreadTransport::Create(6, kEngines);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  std::vector<std::thread> producers;
  for (int p = 0; p < kEngines; ++p) {
    // Engine p speaks for sites p and p + 3, rotating through every send
    // path in bursts of up to 7.
    producers.emplace_back([&t, p] {
      int64_t seq = 0;
      for (int burst = 0; seq < kPerProducer; ++burst) {
        std::vector<Envelope> batch;
        for (int i = 0; i < 7 && seq < kPerProducer; ++i) {
          batch.push_back(Tagged(p + 3 * (i % 2), p, seq++));
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
  producers.emplace_back([&t] {  // The root: commands via SendToShard.
    for (int64_t seq = 0; seq < kPerProducer; ++seq) {
      ASSERT_TRUE(t.SendToShard(0, Tagged(kCoordinatorId, kEngines, seq)));
    }
  });
  std::vector<int64_t> next_seq(kEngines + 1, 0);
  std::vector<Envelope> batch;
  int64_t received = 0;
  while (received < (kEngines + 1) * kPerProducer) {
    batch.clear();
    const size_t got = t.RecvShardAll(0, &batch);
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
  EXPECT_FALSE(t.TryRecvShard(0, &extra));  // The total is exact.
}

TEST(ThreadTransportTest, LanedInboxTwoConsumersReceiveEachEnvelopeOnce) {
  // The laned inbox allows any number of consumers; each envelope must
  // still reach exactly one of them.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 5000;
  auto transport = ThreadTransport::Create(3, kProducers);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  std::vector<std::vector<Envelope>> seen(2);
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < seen.size(); ++c) {
    consumers.emplace_back([&t, &seen, c] {
      while (t.RecvShardAll(0, &seen[c]) > 0) {
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&t, p] {
      for (int64_t seq = 0; seq < kPerProducer; ++seq) {
        ASSERT_TRUE(t.Send(Tagged(p, p, seq)));
      }
    });
  }
  for (std::thread& th : producers) {
    th.join();
  }
  t.Shutdown();  // Consumers drain, then see closed-and-drained.
  for (std::thread& th : consumers) {
    th.join();
  }
  std::vector<std::vector<int>> count(kProducers,
                                      std::vector<int>(kPerProducer, 0));
  for (const std::vector<Envelope>& part : seen) {
    for (const Envelope& e : part) {
      ++count[static_cast<size_t>(e.msg.epoch)]
             [static_cast<size_t>(e.msg.value)];
    }
  }
  for (int p = 0; p < kProducers; ++p) {
    for (int seq = 0; seq < kPerProducer; ++seq) {
      ASSERT_EQ(count[static_cast<size_t>(p)][static_cast<size_t>(seq)], 1)
          << "producer " << p << " seq " << seq;
    }
  }
}

TEST(ThreadTransportTest, LanedInboxNeverLosesAWakeUp) {
  // The consumer blocks in RecvShardAll between single pushes, each from a
  // random one of four spinning producer threads (so from any lane). A
  // random pause before each receive slides the consumer's empty check and
  // waiter registration across the moment of the push. A lost wake-up
  // hangs it; the deadline turns that into a failure.
  constexpr int kPushes = 4000;
  constexpr int kProducers = 4;
  auto transport = ThreadTransport::Create(4, 3);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  std::atomic<bool> stop{false};
  std::vector<std::atomic<int64_t>> jobs(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    jobs[static_cast<size_t>(p)] = -1;
    producers.emplace_back([&, p] {
      std::atomic<int64_t>& job = jobs[static_cast<size_t>(p)];
      while (!stop.load()) {
        const int64_t seq = job.exchange(-1);
        if (seq >= 0) {
          t.Send(Tagged(p, p, seq));
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::atomic<int64_t> consumed{0};
  std::thread consumer([&] {
    std::mt19937 pause_rng(5);
    std::vector<Envelope> batch;
    while (consumed.load() < kPushes) {
      for (uint32_t spin = pause_rng() % 2048; spin > 0; --spin) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
      batch.clear();
      const size_t got = t.RecvShardAll(0, &batch);
      if (got == 0) {
        return;  // Shut down by the watchdog below.
      }
      consumed.fetch_add(static_cast<int64_t>(got));
    }
  });
  std::mt19937 rng(17);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool in_time = true;
  for (int64_t i = 0; i < kPushes && in_time; ++i) {
    jobs[rng() % kProducers] = i;
    while (consumed.load() <= i && in_time) {
      in_time = std::chrono::steady_clock::now() < deadline;
      std::this_thread::yield();
    }
  }
  EXPECT_TRUE(in_time) << "consumer stuck after " << consumed.load()
                       << " of " << kPushes << " envelopes";
  t.Shutdown();
  stop = true;
  consumer.join();
  for (std::thread& th : producers) {
    th.join();
  }
}

TEST(ThreadTransportTest, LanedRecvShardAllForTellsTimeoutFromClosure) {
  auto transport = ThreadTransport::Create(4, 2);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  std::vector<Envelope> batch;
  bool timed_out = false;
  EXPECT_EQ(t.RecvShardAllFor(0, &batch, 20, &timed_out), 0u);
  EXPECT_TRUE(timed_out);

  // A late push from another thread (another lane) wakes the wait early.
  const auto start = std::chrono::steady_clock::now();
  std::thread late([&t] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(t.Send(Tagged(3, 0, 0)));
  });
  EXPECT_EQ(t.RecvShardAllFor(0, &batch, 20000, &timed_out), 1u);
  EXPECT_FALSE(timed_out);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  late.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].from, 3);

  // Queued envelopes survive Shutdown; then closed-and-drained, no timeout.
  ASSERT_TRUE(t.Send(Tagged(1, 0, 1)));
  t.Shutdown();
  batch.clear();
  EXPECT_EQ(t.RecvShardAllFor(0, &batch, 20000, &timed_out), 1u);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(t.RecvShardAllFor(0, &batch, 20000, &timed_out), 0u);
  EXPECT_FALSE(timed_out);
}

TEST(ThreadTransportTest, FullLaneStopsTrySendBatchAtExactPrefix) {
  // Lane capacity 5. Everything runs on one fresh thread, so its lane holds
  // exactly what it pushed.
  auto transport = ThreadTransport::Create(4, 2, /*coordinator_capacity=*/5);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  EXPECT_EQ((*transport)->coordinator_capacity(), 5u);
  std::thread([&t] {
    ActorMessage poll;
    poll.kind = ActorMsgKind::kPollRequest;
    // Runs: 3 to the coordinator, 2 to workers, 4 to the coordinator. The
    // last run fits only 2 more into the lane.
    std::vector<Envelope> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(Tagged(i, 0, i));
    }
    batch.push_back(Envelope{kCoordinatorId, 0, poll});
    batch.push_back(Envelope{kCoordinatorId, 1, poll});
    for (int i = 3; i < 7; ++i) {
      batch.push_back(Tagged(i % 4, 0, i));
    }
    bool closed = false;
    EXPECT_EQ(t.TrySendBatch(batch, 0, &closed), 7u);
    EXPECT_FALSE(closed);
    EXPECT_EQ(t.TrySendBatch(batch, 7, &closed), 0u);  // Lane full.
    EXPECT_FALSE(closed);
    // An unroutable envelope ends the prefix as a permanent stop.
    std::vector<Envelope> bad = {Envelope{kCoordinatorId, 0, poll},
                                 Envelope{kCoordinatorId, 9, poll}};
    EXPECT_EQ(t.TrySendBatch(bad, 0, &closed), 1u);
    EXPECT_TRUE(closed);
  }).join();
  std::vector<Envelope> batch;
  EXPECT_EQ(t.RecvShardAll(0, &batch), 5u);
}

TEST(ThreadTransportTest, BlockedSendBatchResumesOnDrainAndFailsOnShutdown) {
  auto transport = ThreadTransport::Create(4, 2, /*coordinator_capacity=*/4);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  std::vector<Envelope> eight;
  for (int i = 0; i < 8; ++i) {
    eight.push_back(Tagged(i % 4, 0, i));
  }
  std::atomic<bool> done{false};
  bool sent = false;
  std::thread producer([&] {
    sent = t.SendBatch(eight);  // Fills its lane at 4, then blocks.
    done = true;
  });
  std::vector<Envelope> batch;
  while (batch.size() < 8) {
    t.RecvShardAll(0, &batch);  // Each drain frees the producer's lane.
  }
  producer.join();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(done);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].msg.value, static_cast<int64_t>(i));
  }

  done = false;
  std::thread blocked([&] {
    sent = t.SendBatch(eight);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done);  // Lane full, nobody draining.
  t.Shutdown();
  blocked.join();
  EXPECT_FALSE(sent);
}

// --- Free shard leg: poll-round ids ----------------------------------------

/// The sites `envs` cover on `t` (each envelope's worker's sites below its
/// CoveredEnd), ascending.
std::vector<int> CoveredSites(const Transport& t,
                              const std::vector<Envelope>& envs) {
  std::vector<int> covered;
  for (const Envelope& e : envs) {
    const int end =
        static_cast<int>(std::min<int64_t>(CoveredEnd(e), t.num_sites()));
    for (int site = e.to; site < end; ++site) {
      if (t.WorkerOf(site) == t.WorkerOf(e.to)) {
        covered.push_back(site);
      }
    }
  }
  std::sort(covered.begin(), covered.end());
  return covered;
}

Envelope PollResponse(int site, int64_t epoch, int64_t value) {
  ActorMessage msg;
  msg.kind = ActorMsgKind::kPollResponse;
  msg.epoch = epoch;
  msg.value = value;
  return Envelope{site, kCoordinatorId, msg};
}

TEST(ShardFreeLegTest, CountsOnlyResponsesToItsOwnRound) {
  // A replacement leg (incarnation 1) shares its inbox with the responses
  // its dead predecessor's round left behind. Lanes deliver those in any
  // order relative to the fresh ones, so the leg must count only responses
  // echoing its own round's id — else a stale one resolves the round early
  // with 0 for a site whose fresh response is still on its way. A site's
  // repeated fresh response counts once, so it cannot stand in for another
  // site's either.
  constexpr int kSites = 4;
  auto transport = ThreadTransport::Create(kSites, 2);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  CoordinatorActor::Config config;
  config.num_sites = kSites;
  config.weights = {1, 2, 3, 4};
  config.protocol = RuntimeProtocol::kPolling;
  Mailbox<RootMsg> to_root(16);
  ShardContext ctx;
  ctx.layout = *MakeShardLayout(kSites, 1);
  ctx.config = &config;
  ctx.transport = &t;
  ctx.to_root = &to_root;
  ctx.incarnation = 1;
  ShardFreeLeg leg(std::move(ctx));
  std::vector<RootMsg> out;
  leg.Start(&out);
  ASSERT_TRUE(out.empty());

  ActorMessage kick;
  kick.kind = ActorMsgKind::kPollRequest;
  leg.Step(Envelope{kCoordinatorId, kCoordinatorId, kick}, &out);
  std::vector<Envelope> requests;
  t.TryRecvWorkerAll(0, &requests);
  t.TryRecvWorkerAll(1, &requests);
  // One range request per worker, covering exactly the shard's sites.
  ASSERT_EQ(requests.size(), static_cast<size_t>(t.num_workers()));
  EXPECT_EQ(CoveredSites(t, requests), (std::vector<int>{0, 1, 2, 3}));
  const int64_t id = requests[0].msg.epoch;
  for (const Envelope& r : requests) {
    EXPECT_EQ(r.msg.epoch, id);
    EXPECT_FALSE(r.msg.flag);  // Mixed weights: every site answers.
  }
  ASSERT_NE(id, ShardFreeLeg::PollRoundId(0, 1));

  // The dead leg's first round, answered by site 0.
  leg.Step(PollResponse(0, ShardFreeLeg::PollRoundId(0, 1), 1000), &out);
  EXPECT_TRUE(out.empty());
  for (int site = 0; site < kSites; ++site) {
    leg.Step(PollResponse(site, id, 10 * (site + 1)), &out);
    if (site == 0) {
      leg.Step(PollResponse(0, id, 1000), &out);  // Repeated: ignored.
    }
    if (site + 1 < kSites) {
      ASSERT_TRUE(out.empty()) << "resolved after " << site + 1 << " of "
                               << kSites << " fresh responses";
    }
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, RootMsg::Kind::kPollPartial);
  EXPECT_EQ(out[0].partial_sum, 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40);
}

/// A shard leg over all of `config`'s sites on `t`, started.
std::unique_ptr<ShardFreeLeg> StartedLeg(const CoordinatorActor::Config& config,
                                         Transport* t,
                                         Mailbox<RootMsg>* to_root,
                                         int64_t incarnation = 0) {
  ShardContext ctx;
  ctx.layout = *MakeShardLayout(config.num_sites, 1);
  ctx.config = &config;
  ctx.transport = t;
  ctx.to_root = to_root;
  ctx.incarnation = incarnation;
  auto leg = std::make_unique<ShardFreeLeg>(std::move(ctx));
  std::vector<RootMsg> out;
  leg->Start(&out);
  EXPECT_TRUE(out.empty());
  return leg;
}

// The summed twin of CountsOnlyResponsesToItsOwnRound: with equal weights
// on a perfect channel the leg flags its fan-out, and each target (the
// range's first site on each worker) answers with one sum. Only the first
// answer of each target to the open round counts: a stale round's sum, a
// second sum from the same target and an answer from a site that was not
// a target all leave the round open.
TEST(ShardFreeLegTest, CountsOnlySumsToItsOwnRound) {
  constexpr int kSites = 4;
  auto transport = ThreadTransport::Create(kSites, 2);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  CoordinatorActor::Config config;
  config.num_sites = kSites;
  config.weights = {3, 3, 3, 3};
  config.protocol = RuntimeProtocol::kPolling;
  Mailbox<RootMsg> to_root(16);
  auto leg = StartedLeg(config, &t, &to_root, /*incarnation=*/1);

  std::vector<RootMsg> out;
  ActorMessage kick;
  kick.kind = ActorMsgKind::kPollRequest;
  leg->Step(Envelope{kCoordinatorId, kCoordinatorId, kick}, &out);
  std::vector<Envelope> requests;
  t.TryRecvWorkerAll(0, &requests);
  t.TryRecvWorkerAll(1, &requests);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(CoveredSites(t, requests), (std::vector<int>{0, 1, 2, 3}));
  for (const Envelope& r : requests) {
    EXPECT_TRUE(r.msg.flag) << "request to site " << r.to;
  }
  const int64_t id = requests[0].msg.epoch;
  ASSERT_EQ(id, ShardFreeLeg::PollRoundId(1, 1));

  leg->Step(PollResponse(0, ShardFreeLeg::PollRoundId(0, 1), 1000), &out);
  leg->Step(PollResponse(0, id, 10 + 30), &out);  // Sites 0 and 2.
  leg->Step(PollResponse(0, id, 10 + 30), &out);  // Duplicated.
  leg->Step(PollResponse(3, id, 1000), &out);     // Not a target.
  EXPECT_TRUE(out.empty()) << "resolved before target 1 answered";
  leg->Step(PollResponse(1, id, 20 + 40), &out);  // Sites 1 and 3.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, RootMsg::Kind::kPollPartial);
  EXPECT_EQ(out[0].partial_sum, 3 * (10 + 20 + 30 + 40));
  leg->Step(PollResponse(1, id, 20 + 40), &out);  // After the round.
  EXPECT_EQ(out.size(), 1u);

  // The round still charges a request and an answer per site.
  leg->Stop(OkStatus(), &out);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[1].kind, RootMsg::Kind::kShardExit);
  EXPECT_EQ(out[1].report->messages.of(MessageType::kPollRequest), kSites);
  EXPECT_EQ(out[1].report->messages.of(MessageType::kPollResponse), kSites);
}

// The leg sums only when it can: mixed weights need per-site values, and a
// lossy slice needs per-site fates and last-known values, so either one
// keeps the per-site (unflagged) fan-out.
TEST(ShardFreeLegTest, FansOutPerSiteUnlessPerfectAndUniform) {
  struct Case {
    const char* name;
    std::vector<int64_t> weights;
    double loss;
    bool summed;
  };
  const Case cases[] = {{"uniform, perfect", {2, 2, 2, 2}, 0.0, true},
                        {"mixed weights", {1, 2, 3, 4}, 0.0, false},
                        {"lossy slice", {1, 1, 1, 1}, 0.1, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto transport = ThreadTransport::Create(4, 2);
    ASSERT_TRUE(transport.ok());
    Transport& t = **transport;
    CoordinatorActor::Config config;
    config.num_sites = 4;
    config.weights = c.weights;
    config.protocol = RuntimeProtocol::kPolling;
    config.faults.loss = c.loss;
    Mailbox<RootMsg> to_root(16);
    auto leg = StartedLeg(config, &t, &to_root);
    std::vector<RootMsg> out;
    ActorMessage kick;
    kick.kind = ActorMsgKind::kPollRequest;
    leg->Step(Envelope{kCoordinatorId, kCoordinatorId, kick}, &out);
    std::vector<Envelope> requests;
    t.TryRecvWorkerAll(0, &requests);
    t.TryRecvWorkerAll(1, &requests);
    ASSERT_EQ(requests.size(), 2u);
    for (const Envelope& r : requests) {
      EXPECT_EQ(r.msg.flag, c.summed) << "request to site " << r.to;
    }
  }
}

// A leg's poll round and its stop are range fan-outs: one envelope to each
// worker that owns a site of the shard, none to a worker that owns none
// (a one-site shard under three workers reaches one), and together they
// cover exactly the shard's sites.
TEST(ShardFreeLegTest, RangeFanOutReachesOnlyWorkersWithSitesInItsShard) {
  struct Shape {
    int sites, shards, workers;
  };
  for (const Shape& shape : {Shape{7, 3, 2}, Shape{4, 3, 3}}) {
    auto transport = ThreadTransport::Create(shape.sites, shape.workers, 0, 0,
                                             shape.shards);
    ASSERT_TRUE(transport.ok());
    Transport& t = **transport;
    const ShardLayout layout = *MakeShardLayout(shape.sites, shape.shards);
    CoordinatorActor::Config config;
    config.num_sites = shape.sites;
    config.weights.assign(static_cast<size_t>(shape.sites), 1);
    config.protocol = RuntimeProtocol::kPolling;
    for (int shard = 0; shard < shape.shards; ++shard) {
      SCOPED_TRACE(testing::Message()
                   << shape.sites << " sites / " << shape.shards
                   << " shards / " << shape.workers << " workers, shard "
                   << shard);
      const int first = layout.ShardStart(shard);
      const int end = first + layout.ShardSize(shard);
      Mailbox<RootMsg> to_root(16);
      ShardContext ctx;
      ctx.shard = shard;
      ctx.layout = layout;
      ctx.config = &config;
      ctx.transport = &t;
      ctx.to_root = &to_root;
      ShardFreeLeg leg(std::move(ctx));
      std::vector<RootMsg> out;
      leg.Start(&out);
      std::vector<int> want(static_cast<size_t>(end - first));
      std::iota(want.begin(), want.end(), first);
      // Checks one fan-out of `kind` and returns how many envelopes it had.
      auto check = [&](ActorMsgKind kind) {
        std::vector<Envelope> all;
        for (int w = 0; w < shape.workers; ++w) {
          std::vector<Envelope> got;
          t.TryRecvWorkerAll(w, &got);
          bool owns = false;
          for (int site = first; site < end; ++site) {
            owns |= t.WorkerOf(site) == w;
          }
          EXPECT_EQ(got.size(), owns ? 1u : 0u) << "worker " << w;
          all.insert(all.end(), got.begin(), got.end());
        }
        for (const Envelope& e : all) {
          EXPECT_EQ(e.msg.kind, kind);
        }
        EXPECT_EQ(CoveredSites(t, all), want);
        return all.size();
      };
      ActorMessage kick;
      kick.kind = ActorMsgKind::kPollRequest;
      leg.Step(Envelope{kCoordinatorId, kCoordinatorId, kick}, &out);
      EXPECT_EQ(check(ActorMsgKind::kPollRequest),
                static_cast<size_t>(std::min(end - first, shape.workers)));
      leg.Stop(OkStatus(), &out);
      EXPECT_EQ(check(ActorMsgKind::kShutdown),
                static_cast<size_t>(std::min(end - first, shape.workers)));
    }
  }
}

// --- Free shard leg: site-done runs -----------------------------------------

Envelope SiteDone(int site, int64_t updates) {
  ActorMessage msg;
  msg.kind = ActorMsgKind::kSiteDone;
  msg.value = updates;
  return Envelope{site, kCoordinatorId, msg};
}

TEST(ShardFreeLegTest, RelaysEachDoneRunAsOneMessage) {
  // A run of consecutive dones in one inbox batch is one step and one root
  // message; any other envelope ends the run, and a stopped leg relays
  // nothing.
  constexpr int kSites = 4;
  auto transport = ThreadTransport::Create(kSites, 1);
  ASSERT_TRUE(transport.ok());
  CoordinatorActor::Config config;
  config.num_sites = kSites;
  config.weights = {1, 1, 1, 1};
  config.protocol = RuntimeProtocol::kPolling;
  Mailbox<RootMsg> to_root(16);
  ShardContext ctx;
  ctx.layout = *MakeShardLayout(kSites, 1);
  ctx.config = &config;
  ctx.transport = transport->get();
  ctx.to_root = &to_root;
  ShardFreeLeg leg(std::move(ctx));
  std::vector<RootMsg> out;
  leg.Start(&out);
  ASSERT_TRUE(out.empty());

  ActorMessage alarm;
  alarm.kind = ActorMsgKind::kAlarm;
  alarm.epoch = 7;
  alarm.value = 50;
  const std::vector<Envelope> batch = {SiteDone(0, 100), SiteDone(1, 101),
                                       SiteDone(2, 102),
                                       Envelope{3, kCoordinatorId, alarm},
                                       SiteDone(3, 103)};
  EXPECT_EQ(leg.StepBatch(batch, 0, &out), 3u);  // The run is one step.
  for (size_t next = 3; next < batch.size();) {
    next = leg.StepBatch(batch, next, &out);
  }
  using Entries = std::vector<std::pair<int, int64_t>>;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, RootMsg::Kind::kSiteDone);
  EXPECT_EQ(out[0].entries, (Entries{{0, 100}, {1, 101}, {2, 102}}));
  EXPECT_EQ(out[1].kind, RootMsg::Kind::kAlarmNotice);
  EXPECT_EQ(out[1].epoch, 7);
  EXPECT_EQ(out[2].kind, RootMsg::Kind::kSiteDone);
  EXPECT_EQ(out[2].entries, (Entries{{3, 103}}));

  leg.Stop(OkStatus(), &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3].kind, RootMsg::Kind::kShardExit);
  out.clear();
  const std::vector<Envelope> late = {SiteDone(0, 1), SiteDone(1, 1)};
  EXPECT_EQ(leg.StepBatch(late, 0, &out), late.size());
  EXPECT_TRUE(out.empty());
}

/// Trace events of `kind` that `recorder` holds.
int64_t CountEvents(const obs::TraceRecorder& recorder,
                    obs::TraceEventKind kind) {
  int64_t n = 0;
  for (const obs::TraceEvent& e : recorder.Events()) {
    n += e.kind == kind ? 1 : 0;
  }
  return n;
}

TEST(ShardFreeLegTest, DeathBetweenDoneBurstsCountsEverySiteOnce) {
  // Chaos kills a shard's leg at the inbox-batch boundary right after its
  // first completion burst; the shard thread starts a replacement, which
  // drains the second. The root must hear every site's count exactly
  // once, the dead leg's run whole and the rest from the replacement, and
  // one exit that reports the recovery.
  constexpr int kSites = 40;
  constexpr int kShard = 1;  // Owns sites [20, 40).
  constexpr int kFirstBurst = 8;
  auto transport = ThreadTransport::Create(kSites, 2, 0, 0, /*num_shards=*/2);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  obs::TraceRecorder recorder(/*capacity=*/64);
  CoordinatorActor::Config config;
  config.num_sites = kSites;
  config.weights.assign(kSites, 1);
  config.protocol = RuntimeProtocol::kPolling;
  config.recorder = &recorder;
  const ShardLayout layout = *MakeShardLayout(kSites, 2);
  const int first = layout.ShardStart(kShard);
  const int owned = layout.ShardSize(kShard);
  ASSERT_EQ(owned, 20);
  Mailbox<RootMsg> to_root(16);
  ShardContext ctx;
  ctx.shard = kShard;
  ctx.layout = layout;
  ctx.config = &config;
  ctx.transport = &t;
  ctx.to_root = &to_root;
  ctx.die_after_envelopes = kFirstBurst;

  auto burst = [&](int from, int to) {
    std::vector<Envelope> dones;
    for (int site = from; site < to; ++site) {
      dones.push_back(SiteDone(site, 1000 + site));
    }
    ASSERT_TRUE(t.SendBatch(dones));
  };
  std::thread shard_thread(RunShardFree, ctx);
  burst(first, first + kFirstBurst);
  // The first run's relay: the leg consumed the whole burst (one push, so
  // one inbox batch) and dies at the next boundary.
  std::vector<RootMsg> got;
  ASSERT_GT(to_root.PopAll(&got), 0u);
  burst(first + kFirstBurst, first + owned);
  ActorMessage stop;
  stop.kind = ActorMsgKind::kShutdown;
  ASSERT_TRUE(t.SendToShard(kShard, Envelope{kCoordinatorId, kCoordinatorId,
                                             stop}));
  shard_thread.join();
  to_root.TryPopAll(&got);

  std::vector<int> heard(static_cast<size_t>(kSites), 0);
  int done_msgs = 0;
  int exits = 0;
  for (const RootMsg& msg : got) {
    if (msg.kind == RootMsg::Kind::kShardExit) {
      ++exits;
      EXPECT_TRUE(msg.report->status.ok());
      EXPECT_EQ(msg.report->recoveries, 1);
      continue;
    }
    ASSERT_EQ(msg.kind, RootMsg::Kind::kSiteDone);
    ++done_msgs;
    for (const auto& [site, updates] : msg.entries) {
      ++heard[static_cast<size_t>(site)];
      EXPECT_EQ(updates, 1000 + site);
    }
  }
  EXPECT_EQ(done_msgs, 2);  // One run per burst.
  EXPECT_EQ(exits, 1);      // The dead leg never reports.
  for (int site = 0; site < kSites; ++site) {
    const bool mine = site >= first && site < first + owned;
    EXPECT_EQ(heard[static_cast<size_t>(site)], mine ? 1 : 0)
        << "site " << site;
  }
  EXPECT_EQ(CountEvents(recorder, obs::TraceEventKind::kShardDeath), 1);
  EXPECT_EQ(CountEvents(recorder, obs::TraceEventKind::kShardRespawn), 1);
}

TEST(ShardFreeLegTest, DeathWithRoundOpenAnswersTheKickOnce) {
  // The leg consumes the root's kick, fans its round out and dies before
  // any response arrives. Its replacement must re-open the round, count
  // only responses to its own round, and send the root exactly one
  // partial for the one kick; without the re-delivered kick the root
  // would wait for that partial forever.
  constexpr int kSites = 4;
  auto transport = ThreadTransport::Create(kSites, 1);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  CoordinatorActor::Config config;
  config.num_sites = kSites;
  config.weights = {1, 2, 3, 4};
  config.protocol = RuntimeProtocol::kPolling;
  Mailbox<RootMsg> to_root(16);
  ShardContext ctx;
  ctx.layout = *MakeShardLayout(kSites, 1);
  ctx.config = &config;
  ctx.transport = &t;
  ctx.to_root = &to_root;
  ctx.die_after_envelopes = 1;  // Dies right after the kick.

  std::thread shard_thread(RunShardFree, ctx);
  ActorMessage kick;
  kick.kind = ActorMsgKind::kPollRequest;
  ASSERT_TRUE(
      t.SendToShard(0, Envelope{kCoordinatorId, kCoordinatorId, kick}));
  // Two fan-outs reach the one worker: the dead leg's and the
  // replacement's, each a single range request for all four sites.
  std::vector<Envelope> requests;
  while (requests.size() < 2) {
    ASSERT_GT(t.RecvWorkerAll(0, &requests), 0u);
  }
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].msg.epoch, ShardFreeLeg::PollRoundId(0, 1));
  EXPECT_EQ(requests[1].msg.epoch, ShardFreeLeg::PollRoundId(1, 1));
  // Every site answers both rounds, the dead one with values that would
  // give another sum.
  std::vector<Envelope> responses;
  for (const Envelope& request : requests) {
    for (int site = 0; site < kSites; ++site) {
      ActorMessage msg;
      msg.kind = ActorMsgKind::kPollResponse;
      msg.epoch = request.msg.epoch;
      msg.value = request.msg.epoch == requests[0].msg.epoch ? 1000
                                                             : 10 * (site + 1);
      responses.push_back(Envelope{site, kCoordinatorId, msg});
    }
  }
  ASSERT_TRUE(t.SendBatch(responses));
  ActorMessage stop;
  stop.kind = ActorMsgKind::kShutdown;
  ASSERT_TRUE(t.SendToShard(0, Envelope{kCoordinatorId, kCoordinatorId, stop}));
  shard_thread.join();

  std::vector<RootMsg> got;
  to_root.TryPopAll(&got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, RootMsg::Kind::kPollPartial);
  EXPECT_EQ(got[0].partial_sum, 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40);
  ASSERT_EQ(got[1].kind, RootMsg::Kind::kShardExit);
  EXPECT_TRUE(got[1].report->status.ok());
  EXPECT_EQ(got[1].report->recoveries, 1);
}

// The summed twin of DeathWithRoundOpenAnswersTheKickOnce: the one worker's
// target answers each of the two summed rounds once, the dead round's sum
// first; only the replacement's round counts.
TEST(ShardFreeLegTest, DeathWithSummedRoundOpenAnswersTheKickOnce) {
  constexpr int kSites = 4;
  auto transport = ThreadTransport::Create(kSites, 1);
  ASSERT_TRUE(transport.ok());
  Transport& t = **transport;
  CoordinatorActor::Config config;
  config.num_sites = kSites;
  config.weights.assign(kSites, 2);
  config.protocol = RuntimeProtocol::kPolling;
  Mailbox<RootMsg> to_root(16);
  ShardContext ctx;
  ctx.layout = *MakeShardLayout(kSites, 1);
  ctx.config = &config;
  ctx.transport = &t;
  ctx.to_root = &to_root;
  ctx.die_after_envelopes = 1;  // Dies right after the kick.

  std::thread shard_thread(RunShardFree, ctx);
  ActorMessage kick;
  kick.kind = ActorMsgKind::kPollRequest;
  ASSERT_TRUE(
      t.SendToShard(0, Envelope{kCoordinatorId, kCoordinatorId, kick}));
  std::vector<Envelope> requests;
  while (requests.size() < 2) {
    ASSERT_GT(t.RecvWorkerAll(0, &requests), 0u);
  }
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].msg.epoch, ShardFreeLeg::PollRoundId(0, 1));
  EXPECT_EQ(requests[1].msg.epoch, ShardFreeLeg::PollRoundId(1, 1));
  for (const Envelope& r : requests) {
    EXPECT_TRUE(r.msg.flag);
    EXPECT_EQ(r.to, 0);
  }
  ASSERT_TRUE(t.SendBatch({PollResponse(0, requests[0].msg.epoch, 1000),
                           PollResponse(0, requests[1].msg.epoch, 100)}));
  ActorMessage stop;
  stop.kind = ActorMsgKind::kShutdown;
  ASSERT_TRUE(t.SendToShard(0, Envelope{kCoordinatorId, kCoordinatorId, stop}));
  shard_thread.join();

  std::vector<RootMsg> got;
  to_root.TryPopAll(&got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, RootMsg::Kind::kPollPartial);
  EXPECT_EQ(got[0].partial_sum, 2 * 100);
  ASSERT_EQ(got[1].kind, RootMsg::Kind::kShardExit);
  EXPECT_TRUE(got[1].report->status.ok());
  EXPECT_EQ(got[1].report->recoveries, 1);
}

// --- Virtual-time runtime on a hand-checked trace --------------------------

// Two sites, thresholds {10, 10}, weights {1, 1}, global threshold 25.
//   epoch 0: {5, 5}    quiet
//   epoch 1: {12, 5}   alarm site 0, poll, sum 17 -> no violation
//   epoch 2: {12, 14}  both alarm, poll, sum 26 -> violation
//   epoch 3: {9, 9}    quiet again
Trace HandTrace() {
  Trace t(2);
  EXPECT_TRUE(t.AppendEpoch({5, 5}).ok());
  EXPECT_TRUE(t.AppendEpoch({12, 5}).ok());
  EXPECT_TRUE(t.AppendEpoch({12, 14}).ok());
  EXPECT_TRUE(t.AppendEpoch({9, 9}).ok());
  return t;
}

RuntimeOptions HandOptions() {
  RuntimeOptions options;
  options.protocol = RuntimeProtocol::kLocalThreshold;
  options.global_threshold = 25;
  options.thresholds = {10, 10};
  options.domain_max = {40, 40};
  return options;
}

TEST(RuntimeVirtualTest, DetectsHandCheckedViolations) {
  Trace eval = HandTrace();
  auto result = RunMonitorRuntime(Trace(2), eval, HandOptions());
  ASSERT_TRUE(result.ok()) << result.status().message();

  EXPECT_EQ(result->mode, "virtual");
  EXPECT_EQ(result->epochs, 4);
  ASSERT_EQ(result->detections.size(), 4u);
  EXPECT_EQ(result->detections[0], (EpochDetection{0, 0, false, false}));
  EXPECT_EQ(result->detections[1], (EpochDetection{1, 1, true, false}));
  EXPECT_EQ(result->detections[2], (EpochDetection{2, 2, true, true}));
  EXPECT_EQ(result->detections[3], (EpochDetection{3, 0, false, false}));

  EXPECT_EQ(result->total_alarms, 3);
  EXPECT_EQ(result->alarm_epochs, 2);
  EXPECT_EQ(result->polled_epochs, 2);
  EXPECT_EQ(result->true_violations, 1);
  EXPECT_EQ(result->detected_violations, 1);
  EXPECT_EQ(result->missed_violations, 0);
  EXPECT_EQ(result->false_alarm_epochs, 1);

  // Wire accounting: 3 alarms + 2 polls * (2 requests + 2 responses).
  EXPECT_EQ(result->messages.of(MessageType::kAlarm), 3);
  EXPECT_EQ(result->messages.of(MessageType::kPollRequest), 4);
  EXPECT_EQ(result->messages.of(MessageType::kPollResponse), 4);
  EXPECT_EQ(result->messages.total(), 11);

  // Every site consumed one update per epoch.
  EXPECT_EQ(result->total_updates, 8);
}

TEST(RuntimeVirtualTest, PollingProtocolPollsOnSchedule) {
  Trace eval = HandTrace();
  RuntimeOptions options;
  options.protocol = RuntimeProtocol::kPolling;
  options.global_threshold = 25;
  options.poll_period = 2;
  auto result = RunMonitorRuntime(Trace(2), eval, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result->detections.size(), 4u);
  // Polls at epochs 0 and 2; the epoch-2 poll sees the violation.
  EXPECT_EQ(result->detections[0], (EpochDetection{0, 0, true, false}));
  EXPECT_EQ(result->detections[1], (EpochDetection{1, 0, false, false}));
  EXPECT_EQ(result->detections[2], (EpochDetection{2, 0, true, true}));
  EXPECT_EQ(result->detections[3], (EpochDetection{3, 0, false, false}));
  EXPECT_EQ(result->messages.total(), 2 * 4);
}

TEST(RuntimeVirtualTest, WorkerMultiplexingDoesNotChangeResults) {
  Trace eval = HandTrace();
  RuntimeOptions options = HandOptions();
  auto per_site = RunMonitorRuntime(Trace(2), eval, options);
  ASSERT_TRUE(per_site.ok());
  options.num_workers = 1;  // Both sites share one thread.
  auto packed = RunMonitorRuntime(Trace(2), eval, options);
  ASSERT_TRUE(packed.ok());
  ASSERT_EQ(per_site->detections.size(), packed->detections.size());
  for (size_t t = 0; t < per_site->detections.size(); ++t) {
    EXPECT_EQ(per_site->detections[t], packed->detections[t]);
  }
  EXPECT_EQ(per_site->messages.total(), packed->messages.total());
}

// --- Free-running mode ------------------------------------------------------

TEST(RuntimeFreeTest, ProcessesFullWorkloadAcrossThreads) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.global_threshold = 1;  // Any alarm-triggered poll flags.
  options.seed = 11;
  options.synthetic_max = 1000;
  options.thresholds = std::vector<int64_t>(8, 900);  // Rare local alarms.
  options.domain_max = std::vector<int64_t>(8, 1000);
  auto result = RunSyntheticRuntime(8, 500, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->mode, "free-running");
  EXPECT_EQ(result->total_updates, 8 * 500);
  ASSERT_EQ(result->site_updates.size(), 8u);
  for (int64_t u : result->site_updates) {
    EXPECT_EQ(u, 500);
  }
  EXPECT_GT(result->updates_per_second, 0.0);
  // ~10% of updates breach a 900 threshold on U[0,1000]: alarms must flow.
  EXPECT_GT(result->total_alarms, 0);
  EXPECT_GT(result->polled_epochs, 0);
  EXPECT_EQ(result->violations_flagged, result->polled_epochs);
  EXPECT_EQ(result->messages.of(MessageType::kAlarm), result->total_alarms);
}

TEST(RuntimeFreeTest, FewerWorkersThanSites) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 2;
  options.seed = 3;
  auto result = RunSyntheticRuntime(6, 200, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->total_updates, 6 * 200);
}

TEST(RuntimeFreeTest, UnevenSitesPerWorkerDrainsFully) {
  // 5 sites % 2 workers != 0: the heavier worker owns three sites and its
  // inbox still absorbs every control message (ceil-based capacity).
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 2;
  options.seed = 9;
  options.thresholds = std::vector<int64_t>(5, 800);
  options.domain_max = std::vector<int64_t>(5, 1000);
  options.synthetic_max = 1000;
  options.global_threshold = 1;
  auto result = RunSyntheticRuntime(5, 400, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->total_updates, 5 * 400);
  EXPECT_GT(result->total_alarms, 0);
}

// --- Synthetic workload parameters -----------------------------------------

TEST(SyntheticWorkloadTest, DefaultAlarmFractionKeepsTheTwoPercentThreshold) {
  // Before `dcvtool run` took --alarm-fraction it set T_i = max - max / 50;
  // the default fraction must give exactly those thresholds.
  EXPECT_EQ(SyntheticSiteThreshold(1'000'000, kDefaultAlarmFraction), 980'000);
  constexpr int64_t kLimit = (int64_t{1} << 50) - 1;
  std::vector<int64_t> maxes = {0,    1,     49,     50,     51,    99,
                                100,  999,   1000,   12345,  kLimit};
  Rng rng(0x7A11);
  for (int i = 0; i < 20000; ++i) {
    maxes.push_back(rng.UniformInt(0, i % 2 == 0 ? 10'000'000 : kLimit));
  }
  for (int64_t m : maxes) {
    ASSERT_EQ(SyntheticSiteThreshold(m, kDefaultAlarmFraction), m - m / 50)
        << "synthetic_max " << m;
  }
}

TEST(SyntheticWorkloadTest, AlarmFractionEndpoints) {
  EXPECT_EQ(SyntheticSiteThreshold(1'000'000, 0.0), 1'000'000);
  EXPECT_EQ(SyntheticSiteThreshold(1'000'000, 0.1), 900'000);
  EXPECT_EQ(SyntheticSiteThreshold(1'000'000, 1.0), 0);
  EXPECT_EQ(SyntheticSiteThreshold(0, 0.5), 0);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(SyntheticSiteThreshold(kMax, 0.0), kMax);
  EXPECT_EQ(SyntheticSiteThreshold(kMax, 1.0), 0);
  const int64_t half = SyntheticSiteThreshold(kMax, 0.5);
  EXPECT_GT(half, 0);
  EXPECT_LT(half, kMax);
}

// The plain sum of 4 sites at kMax / 4 fits, so the max passes
// ValidateSyntheticMax; with weights 2 the worst-case weighted sum does
// not, and the run is refused before any thread starts. A trace whose
// weighted sums cannot fit is refused the same way, in both time modes.
TEST(SyntheticWorkloadTest, RejectsWeightsWhoseWorstCaseSumOverflows) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (bool virtual_time : {false, true}) {
    SCOPED_TRACE(virtual_time ? "virtual" : "free");
    RuntimeOptions options;
    options.virtual_time = virtual_time;
    options.synthetic_max = kMax / 4;
    options.weights = {2, 2, 2, 2};
    auto synthetic = RunSyntheticRuntime(4, 10, options);
    ASSERT_FALSE(synthetic.ok());
    EXPECT_EQ(synthetic.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(synthetic.status().message().find("weighted sum overflows"),
              std::string::npos)
        << synthetic.status().message();
    options.weights = {1, 1, 1, 1};
    EXPECT_TRUE(RunSyntheticRuntime(4, 10, options).ok());

    Trace eval(2);
    ASSERT_TRUE(eval.AppendEpoch({kMax / 2, kMax / 2 + 2}).ok());
    options.weights.clear();
    options.protocol = RuntimeProtocol::kPolling;
    auto traced = RunMonitorRuntime(Trace(2), eval, options);
    ASSERT_FALSE(traced.ok());
    EXPECT_NE(traced.status().message().find("weighted sum overflows"),
              std::string::npos)
        << traced.status().message();
  }
}

TEST(SyntheticWorkloadTest, RejectsSyntheticMaxOutsideTheInt64Range) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  RuntimeOptions options;
  options.virtual_time = false;
  for (int64_t bad : {int64_t{-5}, kMax / 4 + 1, kMax}) {
    options.synthetic_max = bad;
    auto result = RunSyntheticRuntime(4, 10, options);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("synthetic_max must be in [0, "),
              std::string::npos)
        << result.status().message();
  }
  EXPECT_TRUE(ValidateSyntheticMax(0, 4).ok());
  EXPECT_TRUE(ValidateSyntheticMax(kMax / 4, 4).ok());
  EXPECT_TRUE(ValidateSyntheticMax(kMax, 1).ok());
  options.synthetic_max = 0;  // Every draw is 0; still a valid run.
  auto zero = RunSyntheticRuntime(4, 10, options);
  ASSERT_TRUE(zero.ok()) << zero.status().message();
  EXPECT_EQ(zero->total_updates, 40);
}

TEST(SyntheticWorkloadTest, SiteWorkerRejectsSyntheticMaxBeforeConnecting) {
  // Nothing listens on the port: a worker that got as far as Connect would
  // fail with a connection error, not the named argument error.
  SiteWorkerOptions wo;
  wo.port = 1;
  wo.num_sites = 4;
  wo.synthetic_updates = 10;
  wo.synthetic_max = -5;
  wo.socket.connect_attempts = 1;
  auto report = RunSiteWorker(nullptr, wo);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("synthetic_max must be in [0, "),
            std::string::npos)
      << report.status().message();
}

// --- Trace-driven free-running ---------------------------------------------

TEST(RuntimeFreeTest, TraceWorkloadDrains) {
  Trace eval = HandTrace();
  RuntimeOptions options = HandOptions();
  options.virtual_time = false;
  auto result = RunMonitorRuntime(Trace(2), eval, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->total_updates, 8);
  // Three local threshold breaches exist in the trace; the reliable
  // perfect-network channel delivers each alarm.
  EXPECT_EQ(result->total_alarms, 3);
  EXPECT_GE(result->polled_epochs, 1);
}

}  // namespace
}  // namespace dcv

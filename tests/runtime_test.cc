#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "runtime/site_engine.h"
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
  // must be sized for ceil(5/2) = 3 sites (4 * 3 + 8), not floor = 2. With
  // floor sizing a full epoch barrier could overfill worker 0's inbox.
  auto uneven = ThreadTransport::Create(5, 2);
  ASSERT_TRUE(uneven.ok());
  EXPECT_EQ((*uneven)->worker_capacity(), 4u * 3u + 8u);

  auto even = ThreadTransport::Create(6, 2);
  ASSERT_TRUE(even.ok());
  EXPECT_EQ((*even)->worker_capacity(), 4u * 3u + 8u);

  auto single = ThreadTransport::Create(7, 1);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ((*single)->worker_capacity(), 4u * 7u + 8u);
}

TEST(ThreadTransportTest, UnevenShapeSurvivesBurstWithoutBlocking) {
  // The invariant behind the capacity formula: the coordinator can push a
  // whole epoch's worth of traffic (kEpochStart + a threshold update per
  // site) at the most-loaded worker without anyone draining.
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

// --- Seed determinism -------------------------------------------------------

TEST(SeedDeterminismTest, SameSeedSameStreamsRegardlessOfThreads) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.capture_updates = true;
  options.seed = 1234;
  auto a = RunSyntheticRuntime(4, 300, options);
  ASSERT_TRUE(a.ok());
  options.num_workers = 1;  // Different thread schedule, same streams.
  auto b = RunSyntheticRuntime(4, 300, options);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->captured_updates.size(), 4u);
  ASSERT_EQ(b->captured_updates.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a->captured_updates[static_cast<size_t>(i)],
              b->captured_updates[static_cast<size_t>(i)])
        << "site " << i;
  }
}

TEST(SeedDeterminismTest, DifferentSeedsDiverge) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.capture_updates = true;
  options.seed = 1;
  auto a = RunSyntheticRuntime(2, 100, options);
  ASSERT_TRUE(a.ok());
  options.seed = 2;
  auto b = RunSyntheticRuntime(2, 100, options);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->captured_updates[0], b->captured_updates[0]);
}

TEST(SeedDeterminismTest, SiteStreamsAreUnrelated) {
  // Adjacent sites under the same seed must not share a stream.
  Rng r0 = MakeSiteRng(42, 0);
  Rng r1 = MakeSiteRng(42, 1);
  std::vector<int64_t> s0, s1;
  for (int i = 0; i < 50; ++i) {
    s0.push_back(r0.UniformInt(0, 1000000));
    s1.push_back(r1.UniformInt(0, 1000000));
  }
  EXPECT_NE(s0, s1);
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

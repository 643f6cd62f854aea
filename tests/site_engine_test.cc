#include "runtime/site_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/conformance.h"
#include "runtime/plan.h"
#include "runtime/runtime.h"
#include "runtime/shard_layout.h"
#include "runtime/transport.h"
#include "threshold/fptas.h"
#include "trace/stats.h"
#include "trace/synthetic.h"

namespace dcv {
namespace {

// The SoA engine's contract: driving a worker's sites from one flat loop
// (batched sends, coalesced drains) is OBSERVATIONALLY IDENTICAL to the
// lockstep simulator — same per-epoch detections, same per-type message
// counts, same wire-level reliability stats. These tests run every
// scenario through RunConformance, which diffs the runtime against the
// lockstep reference on all three.

struct Workload {
  Trace training{0};
  Trace eval{0};
};

Workload MakeWorkload(uint64_t seed, int num_sites = 4,
                      int64_t train_epochs = 500, int64_t eval_epochs = 500) {
  SyntheticTraceOptions options;
  options.num_sites = num_sites;
  options.num_epochs = train_epochs + eval_epochs;
  options.seed = seed;
  options.marginal = Marginal::kLogNormal;
  options.param1 = 4.0;
  options.param2 = 0.8;
  options.domain_max = 1'000'000;
  options.heterogeneous = true;
  auto trace = GenerateSyntheticTrace(options);
  EXPECT_TRUE(trace.ok());
  Workload w;
  w.training = *trace->Slice(0, train_epochs);
  w.eval = *trace->Slice(train_epochs, train_epochs + eval_epochs);
  return w;
}

int64_t PickThreshold(const Workload& w, double overflow_fraction) {
  auto t = ThresholdForOverflowFraction(w.eval, {}, overflow_fraction);
  EXPECT_TRUE(t.ok());
  return *t;
}

/// Runs the spec through RunConformance and asserts the runtime (and the
/// socket run, when the spec asks for one) is bit-identical to lockstep.
void ExpectMatchesLockstep(const Workload& w, const ConformanceSpec& spec) {
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  EXPECT_EQ(report->ran_socket, spec.transport == TransportKind::kSocket);
}

TEST(SiteEngineConformanceTest, EnginesAgreeAcrossShardCounts) {
  Workload w = MakeWorkload(211, /*num_sites=*/6);
  FptasSolver solver(0.05);
  for (int shards : {1, 2, 4}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_workers = 2;
    spec.num_shards = shards;
    ExpectMatchesLockstep(w, spec);
  }
}

TEST(SiteEngineConformanceTest, EnginesAgreeUnderChannelFaults) {
  // Loss, duplication, delay, and ack retries: the channel RNG draws must
  // land exactly as in lockstep, because the root replays the reports in
  // ascending site order regardless of transport batching.
  Workload w = MakeWorkload(223, /*num_sites=*/5);
  FptasSolver solver(0.1);
  for (int shards : {1, 2}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_workers = 2;
    spec.num_shards = shards;
    spec.faults.loss = 0.1;
    spec.faults.duplicate = 0.05;
    spec.faults.delay = 0.1;
    spec.faults.max_delay_epochs = 2;
    spec.faults.retry.enable_acks = true;
    spec.faults.retry.max_attempts = 3;
    spec.faults.seed = 0xbeefULL;
    ExpectMatchesLockstep(w, spec);
  }
}

TEST(SiteEngineConformanceTest, EnginesAgreePollingProtocol) {
  Workload w = MakeWorkload(227);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 3;
  spec.global_threshold = PickThreshold(w, 0.05);
  spec.num_workers = 2;
  ExpectMatchesLockstep(w, spec);
}

TEST(SiteEngineConformanceTest, EnginesAgreeOverSocketTransport) {
  // The coalesced kEnvelopeBatch wire path: a worker process's engine
  // drains and sends through real loopback TCP frames and must still be
  // indistinguishable from the lockstep reference.
  Workload w = MakeWorkload(229, /*num_sites=*/4, /*train_epochs=*/300,
                            /*eval_epochs=*/300);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.num_shards = 2;
  spec.transport = TransportKind::kSocket;
  ExpectMatchesLockstep(w, spec);

  // Polling every epoch, every site sends an epoch report and a poll
  // response each epoch, at every shard count: three workers over eight
  // sites own 3, 3 and 2.
  Workload polled = MakeWorkload(239, /*num_sites=*/8, /*train_epochs=*/200,
                                 /*eval_epochs=*/200);
  for (int shards = 1; shards <= 4; ++shards) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    ConformanceSpec every;
    every.protocol = RuntimeProtocol::kPolling;
    every.poll_period = 1;
    every.global_threshold = PickThreshold(polled, 0.05);
    every.num_workers = 3;
    every.num_shards = shards;
    every.transport = TransportKind::kSocket;
    ExpectMatchesLockstep(polled, every);
  }
}

TEST(SiteEngineConformanceTest, EnginesAgreeOverSocketUnderLoss) {
  Workload w = MakeWorkload(233, /*num_sites=*/5, /*train_epochs=*/300,
                            /*eval_epochs=*/300);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 3;
  spec.transport = TransportKind::kSocket;
  spec.faults.loss = 0.1;
  spec.faults.retry.enable_acks = true;
  spec.faults.retry.max_attempts = 3;
  spec.faults.seed = 0xabcULL;
  ExpectMatchesLockstep(w, spec);
}

// Free-running mode claims no bit-identity, but the engine must drain the
// whole workload: every site processes every update exactly once.
TEST(SiteEngineFreeTest, EngineDrainsFullWorkload) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 2;
  options.seed = 9;
  options.synthetic_max = 1000;
  options.global_threshold = 6 * 1000;
  options.thresholds.assign(6, 900);  // Alarm-heavy.
  options.domain_max.assign(6, 1000);
  auto result = RunSyntheticRuntime(6, 400, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->total_updates, 6 * 400);
  ASSERT_EQ(result->site_updates.size(), 6u);
  for (int64_t u : result->site_updates) {
    EXPECT_EQ(u, 400);
  }
  EXPECT_GT(result->total_alarms, 0);
}

// The shutdown-ordering stress (satellite of the million-site PR): a
// free-running run at 10^5 sites multiplexed over a handful of workers and
// a sharded coordinator tree must terminate — kShutdown fan-out lands in
// bounded inboxes while engines are still producing, so any blocking send
// in the wrong place deadlocks here — and account for every update.
TEST(SiteEngineScaleTest, HundredThousandSitesShutdownCleanly) {
  constexpr int kSites = 100'000;
  constexpr int64_t kUpdates = 20;
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 4;
  options.num_shards = 2;
  options.seed = 5;
  options.synthetic_max = 1000;
  options.global_threshold = static_cast<int64_t>(kSites) * 1000;
  options.thresholds.assign(kSites, 900);  // ~10% breach: alarm pressure.
  options.domain_max.assign(kSites, 1000);
  auto result = RunSyntheticRuntime(kSites, kUpdates, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->total_updates, static_cast<int64_t>(kSites) * kUpdates);
  ASSERT_EQ(result->site_updates.size(), static_cast<size_t>(kSites));
  for (int64_t u : result->site_updates) {
    ASSERT_EQ(u, kUpdates);
  }
}

// An explicit worker count of 100k would ask the OS for 100k threads and
// abort inside the std::thread constructor; it must be refused with a
// clear error before any spawn.
TEST(SiteEngineScaleTest, ExplicitWorkerCountAboveCeilingIsRejected) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 100'000;
  auto result = RunSyntheticRuntime(100'000, 1, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("worker threads"),
            std::string::npos)
      << result.status().message();
}

// Engine plumbing unit checks: dense slot mapping and threshold routing.
TEST(SiteEngineTest, SlotMappingAndThresholdRouting) {
  SiteEngine::Config cfg;
  cfg.worker = 1;
  cfg.num_workers = 3;
  cfg.num_sites = 8;  // Worker 1 owns sites 1, 4, 7 -> slots 0, 1, 2.
  cfg.thresholds = {100, 200, 300};
  cfg.synthetic_updates = 1;
  SiteEngine engine(std::move(cfg));
  EXPECT_EQ(engine.num_slots(), 3);
  EXPECT_EQ(engine.SiteOf(0), 1);
  EXPECT_EQ(engine.SiteOf(1), 4);
  EXPECT_EQ(engine.SiteOf(2), 7);
  EXPECT_TRUE(engine.ApplyThresholdUpdate(4, 250));
  EXPECT_FALSE(engine.ApplyThresholdUpdate(3, 250));  // Owned by worker 0.
  EXPECT_FALSE(engine.ApplyThresholdUpdate(-1, 250));
  EXPECT_FALSE(engine.ApplyThresholdUpdate(8, 250));  // Out of fabric.
}

// Unflagged: an epoch start carries no up state, so a site reports its
// alarmed epochs whatever the flag says.
Envelope ToSite(int site, ActorMsgKind kind, int64_t epoch = 0) {
  ActorMessage msg;
  msg.kind = kind;
  msg.epoch = epoch;
  return Envelope{kCoordinatorId, site, msg};
}

// A kEpochStart's epoch indexes the site's trace column and can arrive off
// the wire: one outside the column is dropped like an envelope for an
// unowned site, instead of reading past it.
TEST(SiteEngineTest, EpochStartOutsideColumnIsDropped) {
  SiteEngine::Config cfg;
  cfg.num_sites = 1;
  cfg.thresholds = {15};
  cfg.series = {{10, 20, 30}};
  SiteEngine engine(std::move(cfg));
  auto transport = ThreadTransport::Create(1, 1);
  ASSERT_TRUE(transport.ok());
  ASSERT_TRUE((*transport)
                  ->SendBatch({ToSite(0, ActorMsgKind::kEpochStart, 3),
                               ToSite(0, ActorMsgKind::kEpochStart, -1),
                               ToSite(0, ActorMsgKind::kEpochStart, 2),
                               ToSite(0, ActorMsgKind::kShutdown)}));
  engine.RunVirtual(transport->get());
  std::vector<Envelope> replies;
  Envelope e;
  while ((*transport)->TryRecvShard(0, &e)) {
    replies.push_back(e);
  }
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].from, 0);
  EXPECT_EQ(replies[0].msg.kind, ActorMsgKind::kEpochReport);
  EXPECT_EQ(replies[0].msg.epoch, 2);
  EXPECT_TRUE(replies[0].msg.flag);
  EXPECT_EQ(replies[0].msg.value, 30);
  EXPECT_EQ(engine.updates_processed()[0], 1);
}

Envelope ToRange(int site, ActorMsgKind kind, int64_t epoch, int64_t end) {
  Envelope e = ToSite(site, kind, epoch);
  e.msg.value = end;
  return e;
}

/// Worker 0 of 3 over 10 sites: it owns sites 0, 3, 6 and 9, whose one-
/// epoch columns hold 10, 20, 30 and 40. On a one-worker fabric every
/// envelope lands in its box, owned or not.
SiteEngine::Config RangeEngineConfig() {
  SiteEngine::Config cfg;
  cfg.num_workers = 3;
  cfg.num_sites = 10;
  cfg.thresholds.assign(4, std::numeric_limits<int64_t>::max());
  cfg.series = {{10}, {20}, {30}, {40}};
  return cfg;
}

/// Takes `n` replies off shard 0's inbox (waiting at most 5 s for each
/// burst) and returns the poll responses: epoch -> (site, value) in
/// arrival order. `*count` gets how many replies of any kind arrived.
std::map<int64_t, std::vector<std::pair<int, int64_t>>> TakeAnswers(
    Transport* t, size_t n, size_t* count) {
  std::vector<Envelope> replies;
  bool timed_out = false;
  while (replies.size() < n && !timed_out) {
    t->RecvShardAllFor(0, &replies, 5000, &timed_out);
  }
  std::map<int64_t, std::vector<std::pair<int, int64_t>>> answers;
  for (const Envelope& e : replies) {
    if (e.msg.kind == ActorMsgKind::kPollResponse) {
      answers[e.msg.epoch].emplace_back(e.from, e.msg.value);
    }
  }
  *count = replies.size();
  return answers;
}

// A range poll answers each owned site of its range exactly once, with that
// site's value, and an end at or below `to` covers `to` alone. A range
// shutdown counts every slot it covers: the engine keeps serving after two
// of its four slots were shut down, and exits once the other two are.
TEST(SiteEngineTest, RangePollAndShutdownCoverEachOwnedSiteOnce) {
  auto transport = ThreadTransport::Create(10, 1);
  ASSERT_TRUE(transport.ok());
  Transport* t = transport->get();
  SiteEngine engine(RangeEngineConfig());
  std::atomic<bool> done{false};
  std::thread worker([&] {
    engine.RunVirtual(t);
    done = true;
  });
  std::vector<Envelope> first;
  for (int site : {0, 3, 6, 9}) {
    first.push_back(ToSite(site, ActorMsgKind::kEpochStart));
  }
  first.push_back(ToRange(0, ActorMsgKind::kPollRequest, 1, 10));
  first.push_back(ToRange(3, ActorMsgKind::kPollRequest, 2, 7));
  first.push_back(ToRange(3, ActorMsgKind::kPollRequest, 3, 3));
  first.push_back(ToRange(0, ActorMsgKind::kShutdown, 0, 4));  // 0 and 3.
  ASSERT_TRUE(t->SendBatch(first));
  size_t count = 0;
  using Answers = std::map<int64_t, std::vector<std::pair<int, int64_t>>>;
  EXPECT_EQ(TakeAnswers(t, 11, &count),
            (Answers{{1, {{0, 10}, {3, 20}, {6, 30}, {9, 40}}},
                     {2, {{3, 20}, {6, 30}}},
                     {3, {{3, 20}}}}));
  EXPECT_EQ(count, 11u);  // With the four epoch reports.

  ASSERT_TRUE(t->Send(ToSite(9, ActorMsgKind::kPollRequest, 4)));
  EXPECT_EQ(TakeAnswers(t, 1, &count), (Answers{{4, {{9, 40}}}}));
  EXPECT_FALSE(done);
  ASSERT_TRUE(t->Send(ToRange(6, ActorMsgKind::kShutdown, 0, 10)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(done) << "a shutdown covering the last two slots left the "
                       "engine running";
  t->Shutdown();
  worker.join();
}

// A flagged (summed) range poll is answered once, by its addressed site,
// with the plain sum of the values of exactly the owned sites it covers;
// the unflagged request in the same batch still gets one answer per site.
TEST(SiteEngineTest, SummedRangePollAnswersOnceWithTheOwnedSitesSum) {
  auto transport = ThreadTransport::Create(10, 1);
  ASSERT_TRUE(transport.ok());
  Transport* t = transport->get();
  SiteEngine engine(RangeEngineConfig());
  std::vector<Envelope> batch;
  for (int site : {0, 3, 6, 9}) {
    batch.push_back(ToSite(site, ActorMsgKind::kEpochStart));
  }
  auto summed = [](int site, int64_t epoch, int64_t end) {
    Envelope e = ToRange(site, ActorMsgKind::kPollRequest, epoch, end);
    e.msg.flag = true;
    return e;
  };
  batch.push_back(summed(0, 1, 10));  // 0, 3, 6, 9.
  batch.push_back(summed(3, 2, 7));   // 3, 6.
  batch.push_back(summed(6, 3, 6));   // 6 alone: the end is below `to`.
  batch.push_back(summed(9, 4, std::numeric_limits<int64_t>::max()));  // 9.
  batch.push_back(summed(1, 5, 10));  // Unowned: dropped.
  batch.push_back(ToRange(3, ActorMsgKind::kPollRequest, 6, 10));  // 3, 6, 9.
  batch.push_back(ToRange(0, ActorMsgKind::kShutdown, 0, 10));
  ASSERT_TRUE(t->SendBatch(batch));
  engine.RunVirtual(t);  // Returns on the shutdown, which covers all.
  std::vector<Envelope> replies;
  Envelope e;
  while (t->TryRecvShard(0, &e)) {
    replies.push_back(e);
  }
  std::map<int64_t, std::vector<std::pair<int, int64_t>>> answers;
  size_t reports = 0;
  for (const Envelope& r : replies) {
    if (r.msg.kind == ActorMsgKind::kPollResponse) {
      answers[r.msg.epoch].emplace_back(r.from, r.msg.value);
    } else {
      EXPECT_EQ(r.msg.kind, ActorMsgKind::kEpochReport);
      ++reports;
    }
  }
  EXPECT_EQ(reports, 4u);
  using Answers = std::map<int64_t, std::vector<std::pair<int, int64_t>>>;
  EXPECT_EQ(answers, (Answers{{1, {{0, 10 + 20 + 30 + 40}}},
                              {2, {{3, 20 + 30}}},
                              {3, {{6, 30}}},
                              {4, {{9, 40}}},
                              {6, {{3, 20}, {6, 30}, {9, 40}}}}));
}

// A range addressed to a site the worker does not own is dropped whole, as
// a per-site envelope for such a site is: it neither answers nor shuts
// down any slot.
TEST(SiteEngineTest, RangeToAnUnownedSiteIsDropped) {
  auto transport = ThreadTransport::Create(10, 1);
  ASSERT_TRUE(transport.ok());
  Transport* t = transport->get();
  SiteEngine engine(RangeEngineConfig());
  ASSERT_TRUE(t->SendBatch({ToRange(1, ActorMsgKind::kPollRequest, 1, 10),
                            ToRange(2, ActorMsgKind::kShutdown, 0, 10),
                            ToRange(0, ActorMsgKind::kPollRequest, 2, 1),
                            ToRange(0, ActorMsgKind::kShutdown, 0, 10)}));
  engine.RunVirtual(t);  // Returns on the last shutdown, which covers all.
  std::vector<Envelope> replies;
  Envelope e;
  while (t->TryRecvShard(0, &e)) {
    replies.push_back(e);
  }
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].from, 0);
  EXPECT_EQ(replies[0].msg.kind, ActorMsgKind::kPollResponse);
  EXPECT_EQ(replies[0].msg.epoch, 2);
}

// A kEpochStart names a window of epochs. A synthetic slot draws one value
// per epoch of it, in stream order, and a poll at an earlier epoch of the
// window answers that epoch's draw, not the latest one; a poll outside the
// window answers the latest. A window past synthetic_updates is dropped.
TEST(SiteEngineTest, SyntheticSlotPolledInsideItsWindowAnswersThatEpochsDraw) {
  constexpr int kSites = 2;
  constexpr int64_t kEpochs = 10;
  SiteEngine::Config cfg = WorkerEngineConfig(
      0, 1, kSites, /*eval=*/nullptr, kEpochs,
      std::vector<int64_t>(kSites, std::numeric_limits<int64_t>::max()));
  cfg.seed = 77;
  cfg.synthetic_max = 1'000'000;
  SiteEngine engine(std::move(cfg));
  auto transport = ThreadTransport::Create(kSites, 1);
  ASSERT_TRUE(transport.ok());
  Transport* t = transport->get();
  ASSERT_TRUE(t->SendBatch({ToRange(0, ActorMsgKind::kEpochStart, 0, kEpochs),
                            ToRange(1, ActorMsgKind::kEpochStart, 0, kEpochs),
                            ToRange(0, ActorMsgKind::kEpochStart, kEpochs,
                                    kEpochs + 5),
                            ToRange(0, ActorMsgKind::kPollRequest, 3, 2),
                            ToRange(0, ActorMsgKind::kPollRequest, 9, 2),
                            ToRange(0, ActorMsgKind::kPollRequest, 40, 2),
                            ToRange(0, ActorMsgKind::kShutdown, 0, 2)}));
  engine.RunVirtual(t);
  std::vector<std::vector<int64_t>> draws(kSites);
  for (int site = 0; site < kSites; ++site) {
    Rng rng = MakeSiteRng(77, site);
    for (int64_t e = 0; e < kEpochs; ++e) {
      draws[static_cast<size_t>(site)].push_back(rng.UniformInt(0, 1'000'000));
    }
  }
  using Answers = std::map<int64_t, std::vector<std::pair<int, int64_t>>>;
  size_t count = 0;
  // No epoch alarms (no local constraint): one closing report per site.
  EXPECT_EQ(TakeAnswers(t, 8, &count),
            (Answers{{3, {{0, draws[0][3]}, {1, draws[1][3]}}},
                     {9, {{0, draws[0][9]}, {1, draws[1][9]}}},
                     {40, {{0, draws[0][9]}, {1, draws[1][9]}}}}));
  EXPECT_EQ(count, 8u);
  EXPECT_NE(draws[0][3], draws[0][9]);
  EXPECT_EQ(engine.updates_processed(),
            (std::vector<int64_t>{kEpochs, kEpochs}));
}

// Every slot answers a poll inside the window from its record. A column
// that ends inside the window holds its last value there, as it does
// outside the window: whether the window starts before the column ends or
// past it (the slot's start is then dropped, while the other slot's start
// moves the window).
TEST(SiteEngineTest, ShortColumnHoldsItsLastValueInsideTheWindow) {
  using Answers = std::map<int64_t, std::vector<std::pair<int, int64_t>>>;
  struct Case {
    std::vector<Envelope> starts;
    Answers answers;
  };
  const std::vector<Case> cases = {
      {{ToRange(0, ActorMsgKind::kEpochStart, 0, 6),
        ToRange(1, ActorMsgKind::kEpochStart, 0, 6)},
       Answers{{1, {{0, 20}, {1, 2}}}, {4, {{0, 30}, {1, 5}}}}},
      {{ToRange(0, ActorMsgKind::kEpochStart, 0, 3),
        ToRange(1, ActorMsgKind::kEpochStart, 0, 3),
        ToRange(0, ActorMsgKind::kEpochStart, 3, 6),
        ToRange(1, ActorMsgKind::kEpochStart, 3, 6)},
       Answers{{1, {{0, 30}, {1, 6}}}, {4, {{0, 30}, {1, 5}}}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.starts.size() << " starts");
    SiteEngine::Config cfg;
    cfg.num_sites = 2;
    cfg.thresholds = {1000, 1000};
    cfg.series = {{10, 20, 30}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}};
    SiteEngine engine(std::move(cfg));
    auto transport = ThreadTransport::Create(2, 1);
    ASSERT_TRUE(transport.ok());
    Transport* t = transport->get();
    std::vector<Envelope> batch = c.starts;
    batch.push_back(ToRange(0, ActorMsgKind::kPollRequest, 1, 2));
    batch.push_back(ToRange(0, ActorMsgKind::kPollRequest, 4, 2));
    batch.push_back(ToRange(0, ActorMsgKind::kShutdown, 0, 2));
    ASSERT_TRUE(t->SendBatch(batch));
    engine.RunVirtual(t);
    // One closing report per slot per start that was not dropped.
    const size_t reports = c.starts.size() == 2 ? 2 : 3;
    size_t count = 0;
    EXPECT_EQ(TakeAnswers(t, reports + 4, &count), c.answers);
    EXPECT_EQ(count, reports + 4);
  }
}

// Uneven layouts: shards whose sizes differ and are not multiples of the
// worker count, and a one-site shard under three workers, whose range
// fan-out reaches one worker. A free run still drains every update, and a
// virtual run still matches lockstep.
TEST(SiteEngineFreeTest, UnevenLayoutsDrainEveryUpdate) {
  struct Shape {
    int sites, shards, workers;
  };
  for (const Shape& shape : {Shape{7, 3, 2}, Shape{4, 3, 3}}) {
    SCOPED_TRACE(testing::Message() << shape.sites << " sites / "
                                    << shape.shards << " shards / "
                                    << shape.workers << " workers");
    RuntimeOptions options;
    options.virtual_time = false;
    options.num_workers = shape.workers;
    options.num_shards = shape.shards;
    options.seed = 17;
    options.synthetic_max = 1000;
    options.global_threshold = static_cast<int64_t>(shape.sites) * 1000;
    options.thresholds.assign(static_cast<size_t>(shape.sites), 900);
    options.domain_max.assign(static_cast<size_t>(shape.sites), 1000);
    auto result = RunSyntheticRuntime(shape.sites, 2000, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->total_updates, shape.sites * 2000);
    for (int64_t u : result->site_updates) {
      EXPECT_EQ(u, 2000);
    }
    EXPECT_GT(result->polled_epochs, 0);
  }
}

TEST(SiteEngineConformanceTest, UnevenLayoutsMatchLockstep) {
  FptasSolver solver(0.05);
  for (const auto& [sites, shards, workers] :
       {std::tuple{7, 3, 2}, std::tuple{4, 3, 3}}) {
    SCOPED_TRACE(testing::Message() << sites << " sites / " << shards
                                    << " shards / " << workers << " workers");
    Workload w = MakeWorkload(239, sites);
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_workers = workers;
    spec.num_shards = shards;
    ExpectMatchesLockstep(w, spec);
  }
}

// A virtual engine never blocks on a send: with one envelope per shard
// inbox lane, its epoch reports go out one partial TrySendBatch at a time
// while the shard drains them, and still arrive in site order.
TEST(SiteEngineTest, VirtualRepliesSurviveShortSends) {
  constexpr int kSites = 4;
  SiteEngine::Config cfg;
  cfg.num_sites = kSites;
  cfg.thresholds.assign(kSites, 0);
  cfg.series.assign(kSites, {7});
  SiteEngine engine(std::move(cfg));
  auto transport = ThreadTransport::Create(kSites, 1,
                                           /*coordinator_capacity=*/1);
  ASSERT_TRUE(transport.ok());
  Transport* t = transport->get();
  std::thread worker([&] { engine.RunVirtual(t); });
  std::vector<Envelope> starts;
  for (int site = 0; site < kSites; ++site) {
    starts.push_back(ToSite(site, ActorMsgKind::kEpochStart));
  }
  ASSERT_TRUE(t->SendBatch(starts));
  for (int site = 0; site < kSites; ++site) {
    Envelope e;
    ASSERT_TRUE(t->RecvShard(0, &e));
    EXPECT_EQ(e.from, site);
    EXPECT_EQ(e.msg.kind, ActorMsgKind::kEpochReport);
    EXPECT_TRUE(e.msg.flag);
    EXPECT_EQ(e.msg.value, 7);
  }
  std::vector<Envelope> stops;
  for (int site = 0; site < kSites; ++site) {
    stops.push_back(ToSite(site, ActorMsgKind::kShutdown));
  }
  ASSERT_TRUE(t->SendBatch(stops));
  worker.join();
  Envelope extra;
  EXPECT_FALSE(t->TryRecvShard(0, &extra));
}

// The engines count updates and alarms in per-engine tallies and add them
// to the shared counters once per pass, per drained inbox, and at exit:
// after a run the counters are exact. On a perfect channel every local
// alarm reaches the coordinator, so the alarm counter equals total_alarms.
TEST(SiteEngineTallyTest, FreeRunCountersAreExact) {
  constexpr int kSites = 6;
  obs::MetricsRegistry metrics;
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 2;
  options.seed = 13;
  options.synthetic_max = 1000;
  options.global_threshold = kSites * 1000;
  options.thresholds.assign(kSites, 900);
  options.domain_max.assign(kSites, 1000);
  options.metrics = &metrics;
  auto result = RunSyntheticRuntime(kSites, 3001, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->total_updates, kSites * 3001);
  EXPECT_GT(result->total_alarms, 0);
  EXPECT_EQ(result->metrics.counters.at("runtime/site/updates"),
            result->total_updates);
  EXPECT_EQ(result->metrics.counters.at("runtime/site/alarms"),
            result->total_alarms);
}

// In virtual time the root counts every site's updates as the epochs it
// drove, at every shard count; the engines' own tallies must agree. A site
// does not know it is down, so the engines also count the crossings of a
// crashed site, which the root drops: runtime/site/alarms is total_alarms
// plus those.
TEST(SiteEngineTallyTest, VirtualRunCountersAreExact) {
  constexpr int kSites = 6;
  Workload w = MakeWorkload(57, kSites);
  FptasSolver solver(0.05);
  const int64_t threshold = PickThreshold(w, 0.05);
  auto plan = BuildLocalPlan(w.training, std::vector<int64_t>(kSites, 1),
                             threshold, solver);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  const CrashWindow crash{/*site=*/2, /*from=*/100, /*to=*/400};
  const int64_t site_threshold =
      plan->thresholds[static_cast<size_t>(crash.site)];
  const std::vector<int64_t> column = w.eval.SiteSeries(crash.site);
  const int64_t down_crossings =
      std::count_if(column.begin() + crash.from, column.begin() + crash.to,
                    [&](int64_t value) { return value > site_threshold; });
  ASSERT_GT(down_crossings, 0);
  for (const bool crashed : {false, true}) {
    for (int shards = 1; shards <= 4; ++shards) {
      SCOPED_TRACE(testing::Message() << shards << " shards, crashed "
                                      << crashed);
      obs::MetricsRegistry metrics;
      RuntimeOptions options;
      options.protocol = RuntimeProtocol::kLocalThreshold;
      options.solver = &solver;
      options.global_threshold = threshold;
      options.num_workers = 2;
      options.num_shards = shards;
      options.metrics = &metrics;
      if (crashed) {
        options.faults.crashes = {crash};
      }
      auto result = RunMonitorRuntime(w.training, w.eval, options);
      ASSERT_TRUE(result.ok()) << result.status().message();
      EXPECT_EQ(result->site_updates,
                std::vector<int64_t>(kSites, w.eval.num_epochs()));
      EXPECT_EQ(result->total_updates, kSites * w.eval.num_epochs());
      EXPECT_GT(result->total_alarms, 0);
      EXPECT_EQ(result->metrics.counters.at("runtime/site/updates"),
                result->total_updates);
      EXPECT_EQ(result->metrics.counters.at("runtime/site/alarms"),
                result->total_alarms + (crashed ? down_crossings : 0));
    }
  }
}

// A one-shard Transport double that drives one engine deterministically:
// control envelopes are scripted per TryRecvWorkerAll call, every
// TrySendBatch is accepted whole and logged with the number of
// TryRecvWorkerAll calls made before it, and the tail loop's blocking
// RecvWorkerAll delivers the envelopes ScriptBlocking queued, then shuts
// every site down. With one slot, a production pass is one
// TryRecvWorkerAll call and one update, so call counts are updates.
class ScriptedTransport : public Transport {
 public:
  struct SentBatch {
    int64_t after_recv = 0;  ///< TryRecvWorkerAll calls made before it.
    std::vector<Envelope> envelopes;
  };

  explicit ScriptedTransport(int num_sites) : num_sites_(num_sites) {}

  /// From now on the coordinator inbox is full, and the fabric closes on
  /// the first send that offers at least `backlog` envelopes.
  void FullThenCloseAt(size_t backlog) { close_at_ = backlog; }

  /// Delivers `e` on the `call`-th (1-based) TryRecvWorkerAll call.
  void ScriptOn(int64_t call, const Envelope& e) {
    script_[call].push_back(e);
  }
  /// Delivers `e` on the first blocking RecvWorkerAll call.
  void ScriptBlocking(const Envelope& e) { blocking_.push_back(e); }
  const std::vector<SentBatch>& sends() const { return sends_; }
  /// Every sent envelope, in send order.
  std::vector<Envelope> stream() const {
    std::vector<Envelope> all;
    for (const SentBatch& s : sends_) {
      all.insert(all.end(), s.envelopes.begin(), s.envelopes.end());
    }
    return all;
  }

  int num_sites() const override { return num_sites_; }
  int num_workers() const override { return 1; }
  int WorkerOf(int) const override { return 0; }
  int num_shards() const override { return 1; }
  int ShardOf(int) const override { return 0; }
  bool Send(const Envelope&) override { return false; }
  size_t TrySendBatch(const std::vector<Envelope>& batch, size_t begin,
                      bool* closed) override {
    if (closed != nullptr) {
      *closed = close_at_ > 0 && batch.size() - begin >= close_at_;
    }
    if (close_at_ > 0) {
      return 0;
    }
    sends_.push_back(
        {recv_calls_, std::vector<Envelope>(batch.begin() + begin,
                                            batch.end())});
    return batch.size() - begin;
  }
  bool SendToShard(int, const Envelope&) override { return false; }
  bool TrySendToShard(int, const Envelope&) override { return false; }
  bool RecvShard(int, Envelope*) override { return false; }
  bool TryRecvShard(int, Envelope*) override { return false; }
  size_t RecvShardAll(int, std::vector<Envelope>*) override { return 0; }
  size_t RecvShardAllFor(int, std::vector<Envelope>*, int64_t,
                         bool* timed_out) override {
    *timed_out = false;
    return 0;
  }
  bool RecvWorker(int, Envelope*) override { return false; }
  bool TryRecvWorker(int, Envelope*) override { return false; }
  size_t TryRecvWorkerAll(int, std::vector<Envelope>* out) override {
    ++recv_calls_;
    const auto it = script_.find(recv_calls_);
    if (it == script_.end()) {
      return 0;
    }
    out->insert(out->end(), it->second.begin(), it->second.end());
    return it->second.size();
  }
  size_t RecvWorkerAll(int, std::vector<Envelope>* out) override {
    if (!blocking_.empty()) {
      out->insert(out->end(), blocking_.begin(), blocking_.end());
      const size_t got = blocking_.size();
      blocking_.clear();
      return got;
    }
    if (shut_down_) {
      return 0;
    }
    shut_down_ = true;
    for (int site = 0; site < num_sites_; ++site) {
      out->push_back(ToSite(site, ActorMsgKind::kShutdown));
    }
    return static_cast<size_t>(num_sites_);
  }
  void Shutdown() override {}
  ShardLayout layout() const override {
    return *MakeShardLayout(num_sites_, 1);
  }

 private:
  int num_sites_;
  int64_t recv_calls_ = 0;
  bool shut_down_ = false;
  size_t close_at_ = 0;
  std::map<int64_t, std::vector<Envelope>> script_;
  std::vector<Envelope> blocking_;
  std::vector<SentBatch> sends_;
};

// A window off the wire is capped at VirtualWindowEpochs(N) epochs: at
// N = 32768 a window is two epochs, so a start naming a thousand observes
// two and reports both (every epoch alarms at threshold -1).
TEST(SiteEngineTest, WindowLongerThanTheRuleIsCapped) {
  constexpr int kSites = 32768;
  ASSERT_EQ(VirtualWindowEpochs(kSites), 2);
  SiteEngine::Config cfg;
  cfg.num_sites = kSites;
  cfg.num_workers = kSites;  // One slot: site 0.
  cfg.thresholds = {-1};
  cfg.series = {std::vector<int64_t>(1000, 5)};
  SiteEngine engine(std::move(cfg));
  ScriptedTransport transport(kSites);
  transport.ScriptBlocking(ToRange(0, ActorMsgKind::kEpochStart, 10, 1000));
  engine.RunVirtual(&transport);
  std::vector<int64_t> reported;
  for (const Envelope& e : transport.stream()) {
    EXPECT_EQ(e.msg.kind, ActorMsgKind::kEpochReport);
    reported.push_back(e.msg.epoch);
  }
  EXPECT_EQ(reported, (std::vector<int64_t>{10, 11}));
  EXPECT_EQ(engine.updates_processed(), (std::vector<int64_t>{2}));
}

/// Each site's observed values, in observation order, from a synthetic run
/// of `workers` engines at threshold -1, where every update alarms: free
/// running, each update is a kAlarm carrying its index and value; in
/// virtual time, the engines get `updates` epochs of kEpochStart, and each
/// is an alarmed kEpochReport carrying its epoch and value. Each engine
/// runs on its own thread over its own ScriptedTransport. Also checks that
/// each site's indices run 0, 1, 2, ..., that every slot observed
/// `updates` updates, and that a free site's kSiteDone reports as many.
std::vector<std::vector<int64_t>> AlarmStreams(int sites, int workers,
                                               int64_t updates, uint64_t seed,
                                               int64_t synthetic_max,
                                               bool virtual_time) {
  std::vector<std::unique_ptr<ScriptedTransport>> transports;
  std::vector<std::unique_ptr<SiteEngine>> engines;
  for (int w = 0; w < workers; ++w) {
    SiteEngine::Config cfg = WorkerEngineConfig(
        w, workers, sites, /*eval=*/nullptr, updates,
        std::vector<int64_t>(static_cast<size_t>(sites), -1));
    cfg.seed = seed;
    cfg.synthetic_max = synthetic_max;
    engines.push_back(std::make_unique<SiteEngine>(std::move(cfg)));
    transports.push_back(std::make_unique<ScriptedTransport>(sites));
    for (int64_t epoch = 0; virtual_time && epoch < updates; ++epoch) {
      for (int site = w; site < sites; site += workers) {
        transports.back()->ScriptBlocking(
            ToSite(site, ActorMsgKind::kEpochStart, epoch));
      }
    }
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    SiteEngine* engine = engines[static_cast<size_t>(w)].get();
    ScriptedTransport* t = transports[static_cast<size_t>(w)].get();
    threads.emplace_back([engine, t, virtual_time] {
      virtual_time ? engine->RunVirtual(t) : engine->RunFree(t);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  std::vector<std::vector<int64_t>> values(static_cast<size_t>(sites));
  std::vector<int64_t> done(static_cast<size_t>(sites), -1);
  const ActorMsgKind alarm =
      virtual_time ? ActorMsgKind::kEpochReport : ActorMsgKind::kAlarm;
  for (int w = 0; w < workers; ++w) {
    const SiteEngine& engine = *engines[static_cast<size_t>(w)];
    EXPECT_EQ(engine.updates_processed(),
              std::vector<int64_t>(engine.num_slots(), updates));
    for (const Envelope& e : transports[static_cast<size_t>(w)]->stream()) {
      std::vector<int64_t>& site = values[static_cast<size_t>(e.from)];
      if (e.msg.kind == ActorMsgKind::kSiteDone) {
        done[static_cast<size_t>(e.from)] = e.msg.value;
        continue;
      }
      EXPECT_EQ(e.msg.kind, alarm);
      EXPECT_EQ(e.msg.flag, virtual_time);  // An epoch report's alarm bit.
      EXPECT_EQ(e.msg.epoch, static_cast<int64_t>(site.size()))
          << "site " << e.from;
      site.push_back(e.msg.value);
    }
  }
  EXPECT_EQ(done, std::vector<int64_t>(static_cast<size_t>(sites),
                                       virtual_time ? -1 : updates));
  return values;
}

/// Site s's synthetic values are exactly the draws of MakeSiteRng(seed, s)
/// .UniformInt(0, synthetic_max), in order: streams are keyed by (seed,
/// site), never by slot, worker, or processing order. Runs at each
/// synthetic_max below, over as many of 5 sites as ValidateSyntheticMax
/// allows: 0 and 1 are the degenerate spans, and 2^62 draws under the span
/// 2^62 + 1, which rejects about a quarter of raw draws, so the rejection
/// loop runs.
void ExpectCapturedStreamsMatchSiteRng(bool virtual_time) {
  constexpr int64_t kUpdates = 64;
  for (const int64_t max : {int64_t{0}, int64_t{1}, int64_t{5000},
                            int64_t{1} << 62}) {
    SCOPED_TRACE(testing::Message() << "synthetic_max " << max);
    const int sites = static_cast<int>(std::min<int64_t>(
        5, max == 0 ? 5 : std::numeric_limits<int64_t>::max() / max));
    ASSERT_TRUE(ValidateSyntheticMax(max, sites).ok());
    const std::vector<std::vector<int64_t>> streams = AlarmStreams(
        sites, std::min(sites, 2), kUpdates, /*seed=*/77, max, virtual_time);

    int64_t rejected = 0;  // Raw draws the rejection rule threw away.
    for (int s = 0; s < sites; ++s) {
      Rng rng = MakeSiteRng(77, s);
      XoshiroState raw = rng.state();
      const uint64_t span = static_cast<uint64_t>(max) + 1;
      std::vector<int64_t> expected;
      for (int64_t i = 0; i < kUpdates; ++i) {
        expected.push_back(rng.UniformInt(0, max));
        while (XoshiroNext(raw) < RejectBelow(span)) {
          ++rejected;
        }
      }
      EXPECT_EQ(streams[static_cast<size_t>(s)], expected)
          << "value stream diverges for site " << s;
    }
    if (max == int64_t{1} << 62) {
      EXPECT_GT(rejected, 0);
    }
  }
}

TEST(SiteEngineFreeTest, CapturedUpdateStreamsMatchSiteRng) {
  ExpectCapturedStreamsMatchSiteRng(/*virtual_time=*/false);
}

TEST(SiteEngineVirtualTest, CapturedUpdateStreamsMatchSiteRng) {
  ExpectCapturedStreamsMatchSiteRng(/*virtual_time=*/true);
}

// A trace-driven config whose columns mix empty and non-empty ones (the
// shape WorkerEngineConfig builds, synthetic_updates 0) reads each
// non-empty column in order and gives an empty one no updates: its site
// reports done at once, with 0. At threshold -1 every update is an alarm
// carrying its index and value.
TEST(SiteEngineFreeTest, EmptyTraceColumnGetsNoUpdates) {
  SiteEngine::Config cfg;
  cfg.num_sites = 3;
  cfg.thresholds.assign(3, -1);
  cfg.series = {{10, 20, 30}, {}, {40, 50}};
  SiteEngine engine(std::move(cfg));
  ScriptedTransport transport(3);
  engine.RunFree(&transport);
  EXPECT_EQ(engine.updates_processed(), (std::vector<int64_t>{3, 0, 2}));
  using Observed = std::vector<std::pair<int64_t, int64_t>>;  // (index, value)
  std::map<int, Observed> alarms;
  std::map<int, int64_t> done;
  for (const Envelope& e : transport.stream()) {
    if (e.msg.kind == ActorMsgKind::kAlarm) {
      alarms[e.from].emplace_back(e.msg.epoch, e.msg.value);
    } else {
      ASSERT_EQ(e.msg.kind, ActorMsgKind::kSiteDone);
      done[e.from] = e.msg.value;
    }
  }
  EXPECT_EQ(alarms, (std::map<int, Observed>{{0, {{0, 10}, {1, 20}, {2, 30}}},
                                             {2, {{0, 40}, {1, 50}}}}));
  EXPECT_EQ(done, (std::map<int, int64_t>{{0, 3}, {1, 0}, {2, 2}}));
}

// --- Seed determinism -------------------------------------------------------

TEST(SeedDeterminismTest, SameSeedSameStreamsRegardlessOfThreads) {
  constexpr int kSites = 4;
  constexpr int64_t kUpdates = 300;
  constexpr int64_t kMax = 1'000'000;
  // Four engines on four threads read the same per-site streams as one
  // engine over every site.
  const std::vector<std::vector<int64_t>> streams =
      AlarmStreams(kSites, 4, kUpdates, /*seed=*/1234, kMax, false);
  EXPECT_EQ(AlarmStreams(kSites, 1, kUpdates, 1234, kMax, false), streams);

  // The runtime hands every engine the run's seed, at any thread count: on
  // a perfect channel each run alarms exactly where the streams breach.
  constexpr int64_t kThreshold = 900'000;
  int64_t breaches = 0;
  for (const std::vector<int64_t>& site : streams) {
    breaches += std::count_if(site.begin(), site.end(),
                              [](int64_t v) { return v > kThreshold; });
  }
  ASSERT_GT(breaches, 0);
  for (int workers : {1, 4}) {
    RuntimeOptions options;
    options.virtual_time = false;
    options.num_workers = workers;
    options.seed = 1234;
    options.global_threshold = kSites * kMax;
    options.thresholds.assign(kSites, kThreshold);
    options.domain_max.assign(kSites, kMax);
    auto result = RunSyntheticRuntime(kSites, kUpdates, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->total_alarms, breaches) << workers << " workers";
  }
}

TEST(SeedDeterminismTest, DifferentSeedsDiverge) {
  EXPECT_NE(AlarmStreams(2, 1, 100, /*seed=*/1, 1'000'000, false)[0],
            AlarmStreams(2, 1, 100, /*seed=*/2, 1'000'000, false)[0]);
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

SiteEngine::Config OneSlotConfig(int64_t updates, int64_t threshold) {
  SiteEngine::Config cfg;
  cfg.num_sites = 1;
  cfg.thresholds = {threshold};
  cfg.synthetic_updates = updates;
  cfg.seed = 3;
  return cfg;
}

// A fabric that closes while the engine is held at the outbox cap ends the
// production loop mid-pass, before the next pass adds its tally: the exit
// flush is what keeps the counters exact there.
TEST(SiteEngineTallyTest, CountersAreExactWhenTheFabricClosesMidPass) {
  ScriptedTransport transport(1);
  transport.FullThenCloseAt(SiteEngine::kOutboxCap);
  obs::MetricsRegistry metrics;
  SiteEngine::Config cfg = OneSlotConfig(/*updates=*/20000, /*threshold=*/-1);
  cfg.metrics = &metrics;
  SiteEngine engine(std::move(cfg));
  engine.RunFree(&transport);

  const int64_t updates = engine.updates_processed()[0];
  EXPECT_EQ(updates, static_cast<int64_t>(SiteEngine::kOutboxCap));
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("runtime/site/updates"), updates);
  EXPECT_EQ(snap.counters.at("runtime/site/alarms"), updates);  // 100%.
}

// Coalescing never holds a control reply: a poll request delivered on the
// k-th TryRecvWorkerAll goes out in a send before the (k+1)-th, even with
// fewer than a run of alarms pending.
TEST(SiteEngineCadenceTest, PollResponseLeavesBeforeTheNextDrain) {
  constexpr int64_t kUpdates = 2000;
  ScriptedTransport transport(1);
  const std::vector<int64_t> polls = {1, 2, 37, 300, 301, 1999};
  for (int64_t k : polls) {
    transport.ScriptOn(k, ToSite(0, ActorMsgKind::kPollRequest, k));
  }
  SiteEngine engine(OneSlotConfig(kUpdates, /*threshold=*/900000));
  engine.RunFree(&transport);

  std::map<int64_t, int64_t> answered_after;  // poll epoch -> after_recv.
  int64_t alarms = 0;
  for (const auto& send : transport.sends()) {
    for (const Envelope& e : send.envelopes) {
      if (e.msg.kind == ActorMsgKind::kPollResponse) {
        EXPECT_EQ(answered_after.count(e.msg.epoch), 0u);
        answered_after[e.msg.epoch] = send.after_recv;
      }
      alarms += e.msg.kind == ActorMsgKind::kAlarm ? 1 : 0;
    }
  }
  EXPECT_GT(alarms, 0);  // Alarms were pending beside the replies.
  ASSERT_EQ(answered_after.size(), polls.size());
  for (int64_t k : polls) {
    EXPECT_EQ(answered_after[k], k) << "poll delivered on call " << k;
  }
}

// Runs of alarms: at 100% alarms, consecutive sends are at most the update
// bound apart; at any alarm rate, an alarm leaves within the update bound
// of its update; and every alarm precedes the slot's kSiteDone.
TEST(SiteEngineCadenceTest, AlarmsLeaveWithinTheUpdateBound) {
  constexpr int64_t kUpdates = 5000;
  for (int64_t threshold : {int64_t{-1}, int64_t{990000}}) {
    SCOPED_TRACE(threshold);
    ScriptedTransport transport(1);
    obs::MetricsRegistry metrics;
    SiteEngine::Config cfg = OneSlotConfig(kUpdates, threshold);
    cfg.metrics = &metrics;
    SiteEngine engine(std::move(cfg));
    engine.RunFree(&transport);

    const auto& sends = transport.sends();
    ASSERT_FALSE(sends.empty());
    for (size_t i = 0; i < sends.size(); ++i) {
      for (const Envelope& e : sends[i].envelopes) {
        if (e.msg.kind == ActorMsgKind::kAlarm) {
          EXPECT_LE(sends[i].after_recv - e.msg.epoch,
                    SiteEngine::kSendRunUpdates);
        }
      }
      if (threshold < 0 && i > 0) {
        EXPECT_LE(sends[i].after_recv - sends[i - 1].after_recv,
                  SiteEngine::kSendRunUpdates);
      }
    }

    const std::vector<Envelope> stream = transport.stream();
    ASSERT_FALSE(stream.empty());
    EXPECT_EQ(stream.back().msg.kind, ActorMsgKind::kSiteDone);
    EXPECT_EQ(stream.back().msg.value, kUpdates);
    int64_t alarms = 0;
    int64_t last_epoch = -1;
    for (size_t i = 0; i + 1 < stream.size(); ++i) {
      ASSERT_EQ(stream[i].msg.kind, ActorMsgKind::kAlarm);
      EXPECT_GT(stream[i].msg.epoch, last_epoch);
      last_epoch = stream[i].msg.epoch;
      ++alarms;
    }
    if (threshold < 0) {
      EXPECT_EQ(alarms, kUpdates);
    }
    const obs::MetricsSnapshot snap = metrics.Snapshot();
    EXPECT_EQ(snap.counters.at("runtime/site/updates"), kUpdates);
    EXPECT_EQ(snap.counters.at("runtime/site/alarms"), alarms);
  }
}

}  // namespace
}  // namespace dcv

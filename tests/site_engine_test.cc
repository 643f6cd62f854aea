#include "runtime/site_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/conformance.h"
#include "runtime/runtime.h"
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

// Site s's synthetic values are exactly the draws of MakeSiteRng(seed, s),
// in order: streams are keyed by (seed, site), never by slot, worker, or
// processing order.
TEST(SiteEngineFreeTest, CapturedUpdateStreamsMatchSiteRng) {
  constexpr int kSites = 5;
  constexpr int64_t kUpdates = 64;
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 2;
  options.seed = 77;
  options.synthetic_max = 5000;
  options.global_threshold = kSites * 5000;
  options.thresholds.assign(kSites, 4500);
  options.domain_max.assign(kSites, 5000);
  options.capture_updates = true;
  auto result = RunSyntheticRuntime(kSites, kUpdates, options);
  ASSERT_TRUE(result.ok()) << result.status().message();

  ASSERT_EQ(result->captured_updates.size(), static_cast<size_t>(kSites));
  for (int s = 0; s < kSites; ++s) {
    Rng rng = MakeSiteRng(77, s);
    std::vector<int64_t> expected;
    for (int64_t i = 0; i < kUpdates; ++i) {
      expected.push_back(rng.UniformInt(0, 5000));
    }
    EXPECT_EQ(result->captured_updates[static_cast<size_t>(s)], expected)
        << "value stream diverges for site " << s;
  }
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

}  // namespace
}  // namespace dcv

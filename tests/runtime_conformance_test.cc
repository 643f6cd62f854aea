#include "runtime/conformance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/coordinator.h"
#include "runtime/plan.h"
#include "runtime/shard.h"
#include "runtime/transport.h"
#include "sim/local_scheme.h"
#include "threshold/fptas.h"
#include "threshold/heuristics.h"
#include "trace/snmp_synth.h"
#include "trace/stats.h"
#include "trace/synthetic.h"

namespace dcv {
namespace {

// The tentpole guarantee: the threaded runtime in virtual-time mode is
// bit-identical to the lockstep simulator — same per-epoch alarms, polls,
// and violation verdicts, same per-type message counts, same wire-level
// reliability stats — because the coordinator replays the protocol through
// the fault-injecting Channel in the exact order the lockstep schemes use.

struct Workload {
  Trace training{0};
  Trace eval{0};
};

Workload MakeSyntheticWorkload(uint64_t seed, int num_sites = 4,
                               int64_t train_epochs = 600,
                               int64_t eval_epochs = 600) {
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

int64_t PickThreshold(const Workload& w, double overflow_fraction,
                      const std::vector<int64_t>& weights = {}) {
  auto t = ThresholdForOverflowFraction(w.eval, weights, overflow_fraction);
  EXPECT_TRUE(t.ok());
  return *t;
}

void ExpectConformant(const Workload& w, const ConformanceSpec& spec,
                      ConformanceReport* report_out = nullptr) {
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  if (report_out != nullptr) {
    *report_out = *report;
  }
  EXPECT_TRUE(report->identical) << report->mismatch;
  // The run must be non-trivial: something happened worth comparing.
  EXPECT_GT(report->lockstep.messages.total(), 0);
  EXPECT_EQ(report->lockstep.epochs,
            static_cast<int64_t>(report->runtime.detections.size()));
  // Aggregate scoring agrees too (implied by per-epoch equality, but this
  // also exercises the runtime's own ground-truth accounting).
  EXPECT_EQ(report->lockstep.true_violations, report->runtime.true_violations);
  EXPECT_EQ(report->lockstep.detected_violations,
            report->runtime.detected_violations);
  EXPECT_EQ(report->lockstep.missed_violations,
            report->runtime.missed_violations);
  EXPECT_EQ(report->lockstep.false_alarm_epochs,
            report->runtime.false_alarm_epochs);
  EXPECT_EQ(report->lockstep.total_alarms, report->runtime.total_alarms);
  EXPECT_EQ(report->lockstep.polled_epochs, report->runtime.polled_epochs);
}

TEST(RuntimeConformanceTest, LocalFptasOnSnmpTrace) {
  SnmpTraceOptions options;
  options.num_sites = 5;
  options.num_weeks = 2;
  options.seed = 7;
  auto trace = GenerateSnmpTrace(options);
  ASSERT_TRUE(trace.ok());
  const int64_t week = EpochsPerWeek(options);
  Workload w;
  w.training = *trace->Slice(0, week);
  w.eval = *trace->Slice(week, 2 * week);

  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.01);
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, LocalEqualValueWithWeights) {
  Workload w = MakeSyntheticWorkload(21);
  EqualValueSolver solver;
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.weights = {3, 1, 2, 1};
  spec.global_threshold = PickThreshold(w, 0.02, spec.weights);
  spec.num_workers = 2;  // Multiplexed workers must not change anything.
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, PollingBaseline) {
  Workload w = MakeSyntheticWorkload(33);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 3;
  spec.global_threshold = PickThreshold(w, 0.05);
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, LocalFptasUnderChannelFaults) {
  Workload w = MakeSyntheticWorkload(55, /*num_sites=*/5);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.faults.loss = 0.1;
  spec.faults.duplicate = 0.05;
  spec.faults.delay = 0.1;
  spec.faults.max_delay_epochs = 2;
  spec.faults.retry.enable_acks = true;
  spec.faults.retry.max_attempts = 3;
  spec.faults.crashes = {{/*site=*/1, /*from=*/100, /*to=*/220},
                         {/*site=*/3, /*from=*/400, /*to=*/450}};
  spec.faults.partitions = {{/*from=*/300, /*to=*/320}};
  spec.faults.degrade = DegradeMode::kAssumeBreach;
  spec.faults.seed = 0xfeedULL;
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, PollingUnderLoss) {
  Workload w = MakeSyntheticWorkload(77);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 2;
  spec.global_threshold = PickThreshold(w, 0.05);
  spec.faults.loss = 0.15;
  spec.faults.retry.enable_acks = true;
  ExpectConformant(w, spec);
}

// The socket transport must be indistinguishable from the in-process
// transport: a third run over real loopback TCP (multi-process topology,
// in-process worker drivers) produces the same per-epoch detections and
// message counts as both the lockstep simulator and the thread runtime.
TEST(RuntimeConformanceTest, SocketTransportMatchesLockstep) {
  Workload w = MakeSyntheticWorkload(101);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.transport = TransportKind::kSocket;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  EXPECT_EQ(report->socket_runtime.messages.total(),
            report->lockstep.messages.total());
  EXPECT_EQ(report->socket_runtime.detected_violations,
            report->lockstep.detected_violations);
  // The TCP fabric itself must have been clean: no decode errors, no
  // unexpected disconnects, every frame accounted for.
  EXPECT_EQ(report->socket_runtime.socket.decode_errors, 0);
  EXPECT_EQ(report->socket_runtime.socket.disconnects, 0);
  EXPECT_GT(report->socket_runtime.socket.frames_sent, 0);
}

TEST(RuntimeConformanceTest, SocketTransportUnderChannelFaults) {
  // Channel faults are simulated above the transport, so they must replay
  // identically over TCP too — including ack retries and crash windows.
  Workload w = MakeSyntheticWorkload(113, /*num_sites=*/5,
                                     /*train_epochs=*/400,
                                     /*eval_epochs=*/400);
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
  spec.faults.crashes = {{/*site=*/2, /*from=*/50, /*to=*/120}};
  spec.faults.seed = 0xabcdULL;
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, SocketPollingBaseline) {
  Workload w = MakeSyntheticWorkload(131, /*num_sites=*/3,
                                     /*train_epochs=*/300,
                                     /*eval_epochs=*/300);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 4;
  spec.global_threshold = PickThreshold(w, 0.05);
  spec.transport = TransportKind::kSocket;
  ExpectConformant(w, spec);
}

// Sharded coordinator tree (the two-level refactor): for every legal shard
// count, virtual-time runs must stay bit-identical to the lockstep
// simulator — the shards are channel-free relays, and the root issues every
// channel call in the lockstep scheme's order. These tests are the determinism
// proof for the topology, not just a smoke test.

TEST(ShardedConformanceTest, LocalFptasShards2And4) {
  Workload w = MakeSyntheticWorkload(21);
  FptasSolver solver(0.05);
  for (int shards : {2, 4}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = shards;
    ExpectConformant(w, spec);
  }
}

TEST(ShardedConformanceTest, PollingShards2) {
  Workload w = MakeSyntheticWorkload(33);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 3;
  spec.global_threshold = PickThreshold(w, 0.05);
  spec.num_shards = 2;
  ExpectConformant(w, spec);
}

TEST(ShardedConformanceTest, LocalFptasUnderChannelFaultsShards2And4) {
  // The hard case: loss, duplication, delay, ack retries, crash windows,
  // and a coordinator partition, re-run at 2 and 4 shards. Identical
  // reliability stats prove the root (not the shards) owns every channel
  // RNG draw.
  Workload w = MakeSyntheticWorkload(55, /*num_sites=*/5);
  FptasSolver solver(0.1);
  for (int shards : {1, 2, 4}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = shards;
    spec.faults.loss = 0.1;
    spec.faults.duplicate = 0.05;
    spec.faults.delay = 0.1;
    spec.faults.max_delay_epochs = 2;
    spec.faults.retry.enable_acks = true;
    spec.faults.retry.max_attempts = 3;
    spec.faults.crashes = {{/*site=*/1, /*from=*/100, /*to=*/220},
                           {/*site=*/3, /*from=*/400, /*to=*/450}};
    spec.faults.partitions = {{/*from=*/300, /*to=*/320}};
    spec.faults.degrade = DegradeMode::kAssumeBreach;
    spec.faults.seed = 0xfeedULL;
    ConformanceReport report;
    ExpectConformant(w, spec, &report);
  }
}

TEST(ShardedConformanceTest, UnevenPartitionSevenSitesThreeShards) {
  // Regression for the uneven split: 7 sites over 3 shards gives shard
  // sizes {3, 2, 2}; the contiguous layout must keep the global replay
  // order ascending across the size boundary.
  Workload w = MakeSyntheticWorkload(143, /*num_sites=*/7);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_shards = 3;
  spec.num_workers = 2;  // Worker multiplexing is independent of sharding.
  spec.faults.loss = 0.05;
  spec.faults.retry.enable_acks = true;
  spec.faults.crashes = {{/*site=*/2, /*from=*/80, /*to=*/160},
                         {/*site=*/6, /*from=*/200, /*to=*/260}};
  ExpectConformant(w, spec);
}

TEST(ShardedConformanceTest, SocketTransportShards2) {
  // Sharding is coordinator-process-local: the wire format does not change,
  // so a sharded coordinator over real loopback TCP must still match the
  // lockstep simulator bit for bit.
  Workload w = MakeSyntheticWorkload(101);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.num_shards = 2;
  spec.transport = TransportKind::kSocket;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  EXPECT_EQ(report->socket_runtime.socket.decode_errors, 0);
  EXPECT_EQ(report->socket_runtime.socket.disconnects, 0);
}

TEST(ShardedConformanceTest, SocketTransportUnderFaultsShards3) {
  Workload w = MakeSyntheticWorkload(113, /*num_sites=*/5,
                                     /*train_epochs=*/400,
                                     /*eval_epochs=*/400);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 3;
  spec.num_shards = 3;
  spec.transport = TransportKind::kSocket;
  spec.faults.loss = 0.1;
  spec.faults.retry.enable_acks = true;
  spec.faults.retry.max_attempts = 3;
  spec.faults.crashes = {{/*site=*/2, /*from=*/50, /*to=*/120}};
  spec.faults.seed = 0xabcdULL;
  ExpectConformant(w, spec);
}

// Free-running mode has no determinism claim, but it must drain the whole
// workload and account for every update exactly once — with the single
// leg inline (k = 1) or on shard threads.
TEST(ShardedRuntimeFreeTest, DrainsFullWorkloadAcrossShardCounts) {
  for (int shards : {1, 2, 3}) {
    RuntimeOptions options;
    options.virtual_time = false;
    options.num_shards = shards;
    options.seed = 9;
    options.synthetic_max = 1000;
    options.global_threshold = 7 * 1000;
    options.thresholds.assign(7, 900);  // Alarm-heavy.
    options.domain_max.assign(7, 1000);
    auto result = RunSyntheticRuntime(7, 500, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->total_updates, 7 * 500);
    ASSERT_EQ(result->site_updates.size(), 7u);
    for (int64_t u : result->site_updates) {
      EXPECT_EQ(u, 500);
    }
    EXPECT_GT(result->total_alarms, 0);
    EXPECT_GT(result->polled_epochs, 0);
  }
}

/// One past the last site `e` covers on a one-worker fabric of `sites`
/// sites (CoveredEnd, capped at the fabric).
int CoveredSiteEnd(const Envelope& e, int sites) {
  return static_cast<int>(std::min<int64_t>(CoveredEnd(e), sites));
}

// A scripted fabric for one coordinator inbox: it raises one alarm, answers
// each poll round at once (every site a request covers, site i reporting
// i + 1; a flagged request is answered once, by its addressed site, with
// the sum over the sites it covers) and raises the next alarm, and after
// `rounds` rounds reports every site done. It counts every site a shutdown covers. Its shard-command path
// is dead — SendToShard and TrySendToShard refuse everything — so the
// coordinator can only get through if it hands its commands to the leg
// directly.
class InlinePollScript : public Transport {
 public:
  InlinePollScript(int sites, int rounds) : sites_(sites), rounds_(rounds) {
    inbox_.push_back(Alarm(0));
  }
  int num_sites() const override { return sites_; }
  int num_workers() const override { return 1; }
  int WorkerOf(int) const override { return 0; }
  int num_shards() const override { return 1; }
  int ShardOf(int) const override { return 0; }
  ShardLayout layout() const override { return *MakeShardLayout(sites_, 1); }
  bool Send(const Envelope& e) override { return SendBatch({e}); }
  bool SendBatch(const std::vector<Envelope>& batch) override {
    for (const Envelope& e : batch) {
      if (e.msg.kind == ActorMsgKind::kShutdown) {
        shutdowns_ += CoveredSiteEnd(e, sites_) - e.to;
      }
    }
    if (batch.empty() || batch[0].msg.kind != ActorMsgKind::kPollRequest) {
      return true;
    }
    for (const Envelope& e : batch) {
      ActorMessage m;
      m.kind = ActorMsgKind::kPollResponse;
      m.epoch = e.msg.epoch;
      if (e.msg.flag) {
        for (int site = e.to; site < CoveredSiteEnd(e, sites_); ++site) {
          m.value += site + 1;
        }
        inbox_.push_back(Envelope{e.to, kCoordinatorId, m});
        ++summed_rounds_;
        continue;
      }
      for (int site = e.to; site < CoveredSiteEnd(e, sites_); ++site) {
        m.value = site + 1;
        inbox_.push_back(Envelope{site, kCoordinatorId, m});
      }
    }
    if (++round_ < rounds_) {
      inbox_.push_back(Alarm(round_ % sites_));
    } else {
      for (int site = 0; site < sites_; ++site) {
        ActorMessage done;
        done.kind = ActorMsgKind::kSiteDone;
        done.value = 7;
        inbox_.push_back(Envelope{site, kCoordinatorId, done});
      }
    }
    return true;
  }
  bool SendToShard(int, const Envelope&) override { return false; }
  bool TrySendToShard(int, const Envelope&) override { return false; }
  bool RecvShard(int, Envelope*) override { return false; }
  bool TryRecvShard(int, Envelope*) override { return false; }
  size_t RecvShardAll(int, std::vector<Envelope>* out) override {
    const size_t n = inbox_.size();
    out->insert(out->end(), inbox_.begin(), inbox_.end());
    inbox_.clear();
    return n;
  }
  size_t RecvShardAllFor(int shard, std::vector<Envelope>* out, int64_t,
                         bool* timed_out) override {
    *timed_out = false;
    return RecvShardAll(shard, out);
  }
  bool RecvWorker(int, Envelope*) override { return false; }
  bool TryRecvWorker(int, Envelope*) override { return false; }
  void Shutdown() override {}

  int shutdowns() const { return shutdowns_; }
  int summed_rounds() const { return summed_rounds_; }

 private:
  Envelope Alarm(int site) const {
    ActorMessage m;
    m.kind = ActorMsgKind::kAlarm;
    m.epoch = round_;
    m.value = 1;
    return Envelope{site, kCoordinatorId, m};
  }

  const int sites_;
  const int rounds_;
  int round_ = 0;
  int shutdowns_ = 0;
  int summed_rounds_ = 0;
  std::vector<Envelope> inbox_;
};

TEST(ShardedRuntimeFreeTest, SingleShardLegRunsInline) {
  constexpr int kSites = 4;
  constexpr int kRounds = 16;
  obs::MetricsRegistry registry;
  CoordinatorActor::Config cfg;
  cfg.num_sites = kSites;
  cfg.weights.assign(kSites, 1);
  cfg.global_threshold = 1'000;
  cfg.thresholds.assign(kSites, 900);
  cfg.domain_max.assign(kSites, 1'000);
  cfg.metrics = &registry;
  CoordinatorActor coordinator(cfg);
  ASSERT_TRUE(coordinator.Init().ok());
  InlinePollScript script(kSites, kRounds);
  RuntimeResult result;
  const Status status = coordinator.RunFree(&script, &result);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(result.polled_epochs, kRounds);
  EXPECT_EQ(result.total_alarms, kRounds);
  EXPECT_EQ(result.total_updates, kSites * 7);
  EXPECT_EQ(script.shutdowns(), kSites);
  // Equal weights on a perfect channel: the leg summed every round, and
  // each round still charged a request and an answer per site.
  EXPECT_EQ(script.summed_rounds(), kRounds);
  EXPECT_EQ(result.messages.of(MessageType::kPollRequest), kSites * kRounds);
  EXPECT_EQ(result.messages.of(MessageType::kPollResponse), kSites * kRounds);
}

// A scripted fabric for one coordinator inbox that hands out `bursts`, one
// per receive, and nothing after them. Every send to the sites succeeds;
// its shard-command path is dead, as in InlinePollScript.
class BurstScript : public Transport {
 public:
  BurstScript(int sites, std::vector<std::vector<Envelope>> bursts)
      : sites_(sites), bursts_(std::move(bursts)) {}
  int num_sites() const override { return sites_; }
  int num_workers() const override { return 1; }
  int WorkerOf(int) const override { return 0; }
  int num_shards() const override { return 1; }
  int ShardOf(int) const override { return 0; }
  ShardLayout layout() const override { return *MakeShardLayout(sites_, 1); }
  bool Send(const Envelope&) override { return true; }
  bool SendBatch(const std::vector<Envelope>&) override { return true; }
  bool SendToShard(int, const Envelope&) override { return false; }
  bool TrySendToShard(int, const Envelope&) override { return false; }
  bool RecvShard(int, Envelope*) override { return false; }
  bool TryRecvShard(int, Envelope*) override { return false; }
  size_t RecvShardAll(int, std::vector<Envelope>* out) override {
    if (next_ == bursts_.size()) {
      return 0;
    }
    const std::vector<Envelope>& burst = bursts_[next_++];
    out->insert(out->end(), burst.begin(), burst.end());
    return burst.size();
  }
  size_t RecvShardAllFor(int shard, std::vector<Envelope>* out, int64_t,
                         bool* timed_out) override {
    *timed_out = false;
    return RecvShardAll(shard, out);
  }
  bool RecvWorker(int, Envelope*) override { return false; }
  bool TryRecvWorker(int, Envelope*) override { return false; }
  void Shutdown() override {}

 private:
  const int sites_;
  const std::vector<std::vector<Envelope>> bursts_;
  size_t next_ = 0;
};

// Site 0 reports done twice before site 1 reports at all. A repeated done
// counts once, so the run waits for site 1 and keeps each site's first
// count, instead of ending with site 1's updates uncounted.
TEST(ShardedRuntimeFreeTest, RepeatedSiteDoneCountsOnce) {
  constexpr int kSites = 2;
  CoordinatorActor::Config cfg;
  cfg.num_sites = kSites;
  cfg.weights.assign(kSites, 1);
  cfg.global_threshold = 1'000;
  cfg.thresholds.assign(kSites, 900);
  cfg.domain_max.assign(kSites, 1'000);
  CoordinatorActor coordinator(cfg);
  ASSERT_TRUE(coordinator.Init().ok());
  auto done = [](int site, int64_t updates) {
    ActorMessage m;
    m.kind = ActorMsgKind::kSiteDone;
    m.value = updates;
    return Envelope{site, kCoordinatorId, m};
  };
  BurstScript script(kSites, {{done(0, 5), done(0, 6)}, {done(1, 7)}});
  RuntimeResult result;
  const Status status = coordinator.RunFree(&script, &result);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(result.site_updates, (std::vector<int64_t>{5, 7}));
  EXPECT_EQ(result.total_updates, 5 + 7);
}

// The runtime rejects shard counts outside [1, num_sites] up front.
TEST(ShardedRuntimeTest, RejectsBadShardCounts) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_shards = 0;
  EXPECT_FALSE(RunSyntheticRuntime(4, 10, options).ok());
  options.num_shards = 5;
  EXPECT_FALSE(RunSyntheticRuntime(4, 10, options).ok());
}

// A scripted fabric for the virtual epoch barrier over `shards` shard
// inboxes. Sites answer a kEpochStart's window with correct kEpochReports
// (site 0 alarms on odd epochs; every site reports the window's last
// epoch) and kPollRequest with a kPollResponse, except in `bad_shard`'s
// inbox, which answers kEpochStart with a kPollResponse that the exchange
// must reject. Every site a request covers answers. Replies are queued
// before SendBatch returns, so a receive always finds them. Its
// shard-command path is dead — SendToShard and TrySendToShard refuse
// everything — and it records the thread of every RecvShardAll and the
// kind of every envelope sent.
class EpochBarrierScript : public Transport {
 public:
  explicit EpochBarrierScript(int sites, int shards = 2, int bad_shard = 1)
      : layout_(*MakeShardLayout(sites, shards)),
        bad_shard_(bad_shard),
        inboxes_(static_cast<size_t>(shards)) {}
  int num_sites() const override { return layout_.num_sites; }
  int num_workers() const override { return 1; }
  int WorkerOf(int) const override { return 0; }
  int num_shards() const override { return layout_.num_shards; }
  int ShardOf(int site) const override { return layout_.ShardOf(site); }
  ShardLayout layout() const override { return layout_; }
  bool Send(const Envelope& e) override { return SendBatch({e}); }
  bool SendBatch(const std::vector<Envelope>& batch) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Envelope& e : batch) {
      ++sent_[e.msg.kind];
      for (int site = e.to; site < CoveredSiteEnd(e, layout_.num_sites);
           ++site) {
        const int shard = layout_.ShardOf(site);
        std::vector<Envelope>& inbox = inboxes_[static_cast<size_t>(shard)];
        ActorMessage reply;
        if (e.msg.kind == ActorMsgKind::kEpochStart) {
          const int64_t end = std::max(e.msg.value, e.msg.epoch + 1);
          for (int64_t epoch = e.msg.epoch; epoch < end; ++epoch) {
            reply.epoch = epoch;
            reply.kind = shard == bad_shard_ ? ActorMsgKind::kPollResponse
                                             : ActorMsgKind::kEpochReport;
            reply.flag = site == 0 && epoch % 2 == 1;
            reply.value = reply.flag ? 1'000 : 1;
            if (reply.flag || epoch + 1 == end) {
              inbox.push_back(Envelope{site, kCoordinatorId, reply});
            }
          }
        } else if (e.msg.kind == ActorMsgKind::kPollRequest) {
          reply.epoch = e.msg.epoch;
          reply.kind = ActorMsgKind::kPollResponse;
          reply.value = site + 1;
          inbox.push_back(Envelope{site, kCoordinatorId, reply});
        }
      }
    }
    return true;
  }
  bool SendToShard(int, const Envelope&) override { return false; }
  bool TrySendToShard(int, const Envelope&) override { return false; }
  bool RecvShard(int, Envelope*) override { return false; }
  bool TryRecvShard(int, Envelope*) override { return false; }
  size_t RecvShardAll(int shard, std::vector<Envelope>* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    recv_threads_.push_back(std::this_thread::get_id());
    std::vector<Envelope>& inbox = inboxes_[static_cast<size_t>(shard)];
    const size_t n = inbox.size();
    out->insert(out->end(), inbox.begin(), inbox.end());
    inbox.clear();
    return n;
  }
  size_t RecvShardAllFor(int shard, std::vector<Envelope>* out, int64_t,
                         bool* timed_out) override {
    *timed_out = false;
    return RecvShardAll(shard, out);
  }
  bool RecvWorker(int, Envelope*) override { return false; }
  bool TryRecvWorker(int, Envelope*) override { return false; }
  void Shutdown() override {}

  std::vector<std::thread::id> recv_threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return recv_threads_;
  }

  /// Envelopes sent through this fabric, by kind.
  std::map<ActorMsgKind, int> sent() {
    std::lock_guard<std::mutex> lock(mu_);
    return sent_;
  }

 private:
  const ShardLayout layout_;
  const int bad_shard_;
  std::mutex mu_;
  std::vector<std::vector<Envelope>> inboxes_;
  std::vector<std::thread::id> recv_threads_;
  std::map<ActorMsgKind, int> sent_;
};

// A shard whose replies break the epoch barrier's exchange must fail the
// whole virtual run with the exchange's error.
TEST(ShardedRuntimeTest, VirtualShardErrorFailsRun) {
  constexpr int kSites = 4;
  CoordinatorActor::Config cfg;
  cfg.num_sites = kSites;
  cfg.weights.assign(kSites, 1);
  cfg.global_threshold = 1'000;
  cfg.thresholds.assign(kSites, 900);
  cfg.domain_max.assign(kSites, 1'000);
  cfg.num_shards = 2;
  CoordinatorActor coordinator(cfg);
  ASSERT_TRUE(coordinator.Init().ok());
  EpochBarrierScript script(kSites);
  RuntimeResult result;
  const Status status = coordinator.RunVirtual(&script, 10, &result);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out-of-order message at epoch barrier"),
            std::string::npos)
      << status.message();
}

// Virtual time runs no shard threads: the root fans every epoch and poll
// round out itself and drains every shard inbox on the caller's thread,
// sending no shard command.
TEST(ShardedRuntimeTest, VirtualRunCollectsOnTheRootThread) {
  constexpr int kSites = 7;
  CoordinatorActor::Config cfg;
  cfg.num_sites = kSites;
  cfg.weights.assign(kSites, 1);
  cfg.global_threshold = 100;
  cfg.thresholds.assign(kSites, 900);
  cfg.domain_max.assign(kSites, 1'000);
  cfg.num_shards = 3;
  CoordinatorActor coordinator(cfg);
  ASSERT_TRUE(coordinator.Init().ok());
  EpochBarrierScript script(kSites, /*shards=*/3, /*bad_shard=*/-1);
  RuntimeResult result;
  const Status status = coordinator.RunVirtual(&script, 10, &result);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_EQ(result.detections.size(), 10u);
  int polled = 0;
  for (const EpochDetection& det : result.detections) {
    polled += det.polled ? 1 : 0;
  }
  EXPECT_EQ(polled, 5);  // Site 0 alarms on every odd epoch.
  const std::vector<std::thread::id> threads = script.recv_threads();
  ASSERT_FALSE(threads.empty());
  for (const std::thread::id& id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

// A poll collect takes exactly one response per site, echoing the round's
// epoch: a stale round's response, or a second one from the same site,
// fails it instead of standing in for a missing answer.
TEST(ShardedRuntimeTest, PollLegRejectsStaleAndDuplicateResponses) {
  ActorMessage response;
  response.kind = ActorMsgKind::kPollResponse;
  for (const int64_t stale_epoch : {int64_t{4}, int64_t{5}}) {
    auto transport = ThreadTransport::Create(2, 1);
    ASSERT_TRUE(transport.ok());
    // Site 0 answers twice (the second time with a stale epoch, or again
    // with the round's own); site 1 never answers.
    response.epoch = 5;
    ASSERT_TRUE((*transport)->Send(Envelope{0, kCoordinatorId, response}));
    response.epoch = stale_epoch;
    ASSERT_TRUE((*transport)->Send(Envelope{0, kCoordinatorId, response}));
    std::vector<ShardReply> values;
    const std::vector<int64_t> epochs = {5};
    const Status status = CollectShardReplies(
        transport->get(), /*shard=*/0, /*first_site=*/0, /*num_sites=*/2,
        ActorMsgKind::kPollResponse, epochs, "poll round",
        /*alarmed_only=*/false, &values);
    ASSERT_FALSE(status.ok()) << "stale epoch " << stale_epoch;
    EXPECT_NE(status.message().find("out-of-order message at poll round"),
              std::string::npos)
        << status.message();
  }
}

// Chaos conformance (the recovery proof): a severed worker TCP link must
// leave the virtual-time detections bit-identical to the healthy lockstep
// simulator — recovery that changes results is not recovery.

TEST(ChaosConformanceTest, KillWorkerSocketReconnectsAndMatches) {
  // A worker's TCP link severed mid-run: the worker redials, both sides
  // replay the missed suffix, the run completes with the correct final
  // detections and a bounded duplicate count.
  Workload w = MakeSyntheticWorkload(113, /*num_sites=*/4,
                                     /*train_epochs=*/300,
                                     /*eval_epochs=*/300);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.num_shards = 2;
  spec.transport = TransportKind::kSocket;
  spec.chaos.kind = ChaosKind::kKillWorker;
  spec.chaos.seed = 13;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  const SocketStats& s = report->socket_runtime.socket;
  EXPECT_GE(s.disconnects, 1);
  EXPECT_EQ(s.reconnects, 1);
  // Replay may resend a handful of frames; dedup keeps them off the run.
  EXPECT_LE(s.duplicate_frames, 16);
  EXPECT_EQ(s.decode_errors, 0);
}

// Chaos must be able to fire: kill-worker in free-running time or over the
// thread transport is rejected up front.
TEST(ChaosRuntimeTest, RejectsUndetectableChaosConfigs) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_shards = 2;
  // Kill-worker fires at an epoch boundary, which a free-running run never
  // has: rejected, not silently ignored.
  options.chaos.kind = ChaosKind::kKillWorker;
  auto free_run = RunSyntheticRuntime(4, 10, options);
  ASSERT_FALSE(free_run.ok());
  EXPECT_EQ(free_run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(free_run.status().message().find(
                "kill-worker chaos needs virtual time"),
            std::string::npos)
      << free_run.status().message();
  // In virtual time it still severs a TCP link, which the thread transport
  // does not have: rejected, not run with no chaos at all.
  options.virtual_time = true;
  auto thread_run = RunSyntheticRuntime(4, 10, options);
  ASSERT_FALSE(thread_run.ok());
  EXPECT_EQ(thread_run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(thread_run.status().message().find(
                "kill-worker chaos needs the socket transport"),
            std::string::npos)
      << thread_run.status().message();
  Workload w = MakeSyntheticWorkload(21, /*num_sites=*/4,
                                     /*train_epochs=*/100,
                                     /*eval_epochs=*/100);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_shards = 2;
  // The harness applies kill-worker to its socket run only, so without one
  // it would run healthy: rejected before the lockstep run.
  spec.chaos.kind = ChaosKind::kKillWorker;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find(
                "kill-worker chaos needs the socket transport"),
            std::string::npos)
      << report.status().message();
}

// Virtual time runs in windows of VirtualWindowEpochs(N) epochs, each cut
// short at the kill-worker fire epoch. Wherever the
// cuts fall, a run stays bit-identical to lockstep over threads and over a
// socket, at every shard count.

/// ExpectConformant at 1 to 4 shards, each a thread run and a socket run;
/// a kill-worker chaos must have fired in each socket run.
void ExpectConformantAtEveryShardCount(const Workload& w,
                                       ConformanceSpec spec) {
  spec.num_workers = 2;
  spec.transport = TransportKind::kSocket;  // Adds the socket run.
  for (int shards = 1; shards <= 4; ++shards) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    spec.num_shards = shards;
    ConformanceReport report;
    ExpectConformant(w, spec, &report);
    EXPECT_TRUE(report.ran_socket);
    EXPECT_EQ(report.socket_runtime.socket.reconnects,
              spec.chaos.kind == ChaosKind::kKillWorker ? 1 : 0);
  }
}

TEST(WindowConformanceTest, CrashesAndPartitionsAtAndInsideWindowEdges) {
  // Five sites make 1,024-epoch windows; 1,500 epochs are two would-be
  // windows, [0, 1024) and [1024, 1500). Crash windows start and end on
  // that edge, inside either window, and one epoch from it; partitions
  // straddle the edge and sit inside a window.
  Workload w = MakeSyntheticWorkload(61, /*num_sites=*/5,
                                     /*train_epochs=*/600,
                                     /*eval_epochs=*/1500);
  ASSERT_EQ(VirtualWindowEpochs(5), 1024);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.faults.loss = 0.05;
  spec.faults.retry.enable_acks = true;
  spec.faults.crashes = {{/*site=*/0, /*from=*/1024, /*to=*/1100},
                         {/*site=*/1, /*from=*/300, /*to=*/1024},
                         {/*site=*/2, /*from=*/1023, /*to=*/1025},
                         {/*site=*/3, /*from=*/0, /*to=*/7},
                         {/*site=*/4, /*from=*/1400, /*to=*/1500}};
  spec.faults.partitions = {{/*from=*/1020, /*to=*/1030},
                            {/*from=*/200, /*to=*/260}};
  spec.faults.seed = 0x5151ULL;
  ExpectConformantAtEveryShardCount(w, spec);
}

TEST(WindowConformanceTest, DelayedAlarmTriggersThePollOfAnAlarmFreeEpoch) {
  // Without acks a delayed alarm lands epochs later; where no site alarms
  // in the landing epoch, the arrival alone must trigger its poll.
  Workload w = MakeSyntheticWorkload(67, /*num_sites=*/4,
                                     /*train_epochs=*/500,
                                     /*eval_epochs=*/700);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.01);
  spec.faults.delay = 0.5;
  spec.faults.max_delay_epochs = 3;
  spec.faults.seed = 0xde1aULL;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  int arrival_polls = 0;
  for (const EpochDetection& det : report->lockstep_epochs) {
    arrival_polls += det.polled && det.num_alarms == 0 ? 1 : 0;
  }
  ASSERT_GT(arrival_polls, 0) << "no delayed alarm landed on a quiet epoch";
  ExpectConformantAtEveryShardCount(w, spec);
}

TEST(WindowConformanceTest, KillWorkerFiresInsideAWouldBeWindow) {
  // 400 epochs at four sites are one would-be window; the seed-resolved
  // fire epoch falls strictly inside it, so the run cuts the window there.
  Workload w = MakeSyntheticWorkload(71, /*num_sites=*/4,
                                     /*train_epochs=*/300,
                                     /*eval_epochs=*/400);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.faults.loss = 0.05;
  spec.faults.retry.enable_acks = true;
  spec.chaos.kind = ChaosKind::kKillWorker;
  spec.chaos.seed = 29;
  const ResolvedChaos fire = ResolveChaos(spec.chaos, 400, /*num_targets=*/2);
  ASSERT_GT(fire.fire_epoch, 0);
  ASSERT_LT(fire.fire_epoch, std::min<int64_t>(400, VirtualWindowEpochs(4)));
  ExpectConformantAtEveryShardCount(w, spec);
}

TEST(WindowConformanceTest, EpochCountsAroundTheWindowLength) {
  // 80 sites make 819-epoch windows: runs of 1, L - 1, L and L + 1 epochs
  // end inside, on and one past a window edge.
  constexpr int kSites = 80;
  const int64_t window = VirtualWindowEpochs(kSites);
  ASSERT_EQ(window, 819);
  EqualValueSolver solver;
  for (const int64_t epochs : {int64_t{1}, window - 1, window, window + 1}) {
    SCOPED_TRACE(testing::Message() << epochs << " epochs");
    Workload w = MakeSyntheticWorkload(73, kSites, /*train_epochs=*/300,
                                       epochs);
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    // At one epoch an overflow fraction would leave the run silent; a
    // threshold just under its sum makes every site alarm and poll.
    spec.global_threshold = epochs == 1 ? 1 : PickThreshold(w, 0.02);
    spec.faults.loss = 0.05;
    spec.faults.retry.enable_acks = true;
    ExpectConformantAtEveryShardCount(w, spec);
  }
}

// A runtime never re-plans, so a recovered site already holds the threshold
// its re-sync would carry: the re-sync is charged and counted exactly as
// lockstep does, and no kThresholdUpdate envelope is sent. A crash window
// cuts no window, and a down site's reports are dropped at the root.
TEST(WindowConformanceTest, ResyncIsChargedButSendsNoEnvelope) {
  Workload w = MakeSyntheticWorkload(79, /*num_sites=*/4,
                                     /*train_epochs=*/300,
                                     /*eval_epochs=*/300);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.faults.crashes = {{/*site=*/1, /*from=*/40, /*to=*/90},
                         {/*site=*/2, /*from=*/100, /*to=*/150}};
  ConformanceReport report;
  ExpectConformant(w, spec, &report);
  EXPECT_EQ(report.runtime.reliability.resyncs, 2);
  EXPECT_EQ(report.runtime.messages.of(MessageType::kThresholdUpdate),
            report.lockstep.messages.of(MessageType::kThresholdUpdate));
  EXPECT_GT(report.runtime.messages.of(MessageType::kThresholdUpdate), 0);

  constexpr int kSites = 4;
  CoordinatorActor::Config cfg;
  cfg.num_sites = kSites;
  cfg.weights.assign(kSites, 1);
  cfg.global_threshold = 100;
  cfg.thresholds.assign(kSites, 900);
  cfg.domain_max.assign(kSites, 1'000);
  cfg.faults.crashes = {{/*site=*/0, /*from=*/2, /*to=*/5}};
  CoordinatorActor coordinator(cfg);
  ASSERT_TRUE(coordinator.Init().ok());
  EpochBarrierScript script(kSites, /*shards=*/1, /*bad_shard=*/-1);
  RuntimeResult result;
  ASSERT_TRUE(coordinator.RunVirtual(&script, 10, &result).ok());
  EXPECT_EQ(result.reliability.resyncs, 1);
  EXPECT_EQ(result.messages.of(MessageType::kThresholdUpdate), 1);
  const std::map<ActorMsgKind, int> sent = script.sent();
  EXPECT_EQ(sent.count(ActorMsgKind::kThresholdUpdate), 0u);
  EXPECT_EQ(sent.at(ActorMsgKind::kEpochStart), kSites);  // One window.
  // Site 0 alarms on every odd epoch, but epoch 3's report, sent while it
  // is down, polls nothing: 4 of the 10 epochs poll.
  std::vector<int64_t> polled;
  for (const EpochDetection& det : result.detections) {
    if (det.polled) {
      polled.push_back(det.epoch);
    }
  }
  EXPECT_EQ(polled, (std::vector<int64_t>{1, 5, 7, 9}));
  EXPECT_EQ(result.messages.of(MessageType::kAlarm), 4);
}

// The runtime's deployment plan must provision the same thresholds the
// lockstep scheme computes for itself from the same training data.
TEST(RuntimeConformanceTest, BuildLocalPlanMatchesSchemeThresholds) {
  Workload w = MakeSyntheticWorkload(91);
  FptasSolver solver(0.05);
  std::vector<int64_t> weights(4, 1);
  const int64_t threshold = PickThreshold(w, 0.01);

  auto plan = BuildLocalPlan(w.training, weights, threshold, solver);
  ASSERT_TRUE(plan.ok()) << plan.status().message();

  LocalThresholdScheme::Options o;
  o.solver = &solver;
  LocalThresholdScheme scheme(o);
  SimOptions sim_options;
  sim_options.global_threshold = threshold;
  auto result = RunSimulation(&scheme, sim_options, w.training, w.eval);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(plan->thresholds, scheme.thresholds());
  ASSERT_EQ(plan->domain_max.size(), 4u);
  for (int64_t m : plan->domain_max) {
    EXPECT_GT(m, 0);
  }
}

}  // namespace
}  // namespace dcv

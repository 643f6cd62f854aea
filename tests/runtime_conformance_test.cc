#include "runtime/conformance.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/coordinator.h"
#include "runtime/plan.h"
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
  // k = 1 runs its single leg inline, so its heartbeat has no shard
  // thread to watch and must never fire a recovery.
  Workload w = MakeSyntheticWorkload(55, /*num_sites=*/5);
  FptasSolver solver(0.1);
  for (auto [shards, heartbeat_ms] :
       {std::pair{1, 200}, std::pair{2, 0}, std::pair{4, 0}}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = shards;
    spec.heartbeat_timeout_ms = heartbeat_ms;
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
    EXPECT_EQ(report.runtime.shard_recoveries, 0) << "shards=" << shards;
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
// leg inline (k = 1) or on shard threads, and with failure detection off
// or on. A healthy run never recovers anything.
TEST(ShardedRuntimeFreeTest, DrainsFullWorkloadAcrossShardCounts) {
  for (int shards : {1, 2, 3}) {
    for (int heartbeat_ms : {0, 50}) {
      RuntimeOptions options;
      options.virtual_time = false;
      options.num_shards = shards;
      options.heartbeat_timeout_ms = heartbeat_ms;
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
      EXPECT_EQ(result->shard_recoveries, 0)
          << "shards=" << shards << " heartbeat_ms=" << heartbeat_ms;
    }
  }
}

// A scripted fabric for one coordinator inbox: it raises one alarm, answers
// each poll round at once (site i reports i + 1) and raises the next alarm,
// and after `rounds` rounds reports every site done. Its shard-command path
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
        ++shutdowns_;
      }
    }
    if (batch.empty() || batch[0].msg.kind != ActorMsgKind::kPollRequest) {
      return true;
    }
    for (const Envelope& e : batch) {
      ActorMessage m;
      m.kind = ActorMsgKind::kPollResponse;
      m.epoch = e.msg.epoch;
      m.value = e.to + 1;
      inbox_.push_back(Envelope{e.to, kCoordinatorId, m});
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
  cfg.heartbeat_timeout_ms = 50;  // Detection watches shard threads only.
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
  EXPECT_EQ(result.shard_recoveries, 0);
  EXPECT_EQ(script.shutdowns(), kSites);
  // A 1-shard tree reports the same per-round gauges as any other.
  EXPECT_EQ(registry.gauge("runtime/coordinator/poll_min")->value(), 1.0);
  EXPECT_EQ(registry.gauge("runtime/coordinator/poll_max")->value(),
            static_cast<double>(kSites));
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

// Chaos conformance (the recovery proof): a shard coordinator killed at a
// seed-resolved epoch, a mid-run reshard, or a severed worker TCP link must
// leave the virtual-time detections bit-identical to the healthy lockstep
// simulator — recovery that changes results is not recovery.

TEST(ChaosConformanceTest, KillShardVirtualBitIdenticalAcrossSeeds) {
  Workload w = MakeSyntheticWorkload(21);
  FptasSolver solver(0.05);
  for (uint64_t chaos_seed : {3ULL, 11ULL, 29ULL}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = 2;
    spec.chaos.kind = ChaosKind::kKillShard;
    spec.chaos.seed = chaos_seed;
    spec.heartbeat_timeout_ms = 300;
    auto report = RunConformance(w.training, w.eval, spec);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_TRUE(report->identical)
        << "chaos_seed=" << chaos_seed << ": " << report->mismatch;
    // The shard really died and the root really recovered it.
    EXPECT_EQ(report->runtime.shard_recoveries, 1) << "seed=" << chaos_seed;
    EXPECT_GT(report->runtime.recovery_ms, 0.0);
  }
}

TEST(ChaosConformanceTest, KillShardUnderChannelFaults) {
  // Recovery must also replay the fault-injecting channel identically:
  // the re-executed epoch leg goes through the same Channel calls in the
  // same order, so even RNG-driven loss patterns stay bit-identical.
  Workload w = MakeSyntheticWorkload(55, /*num_sites=*/5);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_shards = 4;
  spec.faults.loss = 0.1;
  spec.faults.retry.enable_acks = true;
  spec.faults.retry.max_attempts = 3;
  spec.faults.crashes = {{/*site=*/1, /*from=*/100, /*to=*/220}};
  spec.faults.seed = 0xfeedULL;
  spec.chaos.kind = ChaosKind::kKillShard;
  spec.chaos.seed = 7;
  spec.heartbeat_timeout_ms = 300;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  EXPECT_EQ(report->runtime.shard_recoveries, 1);
}

TEST(ChaosConformanceTest, KillShardSocketBitIdentical) {
  // The dead shard's sites live in remote worker processes: the root's
  // re-executed legs run over real TCP and must still match the lockstep
  // simulator bit for bit.
  Workload w = MakeSyntheticWorkload(101, /*num_sites=*/4,
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
  spec.chaos.kind = ChaosKind::kKillShard;
  spec.chaos.seed = 11;
  spec.heartbeat_timeout_ms = 300;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  EXPECT_EQ(report->runtime.shard_recoveries, 1);
  EXPECT_EQ(report->socket_runtime.shard_recoveries, 1);
  EXPECT_EQ(report->socket_runtime.socket.decode_errors, 0);
}

TEST(ChaosConformanceTest, ReshardMidRunBitIdentical) {
  // A new site->shard layout pushed at an epoch boundary mid-run: routing
  // changes, results must not.
  Workload w = MakeSyntheticWorkload(143, /*num_sites=*/7);
  FptasSolver solver(0.1);
  for (uint64_t chaos_seed : {5ULL, 17ULL}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = 3;
    spec.chaos.kind = ChaosKind::kReshard;
    spec.chaos.seed = chaos_seed;
    auto report = RunConformance(w.training, w.eval, spec);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_TRUE(report->identical)
        << "chaos_seed=" << chaos_seed << ": " << report->mismatch;
    EXPECT_EQ(report->runtime.reshards, 1);
    EXPECT_EQ(report->runtime.shard_recoveries, 0);
  }
}

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

// Free-running mode claims no determinism, but chaos must not lose work:
// a killed shard's replacement drains the same inboxes, so every update is
// still consumed and every site still reports done exactly once.
TEST(ChaosRuntimeFreeTest, KillShardFreeRunningLosesNothing) {
  for (uint64_t chaos_seed : {3ULL, 9ULL}) {
    RuntimeOptions options;
    options.virtual_time = false;
    options.num_shards = 2;
    options.seed = 9;
    options.synthetic_max = 1000;
    options.global_threshold = 6 * 1000;
    options.thresholds.assign(6, 900);  // Alarm-heavy: real recovery load.
    options.domain_max.assign(6, 1000);
    options.chaos.kind = ChaosKind::kKillShard;
    options.chaos.seed = chaos_seed;
    options.heartbeat_timeout_ms = 200;
    auto result = RunSyntheticRuntime(6, 400, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->total_updates, 6 * 400) << "seed=" << chaos_seed;
    ASSERT_EQ(result->site_updates.size(), 6u);
    for (int64_t u : result->site_updates) {
      EXPECT_EQ(u, 400);
    }
    EXPECT_EQ(result->shard_recoveries, 1) << "seed=" << chaos_seed;
    EXPECT_GT(result->recovery_ms, 0.0);
  }
}

// Chaos needs a detectable configuration: kill-shard without a heartbeat
// window or with a 1-shard tree (no shard thread to kill) is rejected up
// front.
TEST(ChaosRuntimeTest, RejectsUndetectableChaosConfigs) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.chaos.kind = ChaosKind::kKillShard;
  options.num_shards = 1;  // No shard tree to kill a member of.
  options.heartbeat_timeout_ms = 200;
  EXPECT_FALSE(RunSyntheticRuntime(4, 10, options).ok());
  options.num_shards = 2;
  options.heartbeat_timeout_ms = 0;  // Root would never notice the death.
  EXPECT_FALSE(RunSyntheticRuntime(4, 10, options).ok());
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

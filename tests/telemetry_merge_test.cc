// Cross-process telemetry merge: a 2-worker socket run's coordinator must
// produce the same metrics document a single-process thread-transport run
// does — counters summed across worker registries, histogram totals
// preserved — with only the runtime/socket/* namespace (which has no
// in-process analogue) allowed to differ. Virtual-time mode makes the
// underlying work bit-identical across transports, so any counter drift is
// a merge bug, not nondeterminism. The chaos variant severs one worker's
// TCP link mid-run: reconnect replay must not double-count anything.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/chaos.h"
#include "runtime/runtime.h"
#include "runtime/site_worker.h"

namespace dcv {
namespace {

constexpr int kSites = 4;
constexpr int kWorkers = 2;
constexpr int64_t kUpdates = 600;  // Virtual epochs; keep the barrier cheap.
constexpr int64_t kSyntheticMax = 1'000'000;
constexpr uint64_t kSeed = 42;

RuntimeOptions BaseOptions() {
  RuntimeOptions options;
  options.virtual_time = true;
  options.num_workers = kWorkers;
  options.seed = kSeed;
  options.synthetic_max = kSyntheticMax;
  options.global_threshold = static_cast<int64_t>(kSites) * kSyntheticMax;
  // ~2% local breach rate: enough alarms and poll rounds for the counters
  // to be nontrivial.
  options.thresholds.assign(kSites, kSyntheticMax - kSyntheticMax / 50);
  options.domain_max.assign(kSites, kSyntheticMax);
  return options;
}

obs::MetricsSnapshot RunThreadTransport() {
  RuntimeOptions options = BaseOptions();
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  auto result = RunSyntheticRuntime(kSites, kUpdates, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.ok() ? result->metrics : obs::MetricsSnapshot{};
}

obs::MetricsSnapshot RunSocketTransport(ChaosKind chaos) {
  RuntimeOptions options = BaseOptions();
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  options.transport = TransportKind::kSocket;
  options.listen_port = 0;
  options.chaos.kind = chaos;
  options.chaos.seed = 13;
  std::vector<std::thread> workers;
  options.on_listening = [&workers, chaos](int port) {
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([w, port, chaos] {
        // Each worker process-equivalent gets its own registry + recorder:
        // what the kTelemetry pushes serialize and the coordinator merges.
        obs::MetricsRegistry reg;
        obs::TraceRecorder rec(/*capacity=*/1 << 14);
        SiteWorkerOptions wo;
        wo.port = port;
        wo.worker = w;
        wo.num_workers = kWorkers;
        wo.num_sites = kSites;
        wo.synthetic_updates = kUpdates;
        wo.seed = kSeed;
        wo.synthetic_max = kSyntheticMax;
        wo.metrics = &reg;
        wo.recorder = &rec;
        wo.socket.allow_reconnect = chaos == ChaosKind::kKillWorker;
        auto report = RunSiteWorker(nullptr, wo);
        EXPECT_TRUE(report.ok()) << report.status().message();
      });
    }
  };
  auto result = RunSyntheticRuntime(kSites, kUpdates, options);
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.ok() ? result->metrics : obs::MetricsSnapshot{};
}

bool IsSocketCounter(const std::string& name) {
  return name.rfind("runtime/socket/", 0) == 0;
}

void ExpectMergedMatchesThread(const obs::MetricsSnapshot& thread_doc,
                               const obs::MetricsSnapshot& merged) {
  // Every thread-run counter must appear in the merged document with the
  // same sum: site-side counters arrive via worker telemetry, coordinator
  // counters from its own registry.
  for (const auto& [name, value] : thread_doc.counters) {
    auto it = merged.counters.find(name);
    ASSERT_NE(it, merged.counters.end()) << "merged doc missing " << name;
    EXPECT_EQ(it->second, value) << name;
  }
  // And the merge invents nothing beyond the wire-only namespace.
  for (const auto& [name, value] : merged.counters) {
    if (IsSocketCounter(name)) {
      continue;
    }
    EXPECT_EQ(thread_doc.counters.count(name), 1u)
        << "unexpected merged counter " << name << "=" << value;
  }
  // Histogram totals are transport-invariant in virtual mode (one epoch_us
  // sample per epoch, one poll_round_us per round); the latency values
  // inside the buckets of course differ.
  for (const auto& [name, h] : thread_doc.histograms) {
    auto it = merged.histograms.find(name);
    ASSERT_NE(it, merged.histograms.end()) << "merged doc missing " << name;
    EXPECT_EQ(it->second.count, h.count) << name;
  }
  // Virtual time advances in windows of epochs, but epoch_us keeps one
  // sample per epoch on both transports.
  for (const obs::MetricsSnapshot* doc : {&thread_doc, &merged}) {
    auto it = doc->histograms.find("runtime/coordinator/epoch_us");
    ASSERT_NE(it, doc->histograms.end());
    EXPECT_EQ(it->second.count, kUpdates);
  }
}

TEST(TelemetryMergeTest, SocketMergeEqualsThreadRegistry) {
  obs::MetricsSnapshot thread_doc = RunThreadTransport();
  ASSERT_FALSE(thread_doc.empty());
  obs::MetricsSnapshot merged = RunSocketTransport(ChaosKind::kNone);
  ASSERT_FALSE(merged.empty());
  ExpectMergedMatchesThread(thread_doc, merged);
  // The wire namespace exists and actually counted traffic.
  auto frames = merged.counters.find("runtime/socket/frames_tx");
  ASSERT_NE(frames, merged.counters.end());
  EXPECT_GT(frames->second, 0);
}

TEST(TelemetryMergeTest, MergeSurvivesWorkerLinkChaos) {
  obs::MetricsSnapshot thread_doc = RunThreadTransport();
  ASSERT_FALSE(thread_doc.empty());
  obs::MetricsSnapshot merged = RunSocketTransport(ChaosKind::kKillWorker);
  ASSERT_FALSE(merged.empty());
  // The severed link reconnects and replays; cumulative latest-wins
  // telemetry keeps every non-wire counter exactly equal regardless.
  ExpectMergedMatchesThread(thread_doc, merged);
  auto reconnects = merged.counters.find("runtime/socket/reconnects");
  ASSERT_NE(reconnects, merged.counters.end());
  EXPECT_GT(reconnects->second, 0);
}

}  // namespace
}  // namespace dcv

#ifndef DCV_RUNTIME_RUNTIME_RESULT_H_
#define DCV_RUNTIME_RUNTIME_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/wire.h"
#include "sim/channel.h"
#include "sim/message.h"

namespace dcv {

/// What the runtime coordinator concluded for one virtual epoch — the unit
/// the conformance harness compares against the lockstep simulator's
/// per-epoch EpochResult.
struct EpochDetection {
  int64_t epoch = 0;
  int num_alarms = 0;  ///< Local alarms raised by up sites this epoch.
  bool polled = false;
  bool violation_reported = false;

  friend bool operator==(const EpochDetection& a, const EpochDetection& b) {
    return a.epoch == b.epoch && a.num_alarms == b.num_alarms &&
           a.polled == b.polled &&
           a.violation_reported == b.violation_reported;
  }
};

/// Aggregate outcome of one threaded-runtime run. Mirrors SimResult where
/// the semantics coincide (virtual-time mode) and adds the free-running
/// throughput numbers.
struct RuntimeResult {
  std::string protocol;  ///< "local-threshold" or "polling".
  std::string mode;      ///< "virtual" or "free-running".

  int64_t epochs = 0;  ///< Virtual epochs driven (0 in free-running mode).
  MessageCounter messages;
  ChannelStats reliability;

  // Detection accounting. Both modes count alarms and polls (free-running:
  // alarms the legs took in, poll rounds the root resolved); virtual time
  // also tallies alarm epochs, and a trace run is scored against ground
  // truth by RunMonitorRuntime, exactly like the lockstep runner.
  int64_t total_alarms = 0;
  int64_t alarm_epochs = 0;
  int64_t polled_epochs = 0;
  int64_t true_violations = 0;
  int64_t detected_violations = 0;
  int64_t missed_violations = 0;
  int64_t false_alarm_epochs = 0;
  std::vector<EpochDetection> detections;  ///< One per epoch (virtual mode).

  /// Free-running mode: violations the coordinator flagged from (possibly
  /// stale) poll snapshots. No per-epoch alignment with ground truth is
  /// claimed — free-running trades determinism for throughput.
  int64_t violations_flagged = 0;

  // Throughput accounting (both modes). The coordinator (coordinator.cc)
  // fills the update counts: free-running from each site's kSiteDone
  // report, virtual time as sites x epochs. The launch times the run.
  std::vector<int64_t> site_updates;  ///< Per-site updates consumed.
  int64_t total_updates = 0;
  double elapsed_seconds = 0.0;
  double updates_per_second = 0.0;

  /// Socket-transport runs only: the coordinator side's wire-level
  /// reliability counters (all zero for in-process transports).
  SocketStats socket;

  /// The run's merged metrics document, filled when a registry was
  /// attached: the coordinator's own registry snapshot folded with every
  /// worker's final kTelemetry push (counters summed, histograms merged
  /// bucket-wise, worker gauges namespaced "workerK/..."). Thread-transport
  /// runs fill it from the single shared registry, so the document shape is
  /// transport-independent.
  obs::MetricsSnapshot metrics;

  /// Unified telemetry export in the SimResult::ToJson style: messages,
  /// detection tallies, reliability, throughput, and (when a registry was
  /// attached) the merged "metrics" section in one object.
  std::string ToJson() const;
};

}  // namespace dcv

#endif  // DCV_RUNTIME_RUNTIME_RESULT_H_

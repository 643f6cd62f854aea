#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's named workloads, the inputs each one makes from its seed,
// and one repetition of a workload through the public run API. Shared by
// the end-to-end program (workload_main.cc), the traced program
// (ledger_main.cc) and the layer microbenchmarks (bench_layers.cc), so all
// three measure the same sizes.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace perfbench {

/// Synthetic site values are uniform on [0, kSyntheticMax].
inline constexpr int64_t kSyntheticMax = 1'000'000;

struct WorkloadSpec {
  std::string name;
  int sites = 0;
  /// Synthetic workloads: updates each site generates. 0 for the replay.
  int64_t updates_per_site = 0;
  /// Share of synthetic updates that breach their site's local threshold.
  double alarm_fraction = 0.0;
  int workers = 3;
  int shards = 1;
  bool socket = false;
  /// Replay workload: GenerateSnmpTrace traces per repetition, each one
  /// training week plus `eval_weeks` run in virtual time. 0 = synthetic,
  /// free-running.
  int traces = 0;
  int eval_weeks = 0;
  /// Replay workload: per-transmission loss, with acks and retransmission.
  double loss = 0.0;

  bool replay() const { return traces > 0; }
  /// Runtime calls one repetition makes: one per trace, else one.
  int launches() const { return replay() ? traces : 1; }
  int64_t expected_updates() const;
};

/// fleet_1m, storm_32, socket_10k or replay_virtual; `smoke` shrinks it
/// to about 1% of its size.
dcv::Result<WorkloadSpec> FindWorkload(std::string_view name, bool smoke);

/// One replay trace: the generated file (dcvb delta), its training split,
/// its global threshold and the lockstep simulator's result on it.
struct ReplayTrace {
  uint64_t seed = 0;
  std::string path;
  int64_t train_epochs = 0;
  int64_t global_threshold = 0;
  dcv::SimResult lockstep;
};

/// What a workload makes once from its seed and reuses in every
/// repetition.
struct Inputs {
  uint64_t seed = 0;
  std::vector<ReplayTrace> traces;  ///< Replay workload only.
};

/// Generates the inputs; replay trace files are written under `dir`.
dcv::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                               const std::string& dir);

/// A replay trace file split into training and evaluation.
struct ReplayTraces {
  dcv::Trace training;
  dcv::Trace eval;
};
dcv::Result<ReplayTraces> LoadReplay(const ReplayTrace& trace);

/// The runtime configuration of one launch (thread transport; the socket
/// workload switches it in RunPublicRep). `metrics` is attached on the
/// coordinator side, as operators run it.
dcv::RuntimeOptions MakeOptions(const WorkloadSpec& spec, const Inputs& inputs,
                                int launch, dcv::obs::MetricsRegistry* metrics);

/// The replay workload's threshold solver (FPTAS, eps = 0.05).
const dcv::ThresholdSolver& ReplaySolver();

/// Protocol counts of one launch.
struct LaunchCounts {
  int64_t messages = 0;
  int64_t true_violations = 0;
  int64_t detected = 0;
  int64_t missed = 0;
  double elapsed_s = 0.0;
};

/// One repetition, as seen from outside the runtime: sums over its
/// launches.
struct Rep {
  int64_t updates = 0;
  int64_t alarms = 0;
  int64_t polls = 0;  ///< Poll rounds (free) or polled epochs (virtual).
  int64_t messages = 0;
  int64_t true_violations = 0;
  int64_t detected = 0;
  int64_t missed = 0;
  double elapsed_s = 0.0;  ///< RuntimeResult::elapsed_seconds.
  double call_s = 0.0;     ///< Wall time of the run calls (+ LoadTrace).
  double cpu_s = 0.0;      ///< Process user + system time over the calls.
  int64_t socket_frames_rx = 0;
  int64_t socket_bytes = 0;  ///< Sent plus received.
  double peak_rss_mb = 0.0;  ///< Peak resident set size during the calls.
  /// Coordinator round latency: runtime/coordinator/poll_round_us when
  /// free-running, runtime/coordinator/epoch_us in virtual time.
  dcv::obs::HistogramSnapshot round_us;
  dcv::obs::HistogramSnapshot lag_epochs;  ///< runtime/detection_lag_epochs.
  std::vector<LaunchCounts> launches;

  double updates_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(updates) / elapsed_s : 0.0;
  }
  /// Adds another launch's (or repetition's) totals to this one.
  void Add(const Rep& other);
};

/// A launch's throughput and detection fields, from its run result.
Rep FromResult(const dcv::RuntimeResult& result, bool replay);

/// One repetition: `run_launch(launch)` for each of the workload's
/// launches, summed, with each launch's counts kept for CheckRep.
template <typename RunLaunch>
dcv::Result<Rep> RunLaunches(const WorkloadSpec& spec, RunLaunch run_launch) {
  Rep total;
  for (int launch = 0; launch < spec.launches(); ++launch) {
    DCV_ASSIGN_OR_RETURN(Rep rep, run_launch(launch));
    rep.launches.assign(1, LaunchCounts{rep.messages, rep.true_violations,
                                        rep.detected, rep.missed,
                                        rep.elapsed_s});
    total.Add(rep);
  }
  return total;
}

/// One timed repetition through RunSyntheticRuntime / RunMonitorRuntime.
/// Its peak RSS is its own: the process peak restarts before it.
dcv::Result<Rep> RunPublicRep(const WorkloadSpec& spec, const Inputs& inputs);

/// Checks one repetition's outputs; returns an empty string when correct,
/// else what was wrong. Every offered update must be consumed. Free-running:
/// the alarm count within six standard deviations of its expectation.
/// Replay: each launch's messages, violations, detections and misses equal
/// the lockstep simulator's on its trace.
std::string CheckRep(const WorkloadSpec& spec, const Inputs& inputs,
                     const Rep& rep);

/// What both programs set up from their flags
///   --workload NAME --seed S --seconds T [--smoke] [--dir DIR]
/// the workload, its inputs (replay trace files go to DIR) and the run
/// length.
struct BenchRun {
  WorkloadSpec spec;
  Inputs inputs;
  uint64_t seed = 1;
  double seconds = 0.0;
  bool smoke = false;
  std::string dir = ".";
};
dcv::Result<BenchRun> StartBenchRun(int argc, char** argv);

/// The loop both programs time: at least `min` iterations, then more while
/// one as long as the last would end within `seconds` of the first.
class RepLoop {
 public:
  RepLoop(double seconds, size_t min) : seconds_(seconds), min_(min) {}
  /// Call before each iteration with the number done so far.
  bool More(size_t done);

 private:
  const double seconds_;
  const size_t min_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_start_;
};

/// Checks repetitions in turn (CheckRep, plus identical alarm counts across
/// free-running repetitions, which the seed fixes) and keeps the account of
/// the updates they offered and lost. An errored repetition loses all of
/// its updates.
class RepChecker {
 public:
  explicit RepChecker(const BenchRun& run) : run_(run) {}
  /// Returns false if the repetition errored.
  bool Check(const dcv::Result<Rep>& rep, const std::string& what);
  void AddError(std::string error) { errors_.push_back(std::move(error)); }
  /// Writes the attempted_updates, lost_updates, errors and failures keys.
  void WriteAccount(dcv::obs::JsonWriter* w) const;

 private:
  const BenchRun& run_;
  int64_t first_alarms_ = -1;
  int64_t attempted_ = 0;
  int64_t lost_ = 0;
  std::vector<std::string> errors_;    ///< Repetitions that did not finish.
  std::vector<std::string> failures_;  ///< Finished with wrong outputs.
};

/// Writes the machine fingerprint as the value of the current key.
void WriteFingerprint(dcv::obs::JsonWriter* w);

/// Writes count/p50/p90/p99 of a histogram as the value of the current key.
void WriteQuantiles(dcv::obs::JsonWriter* w,
                    const dcv::obs::HistogramSnapshot& h);

/// Prints a JSON document as one line on stdout.
void PrintLine(const dcv::obs::JsonWriter& w);

dcv::Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "common/flags.h"
#include "runtime/site_worker.h"
#include "sim/local_scheme.h"
#include "threshold/fptas.h"
#include "trace/snmp_synth.h"
#include "trace/stats.h"
#include "trace/trace_bin.h"

namespace perfbench {
namespace {

using dcv::obs::HistogramSnapshot;
using dcv::obs::JsonWriter;

// Sizes are chosen so one repetition takes one to four seconds on a 4-core
// x86 box, which lets a run of twenty seconds take several repetitions and
// report their median. Three site workers (and at most three connections)
// leave one core of four for the coordinator.
std::vector<WorkloadSpec> FullSpecs() {
  WorkloadSpec fleet;
  fleet.name = "fleet_1m";
  fleet.sites = 1'000'000;
  fleet.updates_per_site = 20;
  fleet.alarm_fraction = 0.02;
  fleet.shards = 2;

  WorkloadSpec storm;
  storm.name = "storm_32";
  storm.sites = 32;
  storm.updates_per_site = 300'000;
  storm.alarm_fraction = 0.10;

  WorkloadSpec socket;
  socket.name = "socket_10k";
  socket.sites = 10'000;
  socket.updates_per_site = 15'000;
  socket.alarm_fraction = 0.02;
  socket.socket = true;

  // Thresholds, alarm rates and poll counts depend on the trace, so one
  // repetition runs several traces: its time is an average over them rather
  // than a property of one seed's trace.
  WorkloadSpec replay;
  replay.name = "replay_virtual";
  replay.sites = 30;
  replay.traces = 8;
  replay.eval_weeks = 3;
  replay.loss = 0.05;
  replay.shards = 2;
  return {fleet, storm, socket, replay};
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Local threshold that a U[0, kSyntheticMax] draw breaches with
/// probability close to `alarm_fraction`.
int64_t SiteThreshold(const WorkloadSpec& spec) {
  return static_cast<int64_t>(static_cast<double>(kSyntheticMax) *
                              (1.0 - spec.alarm_fraction));
}

dcv::FaultSpec ReplayFaults(const WorkloadSpec& spec, uint64_t seed) {
  dcv::FaultSpec faults;
  faults.loss = spec.loss;
  faults.retry.enable_acks = true;
  faults.seed = seed;
  return faults;
}

/// Generates replay trace `k`, writes it and runs the lockstep reference.
dcv::Result<ReplayTrace> MakeReplayTrace(const WorkloadSpec& spec,
                                         uint64_t seed, int k,
                                         const std::string& dir) {
  ReplayTrace out;
  out.seed = seed * static_cast<uint64_t>(spec.traces) +
             static_cast<uint64_t>(k);
  dcv::SnmpTraceOptions gen;
  gen.num_sites = spec.sites;
  gen.num_weeks = 1 + spec.eval_weeks;
  gen.seed = out.seed;
  DCV_ASSIGN_OR_RETURN(dcv::Trace trace, dcv::GenerateSnmpTrace(gen));
  out.train_epochs = dcv::EpochsPerWeek(gen);
  out.path = dir + "/" + spec.name + "-" + std::to_string(seed) + "-" +
             std::to_string(k) + ".dcvb";
  DCV_RETURN_IF_ERROR(dcv::WriteTraceBin(trace, out.path));

  DCV_ASSIGN_OR_RETURN(dcv::Trace training, trace.Slice(0, out.train_epochs));
  DCV_ASSIGN_OR_RETURN(dcv::Trace eval,
                       trace.Slice(out.train_epochs, trace.num_epochs()));
  DCV_ASSIGN_OR_RETURN(out.global_threshold,
                       dcv::ThresholdForOverflowFraction(eval, {}, 0.01));
  dcv::SimOptions sim;
  sim.global_threshold = out.global_threshold;
  sim.faults = ReplayFaults(spec, out.seed);
  dcv::LocalThresholdScheme::Options scheme_options;
  scheme_options.solver = &ReplaySolver();
  dcv::LocalThresholdScheme scheme(scheme_options);
  DCV_ASSIGN_OR_RETURN(out.lockstep,
                       dcv::RunSimulation(&scheme, sim, training, eval));
  return out;
}

/// The socket workload: three in-process site workers connect to the
/// coordinator over loopback TCP. Each worker owns its registry, as a
/// `dcvtool site-worker` process does.
dcv::Result<dcv::RuntimeResult> RunSocket(const WorkloadSpec& spec,
                                          dcv::RuntimeOptions options) {
  std::vector<std::unique_ptr<dcv::obs::MetricsRegistry>> registries;
  for (int w = 0; w < spec.workers; ++w) {
    registries.push_back(std::make_unique<dcv::obs::MetricsRegistry>());
  }
  std::vector<dcv::Status> worker_status(static_cast<size_t>(spec.workers),
                                         dcv::OkStatus());
  std::vector<std::thread> threads;
  options.transport = dcv::TransportKind::kSocket;
  options.listen_port = 0;
  options.on_listening = [&](int port) {
    for (int w = 0; w < spec.workers; ++w) {
      threads.emplace_back([&, w, port] {
        dcv::SiteWorkerOptions wo;
        wo.port = port;
        wo.worker = w;
        wo.num_workers = spec.workers;
        wo.num_sites = spec.sites;
        wo.synthetic_updates = spec.updates_per_site;
        wo.seed = options.seed;
        wo.synthetic_max = kSyntheticMax;
        wo.metrics = registries[static_cast<size_t>(w)].get();
        auto report = dcv::RunSiteWorker(nullptr, wo);
        if (!report.ok()) {
          worker_status[static_cast<size_t>(w)] = report.status();
        }
      });
    }
  };
  auto result =
      dcv::RunSyntheticRuntime(spec.sites, spec.updates_per_site, options);
  for (std::thread& t : threads) {
    t.join();
  }
  for (const dcv::Status& s : worker_status) {
    DCV_RETURN_IF_ERROR(s);
  }
  return result;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Restarts the peak (ru_maxrss, VmHWM) from the current resident size.
/// Linux only; elsewhere the write fails and the peak covers the process.
void RestartPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Merges `from` into `into`, which may be empty.
void MergeHistogram(const HistogramSnapshot& from, HistogramSnapshot* into) {
  if (into->counts.empty()) {
    *into = from;
  } else if (!from.counts.empty()) {
    into->MergeFrom(from);
  }
}

HistogramSnapshot HistogramOf(const dcv::RuntimeResult& result,
                              const char* name) {
  auto it = result.metrics.histograms.find(name);
  return it == result.metrics.histograms.end() ? HistogramSnapshot{}
                                               : it->second;
}

/// One launch through the public run API.
dcv::Result<Rep> RunPublicLaunch(const WorkloadSpec& spec,
                                 const Inputs& inputs, int launch) {
  dcv::obs::MetricsRegistry registry;
  const dcv::RuntimeOptions options =
      MakeOptions(spec, inputs, launch, &registry);
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  dcv::Result<dcv::RuntimeResult> result =
      dcv::InternalError("workload did not run");
  if (spec.replay()) {
    DCV_ASSIGN_OR_RETURN(
        ReplayTraces traces,
        LoadReplay(inputs.traces[static_cast<size_t>(launch)]));
    result = dcv::RunMonitorRuntime(traces.training, traces.eval, options);
  } else if (spec.socket) {
    result = RunSocket(spec, options);
  } else {
    result =
        dcv::RunSyntheticRuntime(spec.sites, spec.updates_per_site, options);
  }
  const double call_s = SecondsSince(t0);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  DCV_RETURN_IF_ERROR(result.status());
  Rep rep = FromResult(*result, spec.replay());
  rep.call_s = call_s;
  rep.cpu_s = cpu_s;
  return rep;
}

}  // namespace

int64_t WorkloadSpec::expected_updates() const {
  if (replay()) {
    return static_cast<int64_t>(sites) * traces * eval_weeks *
           dcv::EpochsPerWeek(dcv::SnmpTraceOptions{});
  }
  return static_cast<int64_t>(sites) * updates_per_site;
}

dcv::Result<WorkloadSpec> FindWorkload(std::string_view name, bool smoke) {
  for (WorkloadSpec spec : FullSpecs()) {
    if (spec.name != name) {
      continue;
    }
    if (smoke) {
      if (spec.replay()) {
        spec.traces = 2;
        spec.eval_weeks = 1;
      } else {
        spec.updates_per_site = std::max<int64_t>(1, spec.updates_per_site / 100);
      }
    }
    return spec;
  }
  return dcv::InvalidArgumentError("unknown workload: " + std::string(name));
}

dcv::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                               const std::string& dir) {
  Inputs inputs;
  inputs.seed = seed;
  for (int k = 0; k < spec.traces; ++k) {
    DCV_ASSIGN_OR_RETURN(ReplayTrace trace,
                         MakeReplayTrace(spec, seed, k, dir));
    inputs.traces.push_back(std::move(trace));
  }
  return inputs;
}

dcv::Result<ReplayTraces> LoadReplay(const ReplayTrace& trace) {
  DCV_ASSIGN_OR_RETURN(dcv::Trace all, dcv::LoadTrace(trace.path));
  DCV_ASSIGN_OR_RETURN(dcv::Trace training, all.Slice(0, trace.train_epochs));
  DCV_ASSIGN_OR_RETURN(dcv::Trace eval,
                       all.Slice(trace.train_epochs, all.num_epochs()));
  return ReplayTraces{std::move(training), std::move(eval)};
}

const dcv::ThresholdSolver& ReplaySolver() {
  static const dcv::FptasSolver solver(0.05);
  return solver;
}

dcv::RuntimeOptions MakeOptions(const WorkloadSpec& spec, const Inputs& inputs,
                                int launch, dcv::obs::MetricsRegistry* metrics) {
  dcv::RuntimeOptions options;
  options.num_workers = spec.workers;
  options.num_shards = spec.shards;
  options.seed = inputs.seed;
  options.metrics = metrics;
  if (spec.replay()) {
    const ReplayTrace& trace = inputs.traces[static_cast<size_t>(launch)];
    options.seed = trace.seed;
    options.virtual_time = true;
    options.global_threshold = trace.global_threshold;
    options.solver = &ReplaySolver();
    options.faults = ReplayFaults(spec, trace.seed);
  } else {
    // Polls never flag a violation; the workload measures the alarm and
    // poll-round machinery, not the decision.
    options.virtual_time = false;
    options.synthetic_max = kSyntheticMax;
    options.global_threshold = static_cast<int64_t>(spec.sites) * kSyntheticMax;
    options.thresholds.assign(static_cast<size_t>(spec.sites),
                              SiteThreshold(spec));
    options.domain_max.assign(static_cast<size_t>(spec.sites), kSyntheticMax);
  }
  return options;
}

void Rep::Add(const Rep& other) {
  updates += other.updates;
  alarms += other.alarms;
  polls += other.polls;
  messages += other.messages;
  true_violations += other.true_violations;
  detected += other.detected;
  missed += other.missed;
  elapsed_s += other.elapsed_s;
  call_s += other.call_s;
  cpu_s += other.cpu_s;
  socket_frames_rx += other.socket_frames_rx;
  socket_bytes += other.socket_bytes;
  peak_rss_mb = std::max(peak_rss_mb, other.peak_rss_mb);
  MergeHistogram(other.round_us, &round_us);
  MergeHistogram(other.lag_epochs, &lag_epochs);
  launches.insert(launches.end(), other.launches.begin(),
                  other.launches.end());
}

Rep FromResult(const dcv::RuntimeResult& result, bool replay) {
  Rep rep;
  rep.updates = result.total_updates;
  rep.alarms = result.total_alarms;
  rep.polls = result.polled_epochs;
  rep.messages = result.messages.total();
  rep.true_violations = result.true_violations;
  rep.detected = result.detected_violations;
  rep.missed = result.missed_violations;
  rep.elapsed_s = result.elapsed_seconds;
  rep.socket_frames_rx = result.socket.frames_received;
  rep.socket_bytes = result.socket.bytes_sent + result.socket.bytes_received;
  rep.round_us =
      HistogramOf(result, replay ? "runtime/coordinator/epoch_us"
                                 : "runtime/coordinator/poll_round_us");
  rep.lag_epochs = HistogramOf(result, "runtime/detection_lag_epochs");
  return rep;
}

dcv::Result<Rep> RunPublicRep(const WorkloadSpec& spec, const Inputs& inputs) {
  RestartPeakRss();
  DCV_ASSIGN_OR_RETURN(Rep rep, RunLaunches(spec, [&](int launch) {
                         return RunPublicLaunch(spec, inputs, launch);
                       }));
  rep.peak_rss_mb = PeakRssMb();
  return rep;
}

std::string CheckRep(const WorkloadSpec& spec, const Inputs& inputs,
                     const Rep& rep) {
  const int64_t expected = spec.expected_updates();
  if (rep.updates != expected) {
    return "consumed " + std::to_string(rep.updates) + " updates, expected " +
           std::to_string(expected);
  }
  if (spec.replay()) {
    if (rep.launches.size() != inputs.traces.size()) {
      return "ran " + std::to_string(rep.launches.size()) + " of " +
             std::to_string(inputs.traces.size()) + " traces";
    }
    for (size_t k = 0; k < rep.launches.size(); ++k) {
      const LaunchCounts& got = rep.launches[k];
      const dcv::SimResult& ref = inputs.traces[k].lockstep;
      if (got.messages != ref.messages.total() ||
          got.true_violations != ref.true_violations ||
          got.detected != ref.detected_violations ||
          got.missed != ref.missed_violations) {
        return "trace " + std::to_string(k) + ": runtime (messages " +
               std::to_string(got.messages) + ", violations " +
               std::to_string(got.true_violations) + ", detected " +
               std::to_string(got.detected) + ", missed " +
               std::to_string(got.missed) + ") differs from lockstep (" +
               std::to_string(ref.messages.total()) + ", " +
               std::to_string(ref.true_violations) + ", " +
               std::to_string(ref.detected_violations) + ", " +
               std::to_string(ref.missed_violations) + ")";
      }
    }
    return "";
  }
  // Draws are uniform on [0, max]; a draw alarms when it exceeds T.
  const double p = static_cast<double>(kSyntheticMax - SiteThreshold(spec)) /
                   static_cast<double>(kSyntheticMax + 1);
  const double n = static_cast<double>(expected);
  const double tolerance = 6.0 * std::sqrt(n * p * (1.0 - p)) + 1.0;
  if (std::fabs(static_cast<double>(rep.alarms) - n * p) > tolerance) {
    return "alarm count " + std::to_string(rep.alarms) +
           " is implausible for " + std::to_string(expected) +
           " updates at alarm fraction " + std::to_string(p);
  }
  if (rep.polls < 1) {
    return "no poll round completed";
  }
  return "";
}

dcv::Result<BenchRun> StartBenchRun(int argc, char** argv) {
  dcv::FlagSet flags;
  flags.Value("workload").Value("seed").Value("seconds").Value("dir").Boolean(
      "smoke");
  DCV_ASSIGN_OR_RETURN(dcv::ParsedFlags parsed, flags.Parse(argc, argv, 1));
  BenchRun s;
  DCV_ASSIGN_OR_RETURN(std::string workload, parsed.GetRequired("workload"));
  DCV_ASSIGN_OR_RETURN(int64_t seed, parsed.GetInt("seed", 1));
  if (seed < 0) {
    return dcv::InvalidArgumentError("--seed must be >= 0");
  }
  s.seed = static_cast<uint64_t>(seed);
  DCV_ASSIGN_OR_RETURN(s.seconds, parsed.GetDouble("seconds", 10.0));
  if (!(s.seconds >= 0.0 && s.seconds <= 3600.0)) {
    return dcv::InvalidArgumentError("--seconds must be in [0, 3600]");
  }
  s.smoke = parsed.GetBool("smoke");
  s.dir = parsed.GetString("dir", ".");
  DCV_ASSIGN_OR_RETURN(s.spec, FindWorkload(workload, s.smoke));
  DCV_ASSIGN_OR_RETURN(s.inputs, MakeInputs(s.spec, s.seed, s.dir));
  return s;
}

bool RepLoop::More(size_t done) {
  const auto now = std::chrono::steady_clock::now();
  if (done == 0) {
    start_ = now;
  }
  const double last_s =
      done == 0 ? 0.0
                : std::chrono::duration<double>(now - last_start_).count();
  if (done >= min_ &&
      std::chrono::duration<double>(now - start_).count() + last_s >
          seconds_) {
    return false;
  }
  last_start_ = now;
  return true;
}

bool RepChecker::Check(const dcv::Result<Rep>& rep, const std::string& what) {
  const int64_t expected = run_.spec.expected_updates();
  attempted_ += expected;
  if (!rep.ok()) {
    lost_ += expected;
    errors_.push_back(what + ": " + std::string(rep.status().message()));
    return false;
  }
  lost_ += std::max<int64_t>(0, expected - rep->updates);
  std::string why = CheckRep(run_.spec, run_.inputs, *rep);
  if (why.empty() && !run_.spec.replay()) {
    if (first_alarms_ < 0) {
      first_alarms_ = rep->alarms;
    } else if (rep->alarms != first_alarms_) {
      why = "alarm count changed between repetitions: " +
            std::to_string(first_alarms_) + " then " +
            std::to_string(rep->alarms);
    }
  }
  if (!why.empty()) {
    failures_.push_back(what + ": " + why);
  }
  return true;
}

void RepChecker::WriteAccount(JsonWriter* w) const {
  w->Key("attempted_updates").Value(attempted_);
  w->Key("lost_updates").Value(lost_);
  w->Key("errors").BeginArray();
  for (const std::string& e : errors_) {
    w->Value(e);
  }
  w->EndArray();
  w->Key("failures").BeginArray();
  for (const std::string& f : failures_) {
    w->Value(f);
  }
  w->EndArray();
}

void WriteFingerprint(JsonWriter* w) {
  w->BeginObject();
  w->Key("nproc").Value(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  w->Key("compiler").Value(PERFBENCH_COMPILER);
  w->Key("build_type").Value(PERFBENCH_BUILD_TYPE);
  w->EndObject();
}

void WriteQuantiles(JsonWriter* w, const HistogramSnapshot& h) {
  w->BeginObject();
  w->Key("count").Value(h.count);
  w->Key("p50").Value(h.Quantile(0.50));
  w->Key("p90").Value(h.Quantile(0.90));
  w->Key("p99").Value(h.Quantile(0.99));
  w->EndObject();
}

void PrintLine(const JsonWriter& w) {
  std::fwrite(w.str().data(), 1, w.str().size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

dcv::Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return dcv::InternalError("cannot write " + path);
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    return dcv::InternalError("short write to " + path);
  }
  return dcv::OkStatus();
}

}  // namespace perfbench

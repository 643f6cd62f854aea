#include "runtime/conformance.h"

#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "runtime/site_worker.h"
#include "sim/local_scheme.h"
#include "sim/polling_scheme.h"

namespace dcv {
namespace {

std::string DescribeEpochDiff(const EpochDetection& sim,
                              const EpochDetection& rt,
                              const std::string& label) {
  std::ostringstream os;
  os << "epoch " << sim.epoch << ": lockstep{alarms=" << sim.num_alarms
     << " polled=" << sim.polled << " violation=" << sim.violation_reported
     << "} " << label << "{alarms=" << rt.num_alarms << " polled=" << rt.polled
     << " violation=" << rt.violation_reported << "}";
  return os.str();
}

/// Diffs one runtime run against the lockstep reference: per-epoch
/// detections, per-type wire counts, reliability accounting; first
/// divergence wins. Empty string = identical.
std::string DiffAgainstLockstep(const SimResult& lockstep,
                                const std::vector<EpochDetection>& epochs,
                                const RuntimeResult& rt,
                                const std::string& label) {
  if (epochs.size() != rt.detections.size()) {
    return label + " epoch count mismatch";
  }
  for (size_t t = 0; t < epochs.size(); ++t) {
    if (!(epochs[t] == rt.detections[t])) {
      return DescribeEpochDiff(epochs[t], rt.detections[t], label);
    }
  }
  for (int m = 0; m < kNumMessageTypes; ++m) {
    MessageType type = static_cast<MessageType>(m);
    if (lockstep.messages.of(type) != rt.messages.of(type)) {
      std::ostringstream os;
      os << "message count mismatch for " << MessageTypeName(type)
         << ": lockstep=" << lockstep.messages.of(type) << " " << label << "="
         << rt.messages.of(type);
      return os.str();
    }
  }
  if (lockstep.reliability.ToJson() != rt.reliability.ToJson()) {
    return "reliability stats mismatch: lockstep=" +
           lockstep.reliability.ToJson() + " " + label + "=" +
           rt.reliability.ToJson();
  }
  return "";
}

}  // namespace

Result<ConformanceReport> RunConformance(const Trace& training,
                                         const Trace& eval,
                                         const ConformanceSpec& spec) {
  // Every runtime run here is virtual: a chaos kind none of them can fire
  // fails before the lockstep run, not as a healthy run.
  DCV_RETURN_IF_ERROR(
      CheckChaosFits(spec.chaos, /*virtual_time=*/true, spec.transport));
  ConformanceReport report;

  // Lockstep reference run, with the per-epoch detection trail captured.
  SimOptions sim_options;
  sim_options.weights = spec.weights;
  sim_options.global_threshold = spec.global_threshold;
  sim_options.faults = spec.faults;
  sim_options.on_epoch = [&report](int64_t t, const EpochResult& r) {
    EpochDetection det;
    det.epoch = t;
    det.num_alarms = r.num_alarms;
    det.polled = r.polled;
    det.violation_reported = r.violation_reported;
    report.lockstep_epochs.push_back(det);
  };

  std::unique_ptr<DetectionScheme> scheme;
  if (spec.protocol == RuntimeProtocol::kLocalThreshold) {
    if (spec.solver == nullptr) {
      return InvalidArgumentError("local-threshold conformance needs a solver");
    }
    LocalThresholdScheme::Options o;
    o.solver = spec.solver;
    scheme = std::make_unique<LocalThresholdScheme>(o);
  } else {
    scheme = std::make_unique<PollingScheme>(spec.poll_period);
  }
  DCV_ASSIGN_OR_RETURN(
      report.lockstep,
      RunSimulation(scheme.get(), sim_options, training, eval));

  // Threaded run of the same scenario, virtual-time mode.
  RuntimeOptions rt_options;
  rt_options.protocol = spec.protocol;
  rt_options.weights = spec.weights;
  rt_options.global_threshold = spec.global_threshold;
  rt_options.poll_period = spec.poll_period;
  rt_options.num_workers = spec.num_workers;
  rt_options.num_shards = spec.num_shards;
  rt_options.virtual_time = true;
  rt_options.solver = spec.solver;
  rt_options.faults = spec.faults;
  // Chaos severs a TCP link, which only exists in the socket run; the
  // in-process run stays healthy.
  DCV_ASSIGN_OR_RETURN(report.runtime,
                       RunMonitorRuntime(training, eval, rt_options));
  report.mismatch = DiffAgainstLockstep(report.lockstep, report.lockstep_epochs,
                                        report.runtime, "runtime");
  if (!report.mismatch.empty()) {
    return report;
  }

  if (spec.transport == TransportKind::kSocket) {
    // Third run: the same scenario over loopback TCP, with one in-process
    // site-worker driver per worker connecting to an ephemeral port.
    const int n = eval.num_sites();
    const int workers = spec.num_workers == 0 ? n : spec.num_workers;
    std::vector<std::thread> worker_threads;
    std::vector<Status> worker_status(static_cast<size_t>(workers),
                                      OkStatus());
    RuntimeOptions socket_options = rt_options;
    socket_options.transport = TransportKind::kSocket;
    socket_options.listen_port = 0;
    socket_options.chaos = spec.chaos;
    const bool reconnect = spec.chaos.kind == ChaosKind::kKillWorker;
    socket_options.on_listening = [&](int port) {
      for (int w = 0; w < workers; ++w) {
        worker_threads.emplace_back([&, w, port] {
          SiteWorkerOptions wo;
          wo.port = port;
          wo.worker = w;
          wo.num_workers = workers;
          wo.num_sites = n;
          wo.socket.allow_reconnect = reconnect;
          auto r = RunSiteWorker(&eval, wo);
          if (!r.ok()) {
            worker_status[static_cast<size_t>(w)] = r.status();
          }
        });
      }
    };
    Result<RuntimeResult> socket_run =
        RunMonitorRuntime(training, eval, socket_options);
    for (std::thread& th : worker_threads) {
      th.join();
    }
    if (!socket_run.ok()) {
      return socket_run.status();
    }
    for (const Status& s : worker_status) {
      DCV_RETURN_IF_ERROR(s);
    }
    report.socket_runtime = std::move(*socket_run);
    report.ran_socket = true;
    report.mismatch =
        DiffAgainstLockstep(report.lockstep, report.lockstep_epochs,
                            report.socket_runtime, "socket-runtime");
    if (!report.mismatch.empty()) {
      return report;
    }
  }

  report.identical = true;
  return report;
}

}  // namespace dcv

#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "runtime/plan.h"
#include "runtime/site_engine.h"
#include "runtime/transport.h"

namespace dcv {
namespace {

/// Hard ceiling on in-process worker threads. The auto default never
/// exceeds the core count, but an explicit num_workers is outside input:
/// asking the OS for, say, 100k threads would abort inside the
/// std::thread constructor mid-spawn, so larger requests are refused.
constexpr int kMaxWorkerThreads = 10'000;

struct LaunchPlan {
  std::vector<int64_t> weights;
  std::vector<int64_t> thresholds;
  std::vector<int64_t> domain_max;
};

Status ResolveWeights(int n, const RuntimeOptions& options,
                      std::vector<int64_t>* weights) {
  *weights = options.weights;
  if (weights->empty()) {
    weights->assign(static_cast<size_t>(n), 1);
  }
  if (static_cast<int>(weights->size()) != n) {
    return InvalidArgumentError("weights size mismatch");
  }
  for (int64_t w : *weights) {
    if (w < 1) {
      return InvalidArgumentError("weights must be >= 1");
    }
  }
  return OkStatus();
}

/// Resolves thresholds + domain maxima: explicit plan > solver-built plan >
/// unconstrained sites (synthetic throughput runs, polling protocol).
Status ResolvePlan(int n, const Trace* training, const RuntimeOptions& options,
                   LaunchPlan* plan) {
  if (!options.thresholds.empty()) {
    if (static_cast<int>(options.thresholds.size()) != n) {
      return InvalidArgumentError("thresholds size mismatch");
    }
    plan->thresholds = options.thresholds;
    plan->domain_max = options.domain_max;
  } else if (options.protocol == RuntimeProtocol::kLocalThreshold &&
             training != nullptr && training->num_epochs() > 0) {
    if (options.solver == nullptr) {
      return InvalidArgumentError(
          "local-threshold runtime needs a solver or explicit thresholds");
    }
    DCV_ASSIGN_OR_RETURN(
        LocalPlan built,
        BuildLocalPlan(*training, plan->weights, options.global_threshold,
                       *options.solver, options.histogram_buckets,
                       options.domain_headroom));
    plan->thresholds = std::move(built.thresholds);
    plan->domain_max = std::move(built.domain_max);
  } else {
    // No local constraints: sites never alarm. The polling protocol and
    // pure-throughput synthetic runs live here.
    plan->thresholds.assign(static_cast<size_t>(n),
                            std::numeric_limits<int64_t>::max());
    plan->domain_max.assign(static_cast<size_t>(n),
                            options.synthetic_max);
  }
  if (plan->domain_max.empty()) {
    plan->domain_max.assign(static_cast<size_t>(n), 0);
  }
  if (static_cast<int>(plan->domain_max.size()) != n) {
    return InvalidArgumentError("domain_max size mismatch");
  }
  return OkStatus();
}

/// Builds the coordinator config shared by every transport.
CoordinatorActor::Config MakeCoordinatorConfig(int n, const LaunchPlan& plan,
                                               const RuntimeOptions& options) {
  CoordinatorActor::Config ccfg;
  ccfg.num_sites = n;
  ccfg.weights = plan.weights;
  ccfg.global_threshold = options.global_threshold;
  ccfg.protocol = options.protocol;
  ccfg.poll_period = options.poll_period;
  ccfg.thresholds = plan.thresholds;
  ccfg.domain_max = plan.domain_max;
  ccfg.num_shards = options.num_shards;
  ccfg.faults = options.faults;
  ccfg.chaos = options.chaos;
  ccfg.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
  ccfg.metrics = options.metrics;
  ccfg.recorder = options.recorder;
  return ccfg;
}

/// Socket-transport launch: this process runs only the coordinator; the
/// site engines live in site-worker processes (site_worker.h) that connect
/// over TCP. The protocol state machines are untouched — the coordinator
/// sees the same Transport interface — so virtual-time runs stay
/// bit-identical to the in-process and lockstep paths.
Result<RuntimeResult> LaunchSocket(int n, int64_t updates_per_site,
                                   const LaunchPlan& plan,
                                   const RuntimeOptions& options) {
  if (options.capture_updates) {
    return InvalidArgumentError(
        "capture_updates is not supported over the socket transport");
  }
  int workers = options.num_workers == 0 ? n : options.num_workers;
  if (workers < 1 || workers > n) {
    return InvalidArgumentError("num_workers must be in [1, num_sites]");
  }
  DCV_RETURN_IF_ERROR(MakeShardLayout(n, options.num_shards).status());
  SocketTransport::Options sopts = options.socket;
  sopts.virtual_time = options.virtual_time;
  sopts.metrics = options.metrics;
  sopts.recorder = options.recorder;
  sopts.num_shards = options.num_shards;
  if (options.recorder != nullptr) {
    // Distributed run: coordinator-side events get wall timestamps so the
    // merged Chrome trace can interleave them with worker lanes.
    options.recorder->EnableWallClock();
  }
  if (options.chaos.kind == ChaosKind::kKillWorker) {
    // Severing a worker link only makes sense if the fabric can heal;
    // workers must opt in on their side too (site-worker --allow-reconnect).
    sopts.allow_reconnect = true;
  }
  DCV_ASSIGN_OR_RETURN(
      std::unique_ptr<SocketTransport> transport,
      SocketTransport::Listen(n, workers, options.listen_port, sopts));
  if (options.on_listening) {
    options.on_listening(transport->port());
  }
  DCV_RETURN_IF_ERROR(transport->AcceptWorkers());
  if (options.recorder != nullptr) {
    options.recorder->DeclareSites(n);
  }

  CoordinatorActor coordinator(MakeCoordinatorConfig(n, plan, options));
  DCV_RETURN_IF_ERROR(coordinator.Init());

  // Initial threshold sync: in-process runs bake the thresholds into the
  // SiteEngine configs; remote workers get them as the connection's first
  // envelopes instead. Control plane (uncharged — provisioning, not
  // protocol traffic), and per-connection FIFO means every site installs
  // its threshold before it evaluates anything.
  const bool local = options.protocol == RuntimeProtocol::kLocalThreshold;
  for (int i = 0; i < n; ++i) {
    ActorMessage update;
    update.kind = ActorMsgKind::kThresholdUpdate;
    update.epoch = -1;
    update.value = local ? plan.thresholds[static_cast<size_t>(i)]
                         : std::numeric_limits<int64_t>::max();
    if (!transport->Send(Envelope{kCoordinatorId, i, update})) {
      return InternalError("worker connection closed during threshold sync");
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  RuntimeResult result;
  Status run_status =
      options.virtual_time
          ? coordinator.RunVirtual(transport.get(), updates_per_site, &result)
          : coordinator.RunFree(transport.get(), &result);
  // Each worker pushes a final cumulative telemetry frame after its run
  // loop exits; wait for those pushes while the reader threads are still
  // draining (Shutdown's SHUT_RDWR would race the stream tail).
  if (run_status.ok() &&
      (options.metrics != nullptr || options.recorder != nullptr)) {
    transport->WaitForFinalTelemetry(/*timeout_ms=*/2000);
  }
  // Flushes the queued kShutdown broadcast, then closes the connections
  // (workers see a clean end of stream and exit their loops).
  transport->Shutdown();
  DCV_RETURN_IF_ERROR(run_status);
  const auto t1 = std::chrono::steady_clock::now();

  // Merge the telemetry plane: one document covering every process. The
  // coordinator's registry is the base; each worker's cumulative snapshot
  // folds in (counters sum, histograms merge, gauges namespace per worker)
  // and its trace events land in the run recorder on the worker's lane,
  // shifted onto the coordinator clock by the handshake-estimated offset.
  if (options.metrics != nullptr) {
    result.metrics = options.metrics->Snapshot();
  }
  for (const TelemetryFrame& f : transport->TakeWorkerTelemetry()) {
    result.metrics.MergeFrom(f.metrics,
                             "worker" + std::to_string(f.worker));
    if (options.recorder != nullptr) {
      for (const TelemetryTraceEvent& te : f.events) {
        obs::TraceEvent ev;
        ev.kind = static_cast<obs::TraceEventKind>(te.kind);
        ev.epoch = te.epoch;
        ev.site = te.site;
        ev.value = te.value;
        ev.duration_us = te.duration_us;
        ev.ts_us = te.ts_us != 0 ? te.ts_us + f.clock_offset_us : 0;
        ev.process = f.worker + 1;
        options.recorder->Record(ev);
      }
    }
  }

  if (options.virtual_time) {
    // Every site observes every epoch in lockstep; the actual counters live
    // in the worker processes.
    result.site_updates.assign(static_cast<size_t>(n), updates_per_site);
    result.total_updates = static_cast<int64_t>(n) * updates_per_site;
  }  // Free-running mode: RunFree filled these from the kSiteDone reports.
  result.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.updates_per_second =
      result.elapsed_seconds > 0.0
          ? static_cast<double>(result.total_updates) / result.elapsed_seconds
          : 0.0;
  result.socket = transport->stats();
  return result;
}

/// Builds engines and threads, runs the coordinator on the calling thread,
/// joins, and fills the throughput/capture fields. `eval` is null for
/// synthetic runs.
Result<RuntimeResult> Launch(int n, const Trace* eval,
                             int64_t updates_per_site,
                             const LaunchPlan& plan,
                             const RuntimeOptions& options) {
  if (options.transport == TransportKind::kSocket) {
    return LaunchSocket(n, updates_per_site, plan, options);
  }
  int workers = options.num_workers;
  if (workers == 0) {
    // One engine loop per core: a million sites must not mean a million
    // threads.
    workers = std::min(
        n, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  }
  if (workers < 1 || workers > n) {
    return InvalidArgumentError("num_workers must be in [1, num_sites]");
  }
  if (workers > kMaxWorkerThreads) {
    // std::thread construction past the OS task limit aborts the process
    // with an uncatchable std::system_error mid-spawn; refuse up front.
    return InvalidArgumentError(
        "run would spawn " + std::to_string(workers) +
        " worker threads (max " + std::to_string(kMaxWorkerThreads) +
        "); pass a smaller thread count");
  }
  DCV_RETURN_IF_ERROR(MakeShardLayout(n, options.num_shards).status());
  DCV_ASSIGN_OR_RETURN(std::unique_ptr<ThreadTransport> transport,
                       ThreadTransport::Create(n, workers,
                                               /*coordinator_capacity=*/0,
                                               /*worker_capacity=*/0,
                                               options.num_shards));
  if (options.recorder != nullptr) {
    options.recorder->DeclareSites(n);
  }

  // Sites never alarm in the polling protocol: the coordinator drives every
  // contact. The provisioned thresholds still ship so WhatIf-style reuse of
  // the plan is possible, but the site constraint is disabled.
  const bool local = options.protocol == RuntimeProtocol::kLocalThreshold;
  // One SoA engine per worker; per-site config lands in slot order (slot s
  // of worker w is site s * workers + w).
  std::vector<std::unique_ptr<SiteEngine>> engines;
  engines.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    SiteEngine::Config ecfg;
    ecfg.worker = w;
    ecfg.num_workers = workers;
    ecfg.num_sites = n;
    for (int site = w; site < n; site += workers) {
      ecfg.thresholds.push_back(local
                                    ? plan.thresholds[static_cast<size_t>(site)]
                                    : std::numeric_limits<int64_t>::max());
      if (eval != nullptr) {
        ecfg.series.push_back(eval->SiteSeries(site));
      }
    }
    ecfg.synthetic_updates = eval == nullptr ? updates_per_site : 0;
    ecfg.seed = options.seed;
    ecfg.synthetic_max = options.synthetic_max;
    ecfg.capture_updates = options.capture_updates;
    ecfg.metrics = options.metrics;
    ecfg.recorder = options.recorder;
    engines.push_back(std::make_unique<SiteEngine>(std::move(ecfg)));
  }

  CoordinatorActor coordinator(MakeCoordinatorConfig(n, plan, options));
  DCV_RETURN_IF_ERROR(coordinator.Init());

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    Transport* t = transport.get();
    SiteEngine* engine = engines[static_cast<size_t>(w)].get();
    if (options.virtual_time) {
      threads.emplace_back([t, engine] { engine->RunVirtual(t); });
    } else {
      threads.emplace_back([t, engine] { engine->RunFree(t); });
    }
  }

  RuntimeResult result;
  Status run_status =
      options.virtual_time
          ? coordinator.RunVirtual(transport.get(), updates_per_site, &result)
          : coordinator.RunFree(transport.get(), &result);
  // Close the boxes before joining, on success as well as failure: a clean
  // run's workers exit on the kShutdown broadcast anyway (drain-on-shutdown
  // keeps queued messages poppable), and a failed run's workers — possibly
  // blocked mid-Push into a full inbox — are woken instead of wedging the
  // join forever.
  transport->Shutdown();
  for (std::thread& th : threads) {
    th.join();
  }
  DCV_RETURN_IF_ERROR(run_status);
  const auto t1 = std::chrono::steady_clock::now();

  result.site_updates.clear();
  result.total_updates = 0;
  for (int i = 0; i < n; ++i) {
    const SiteEngine& engine = *engines[static_cast<size_t>(i % workers)];
    const size_t slot = static_cast<size_t>(i / workers);
    const int64_t processed = engine.updates_processed()[slot];
    result.site_updates.push_back(processed);
    result.total_updates += processed;
    if (options.capture_updates) {
      result.captured_updates.push_back(engine.captured_updates()[slot]);
    }
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  result.updates_per_second =
      result.elapsed_seconds > 0.0
          ? static_cast<double>(result.total_updates) / result.elapsed_seconds
          : 0.0;
  if (options.metrics != nullptr) {
    // Single shared registry: the "merged" document is just its snapshot,
    // keeping the output shape identical to a socket-transport run.
    result.metrics = options.metrics->Snapshot();
  }
  return result;
}

/// Scores virtual-time detections against ground truth, exactly like the
/// lockstep runner's per-epoch accounting.
void ScoreAgainstTruth(const Trace& eval, const std::vector<int64_t>& weights,
                       const RuntimeOptions& options, RuntimeResult* result) {
  for (const EpochDetection& det : result->detections) {
    if (det.num_alarms > 0) {
      ++result->alarm_epochs;
      result->total_alarms += det.num_alarms;
    }
    if (det.polled) {
      ++result->polled_epochs;
    }
    const bool violated =
        eval.WeightedSum(det.epoch, weights) > options.global_threshold;
    if (violated) {
      ++result->true_violations;
      DCV_OBS_EVENT(options.recorder, obs::TraceEventKind::kViolation,
                    det.epoch, obs::TraceRecorder::kCoordinator,
                    det.violation_reported ? 1 : 0);
      if (det.violation_reported) {
        ++result->detected_violations;
      } else {
        ++result->missed_violations;
      }
    } else if (det.polled) {
      ++result->false_alarm_epochs;
    }
  }
}

}  // namespace

Result<RuntimeResult> RunMonitorRuntime(const Trace& training,
                                        const Trace& eval,
                                        const RuntimeOptions& options) {
  const int n = eval.num_sites();
  if (n < 1 || eval.num_epochs() == 0) {
    return InvalidArgumentError("eval trace must be nonempty");
  }
  if (training.num_epochs() > 0 && training.num_sites() != n) {
    return InvalidArgumentError(
        "training and eval traces have different site counts");
  }
  LaunchPlan plan;
  DCV_RETURN_IF_ERROR(ResolveWeights(n, options, &plan.weights));
  DCV_RETURN_IF_ERROR(ResolvePlan(n, &training, options, &plan));
  DCV_ASSIGN_OR_RETURN(
      RuntimeResult result,
      Launch(n, &eval, eval.num_epochs(), plan, options));
  if (options.virtual_time) {
    ScoreAgainstTruth(eval, plan.weights, options, &result);
  }
  return result;
}

Result<RuntimeResult> RunSyntheticRuntime(int num_sites,
                                          int64_t updates_per_site,
                                          const RuntimeOptions& options) {
  if (num_sites < 1 || updates_per_site < 1) {
    return InvalidArgumentError(
        "synthetic runtime needs >= 1 site and >= 1 update per site");
  }
  LaunchPlan plan;
  DCV_RETURN_IF_ERROR(ResolveWeights(num_sites, options, &plan.weights));
  DCV_RETURN_IF_ERROR(
      ResolvePlan(num_sites, /*training=*/nullptr, options, &plan));
  return Launch(num_sites, /*eval=*/nullptr, updates_per_site, plan, options);
}

}  // namespace dcv

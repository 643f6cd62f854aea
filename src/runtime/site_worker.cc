#include "runtime/site_worker.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "runtime/site_engine.h"

namespace dcv {
namespace {

/// Worker trace batches are bounded so a telemetry frame always fits under
/// kMaxTelemetryPayload (each encoded event is ~40 bytes).
constexpr size_t kMaxTelemetryEvents = 8192;

int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

TelemetryFrame BuildTelemetryFrame(const SiteWorkerOptions& options,
                                   SocketTransport* transport,
                                   bool final_flush) {
  TelemetryFrame t;
  t.worker = options.worker;
  t.final_flush = final_flush ? 1 : 0;
  t.wall_time_us = WallUs();
  t.clock_offset_us = transport->clock_offset_us();
  if (options.metrics != nullptr) {
    t.metrics = options.metrics->Snapshot();
  }
  if (options.recorder != nullptr) {
    std::vector<obs::TraceEvent> events = options.recorder->Events();
    const size_t start =
        events.size() > kMaxTelemetryEvents ? events.size() - kMaxTelemetryEvents
                                            : 0;
    t.events.reserve(events.size() - start);
    for (size_t i = start; i < events.size(); ++i) {
      TelemetryTraceEvent te;
      te.kind = static_cast<uint8_t>(events[i].kind);
      te.epoch = events[i].epoch;
      te.site = events[i].site;
      te.value = events[i].value;
      te.duration_us = events[i].duration_us;
      te.ts_us = events[i].ts_us;
      t.events.push_back(te);
    }
  }
  return t;
}

}  // namespace

Result<SiteWorkerReport> RunSiteWorker(const Trace* eval,
                                       const SiteWorkerOptions& options) {
  if (options.num_sites < 1 || options.num_workers < 1 ||
      options.num_workers > options.num_sites) {
    return InvalidArgumentError("bad fabric shape");
  }
  if (options.worker < 0 || options.worker >= options.num_workers) {
    return InvalidArgumentError("worker index out of range");
  }
  if (eval != nullptr && eval->num_sites() != options.num_sites) {
    return InvalidArgumentError("eval trace site count does not match fabric");
  }
  if (eval == nullptr && options.synthetic_updates < 1) {
    return InvalidArgumentError(
        "site worker needs an eval trace or a synthetic workload");
  }

  if (options.recorder != nullptr) {
    // Distributed run: worker events need wall timestamps so the
    // coordinator's merged timeline can place them (after offset
    // correction) alongside its own lanes.
    options.recorder->EnableWallClock();
  }
  SocketTransport::Options sopts = options.socket;
  sopts.metrics = options.metrics;
  sopts.recorder = options.recorder;
  DCV_ASSIGN_OR_RETURN(
      std::unique_ptr<SocketTransport> transport,
      SocketTransport::Connect(options.host, options.port, options.worker,
                               options.num_sites, options.num_workers, sopts));

  // Owned sites start unconstrained; the real thresholds arrive as the
  // coordinator's first envelopes (per-connection FIFO guarantees they
  // install before any epoch start or poll reaches the site).
  SiteWorkerReport report;
  SiteEngine::Config ecfg;
  ecfg.worker = options.worker;
  ecfg.num_workers = options.num_workers;
  ecfg.num_sites = options.num_sites;
  for (int i = options.worker; i < options.num_sites;
       i += options.num_workers) {
    report.sites.push_back(i);
    ecfg.thresholds.push_back(std::numeric_limits<int64_t>::max());
    if (eval != nullptr) {
      ecfg.series.push_back(eval->SiteSeries(i));
    }
  }
  ecfg.synthetic_updates = eval == nullptr ? options.synthetic_updates : 0;
  ecfg.seed = options.seed;
  ecfg.synthetic_max = options.synthetic_max;
  ecfg.metrics = options.metrics;
  ecfg.recorder = options.recorder;
  SiteEngine engine(std::move(ecfg));
  report.virtual_time = transport->virtual_time();

  // Initial threshold sync: exactly one kThresholdUpdate per owned site
  // before the run proper. A kShutdown here means the coordinator aborted
  // during startup; exit cleanly instead of erroring.
  size_t pending = engine.num_slots();
  bool aborted = false;
  Envelope e;
  while (pending > 0 && !aborted) {
    if (!transport->RecvWorker(options.worker, &e)) {
      transport->Shutdown();
      return InternalError(
          "connection closed before initial threshold sync completed");
    }
    switch (e.msg.kind) {
      case ActorMsgKind::kThresholdUpdate:
        if (!engine.ApplyThresholdUpdate(e.to, e.msg.value)) {
          transport->Shutdown();
          return InternalError("threshold sync addressed to unowned site " +
                               std::to_string(e.to));
        }
        --pending;
        break;
      case ActorMsgKind::kShutdown:
        aborted = true;
        break;
      default:
        transport->Shutdown();
        return InternalError("unexpected message during threshold sync");
    }
  }

  // Periodic telemetry flusher: pushes a cumulative registry snapshot (plus
  // the recent trace-event tail) toward the coordinator. Latest-wins merge
  // semantics make the cadence a freshness knob, not a correctness one.
  std::mutex flush_mu;
  std::condition_variable flush_cv;
  bool flush_stop = false;
  std::thread flusher;
  if (options.telemetry_interval_ms > 0) {
    flusher = std::thread([&] {
      std::unique_lock<std::mutex> lock(flush_mu);
      while (!flush_cv.wait_for(
          lock, std::chrono::milliseconds(options.telemetry_interval_ms),
          [&] { return flush_stop; })) {
        lock.unlock();
        TelemetryFrame t =
            BuildTelemetryFrame(options, transport.get(), /*final_flush=*/false);
        // A failed push (connection mid-resume) is harmless: the next tick
        // or the final flush carries a fresher cumulative snapshot.
        (void)transport->SendTelemetry(t);
        lock.lock();
      }
    });
  }

  if (!aborted) {
    if (report.virtual_time) {
      engine.RunVirtual(transport.get());
    } else {
      engine.RunFree(transport.get());
    }
  }

  if (flusher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flush_mu);
      flush_stop = true;
    }
    flush_cv.notify_all();
    flusher.join();
  }
  // Final flush: the frame the coordinator's WaitForFinalTelemetry blocks
  // on. Sent after the run loop so it carries the complete counters.
  (void)transport->SendTelemetry(
      BuildTelemetryFrame(options, transport.get(), /*final_flush=*/true));
  transport->Shutdown();

  for (int64_t u : engine.updates_processed()) {
    report.total_updates += u;
  }
  report.socket = transport->stats();
  return report;
}

}  // namespace dcv

// The traced run: the same workload assembled from the runtime's public
// parts — a ThreadTransport (or a coordinator SocketTransport plus one
// worker SocketTransport per connection), one SiteEngine per worker and a
// CoordinatorActor — with every transport wrapped in a TimedTransport.
//
//   perfbench_ledger --workload NAME --seed S --seconds T [--smoke]
//                    [--dir DIR]
//
// After one warm-up it alternates an untraced repetition through the public
// run API with a traced repetition for about T seconds (at least two of
// each; with --smoke no warm-up and one of each). Both kinds are checked
// like the end-to-end program checks its repetitions. Prints one JSON line
// of per-layer metrics; writes the last traced repetition's per-thread
// ledger to DIR/ledger-NAME-S.json and the spans of its last launch to
// DIR/ledger-NAME-S.trace.json.
//
// The socket workload's assembled workers skip the telemetry pushes that
// RunSiteWorker makes; everything else is the program the public call runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/coordinator.h"
#include "runtime/plan.h"
#include "runtime/site_engine.h"
#include "runtime/socket_transport.h"
#include "runtime/transport.h"
#include "timed_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dcv::Envelope;
using dcv::obs::JsonWriter;

/// The provisioning the public call would compute: per-site thresholds and
/// poll fallbacks, plus the replay's evaluation trace.
struct Plan {
  dcv::LocalPlan local;
  std::unique_ptr<dcv::Trace> eval;  ///< Replay only.
};

dcv::Result<Plan> MakePlan(const WorkloadSpec& spec, const Inputs& inputs,
                           int launch, const dcv::RuntimeOptions& options) {
  Plan plan;
  if (!spec.replay()) {
    plan.local.thresholds = options.thresholds;
    plan.local.domain_max = options.domain_max;
    return plan;
  }
  DCV_ASSIGN_OR_RETURN(
      ReplayTraces traces,
      LoadReplay(inputs.traces[static_cast<size_t>(launch)]));
  DCV_ASSIGN_OR_RETURN(
      plan.local,
      dcv::BuildLocalPlan(traces.training,
                          std::vector<int64_t>(static_cast<size_t>(spec.sites),
                                               1),
                          options.global_threshold, ReplaySolver(),
                          options.histogram_buckets, options.domain_headroom));
  plan.eval = std::make_unique<dcv::Trace>(std::move(traces.eval));
  return plan;
}

dcv::SiteEngine::Config EngineConfig(const WorkloadSpec& spec,
                                     const dcv::RuntimeOptions& options,
                                     const Plan& plan, int worker,
                                     dcv::obs::MetricsRegistry* metrics) {
  dcv::SiteEngine::Config cfg;
  cfg.worker = worker;
  cfg.num_workers = spec.workers;
  cfg.num_sites = spec.sites;
  for (int site = worker; site < spec.sites; site += spec.workers) {
    // Socket workers start unconstrained; the coordinator's first
    // envelopes install the real thresholds.
    cfg.thresholds.push_back(
        spec.socket ? std::numeric_limits<int64_t>::max()
                    : plan.local.thresholds[static_cast<size_t>(site)]);
    if (plan.eval != nullptr) {
      cfg.series.push_back(plan.eval->SiteSeries(site));
    }
  }
  cfg.synthetic_updates = spec.replay() ? 0 : spec.updates_per_site;
  cfg.seed = options.seed;
  cfg.synthetic_max = kSyntheticMax;
  cfg.metrics = metrics;
  return cfg;
}

dcv::CoordinatorActor::Config CoordinatorConfig(
    const WorkloadSpec& spec, const dcv::RuntimeOptions& options,
    const Plan& plan) {
  dcv::CoordinatorActor::Config cfg;
  cfg.num_sites = spec.sites;
  cfg.weights.assign(static_cast<size_t>(spec.sites), 1);
  cfg.global_threshold = options.global_threshold;
  cfg.num_shards = spec.shards;
  cfg.thresholds = plan.local.thresholds;
  cfg.domain_max = plan.local.domain_max;
  cfg.faults = options.faults;
  cfg.metrics = options.metrics;
  return cfg;
}

/// Scores virtual-time detections against the evaluation trace, as the
/// public call does after its run.
void ScoreReplay(const dcv::Trace& eval, int64_t global_threshold,
                 const dcv::RuntimeResult& result, Rep* rep) {
  for (const dcv::EpochDetection& det : result.detections) {
    rep->alarms += det.num_alarms;
    rep->polls += det.polled ? 1 : 0;
    if (eval.WeightedSum(det.epoch, {}) > global_threshold) {
      ++rep->true_violations;
      ++(det.violation_reported ? rep->detected : rep->missed);
    }
  }
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One traced launch over the in-process thread transport.
dcv::Result<Rep> RunThreadTraced(const WorkloadSpec& spec,
                                 const Inputs& inputs, int launch,
                                 Ledger* ledger) {
  dcv::obs::MetricsRegistry registry;
  const dcv::RuntimeOptions options =
      MakeOptions(spec, inputs, launch, &registry);
  DCV_ASSIGN_OR_RETURN(Plan plan, MakePlan(spec, inputs, launch, options));
  DCV_ASSIGN_OR_RETURN(std::unique_ptr<dcv::ThreadTransport> transport,
                       dcv::ThreadTransport::Create(spec.sites, spec.workers,
                                                    0, 0, spec.shards));
  TimedTransport timed(transport.get(), ledger);
  std::vector<std::unique_ptr<dcv::SiteEngine>> engines;
  for (int w = 0; w < spec.workers; ++w) {
    engines.push_back(std::make_unique<dcv::SiteEngine>(
        EngineConfig(spec, options, plan, w, &registry)));
  }
  dcv::CoordinatorActor coordinator(CoordinatorConfig(spec, options, plan));
  DCV_RETURN_IF_ERROR(coordinator.Init());

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < spec.workers; ++w) {
    dcv::SiteEngine* engine = engines[static_cast<size_t>(w)].get();
    threads.emplace_back([&, engine, w] {
      ledger->BeginThread(Role::kSiteEngine, w);
      if (spec.replay()) {
        engine->RunVirtual(&timed);
      } else {
        engine->RunFree(&timed);
      }
      ledger->EndThread();
    });
  }
  dcv::RuntimeResult result;
  ledger->BeginThread(spec.shards > 1 ? Role::kRoot : Role::kCoordinator, 0);
  dcv::Status status =
      spec.replay()
          ? coordinator.RunVirtual(&timed, plan.eval->num_epochs(), &result)
          : coordinator.RunFree(&timed, &result);
  ledger->EndThread();
  transport->Shutdown();
  for (std::thread& t : threads) {
    t.join();
  }
  const double elapsed_s = SecondsSince(t0);
  DCV_RETURN_IF_ERROR(status);
  Rep rep = FromResult(result, spec.replay());
  rep.elapsed_s = elapsed_s;
  rep.updates = 0;
  for (const auto& engine : engines) {
    for (int64_t u : engine->updates_processed()) {
      rep.updates += u;
    }
  }
  if (spec.replay()) {
    ScoreReplay(*plan.eval, options.global_threshold, result, &rep);
  }
  return rep;
}

/// One traced launch over loopback TCP: the worker half of
/// RunSiteWorker (connect, initial threshold sync, engine loop) on three
/// in-process threads, the coordinator half of the public socket launch on
/// this one.
dcv::Result<Rep> RunSocketTraced(const WorkloadSpec& spec,
                                 const Inputs& inputs, Ledger* ledger) {
  dcv::obs::MetricsRegistry registry;
  const dcv::RuntimeOptions options = MakeOptions(spec, inputs, 0, &registry);
  DCV_ASSIGN_OR_RETURN(Plan plan, MakePlan(spec, inputs, 0, options));
  dcv::SocketTransport::Options sopts;
  sopts.virtual_time = false;
  sopts.num_shards = spec.shards;
  sopts.metrics = &registry;
  DCV_ASSIGN_OR_RETURN(
      std::unique_ptr<dcv::SocketTransport> coordinator_side,
      dcv::SocketTransport::Listen(spec.sites, spec.workers, 0, sopts));
  const int port = coordinator_side->port();

  std::vector<dcv::Status> worker_status(static_cast<size_t>(spec.workers),
                                         dcv::OkStatus());
  std::vector<std::thread> threads;
  for (int w = 0; w < spec.workers; ++w) {
    threads.emplace_back([&, w] {
      dcv::obs::MetricsRegistry worker_registry;
      dcv::SocketTransport::Options wopts;
      wopts.metrics = &worker_registry;
      auto link = dcv::SocketTransport::Connect("127.0.0.1", port, w,
                                                spec.sites, spec.workers,
                                                wopts);
      if (!link.ok()) {
        worker_status[static_cast<size_t>(w)] = link.status();
        return;
      }
      dcv::SiteEngine engine(
          EngineConfig(spec, options, plan, w, &worker_registry));
      for (size_t pending = engine.num_slots(); pending > 0; --pending) {
        Envelope e;
        if (!(*link)->RecvWorker(w, &e) ||
            e.msg.kind != dcv::ActorMsgKind::kThresholdUpdate ||
            !engine.ApplyThresholdUpdate(e.to, e.msg.value)) {
          worker_status[static_cast<size_t>(w)] =
              dcv::InternalError("initial threshold sync failed");
          (*link)->Shutdown();
          return;
        }
      }
      TimedTransport timed(link->get(), ledger);
      ledger->BeginThread(Role::kSiteEngine, w);
      engine.RunFree(&timed);
      ledger->EndThread();
      (*link)->Shutdown();
    });
  }
  dcv::Status status = coordinator_side->AcceptWorkers();
  dcv::RuntimeResult result;
  std::chrono::steady_clock::time_point t0;
  if (status.ok()) {
    dcv::CoordinatorActor coordinator(CoordinatorConfig(spec, options, plan));
    status = coordinator.Init();
    std::vector<Envelope> sync;
    for (int i = 0; i < spec.sites && status.ok(); ++i) {
      dcv::ActorMessage update;
      update.kind = dcv::ActorMsgKind::kThresholdUpdate;
      update.epoch = -1;
      update.value = plan.local.thresholds[static_cast<size_t>(i)];
      sync.push_back(Envelope{dcv::kCoordinatorId, i, update});
    }
    if (status.ok() && !coordinator_side->SendBatch(sync)) {
      status = dcv::InternalError("threshold sync failed");
    }
    t0 = std::chrono::steady_clock::now();
    if (status.ok()) {
      TimedTransport timed(coordinator_side.get(), ledger);
      ledger->BeginThread(Role::kCoordinator, 0);
      status = coordinator.RunFree(&timed, &result);
      ledger->EndThread();
    }
  }
  coordinator_side->Shutdown();
  const double elapsed_s = SecondsSince(t0);
  for (std::thread& t : threads) {
    t.join();
  }
  DCV_RETURN_IF_ERROR(status);
  for (const dcv::Status& s : worker_status) {
    DCV_RETURN_IF_ERROR(s);
  }
  Rep rep = FromResult(result, /*replay=*/false);
  rep.elapsed_s = elapsed_s;
  const dcv::SocketStats stats = coordinator_side->stats();
  rep.socket_frames_rx = stats.frames_received;
  rep.socket_bytes = stats.bytes_sent + stats.bytes_received;
  return rep;
}

/// Sums over every thread of one role, across traced repetitions.
struct RoleTotals {
  int64_t window_ns = 0;
  int64_t transport_ns = 0;
  std::array<int64_t, kNumCallKinds> hits{};
  std::array<int64_t, kNumCallKinds> ns{};
  std::array<int64_t, kNumCallKinds> envs{};
  int64_t try_sends = 0;
  int64_t short_sends = 0;

  void Add(const ThreadLedger& t) {
    window_ns += t.window_ns();
    transport_ns += t.transport_ns();
    for (int k = 0; k < kNumCallKinds; ++k) {
      hits[k] += t.hits[k];
      ns[k] += t.ns[k];
      envs[k] += t.envs[k];
    }
    try_sends += t.calls[static_cast<size_t>(CallKind::kTrySend)];
    short_sends += t.short_sends;
  }
  int64_t of(const std::array<int64_t, kNumCallKinds>& a, CallKind k) const {
    return a[static_cast<size_t>(k)];
  }
  int64_t sends(const std::array<int64_t, kNumCallKinds>& a) const {
    return of(a, CallKind::kSend) + of(a, CallKind::kTrySend);
  }
  int64_t recvs(const std::array<int64_t, kNumCallKinds>& a) const {
    return of(a, CallKind::kWait) + of(a, CallKind::kTryRecv);
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

void WriteThread(JsonWriter* w, const ThreadLedger& t) {
  static const char* const kRoles[] = {"site_engine", "coordinator", "root"};
  static const char* const kKinds[] = {"send", "try_send", "wait", "try_recv"};
  w->BeginObject();
  w->Key("role").Value(kRoles[static_cast<int>(t.role)]);
  w->Key("index").Value(static_cast<int64_t>(t.index));
  w->Key("window_ns").Value(t.window_ns());
  w->Key("cpu_ns").Value(t.cpu_last_ns - t.cpu_first_ns);
  for (int k = 0; k < kNumCallKinds; ++k) {
    w->Key(kKinds[k]).BeginObject();
    w->Key("calls").Value(t.calls[k]);
    w->Key("ns").Value(t.ns[k]);
    w->Key("envs").Value(t.envs[k]);
    w->EndObject();
  }
  w->Key("short_sends").Value(t.short_sends);
  w->EndObject();
}

int Main(int argc, char** argv) {
  auto run = StartBenchRun(argc, argv);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench_ledger: %s\n",
                 std::string(run.status().message()).c_str());
    return 2;
  }
  const WorkloadSpec& spec = run->spec;
  const Inputs& inputs = run->inputs;
  RepChecker checker(*run);
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  RoleTotals engine_totals;
  RoleTotals coordinator_totals;
  double ledger_window_ns = 0.0;
  double ledger_capacity_ns = 0.0;
  std::vector<std::unique_ptr<Ledger>> last;  // The last traced repetition's.

  bool ok = run->smoke ||
            checker.Check(RunPublicRep(spec, inputs), "warm-up");
  RepLoop loop(run->smoke ? 0.0 : run->seconds, run->smoke ? 1 : 2);
  while (ok && loop.More(traced.size())) {
    auto plain = RunPublicRep(spec, inputs);
    if (!(ok = checker.Check(plain, "untraced"))) {
      break;
    }
    untraced.push_back(*plain);
    std::vector<std::unique_ptr<Ledger>> ledgers;  // One per launch.
    auto rep = RunLaunches(spec, [&](int launch) {
      ledgers.push_back(std::make_unique<Ledger>());
      return spec.socket
                 ? RunSocketTraced(spec, inputs, ledgers.back().get())
                 : RunThreadTraced(spec, inputs, launch, ledgers.back().get());
    });
    if (!(ok = checker.Check(rep, "traced"))) {
      break;
    }
    traced.push_back(*rep);
    for (size_t launch = 0; launch < ledgers.size(); ++launch) {
      for (const ThreadLedger* t : ledgers[launch]->threads()) {
        if (t->role == Role::kSiteEngine) {
          engine_totals.Add(*t);
        } else if (t->role == Role::kCoordinator) {
          coordinator_totals.Add(*t);
        }
        ledger_window_ns += static_cast<double>(t->window_ns());
        ledger_capacity_ns += rep->launches[launch].elapsed_s * 1e9;
      }
    }
    last = std::move(ledgers);
  }

  auto median_of = [](const std::vector<Rep>& reps, auto f) {
    std::vector<double> v;
    for (const Rep& r : reps) {
      v.push_back(f(r));
    }
    return Median(std::move(v));
  };
  double traced_updates = 0.0;
  double traced_frames = 0.0;
  for (const Rep& r : traced) {
    traced_updates += static_cast<double>(r.updates);
    traced_frames += static_cast<double>(r.socket_frames_rx);
  }
  const RoleTotals& e = engine_totals;
  const RoleTotals& c = coordinator_totals;
  auto d = [](int64_t v) { return static_cast<double>(v); };
  const std::vector<std::pair<std::string, double>> metrics = {
      {"site_engine.self_ns_per_update",
       Ratio(d(e.window_ns - e.transport_ns), traced_updates)},
      {"site_engine.send_ns_per_update", Ratio(d(e.sends(e.ns)), traced_updates)},
      {"site_engine.recv_ns_per_update", Ratio(d(e.recvs(e.ns)), traced_updates)},
      {"site_engine.envs_per_send", Ratio(d(e.sends(e.envs)), d(e.sends(e.hits)))},
      {"site_engine.short_send_frac", Ratio(d(e.short_sends), d(e.try_sends))},
      {"coordinator.self_frac",
       Ratio(d(c.window_ns - c.transport_ns), d(c.window_ns))},
      {"coordinator.wait_frac",
       Ratio(d(c.of(c.ns, CallKind::kWait)), d(c.window_ns))},
      {"coordinator.send_ns_per_env", Ratio(d(c.sends(c.ns)), d(c.sends(c.envs)))},
      {"coordinator.envs_per_recv", Ratio(d(c.recvs(c.envs)), d(c.recvs(c.hits)))},
      {"ledger.unaccounted_frac",
       1.0 - Ratio(ledger_window_ns, ledger_capacity_ns)},
      {"trace.overhead_frac",
       1.0 - Ratio(median_of(traced, [](const Rep& r) { return r.updates_per_s(); }),
                   median_of(untraced, [](const Rep& r) { return r.updates_per_s(); }))},
      {"coordinator.rounds_per_mupdate",
       median_of(untraced,
                 [&](const Rep& r) { return Ratio(d(r.polls), d(r.updates) / 1e6); })},
      {"coordinator.msgs_per_kupdate",
       median_of(untraced,
                 [&](const Rep& r) { return Ratio(d(r.messages), d(r.updates) / 1e3); })},
      {"socket.envs_per_frame", Ratio(d(c.recvs(c.envs)), traced_frames)},
      {"socket.bytes_per_update",
       median_of(untraced,
                 [&](const Rep& r) { return Ratio(d(r.socket_bytes), d(r.updates)); })},
  };

  const std::string stem = run->dir + "/ledger-" + spec.name + "-" +
                           std::to_string(run->seed);
  if (!last.empty()) {
    JsonWriter detail;
    detail.BeginObject();
    detail.Key("workload").Value(spec.name);
    detail.Key("elapsed_s").Value(traced.back().elapsed_s);
    detail.Key("updates").Value(traced.back().updates);
    detail.Key("threads").BeginArray();
    for (const auto& ledger : last) {
      for (const ThreadLedger* t : ledger->threads()) {
        WriteThread(&detail, *t);
      }
    }
    detail.EndArray();
    detail.EndObject();
    for (const dcv::Status& s :
         {WriteTextFile(stem + ".json", detail.str()),
          WriteTextFile(stem + ".trace.json", last.back()->ChromeTrace())}) {
      if (!s.ok()) {
        checker.AddError(std::string(s.message()));
      }
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(spec.name);
  w.Key("seed").Value(static_cast<int64_t>(run->seed));
  w.Key("fingerprint");
  WriteFingerprint(&w);
  w.Key("untraced_reps").Value(static_cast<int64_t>(untraced.size()));
  w.Key("traced_reps").Value(static_cast<int64_t>(traced.size()));
  checker.WriteAccount(&w);
  w.Key("metrics").BeginObject();
  for (const auto& [name, value] : metrics) {
    w.Key(name).Value(value);
  }
  w.EndObject();
  w.Key("ledger").Value(stem + ".json");
  w.Key("chrome_trace").Value(stem + ".trace.json");
  w.EndObject();
  PrintLine(w);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

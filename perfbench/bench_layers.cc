// Isolated per-layer costs at the workloads' sizes (Google Benchmark).
//
//   bench_layers [--dir DIR] [--benchmark_filter=...]
//                [--benchmark_min_time=...] [--benchmark_format=json]
//
// Each benchmark times one layer through its public functions and sets a
// counter "items": the units of work (draws, envelopes, updates, epochs,
// rounds, values) one iteration does. run.py divides the time per
// iteration by it to get the per-layer metrics; the table in README.md
// says which end-to-end metric each one should move. The replay-sized
// trace file goes to DIR (default ".").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "histogram/equi_depth.h"
#include "io/block_reader.h"
#include "obs/metrics.h"
#include "runtime/coordinator.h"
#include "runtime/mailbox.h"
#include "runtime/site_engine.h"
#include "runtime/transport.h"
#include "runtime/wire.h"
#include "sim/channel.h"
#include "sim/local_scheme.h"
#include "sim/runner.h"
#include "threshold/fptas.h"
#include "trace/snmp_synth.h"
#include "trace/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dcv::ActorMessage;
using dcv::ActorMsgKind;
using dcv::Envelope;
using dcv::kCoordinatorId;

std::string g_dir = ".";
constexpr uint64_t kSeed = 1;

void SetItems(benchmark::State& state, double items) {
  state.counters["items"] =
      benchmark::Counter(items, benchmark::Counter::kAvgThreads);
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Envelope Alarm(int site) {
  ActorMessage m;
  m.kind = ActorMsgKind::kAlarm;
  m.epoch = 7;
  m.value = 999'999;
  return Envelope{site, kCoordinatorId, m};
}

std::vector<Envelope> AlarmBatch(size_t n, int sites) {
  std::vector<Envelope> batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(Alarm(static_cast<int>(i) % sites));
  }
  return batch;
}

// --- Value source: one draw per update, rotating over the slots' streams
// like the free-running engine does.
void BM_RngDraw(benchmark::State& state) {
  const size_t slots = static_cast<size_t>(state.range(0));
  std::vector<dcv::Rng> rngs;
  rngs.reserve(slots);
  for (size_t i = 0; i < slots; ++i) {
    rngs.emplace_back(kSeed + i);
  }
  constexpr int kDraws = 1024;
  size_t slot = 0;
  for (auto _ : state) {
    for (int k = 0; k < kDraws; ++k) {
      benchmark::DoNotOptimize(rngs[slot].UniformInt(0, kSyntheticMax));
      if (++slot == slots) {
        slot = 0;
      }
    }
  }
  SetItems(state, kDraws);
}
BENCHMARK(BM_RngDraw)->Arg(32)->Arg(1'000'000);

// --- The shared registry counter every engine bumps once per update.
dcv::obs::Counter g_counter;
void BM_CounterInc(benchmark::State& state) {
  constexpr int kIncs = 1024;
  for (auto _ : state) {
    for (int k = 0; k < kIncs; ++k) {
      g_counter.Increment();
    }
  }
  SetItems(state, kIncs);
}
BENCHMARK(BM_CounterInc)->Threads(1)->Threads(3)->UseRealTime();

// --- A transport that takes everything a free-running engine sends and
// shuts its sites down once each reported done: the engine runs alone.
class SinkTransport : public dcv::Transport {
 public:
  SinkTransport(int sites, int workers, size_t owned)
      : sites_(sites), workers_(workers), owned_(owned) {}
  int num_sites() const override { return sites_; }
  int num_workers() const override { return workers_; }
  int WorkerOf(int site) const override { return site % workers_; }
  int num_shards() const override { return 1; }
  int ShardOf(int) const override { return 0; }
  dcv::ShardLayout layout() const override {
    return *dcv::MakeShardLayout(sites_, 1);
  }
  bool Send(const Envelope& e) override {
    Take(e);
    return true;
  }
  size_t TrySendBatch(const std::vector<Envelope>& batch, size_t begin,
                      bool*) override {
    for (size_t i = begin; i < batch.size(); ++i) {
      Take(batch[i]);
    }
    return batch.size() - begin;
  }
  bool SendToShard(int, const Envelope&) override { return true; }
  bool TrySendToShard(int, const Envelope&) override { return true; }
  bool RecvShard(int, Envelope*) override { return false; }
  bool TryRecvShard(int, Envelope*) override { return false; }
  size_t RecvShardAll(int, std::vector<Envelope>*) override { return 0; }
  size_t RecvShardAllFor(int, std::vector<Envelope>*, int64_t,
                         bool*) override {
    return 0;
  }
  bool RecvWorker(int, Envelope*) override { return false; }
  bool TryRecvWorker(int, Envelope*) override { return false; }
  size_t RecvWorkerAll(int worker, std::vector<Envelope>* out) override {
    return TryRecvWorkerAll(worker, out);
  }
  size_t TryRecvWorkerAll(int worker, std::vector<Envelope>* out) override {
    if (done_ < owned_ || shut_down_) {
      return 0;
    }
    shut_down_ = true;
    ActorMessage stop;
    stop.kind = ActorMsgKind::kShutdown;
    for (size_t slot = 0; slot < owned_; ++slot) {
      out->push_back(Envelope{kCoordinatorId,
                              static_cast<int>(slot) * workers_ + worker,
                              stop});
    }
    return owned_;
  }
  void Shutdown() override {}

 private:
  void Take(const Envelope& e) {
    if (e.msg.kind == ActorMsgKind::kSiteDone) {
      ++done_;
    }
  }
  const int sites_;
  const int workers_;
  const size_t owned_;
  size_t done_ = 0;
  bool shut_down_ = false;
};

// --- SoA engine, free-running: worker 0 of a workload's three, its slots
// at the workload's alarm fraction, with a registry attached.
void BM_SiteEngineFree(benchmark::State& state) {
  auto spec = FindWorkload(state.range(0) == 32 ? "storm_32" : "fleet_1m",
                           /*smoke=*/false);
  const int64_t updates = state.range(1);
  dcv::obs::MetricsRegistry registry;
  Inputs inputs;
  inputs.seed = kSeed;
  const dcv::RuntimeOptions options =
      MakeOptions(*spec, inputs, 0, &registry);
  int64_t processed = 0;
  for (auto _ : state) {
    dcv::SiteEngine::Config cfg;
    cfg.worker = 0;
    cfg.num_workers = spec->workers;
    cfg.num_sites = spec->sites;
    for (int site = 0; site < spec->sites; site += spec->workers) {
      cfg.thresholds.push_back(options.thresholds[static_cast<size_t>(site)]);
    }
    cfg.synthetic_updates = updates;
    cfg.seed = kSeed;
    cfg.synthetic_max = kSyntheticMax;
    cfg.metrics = &registry;
    dcv::SiteEngine engine(std::move(cfg));
    SinkTransport sink(spec->sites, spec->workers, engine.num_slots());
    const auto t0 = std::chrono::steady_clock::now();
    engine.RunFree(&sink);
    state.SetIterationTime(Seconds(t0));
    processed = static_cast<int64_t>(engine.num_slots()) * updates;
  }
  SetItems(state, static_cast<double>(processed));
}
BENCHMARK(BM_SiteEngineFree)
    ->Args({32, 300'000})
    ->Args({1'000'000, 20})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// --- SoA engine in virtual time: one worker owning 30 sites, fed epoch
// starts by a scripted transport that takes the reports.
class EpochScript : public SinkTransport {
 public:
  EpochScript(int sites, int64_t epochs)
      : SinkTransport(sites, 1, static_cast<size_t>(sites)),
        sites_(sites),
        epochs_(epochs) {}
  bool SendBatch(const std::vector<Envelope>&) override { return true; }
  size_t RecvWorkerAll(int, std::vector<Envelope>* out) override {
    ActorMessage m;
    m.kind = next_ < epochs_ ? ActorMsgKind::kEpochStart
                             : ActorMsgKind::kShutdown;
    m.epoch = next_++;
    m.flag = true;
    for (int site = 0; site < sites_; ++site) {
      out->push_back(Envelope{kCoordinatorId, site, m});
    }
    return static_cast<size_t>(sites_);
  }

 private:
  const int sites_;
  const int64_t epochs_;
  int64_t next_ = 0;
};

void BM_SiteEngineVirtual(benchmark::State& state) {
  constexpr int kSites = 30;
  constexpr int64_t kEpochs = 4096;
  dcv::Rng rng(kSeed);
  dcv::obs::MetricsRegistry registry;
  dcv::SiteEngine::Config base;
  base.num_sites = kSites;
  base.metrics = &registry;
  for (int site = 0; site < kSites; ++site) {
    base.thresholds.push_back(kSyntheticMax * 99 / 100);
    std::vector<int64_t> series;
    for (int64_t t = 0; t < kEpochs; ++t) {
      series.push_back(rng.UniformInt(0, kSyntheticMax));
    }
    base.series.push_back(std::move(series));
  }
  for (auto _ : state) {
    dcv::SiteEngine engine(base);
    EpochScript script(kSites, kEpochs);
    const auto t0 = std::chrono::steady_clock::now();
    engine.RunVirtual(&script);
    state.SetIterationTime(Seconds(t0));
  }
  SetItems(state, kEpochs);
}
BENCHMARK(BM_SiteEngineVirtual)->UseManualTime();

// --- Mailbox batches of 64, one thread: push cost and drain cost apart.
constexpr size_t kBatch = 64;
constexpr int kBatches = 16;

void BM_MailboxPushAll(benchmark::State& state) {
  dcv::Mailbox<Envelope> box(kBatch * kBatches);
  std::vector<Envelope> batch = AlarmBatch(kBatch, 32);
  std::vector<Envelope> out;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < kBatches; ++b) {
      bool closed = false;
      benchmark::DoNotOptimize(box.TryPushAll(&batch, 0, &closed));
    }
    state.SetIterationTime(Seconds(t0));
    out.clear();
    box.TryPopAll(&out);
  }
  SetItems(state, kBatch * kBatches);
}
BENCHMARK(BM_MailboxPushAll)->UseManualTime();

void BM_MailboxPopAll(benchmark::State& state) {
  dcv::Mailbox<Envelope> box(kBatch * kBatches);
  std::vector<Envelope> batch = AlarmBatch(kBatch, 32);
  std::vector<Envelope> out;
  out.reserve(kBatch);
  for (auto _ : state) {
    double seconds = 0.0;
    for (int b = 0; b < kBatches; ++b) {
      bool closed = false;
      box.TryPushAll(&batch, 0, &closed);
      out.clear();
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(box.TryPopAll(&out));
      seconds += Seconds(t0);
    }
    state.SetIterationTime(seconds);
  }
  SetItems(state, kBatch * kBatches);
}
BENCHMARK(BM_MailboxPopAll)->UseManualTime();

// --- Producer and consumer threads through a box the size of storm_32's
// coordinator inbox (2 * 32 + 16).
void BM_MailboxHandoff(benchmark::State& state) {
  constexpr int kProduced = 2048;
  const std::vector<Envelope> batch = AlarmBatch(kBatch, 32);
  for (auto _ : state) {
    dcv::Mailbox<Envelope> box(2 * 32 + 16);
    std::thread producer([&] {
      for (int b = 0; b < kProduced; ++b) {
        std::vector<Envelope> copy = batch;
        box.PushAll(std::move(copy));
      }
    });
    std::vector<Envelope> out;
    size_t received = 0;
    while (received < kProduced * kBatch) {
      out.clear();
      received += box.PopAll(&out);
    }
    producer.join();
  }
  SetItems(state, kProduced * kBatch);
}
BENCHMARK(BM_MailboxHandoff)->UseRealTime()->Unit(benchmark::kMicrosecond);

// --- ThreadTransport::TrySendBatch of 64 alarms into 2 shard inboxes of a
// 32-site, 3-worker fabric; the drains between attempts are not timed.
void BM_TransportTrySendBatch(benchmark::State& state) {
  auto transport = dcv::ThreadTransport::Create(32, 3, 0, 0, 2);
  const std::vector<Envelope> batch = AlarmBatch(kBatch, 32);
  Envelope sink;
  for (auto _ : state) {
    double seconds = 0.0;
    for (size_t sent = 0; sent < batch.size();) {
      const auto t0 = std::chrono::steady_clock::now();
      sent += (*transport)->TrySendBatch(batch, sent);
      seconds += Seconds(t0);
      for (int s = 0; s < 2; ++s) {
        while ((*transport)->TryRecvShard(s, &sink)) {
        }
      }
    }
    state.SetIterationTime(seconds);
  }
  SetItems(state, kBatch);
}
BENCHMARK(BM_TransportTrySendBatch)->UseManualTime();

// --- kEnvelopeBatch wire frames of 64 envelopes.
void BM_WireEncode(benchmark::State& state) {
  const std::vector<Envelope> batch = AlarmBatch(kBatch, 10'000);
  std::string frame;
  uint64_t seq = 0;
  for (auto _ : state) {
    frame.clear();
    dcv::AppendEnvelopeBatchFrame(batch.data(), batch.size(), &frame, ++seq);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  SetItems(state, kBatch);
  state.counters["bytes_per_env"] =
      static_cast<double>(frame.size()) / static_cast<double>(kBatch);
}
BENCHMARK(BM_WireEncode);

void BM_WireDecode(benchmark::State& state) {
  const std::vector<Envelope> batch = AlarmBatch(kBatch, 10'000);
  std::string stream;
  for (int b = 0; b < kBatches; ++b) {
    dcv::AppendEnvelopeBatchFrame(batch.data(), batch.size(), &stream, b + 1);
  }
  dcv::WireFrame frame;
  for (auto _ : state) {
    dcv::FrameReader reader;
    reader.Append(reinterpret_cast<const uint8_t*>(stream.data()),
                  stream.size());
    size_t envs = 0;
    while (true) {
      auto next = reader.Next(&frame);
      if (!next.ok() || !*next) {
        break;
      }
      envs += frame.batch.size();
    }
    if (envs != kBatch * kBatches) {
      state.SkipWithError("wire decode lost envelopes");
      break;
    }
  }
  SetItems(state, kBatch * kBatches);
}
BENCHMARK(BM_WireDecode);

// --- Flat coordinator, free-running, over a transport that answers each
// poll round at once: the coordinator's own cost per round.
class PollScript : public SinkTransport {
 public:
  PollScript(int sites, int rounds)
      : SinkTransport(sites, 1, 0), sites_(sites), rounds_(rounds) {
    inbox_.push_back(Alarm(0));
  }
  bool SendBatch(const std::vector<Envelope>& batch) override {
    if (batch.empty() || batch[0].msg.kind != ActorMsgKind::kPollRequest) {
      return true;  // The shutdown broadcast.
    }
    for (int site = 0; site < sites_; ++site) {
      ActorMessage m;
      m.kind = ActorMsgKind::kPollResponse;
      m.epoch = batch[0].msg.epoch;
      m.value = 1;
      inbox_.push_back(Envelope{site, kCoordinatorId, m});
    }
    if (++round_ < rounds_) {
      inbox_.push_back(Alarm(round_ % sites_));
    } else {
      for (int site = 0; site < sites_; ++site) {
        ActorMessage done;
        done.kind = ActorMsgKind::kSiteDone;
        inbox_.push_back(Envelope{site, kCoordinatorId, done});
      }
    }
    return true;
  }
  size_t RecvShardAll(int, std::vector<Envelope>* out) override {
    const size_t n = inbox_.size();
    out->insert(out->end(), inbox_.begin(), inbox_.end());
    inbox_.clear();
    return n;
  }

 private:
  const int sites_;
  const int rounds_;
  int round_ = 0;
  std::vector<Envelope> inbox_;
};

void BM_CoordinatorPollRound(benchmark::State& state) {
  const int sites = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  dcv::obs::MetricsRegistry registry;
  dcv::CoordinatorActor::Config cfg;
  cfg.num_sites = sites;
  cfg.weights.assign(static_cast<size_t>(sites), 1);
  cfg.global_threshold = static_cast<int64_t>(sites) * kSyntheticMax;
  cfg.thresholds.assign(static_cast<size_t>(sites), kSyntheticMax * 9 / 10);
  cfg.domain_max.assign(static_cast<size_t>(sites), kSyntheticMax);
  cfg.metrics = &registry;
  for (auto _ : state) {
    dcv::CoordinatorActor coordinator(cfg);
    if (!coordinator.Init().ok()) {
      state.SkipWithError("coordinator init failed");
      break;
    }
    PollScript script(sites, rounds);
    dcv::RuntimeResult result;
    const auto t0 = std::chrono::steady_clock::now();
    const dcv::Status status = coordinator.RunFree(&script, &result);
    state.SetIterationTime(Seconds(t0));
    if (!status.ok() || result.polled_epochs != rounds) {
      state.SkipWithError("scripted poll rounds did not complete");
      break;
    }
  }
  SetItems(state, rounds);
}
BENCHMARK(BM_CoordinatorPollRound)
    ->Args({32, 2048})
    ->Args({10'000, 32})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// --- Channel::PollSites over 30 sites, perfect and replay_virtual's
// 5% loss with acks.
void BM_ChannelPollSites(benchmark::State& state) {
  constexpr int kSites = 30;
  dcv::FaultSpec faults;
  if (state.range(0) != 0) {
    faults.loss = 0.05;
    faults.retry.enable_acks = true;
  }
  dcv::Channel channel(faults);
  dcv::MessageCounter counter;
  if (!channel.Init(kSites, &counter).ok()) {
    state.SkipWithError("channel init failed");
    return;
  }
  const std::vector<int64_t> values(kSites, 1000);
  const std::vector<int64_t> weights(kSites, 1);
  const std::vector<int64_t> pessimistic(kSites, 4000);
  int64_t epoch = 0;
  for (auto _ : state) {
    channel.BeginEpoch(epoch++);
    benchmark::DoNotOptimize(channel.PollSites(values, weights, pessimistic));
  }
  SetItems(state, kSites);
}
BENCHMARK(BM_ChannelPollSites)->Arg(0)->Arg(1);

// --- One replay_virtual trace, shared by the replay-sized benchmarks and
// made once.
const ReplayTrace* ReplayInput() {
  static const Inputs inputs = [] {
    auto spec = FindWorkload("replay_virtual", /*smoke=*/false);
    spec->traces = 1;
    auto made = MakeInputs(*spec, kSeed, g_dir);
    return made.ok() ? *made : Inputs{};
  }();
  return inputs.traces.empty() ? nullptr : &inputs.traces[0];
}

// --- FPTAS threshold selection for n sites, on equi-depth histograms of
// a training week, exactly as the replay's plan is built.
void BM_FptasSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dcv::SnmpTraceOptions gen;
  gen.num_sites = n;
  gen.num_weeks = 2;
  gen.seed = kSeed;
  auto trace = dcv::GenerateSnmpTrace(gen);
  const int64_t week = dcv::EpochsPerWeek(gen);
  auto training = trace->Slice(0, week);
  auto eval = trace->Slice(week, trace->num_epochs());
  std::vector<std::unique_ptr<dcv::EquiDepthHistogram>> models;
  dcv::ThresholdProblem problem;
  problem.budget = *dcv::ThresholdForOverflowFraction(*eval, {}, 0.01);
  for (int i = 0; i < n; ++i) {
    std::vector<int64_t> series = training->SiteSeries(i);
    const int64_t max = *std::max_element(series.begin(), series.end());
    auto h = dcv::EquiDepthHistogram::Build(std::move(series),
                                            4 * std::max<int64_t>(max, 1), 100);
    models.push_back(std::make_unique<dcv::EquiDepthHistogram>(std::move(*h)));
    problem.vars.push_back(
        dcv::ProblemVar{i, 1, dcv::CdfView(models.back().get(), false)});
  }
  for (auto _ : state) {
    auto solution = ReplaySolver().Solve(problem);
    if (!solution.ok()) {
      state.SkipWithError("fptas failed");
      break;
    }
    benchmark::DoNotOptimize(solution->thresholds.data());
  }
  SetItems(state, 1);
}
BENCHMARK(BM_FptasSolve)->Arg(10)->Arg(30)->Unit(benchmark::kMillisecond);

// --- dcvb decode of the replay trace file: BlockReader::Next to the end.
void BM_IoDecode(benchmark::State& state) {
  const ReplayTrace* trace = ReplayInput();
  dcv::io::ColumnBlock block;
  int64_t values = 0;
  for (auto _ : state) {
    if (trace == nullptr) {
      state.SkipWithError("cannot make the replay trace");
      break;
    }
    auto reader = dcv::io::BlockReader::Open(trace->path);
    if (!reader.ok()) {
      state.SkipWithError("cannot open the replay trace");
      break;
    }
    values = 0;
    while (true) {
      auto more = (*reader)->Next(&block);
      if (!more.ok() || !*more) {
        break;
      }
      values += block.rows * static_cast<int64_t>(block.columns.size());
    }
  }
  SetItems(state, static_cast<double>(values));
}
BENCHMARK(BM_IoDecode)->Unit(benchmark::kMillisecond);

// --- The lockstep simulator on the replay trace: the single-threaded
// reference for replay_virtual's epoch time.
void BM_LockstepEpoch(benchmark::State& state) {
  const ReplayTrace* trace = ReplayInput();
  if (trace == nullptr) {
    state.SkipWithError("cannot make the replay trace");
    return;
  }
  auto traces = LoadReplay(*trace);
  if (!traces.ok()) {
    state.SkipWithError("cannot load the replay trace");
    return;
  }
  Inputs inputs;
  inputs.traces.push_back(*trace);
  auto spec = FindWorkload("replay_virtual", /*smoke=*/false);
  const dcv::RuntimeOptions options = MakeOptions(*spec, inputs, 0, nullptr);
  dcv::SimOptions sim;
  sim.global_threshold = options.global_threshold;
  sim.faults = options.faults;
  for (auto _ : state) {
    dcv::LocalThresholdScheme::Options scheme_options;
    scheme_options.solver = &ReplaySolver();
    dcv::LocalThresholdScheme scheme(scheme_options);
    auto result = dcv::RunSimulation(&scheme, sim, traces->training,
                                     traces->eval);
    if (!result.ok() ||
        result->messages.total() != trace->lockstep.messages.total()) {
      state.SkipWithError("lockstep run diverged");
      break;
    }
  }
  SetItems(state, static_cast<double>(traces->eval.num_epochs()));
}
BENCHMARK(BM_LockstepEpoch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Strip --dir before Google Benchmark sees the flags.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dir=", 0) == 0) {
      perfbench::g_dir = arg.substr(6);
    } else if (arg == "--dir" && i + 1 < argc) {
      perfbench::g_dir = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) {
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

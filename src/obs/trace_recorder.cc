#include "obs/trace_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/json_writer.h"

namespace dcv::obs {

std::string_view TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kLocalAlarm:
      return "local_alarm";
    case TraceEventKind::kPollStart:
      return "poll_start";
    case TraceEventKind::kPollEnd:
      return "poll_end";
    case TraceEventKind::kThresholdRecompute:
      return "threshold_recompute";
    case TraceEventKind::kThresholdUpdate:
      return "threshold_update";
    case TraceEventKind::kFilterReport:
      return "filter_report";
    case TraceEventKind::kFilterUpdate:
      return "filter_update";
    case TraceEventKind::kBandChange:
      return "band_change";
    case TraceEventKind::kWidthRealloc:
      return "width_realloc";
    case TraceEventKind::kRetransmission:
      return "retransmission";
    case TraceEventKind::kGiveUp:
      return "give_up";
    case TraceEventKind::kCrash:
      return "crash";
    case TraceEventKind::kRecovery:
      return "recovery";
    case TraceEventKind::kResync:
      return "resync";
    case TraceEventKind::kDegraded:
      return "degraded";
    case TraceEventKind::kSolverSolve:
      return "solver_solve";
    case TraceEventKind::kViolation:
      return "violation";
    case TraceEventKind::kWorkerReconnect:
      return "worker_reconnect";
    case TraceEventKind::kFrameReplay:
      return "frame_replay";
    case TraceEventKind::kTelemetryFlush:
      return "telemetry_flush";
  }
  return "?";
}

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void TraceRecorder::Record(TraceEventKind kind, int64_t epoch, int32_t site,
                           int64_t value, int64_t duration_us) {
  TraceEvent e;
  e.kind = kind;
  e.epoch = epoch;
  e.site = site;
  e.value = value;
  e.duration_us = duration_us;
  Record(e);
}

void TraceRecorder::Record(const TraceEvent& e) {
  TraceEvent stamped = e;
  if (stamped.ts_us == 0 && wall_clock_.load(std::memory_order_relaxed)) {
    stamped.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(stamped);
    return;
  }
  wrapped_ = true;
  ring_[next_] = stamped;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!wrapped_) {
    return ring_;
  }
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<ptrdiff_t>(next_));
  return out;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

int64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  dropped_ = 0;
}

void TraceRecorder::DeclareSites(int num_sites) {
  std::lock_guard<std::mutex> lock(mu_);
  declared_sites_ = std::max(declared_sites_, num_sites);
}

std::string TraceRecorder::ToJsonl() const {
  std::string out;
  for (const TraceEvent& e : Events()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("kind").Value(TraceEventKindName(e.kind));
    w.Key("epoch").Value(e.epoch);
    w.Key("site").Value(static_cast<int64_t>(e.site));
    w.Key("value").Value(e.value);
    if (e.duration_us != 0) {
      w.Key("duration_us").Value(e.duration_us);
    }
    // Distributed-trace fields are emitted only when set, so legacy
    // single-process JSONL output is byte-identical.
    if (e.ts_us != 0) {
      w.Key("ts_us").Value(e.ts_us);
    }
    if (e.process != 0) {
      w.Key("process").Value(static_cast<int64_t>(e.process));
    }
    w.EndObject();
    out += w.str();
    out += '\n';
  }
  return out;
}

std::string TraceRecorder::ToChromeJson() const {
  // Track layout: tid 0 is the coordinator (or the worker lane itself in a
  // worker pid), and tid i+1 is site i. Legacy single-process traces keep
  // pid 1 throughout; a merged distributed trace (any event with a
  // wall-clock ts_us) emits pid 1+process so Perfetto shows coordinator /
  // worker process groups.
  const std::vector<TraceEvent> events = Events();
  int num_sites;
  {
    std::lock_guard<std::mutex> lock(mu_);
    num_sites = declared_sites_;
  }
  bool wall_mode = false;
  int64_t wall_base = 0;
  int max_process = 0;
  for (const TraceEvent& e : events) {
    num_sites = std::max(num_sites, e.site + 1);
    max_process = std::max(max_process, e.process);
    if (e.ts_us != 0) {
      wall_base = wall_mode ? std::min(wall_base, e.ts_us) : e.ts_us;
      wall_mode = true;
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("traceEvents").BeginArray();

  auto metadata = [&](int64_t pid, int64_t tid, const std::string& name,
                      int64_t sort) {
    w.BeginObject();
    w.Key("name").Value("thread_name");
    w.Key("ph").Value("M");
    w.Key("pid").Value(pid);
    w.Key("tid").Value(tid);
    w.Key("args").BeginObject().Key("name").Value(name).EndObject();
    w.EndObject();
    w.BeginObject();
    w.Key("name").Value("thread_sort_index");
    w.Key("ph").Value("M");
    w.Key("pid").Value(pid);
    w.Key("tid").Value(tid);
    w.Key("args").BeginObject().Key("sort_index").Value(sort).EndObject();
    w.EndObject();
  };
  auto process_name = [&](int64_t pid, const std::string& name) {
    w.BeginObject();
    w.Key("name").Value("process_name");
    w.Key("ph").Value("M");
    w.Key("pid").Value(pid);
    w.Key("tid").Value(int64_t{0});
    w.Key("args").BeginObject().Key("name").Value(name).EndObject();
    w.EndObject();
  };

  if (wall_mode) {
    // Process lanes only exist in merged multi-process traces; the legacy
    // single-process export stays byte-identical without them.
    process_name(1, "coordinator");
  }
  metadata(1, 0, "coordinator", 0);
  if (wall_mode) {
    // Merged trace: site lanes live in whichever worker pid produced their
    // events; worker pids get their own lane plus process metadata.
    for (int p = 1; p <= max_process; ++p) {
      process_name(1 + p, "worker " + std::to_string(p - 1));
      metadata(1 + p, 0, "worker " + std::to_string(p - 1), 0);
    }
    std::vector<std::pair<int32_t, int32_t>> seen;  // (process, site)
    for (const TraceEvent& e : events) {
      if (e.site < 0) {
        continue;
      }
      std::pair<int32_t, int32_t> key{e.process, e.site};
      if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
        seen.push_back(key);
        metadata(1 + e.process, e.site + 1,
                 "site " + std::to_string(e.site), e.site + 1);
      }
    }
  } else {
    for (int i = 0; i < num_sites; ++i) {
      metadata(1, i + 1, "site " + std::to_string(i), i + 1);
    }
  }

  for (const TraceEvent& e : events) {
    const int64_t pid = wall_mode ? 1 + e.process : 1;
    const int64_t tid = e.site >= 0 ? e.site + 1 : 0;
    // One epoch = 1 ms = 1000 us in the legacy timebase; wall mode uses
    // microseconds since the earliest stamped event.
    const int64_t ts =
        e.ts_us != 0 ? e.ts_us - wall_base : e.epoch * 1000;
    w.BeginObject();
    w.Key("name").Value(TraceEventKindName(e.kind));
    w.Key("cat").Value("dcv");
    if (e.duration_us > 0) {
      w.Key("ph").Value("X");
      w.Key("dur").Value(e.duration_us);
    } else {
      w.Key("ph").Value("i");
      w.Key("s").Value("t");
    }
    w.Key("ts").Value(ts);
    w.Key("pid").Value(pid);
    w.Key("tid").Value(tid);
    w.Key("args")
        .BeginObject()
        .Key("epoch")
        .Value(e.epoch)
        .Key("value")
        .Value(e.value)
        .EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

namespace {

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open '" + path + "' for writing");
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  int close_rc = std::fclose(f);
  if (written != contents.size() || close_rc != 0) {
    return InternalError("short write to '" + path + "'");
  }
  return OkStatus();
}

}  // namespace

Status TraceRecorder::WriteJsonl(const std::string& path) const {
  return WriteFile(path, ToJsonl());
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, ToChromeJson());
}

}  // namespace dcv::obs

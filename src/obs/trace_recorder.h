#ifndef DCV_OBS_TRACE_RECORDER_H_
#define DCV_OBS_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dcv::obs {

/// Typed per-epoch protocol events captured during a simulation run.
/// Site-scoped events carry the site index; coordinator-scoped events use
/// TraceRecorder::kCoordinator.
enum class TraceEventKind {
  kLocalAlarm = 0,       ///< Site's local constraint violated (value = X_i).
  kPollStart,            ///< Coordinator starts a poll round.
  kPollEnd,              ///< Poll round done (value = responses, dur set).
  kThresholdRecompute,   ///< Coordinator recomputed thresholds (dur set).
  kThresholdUpdate,      ///< New local threshold pushed (value = T_i).
  kFilterReport,         ///< Site filter/band/tracking report (value).
  kFilterUpdate,         ///< Coordinator filter/width installation.
  kBandChange,           ///< Multi-level band transition (value = band).
  kWidthRealloc,         ///< Adaptive-filter width reallocation round.
  kRetransmission,       ///< Reliable-send retry (value = attempt).
  kGiveUp,               ///< Reliable send exhausted every retry.
  kCrash,                ///< Site went down this epoch.
  kRecovery,             ///< Site came back up this epoch.
  kResync,               ///< Recovery state re-sync pushed to a site.
  kDegraded,             ///< Poll resolved with a substituted value.
  kSolverSolve,          ///< Threshold solver run (dur set).
  kViolation,            ///< Ground-truth violation (value = 1 if detected).
  // Socket link recovery and telemetry lifecycle (runtime only).
  kWorkerReconnect,      ///< Worker TCP link resumed (value = worker).
  kFrameReplay,          ///< Frames retransmitted on resume (value = count).
  kTelemetryFlush,       ///< Worker pushed a telemetry frame (value = bytes).
  kLastKind = kTelemetryFlush,
};

inline constexpr int kNumTraceEventKinds =
    static_cast<int>(TraceEventKind::kLastKind) + 1;

std::string_view TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kLocalAlarm;
  int64_t epoch = 0;
  int32_t site = -1;        ///< -1 = coordinator.
  int64_t value = 0;        ///< Kind-specific payload.
  int64_t duration_us = 0;  ///< Wall time for span-like events, else 0.
  // Distributed-trace extensions (all default to the legacy single-process
  // epoch timebase, so simulator callers are unchanged).
  int64_t ts_us = 0;   ///< Wall-clock µs (coordinator clock); 0 = use epoch.
  int32_t process = 0; ///< Lane: 0 = coordinator process, k+1 = worker k.
};

/// Bounded ring buffer of TraceEvents with JSONL and Chrome trace_event
/// export. Recording is thread-safe and allocation-free after construction;
/// when the buffer is full the oldest events are overwritten (dropped() says
/// how many). Schemes/channel/runner hold a possibly-null TraceRecorder*
/// and record via the DCV_OBS_EVENT macro, so the disabled path costs one
/// branch per site-epoch.
class TraceRecorder {
 public:
  static constexpr int32_t kCoordinator = -1;

  explicit TraceRecorder(size_t capacity = 1 << 16);

  void Record(TraceEventKind kind, int64_t epoch, int32_t site = kCoordinator,
              int64_t value = 0, int64_t duration_us = 0);

  /// Full-struct overload for the distributed-trace fields (wall-clock
  /// timestamp, process lane).
  void Record(const TraceEvent& e);

  /// Opt-in wall-clock stamping: every subsequently recorded event whose
  /// ts_us is 0 gets the current wall time (system_clock µs) at Record
  /// time. Off by default so single-process simulator traces keep their
  /// epoch timebase (and byte-identical exports); the distributed runtime
  /// enables it so merged traces line up across processes.
  void EnableWallClock() { wall_clock_.store(true, std::memory_order_relaxed); }

  /// Oldest-first copy of the buffered events.
  std::vector<TraceEvent> Events() const;

  size_t size() const;
  int64_t dropped() const;
  void Clear();

  /// Declares how many site tracks the Chrome export should emit even when
  /// some sites never produced an event (one track per site is the
  /// contract). The runner calls this with the run's site count.
  void DeclareSites(int num_sites);

  /// One JSON object per line:
  ///   {"kind":"local_alarm","epoch":12,"site":3,"value":97}
  /// (duration_us included only when nonzero).
  std::string ToJsonl() const;

  /// Chrome trace_event JSON (chrome://tracing / Perfetto): one named
  /// thread track per site plus a coordinator track; events with a duration
  /// become complete ("X") slices, the rest instants ("i"). Timebase: one
  /// epoch = 1 ms, so ts = epoch * 1000 us. When any event carries a
  /// wall-clock ts_us (a merged distributed trace), the export switches to
  /// wall time relative to the earliest stamped event, emits one Chrome pid
  /// per process lane (coordinator = pid 1, worker k = pid 2+k).
  std::string ToChromeJson() const;

  Status WriteJsonl(const std::string& path) const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> wall_clock_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t capacity_;
  size_t next_ = 0;    ///< Next write position once the ring has wrapped.
  bool wrapped_ = false;
  int64_t dropped_ = 0;
  int declared_sites_ = 0;
};

}  // namespace dcv::obs

// Null-safe event recording that compiles out entirely under
// -DDCV_OBS_DISABLE, keeping the perfect-channel fast path allocation- and
// branch-free for builds that want to prove observability costs nothing.
#ifdef DCV_OBS_DISABLE
#define DCV_OBS_EVENT(recorder, ...) (void)0
#define DCV_OBS_COUNT(counter, n) (void)0
#else
#define DCV_OBS_EVENT(recorder, ...)      \
  do {                                    \
    if ((recorder) != nullptr) {          \
      (recorder)->Record(__VA_ARGS__);    \
    }                                     \
  } while (0)
#define DCV_OBS_COUNT(counter, n)         \
  do {                                    \
    if ((counter) != nullptr) {           \
      (counter)->Increment(n);            \
    }                                     \
  } while (0)
#endif

#endif  // DCV_OBS_TRACE_RECORDER_H_

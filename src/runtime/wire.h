#ifndef DCV_RUNTIME_WIRE_H_
#define DCV_RUNTIME_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/actor_message.h"

namespace dcv {

// Binary framing for the socket transport. Every frame on the wire is
//
//   u32  payload length (little-endian, excludes the prefix itself)
//   u8   wire version (kWireVersion)
//   u8   frame type (FrameType)
//   ...  type-specific body, fixed layout, little-endian
//
// The version byte leads every payload so an incompatible peer is detected
// on the first frame instead of producing garbled envelopes. Length is
// bounded by kMaxFramePayload; anything larger is treated as a corrupt or
// hostile stream and fails decoding rather than allocating unboundedly.
//
// Version 2 adds crash-recovery machinery: envelope frames carry a
// per-connection-direction sequence number (for replay dedup after a
// reconnect), hellos carry a generation counter (fences stale connections)
// plus the receiver's high-water mark (tells the peer where to resume),
// and frame types 3 and 4 carried a versioned shard-layout push and its
// ack (retired in v7).
//
// Version 3 adds the distributed telemetry plane: the Hello/HelloAck
// handshake carries NTP-style wall-clock timestamps (t1 worker send, t2
// coordinator receive, t3 coordinator send) so the worker can estimate its
// clock offset from the coordinator, and kTelemetry frames carry a full
// serialized metrics-registry snapshot plus a batch of wall-stamped trace
// events from a worker process. Telemetry frames are unsequenced (seq 0,
// cumulative latest-wins snapshots), so reconnect replay/dedup never
// double-counts them, and they alone may exceed kMaxFramePayload (up to
// kMaxTelemetryPayload).
//
// Version 4 adds kEnvelopeBatch: one length-prefixed frame carrying K
// routed envelopes (a worker's coalesced per-epoch update burst) instead
// of K separate single-envelope frames — count(u32), then K fixed-layout
// envelope bodies, then ONE sequence number for the whole frame. Batches
// share the single-envelope replay machinery wholesale: the frame is one
// sent-ring entry under one seq, so reconnect replay retransmits it
// atomically and the receiver's high-water-mark dedup accepts or drops
// all K envelopes together — a batch can never be half-applied after a
// resume. Batch frames may exceed kMaxFramePayload (up to
// kMaxBatchPayload, type-peeked like telemetry).
//
// Version 5 removes the single-envelope frame (type 0, now an unknown
// type): a lone envelope travels as a kEnvelopeBatch of one, 4 bytes more.
// A v4 peer fails at the hello on the version byte.
//
// Version 6 keeps every layout and changes one meaning: a kPollRequest or
// kShutdown envelope is a range (CoveredEnd in actor_message.h). Its
// `value` is the end of the site range it covers on the receiving worker,
// so a poll round or a shutdown sends one envelope per worker instead of
// one per site. A v5 worker would answer one site per request and hang
// the round; the version byte makes it fail at the hello instead.
//
// Version 7 removes the layout frames (types 3 and 4, now unknown types):
// a run's site->shard layout is fixed when the coordinator starts, and it
// is coordinator-local, so nothing about it crosses the wire. A v6 peer
// fails at the hello on the version byte, not on a layout push.
//
// Version 8 keeps every layout and gives the flag of a kPollRequest a
// meaning: a flagged range is answered by its addressed site with one
// kPollResponse carrying the sum of the covered sites' values
// (actor_message.h). A v7 worker would ignore the flag and answer per
// site, so a summed round would resolve on the wrong values; the version
// byte makes it fail at the hello instead.
//
// Version 9 keeps every layout and gives the value of a kEpochStart a
// meaning: it is the end of a window of epochs [epoch, value) the site
// observes at once, reporting only its alarmed epochs and the last one,
// and a kPollRequest names the epoch of that window whose value it reads
// (actor_message.h). A v8 worker would observe one epoch per start, so a
// window would hang; the version byte makes it fail at the hello instead.
//
// Version 10 keeps every layout and takes a meaning away: the flag of a
// kEpochStart no longer says the site is up. A site alarms whenever it
// crosses its threshold, and the coordinator's channel drops a down
// site's reports. A v9 worker would read the unset flag as "down" and
// never alarm; the version byte makes it fail at the hello instead.

inline constexpr uint8_t kWireVersion = 10;

/// Handshake magic ("DCVS"): rejects a non-dcv peer on byte one of the
/// hello body instead of mid-run.
inline constexpr uint32_t kWireMagic = 0x53564344;

/// Largest fixed frame (the hello ack) is < 64 bytes. The cap exists
/// purely to bound damage from a corrupt length prefix.
inline constexpr uint32_t kMaxFramePayload = 4096;

/// kTelemetry frames carry whole registry snapshots (name strings, bucket
/// arrays, trace-event batches) and get their own, larger cap. The frame
/// type is peeked before accepting an over-kMaxFramePayload length so a
/// corrupt prefix still can't force a large allocation for data frames.
inline constexpr uint32_t kMaxTelemetryPayload = 1u << 20;

/// Most envelopes one kEnvelopeBatch frame may carry. Writers chunk larger
/// bursts; the decoder rejects bigger counts so a corrupt count field can't
/// force an oversized allocation.
inline constexpr uint32_t kMaxBatchEnvelopes = 4096;

/// Bytes of one envelope body in a kEnvelopeBatch frame: from, to (4 each),
/// kind, flag (1 each), epoch, value (8 each).
inline constexpr size_t kEnvelopeWireBytes = 26;

/// Payload cap for kEnvelopeBatch frames: count + kMaxBatchEnvelopes
/// envelope bodies + seq fits comfortably. Like kMaxTelemetryPayload, the
/// frame type is peeked before accepting an over-kMaxFramePayload length.
inline constexpr uint32_t kMaxBatchPayload = 1u << 18;

/// Types 0 (the single-envelope frame before v5) and 3-4 (the layout
/// frames before v7) stay unassigned, so an old peer's frame of those types
/// decodes as an unknown frame type.
enum class FrameType : uint8_t {
  kHello = 1,         ///< Worker -> coordinator, first frame after connect.
  kHelloAck = 2,      ///< Coordinator -> worker, handshake verdict + mode.
  kTelemetry = 5,     ///< Worker -> coordinator, metrics + trace snapshot.
  kEnvelopeBatch = 6, ///< K routed envelopes under one length prefix + seq.
};

/// Worker self-identification, sent once per connection. `generation`
/// starts at 0 on the first connect and increments on every reconnect;
/// the coordinator fences any hello whose generation is not strictly newer
/// than the connection it already holds. `last_seq_received` is the highest
/// envelope sequence number the worker has seen from the coordinator, so
/// the coordinator can replay exactly the suffix the worker missed.
struct HelloFrame {
  uint32_t magic = kWireMagic;
  int32_t worker = 0;       ///< This connection's worker index.
  int32_t num_workers = 0;  ///< Worker's view of the fabric shape.
  int32_t num_sites = 0;
  uint32_t generation = 0;
  uint64_t last_seq_received = 0;
  int64_t t1_us = 0;  ///< Worker wall clock (µs) when the hello was sent.
};

/// Coordinator's handshake reply. `ok == 0` means the hello was rejected
/// (shape mismatch, duplicate worker, stale generation) and the connection
/// is about to close. `last_seq_received` mirrors the worker-side field:
/// the highest envelope sequence the coordinator has seen from this worker.
struct HelloAckFrame {
  uint32_t magic = kWireMagic;
  uint8_t ok = 0;
  uint8_t virtual_time = 0;  ///< Run mode the worker must adopt.
  int32_t num_sites = 0;
  int32_t num_workers = 0;
  uint32_t generation = 0;
  uint64_t last_seq_received = 0;
  int64_t t1_us = 0;  ///< Echo of the hello's t1 (lets the worker match).
  int64_t t2_us = 0;  ///< Coordinator wall clock when the hello arrived.
  int64_t t3_us = 0;  ///< Coordinator wall clock when this ack was sent.
};

/// One worker trace event inside a telemetry frame. Timestamps are in the
/// worker's own clock; the coordinator applies the frame's clock offset
/// when merging into the run-wide recorder.
struct TelemetryTraceEvent {
  uint8_t kind = 0;  ///< obs::TraceEventKind, validated on decode.
  int64_t epoch = 0;
  int32_t site = -1;
  int64_t value = 0;
  int64_t duration_us = 0;
  int64_t ts_us = 0;  ///< Worker wall clock (µs); 0 = unstamped.
};

/// A worker's cumulative telemetry snapshot: the full metrics registry
/// (counters/gauges/histograms) plus a bounded batch of trace events.
/// Cumulative + latest-wins per worker, so resending after a reconnect is
/// idempotent on the coordinator.
struct TelemetryFrame {
  int32_t worker = 0;
  uint8_t final_flush = 0;      ///< 1 on the shutdown push.
  int64_t wall_time_us = 0;     ///< Worker wall clock at serialization.
  int64_t clock_offset_us = 0;  ///< Coordinator clock - worker clock (est.).
  obs::MetricsSnapshot metrics;
  std::vector<TelemetryTraceEvent> events;
};

/// One decoded frame; `type` selects which member is meaningful.
struct WireFrame {
  FrameType type = FrameType::kEnvelopeBatch;
  uint64_t seq = 0;  ///< Envelope sequence number; 0 = unsequenced.
  /// kEnvelopeBatch: the K envelopes, in send order, all under `seq`.
  std::vector<Envelope> batch;
  HelloFrame hello;
  HelloAckFrame hello_ack;
  TelemetryFrame telemetry;
};

/// Append the length-prefixed encoding of a frame to `out`.
///
/// AppendEnvelopeBatchFrame serializes `count` envelopes from `envs` as one
/// kEnvelopeBatch frame under a single sequence number `seq`, the
/// per-connection-direction sequence number (0 for unsequenced frames,
/// e.g. unit tests). Requires 1 <= count <= kMaxBatchEnvelopes (callers
/// chunk larger bursts).
void AppendEnvelopeBatchFrame(const Envelope* envs, size_t count,
                              std::string* out, uint64_t seq = 0);
void AppendHelloFrame(const HelloFrame& h, std::string* out);
void AppendHelloAckFrame(const HelloAckFrame& a, std::string* out);

/// Serializes a telemetry frame. Fails (kInvalidArgument) if the encoded
/// payload would exceed kMaxTelemetryPayload — callers should trim the
/// trace-event batch and retry rather than silently truncating metrics.
Status AppendTelemetryFrame(const TelemetryFrame& t, std::string* out);

/// Decodes one payload (the bytes after the length prefix). Fails on short
/// bodies, unknown frame types, version or magic mismatches, and invalid
/// enum values.
Result<WireFrame> DecodeFramePayload(const uint8_t* data, size_t len);

/// Incremental frame assembler for a TCP byte stream: feed whatever read()
/// returned, pop complete frames. Handles frames split across arbitrarily
/// many reads and multiple frames per read.
class FrameReader {
 public:
  /// Appends raw bytes from the stream.
  void Append(const uint8_t* data, size_t n);

  /// Pops the next complete frame into `*out`, reusing its envelope
  /// buffer. Returns true when a frame was produced, false when more bytes
  /// are needed; a non-OK status means the stream is corrupt (oversized
  /// length, bad version/type) and the connection must be dropped.
  Result<bool> Next(WireFrame* out);

  /// Call when the stream has ended (EOF). OK if the stream ended on a
  /// frame boundary; a distinct `truncated frame` error if the connection
  /// dropped mid-frame, so callers can count it instead of silently
  /// discarding the partial bytes.
  Status Finish() const;

  /// Bytes buffered but not yet consumed (diagnostics).
  size_t buffered() const { return buffer_.size() - pos_; }

  /// Removes and returns the unconsumed bytes, leaving the reader empty.
  /// Used to hand leftover bytes from a handshake-time reader to the
  /// steady-state reader: TCP may coalesce the hello-ack and the first
  /// data frames into one segment, and dropping the tail would lose them.
  std::string TakeBuffered();

 private:
  std::string buffer_;
  size_t pos_ = 0;  ///< Consumed prefix of buffer_; compacted lazily.
};

/// Wall-clock microseconds (system_clock) for wire timestamps: they compare
/// across processes, where a steady_clock epoch means nothing.
int64_t WallClockUs();

/// Wire-level reliability counters for one SocketTransport, the
/// ChannelStats analogue for the TCP fabric. Mirrored into obs metrics
/// under "runtime/socket/*" when a registry is attached.
struct SocketStats {
  int64_t frames_sent = 0;
  int64_t frames_received = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t connect_attempts = 0;  ///< Total connect() calls (1 = first try).
  int64_t connect_retries = 0;   ///< Attempts after the first.
  int64_t accept_timeouts = 0;
  int64_t decode_errors = 0;
  int64_t disconnects = 0;        ///< Peers lost outside a graceful shutdown.
  int64_t truncated_frames = 0;   ///< Streams that ended mid-frame.
  int64_t reconnects = 0;         ///< Successful mid-run resume handshakes.
  int64_t replayed_frames = 0;    ///< Frames retransmitted on resume.
  int64_t duplicate_frames = 0;   ///< Replayed frames dropped by seq dedup.

  std::string ToString() const;
};

}  // namespace dcv

#endif  // DCV_RUNTIME_WIRE_H_

#include "runtime/wire.h"

#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

namespace dcv {
namespace {

// All integers travel little-endian regardless of host order, written and
// read a byte at a time (no aliasing, no alignment assumptions).

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutF64(double v, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

/// Stores the low `N` bytes of `v` little-endian at `p`, which has room;
/// returns the position past them.
template <size_t N>
char* StoreLe(uint64_t v, char* p) {
  for (size_t i = 0; i < N; ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return p + N;
}

/// Length-prefixed UTF-8/opaque bytes (metric names).
void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Cursor over a received payload; all Get* fail softly by flagging
/// `ok = false` so the caller can return one error for any short body.
struct Cursor {
  const uint8_t* data;
  size_t len;
  size_t pos = 0;
  bool ok = true;

  uint8_t U8() {
    if (pos + 1 > len) {
      ok = false;
      return 0;
    }
    return data[pos++];
  }
  uint32_t U32() {
    if (pos + 4 > len) {
      ok = false;
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data[pos++]) << (8 * i);
    }
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  uint64_t U64() {
    if (pos + 8 > len) {
      ok = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data[pos++]) << (8 * i);
    }
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!ok || pos + n > len) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
};

/// Writes the frame header (a 4-byte length prefix to patch, the wire
/// version, the frame type); returns the prefix's offset for EndFrame.
size_t BeginFrame(FrameType type, std::string* out) {
  size_t at = out->size();
  PutU32(0, out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  return at;
}

void EndFrame(size_t prefix_at, std::string* out) {
  uint32_t payload = static_cast<uint32_t>(out->size() - prefix_at - 4);
  for (int i = 0; i < 4; ++i) {
    (*out)[prefix_at + static_cast<size_t>(i)] =
        static_cast<char>((payload >> (8 * i)) & 0xff);
  }
}

}  // namespace

void AppendEnvelopeBatchFrame(const Envelope* envs, size_t count,
                              std::string* out, uint64_t seq) {
  size_t at = BeginFrame(FrameType::kEnvelopeBatch, out);
  PutU32(static_cast<uint32_t>(count), out);
  // One resize for the bodies and the sequence number, then plain stores:
  // a push_back per byte costs a capacity check each.
  const size_t body = out->size();
  out->resize(body + count * kEnvelopeWireBytes + 8);
  char* p = out->data() + body;
  for (size_t i = 0; i < count; ++i) {
    const Envelope& e = envs[i];
    p = StoreLe<4>(static_cast<uint32_t>(e.from), p);
    p = StoreLe<4>(static_cast<uint32_t>(e.to), p);
    p = StoreLe<1>(static_cast<uint8_t>(e.msg.kind), p);
    p = StoreLe<1>(e.msg.flag ? 1 : 0, p);
    p = StoreLe<8>(static_cast<uint64_t>(e.msg.epoch), p);
    p = StoreLe<8>(static_cast<uint64_t>(e.msg.value), p);
  }
  StoreLe<8>(seq, p);
  EndFrame(at, out);
}

void AppendHelloFrame(const HelloFrame& h, std::string* out) {
  size_t at = BeginFrame(FrameType::kHello, out);
  PutU32(h.magic, out);
  PutI32(h.worker, out);
  PutI32(h.num_workers, out);
  PutI32(h.num_sites, out);
  PutU32(h.generation, out);
  PutU64(h.last_seq_received, out);
  PutI64(h.t1_us, out);
  EndFrame(at, out);
}

void AppendHelloAckFrame(const HelloAckFrame& a, std::string* out) {
  size_t at = BeginFrame(FrameType::kHelloAck, out);
  PutU32(a.magic, out);
  PutU8(a.ok, out);
  PutU8(a.virtual_time, out);
  PutI32(a.num_sites, out);
  PutI32(a.num_workers, out);
  PutU32(a.generation, out);
  PutU64(a.last_seq_received, out);
  PutI64(a.t1_us, out);
  PutI64(a.t2_us, out);
  PutI64(a.t3_us, out);
  EndFrame(at, out);
}

Status AppendTelemetryFrame(const TelemetryFrame& t, std::string* out) {
  std::string frame;
  size_t at = BeginFrame(FrameType::kTelemetry, &frame);
  PutI32(t.worker, &frame);
  PutU8(t.final_flush, &frame);
  PutI64(t.wall_time_us, &frame);
  PutI64(t.clock_offset_us, &frame);
  PutU32(static_cast<uint32_t>(t.metrics.counters.size()), &frame);
  for (const auto& [name, v] : t.metrics.counters) {
    PutStr(name, &frame);
    PutI64(v, &frame);
  }
  PutU32(static_cast<uint32_t>(t.metrics.gauges.size()), &frame);
  for (const auto& [name, v] : t.metrics.gauges) {
    PutStr(name, &frame);
    PutF64(v, &frame);
  }
  PutU32(static_cast<uint32_t>(t.metrics.histograms.size()), &frame);
  for (const auto& [name, h] : t.metrics.histograms) {
    if (h.counts.size() != h.bounds.size() + 1) {
      return InvalidArgumentError("telemetry histogram '" + name +
                                  "' has inconsistent bucket shape");
    }
    PutStr(name, &frame);
    PutU32(static_cast<uint32_t>(h.bounds.size()), &frame);
    for (double b : h.bounds) {
      PutF64(b, &frame);
    }
    for (int64_t c : h.counts) {
      PutI64(c, &frame);
    }
    PutI64(h.count, &frame);
    PutF64(h.sum, &frame);
    PutF64(h.min, &frame);
    PutF64(h.max, &frame);
  }
  PutU32(static_cast<uint32_t>(t.events.size()), &frame);
  for (const TelemetryTraceEvent& e : t.events) {
    PutU8(e.kind, &frame);
    PutI64(e.epoch, &frame);
    PutI32(e.site, &frame);
    PutI64(e.value, &frame);
    PutI64(e.duration_us, &frame);
    PutI64(e.ts_us, &frame);
  }
  EndFrame(at, &frame);
  if (frame.size() - 4 > kMaxTelemetryPayload) {
    return InvalidArgumentError(
        "telemetry frame payload " + std::to_string(frame.size() - 4) +
        " exceeds kMaxTelemetryPayload; trim the trace-event batch");
  }
  out->append(frame);
  return OkStatus();
}

namespace {

/// DecodeFramePayload into `frame`, reusing its envelope buffer so a reader
/// keeping one WireFrame does not allocate per frame. Partial on failure.
Status DecodeInto(const uint8_t* data, size_t len, WireFrame& frame) {
  Cursor c{data, len};
  uint8_t version = c.U8();
  uint8_t type = c.U8();
  if (!c.ok) {
    return InvalidArgumentError("frame payload shorter than its header");
  }
  if (version != kWireVersion) {
    return InvalidArgumentError("wire version mismatch: got " +
                                std::to_string(version) + ", want " +
                                std::to_string(kWireVersion));
  }
  frame.type = static_cast<FrameType>(type);  // Unknown types fail below.
  frame.seq = 0;
  switch (frame.type) {
    case FrameType::kEnvelopeBatch: {
      uint32_t count = c.U32();
      // Validating the count against the bytes actually present bounds
      // the allocation before resize.
      if (!c.ok || count < 1 || count > kMaxBatchEnvelopes ||
          static_cast<size_t>(count) > (len - c.pos) / kEnvelopeWireBytes) {
        return InvalidArgumentError("malformed envelope batch header");
      }
      frame.batch.resize(count);
      for (Envelope& e : frame.batch) {
        e.from = c.I32();
        e.to = c.I32();
        uint8_t kind = c.U8();
        e.msg.flag = c.U8() != 0;
        e.msg.epoch = c.I64();
        e.msg.value = c.I64();
        if (c.ok &&
            kind > static_cast<uint8_t>(ActorMsgKind::kThresholdUpdate)) {
          return InvalidArgumentError("invalid actor message kind " +
                                      std::to_string(kind) +
                                      " in envelope batch");
        }
        e.msg.kind = static_cast<ActorMsgKind>(kind);
      }
      frame.seq = c.U64();
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed envelope batch body");
      }
      return OkStatus();
    }
    case FrameType::kHello: {
      frame.hello.magic = c.U32();
      frame.hello.worker = c.I32();
      frame.hello.num_workers = c.I32();
      frame.hello.num_sites = c.I32();
      frame.hello.generation = c.U32();
      frame.hello.last_seq_received = c.U64();
      frame.hello.t1_us = c.I64();
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed hello frame body");
      }
      if (frame.hello.magic != kWireMagic) {
        return InvalidArgumentError("hello magic mismatch (not a dcv peer?)");
      }
      return OkStatus();
    }
    case FrameType::kHelloAck: {
      frame.hello_ack.magic = c.U32();
      frame.hello_ack.ok = c.U8();
      frame.hello_ack.virtual_time = c.U8();
      frame.hello_ack.num_sites = c.I32();
      frame.hello_ack.num_workers = c.I32();
      frame.hello_ack.generation = c.U32();
      frame.hello_ack.last_seq_received = c.U64();
      frame.hello_ack.t1_us = c.I64();
      frame.hello_ack.t2_us = c.I64();
      frame.hello_ack.t3_us = c.I64();
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed hello-ack frame body");
      }
      if (frame.hello_ack.magic != kWireMagic) {
        return InvalidArgumentError("hello-ack magic mismatch");
      }
      return OkStatus();
    }
    case FrameType::kTelemetry: {
      TelemetryFrame& t = frame.telemetry;
      t = TelemetryFrame{};  // The tables below fill by name.
      t.worker = c.I32();
      t.final_flush = c.U8();
      t.wall_time_us = c.I64();
      t.clock_offset_us = c.I64();
      // Every element count is validated against the bytes actually left in
      // the payload (8 = smallest possible element) so a corrupt count
      // can't force an unbounded allocation.
      auto plausible = [&](uint32_t n) {
        return c.ok && static_cast<size_t>(n) <= (len - c.pos) / 8;
      };
      uint32_t n_counters = c.U32();
      if (!plausible(n_counters)) {
        return InvalidArgumentError("malformed telemetry counter table");
      }
      for (uint32_t i = 0; i < n_counters && c.ok; ++i) {
        std::string name = c.Str();
        t.metrics.counters[std::move(name)] = c.I64();
      }
      uint32_t n_gauges = c.U32();
      if (!plausible(n_gauges)) {
        return InvalidArgumentError("malformed telemetry gauge table");
      }
      for (uint32_t i = 0; i < n_gauges && c.ok; ++i) {
        std::string name = c.Str();
        t.metrics.gauges[std::move(name)] = c.F64();
      }
      uint32_t n_histograms = c.U32();
      if (!plausible(n_histograms)) {
        return InvalidArgumentError("malformed telemetry histogram table");
      }
      for (uint32_t i = 0; i < n_histograms && c.ok; ++i) {
        std::string name = c.Str();
        obs::HistogramSnapshot h;
        uint32_t n_bounds = c.U32();
        if (!plausible(n_bounds)) {
          return InvalidArgumentError("malformed telemetry histogram bounds");
        }
        h.bounds.resize(n_bounds);
        for (double& b : h.bounds) {
          b = c.F64();
        }
        h.counts.resize(static_cast<size_t>(n_bounds) + 1);
        for (int64_t& cnt : h.counts) {
          cnt = c.I64();
        }
        h.count = c.I64();
        h.sum = c.F64();
        h.min = c.F64();
        h.max = c.F64();
        t.metrics.histograms[std::move(name)] = std::move(h);
      }
      uint32_t n_events = c.U32();
      if (!plausible(n_events)) {
        return InvalidArgumentError("malformed telemetry event batch");
      }
      t.events.resize(n_events);
      for (TelemetryTraceEvent& e : t.events) {
        e.kind = c.U8();
        e.epoch = c.I64();
        e.site = c.I32();
        e.value = c.I64();
        e.duration_us = c.I64();
        e.ts_us = c.I64();
        if (c.ok && e.kind > static_cast<uint8_t>(
                                 obs::TraceEventKind::kLastKind)) {
          return InvalidArgumentError("invalid telemetry trace-event kind " +
                                      std::to_string(e.kind));
        }
      }
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed telemetry frame body");
      }
      return OkStatus();
    }
  }
  return InvalidArgumentError("unknown frame type " + std::to_string(type));
}

}  // namespace

Result<WireFrame> DecodeFramePayload(const uint8_t* data, size_t len) {
  WireFrame frame;
  DCV_RETURN_IF_ERROR(DecodeInto(data, len, frame));
  return frame;
}

void FrameReader::Append(const uint8_t* data, size_t n) {
  buffer_.append(reinterpret_cast<const char*>(data), n);
}

Result<bool> FrameReader::Next(WireFrame* out) {
  if (buffer_.size() - pos_ < 4) {
    return false;
  }
  const uint8_t* base = reinterpret_cast<const uint8_t*>(buffer_.data()) + pos_;
  uint32_t payload = 0;
  for (int i = 0; i < 4; ++i) {
    payload |= static_cast<uint32_t>(base[i]) << (8 * i);
  }
  if (payload > kMaxTelemetryPayload) {
    // No frame type is ever this big: fail fast on the length alone, no
    // need to wait for more bytes of a corrupt stream.
    return InvalidArgumentError("oversized frame payload (" +
                                std::to_string(payload) +
                                " bytes): corrupt stream");
  }
  if (payload > kMaxFramePayload) {
    // Only telemetry and envelope-batch frames may exceed the data-frame
    // cap; peek the type byte (offset 5: length(4) + version(1)) before
    // trusting the length, each against its own cap.
    if (buffer_.size() - pos_ < 6) {
      return false;  // Need the version+type bytes to judge the length.
    }
    const bool telemetry = base[5] == static_cast<uint8_t>(FrameType::kTelemetry);
    const bool batch =
        base[5] == static_cast<uint8_t>(FrameType::kEnvelopeBatch);
    if (!(telemetry || (batch && payload <= kMaxBatchPayload))) {
      return InvalidArgumentError("oversized frame payload (" +
                                  std::to_string(payload) +
                                  " bytes): corrupt stream");
    }
  }
  if (buffer_.size() - pos_ < 4 + static_cast<size_t>(payload)) {
    return false;
  }
  DCV_RETURN_IF_ERROR(DecodeInto(base + 4, payload, *out));
  pos_ += 4 + static_cast<size_t>(payload);
  // Compact once the consumed prefix dominates, keeping amortized O(1).
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

Status FrameReader::Finish() const {
  size_t tail = buffered();
  if (tail == 0) {
    return OkStatus();
  }
  return InternalError("truncated frame: stream ended with " +
                       std::to_string(tail) +
                       " byte(s) of an incomplete frame");
}

std::string FrameReader::TakeBuffered() {
  std::string rest = buffer_.substr(pos_);
  buffer_.clear();
  pos_ = 0;
  return rest;
}

int64_t WallClockUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string SocketStats::ToString() const {
  std::ostringstream os;
  os << "frames_tx=" << frames_sent << " frames_rx=" << frames_received
     << " bytes_tx=" << bytes_sent << " bytes_rx=" << bytes_received
     << " connect_attempts=" << connect_attempts
     << " connect_retries=" << connect_retries
     << " accept_timeouts=" << accept_timeouts
     << " decode_errors=" << decode_errors << " disconnects=" << disconnects
     << " truncated_frames=" << truncated_frames
     << " reconnects=" << reconnects
     << " replayed_frames=" << replayed_frames
     << " duplicate_frames=" << duplicate_frames;
  return os.str();
}

}  // namespace dcv

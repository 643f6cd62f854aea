#include "runtime/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dcv {
namespace {

Envelope MakeEnvelope(int32_t from, int32_t to, ActorMsgKind kind,
                      int64_t epoch, int64_t value, bool flag) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.msg.kind = kind;
  e.msg.epoch = epoch;
  e.msg.value = value;
  e.msg.flag = flag;
  return e;
}

/// A lone envelope as the writer sends it: a kEnvelopeBatch of one.
void AppendSingle(const Envelope& e, std::string* out, uint64_t seq = 0) {
  AppendEnvelopeBatchFrame(&e, 1, out, seq);
}

/// The one envelope of a batch-of-one frame.
const Envelope& OnlyEnvelope(const WireFrame& frame) {
  EXPECT_EQ(frame.type, FrameType::kEnvelopeBatch);
  EXPECT_EQ(frame.batch.size(), 1u);
  return frame.batch.at(0);
}

void ExpectEnvelopeEq(const Envelope& want, const Envelope& got) {
  EXPECT_EQ(want.from, got.from);
  EXPECT_EQ(want.to, got.to);
  EXPECT_EQ(want.msg.kind, got.msg.kind);
  EXPECT_EQ(want.msg.epoch, got.msg.epoch);
  EXPECT_EQ(want.msg.value, got.msg.value);
  EXPECT_EQ(want.msg.flag, got.msg.flag);
}

TEST(WireTest, EnvelopeRoundTripAllKinds) {
  for (uint8_t k = 0;
       k <= static_cast<uint8_t>(ActorMsgKind::kThresholdUpdate); ++k) {
    Envelope e = MakeEnvelope(
        /*from=*/kCoordinatorId, /*to=*/7, static_cast<ActorMsgKind>(k),
        /*epoch=*/-1, /*value=*/INT64_MIN, /*flag=*/k % 2 == 0);
    std::string buf;
    AppendSingle(e, &buf);
    auto frame = DecodeFramePayload(
        reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    ExpectEnvelopeEq(e, OnlyEnvelope(*frame));
  }
}

TEST(WireTest, HelloRoundTrip) {
  HelloFrame h;
  h.worker = 3;
  h.num_workers = 4;
  h.num_sites = 17;
  std::string buf;
  AppendHelloFrame(h, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kHello);
  EXPECT_EQ(frame->hello.worker, 3);
  EXPECT_EQ(frame->hello.num_workers, 4);
  EXPECT_EQ(frame->hello.num_sites, 17);
}

TEST(WireTest, HelloAckRoundTrip) {
  HelloAckFrame a;
  a.ok = 1;
  a.virtual_time = 0;
  a.num_sites = 9;
  a.num_workers = 2;
  std::string buf;
  AppendHelloAckFrame(a, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kHelloAck);
  EXPECT_EQ(frame->hello_ack.ok, 1);
  EXPECT_EQ(frame->hello_ack.virtual_time, 0);
  EXPECT_EQ(frame->hello_ack.num_sites, 9);
  EXPECT_EQ(frame->hello_ack.num_workers, 2);
}

TEST(WireTest, RejectsVersionMismatch) {
  std::string buf;
  AppendHelloFrame(HelloFrame{}, &buf);
  buf[4] = static_cast<char>(kWireVersion + 1);  // Version byte.
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("wire version"), std::string::npos);
}

TEST(WireTest, RejectsBadMagicAndBadKind) {
  std::string hello;
  AppendHelloFrame(HelloFrame{}, &hello);
  hello[6] = 'X';  // First magic byte.
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(hello.data()) + 4,
                   hello.size() - 4)
                   .ok());

  std::string env;
  AppendSingle(Envelope{}, &env);
  // ActorMsgKind byte (prefix 4, version, type, count 4, from 4, to 4), way
  // out of enum range.
  env[18] = 50;
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(env.data()) + 4, env.size() - 4);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("message kind"), std::string::npos);
}

TEST(WireTest, RejectsShortAndOverlongBodies) {
  std::string buf;
  AppendSingle(Envelope{}, &buf);
  const uint8_t* payload = reinterpret_cast<const uint8_t*>(buf.data()) + 4;
  // Every truncation of the payload fails rather than decoding garbage.
  for (size_t len = 0; len < buf.size() - 4; ++len) {
    EXPECT_FALSE(DecodeFramePayload(payload, len).ok()) << "len=" << len;
  }
  // Trailing bytes are corruption too (fixed layouts are exact).
  std::string padded = buf + std::string(1, '\0');
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(padded.data()) + 4,
                   padded.size() - 4)
                   .ok());
}

TEST(WireTest, ReaderReassemblesByteAtATime) {
  std::vector<Envelope> sent;
  std::string stream;
  for (int i = 0; i < 20; ++i) {
    Envelope e = MakeEnvelope(i, kCoordinatorId, ActorMsgKind::kAlarm,
                              1000 + i, -i * 7, i % 3 == 0);
    sent.push_back(e);
    AppendSingle(e, &stream);
  }
  FrameReader reader;
  std::vector<Envelope> got;
  for (char byte : stream) {
    reader.Append(reinterpret_cast<const uint8_t*>(&byte), 1);
    for (;;) {
      WireFrame frame;
      auto r = reader.Next(&frame);
      ASSERT_TRUE(r.ok()) << r.status().message();
      if (!*r) {
        break;
      }
      got.push_back(OnlyEnvelope(frame));
    }
  }
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ExpectEnvelopeEq(sent[i], got[i]);
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, ReaderHandlesRandomChunkingAndMixedTypes) {
  // Fuzz-ish: a long stream of mixed frames fed in random-size chunks must
  // come out intact regardless of where the chunk boundaries fall.
  Rng rng(1234);
  std::string stream;
  int envelopes = 0;
  for (int i = 0; i < 200; ++i) {
    switch (rng.UniformInt(0, 2)) {
      case 0: {
        AppendSingle(
            MakeEnvelope(rng.UniformInt(0, 100), kCoordinatorId,
                         ActorMsgKind::kPollResponse,
                         rng.UniformInt(0, 1 << 20),
                         rng.UniformInt(0, 1 << 30), false),
            &stream);
        ++envelopes;
        break;
      }
      case 1:
        AppendHelloFrame(HelloFrame{}, &stream);
        break;
      default:
        AppendHelloAckFrame(HelloAckFrame{}, &stream);
        break;
    }
  }
  FrameReader reader;
  int got_envelopes = 0;
  int got_total = 0;
  size_t off = 0;
  while (off < stream.size()) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 37));
    n = std::min(n, stream.size() - off);
    reader.Append(reinterpret_cast<const uint8_t*>(stream.data()) + off, n);
    off += n;
    for (;;) {
      WireFrame frame;
      auto r = reader.Next(&frame);
      ASSERT_TRUE(r.ok()) << r.status().message();
      if (!*r) {
        break;
      }
      ++got_total;
      if (frame.type == FrameType::kEnvelopeBatch) {
        ++got_envelopes;
      }
    }
  }
  EXPECT_EQ(got_total, 200);
  EXPECT_EQ(got_envelopes, envelopes);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, ReaderRejectsOversizedLength) {
  // A corrupt length prefix must fail fast, not trigger a giant buffer.
  uint8_t prefix[4] = {0xff, 0xff, 0xff, 0x7f};
  FrameReader reader;
  reader.Append(prefix, sizeof(prefix));
  WireFrame frame;
  auto r = reader.Next(&frame);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("oversized"), std::string::npos);
}

TEST(WireTest, ReaderTakeBufferedReturnsUnconsumedTail) {
  // The handshake reader may pull data frames in with the hello-ack; the
  // tail must transfer losslessly to the steady-state reader.
  std::string stream;
  AppendHelloAckFrame(HelloAckFrame{}, &stream);
  Envelope e = MakeEnvelope(kCoordinatorId, 2, ActorMsgKind::kThresholdUpdate,
                            -1, 424242, false);
  AppendSingle(e, &stream);

  FrameReader handshake;
  handshake.Append(reinterpret_cast<const uint8_t*>(stream.data()),
                   stream.size());
  WireFrame frame;
  auto r = handshake.Next(&frame);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  ASSERT_EQ(frame.type, FrameType::kHelloAck);

  std::string rest = handshake.TakeBuffered();
  EXPECT_EQ(handshake.buffered(), 0u);
  FrameReader steady;
  steady.Append(reinterpret_cast<const uint8_t*>(rest.data()), rest.size());
  r = steady.Next(&frame);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  ExpectEnvelopeEq(e, OnlyEnvelope(frame));
}

TEST(WireTest, EnvelopeSequenceNumberRoundTrips) {
  Envelope e = MakeEnvelope(3, kCoordinatorId, ActorMsgKind::kAlarm, 12, 99,
                            true);
  std::string buf;
  AppendSingle(e, &buf, /*seq=*/0xdeadbeefcafe1234ULL);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ExpectEnvelopeEq(e, OnlyEnvelope(*frame));
  EXPECT_EQ(frame->seq, 0xdeadbeefcafe1234ULL);
}

TEST(WireTest, HelloCarriesGenerationAndHighWater) {
  HelloFrame h;
  h.worker = 1;
  h.num_workers = 2;
  h.num_sites = 8;
  h.generation = 5;
  h.last_seq_received = 777;
  std::string buf;
  AppendHelloFrame(h, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->hello.generation, 5u);
  EXPECT_EQ(frame->hello.last_seq_received, 777u);

  HelloAckFrame a;
  a.ok = 1;
  a.generation = 5;
  a.last_seq_received = 123456789;
  std::string ack;
  AppendHelloAckFrame(a, &ack);
  frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(ack.data()) + 4, ack.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->hello_ack.generation, 5u);
  EXPECT_EQ(frame->hello_ack.last_seq_received, 123456789u);
}

TEST(WireTest, FinishDistinguishesCleanEofFromTruncation) {
  std::string stream;
  AppendSingle(Envelope{}, &stream);

  // Clean EOF: every appended byte was consumed as a whole frame.
  FrameReader clean;
  clean.Append(reinterpret_cast<const uint8_t*>(stream.data()), stream.size());
  WireFrame frame;
  auto r = clean.Next(&frame);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  EXPECT_TRUE(clean.Finish().ok());

  // EOF mid-frame at every split point: a distinct truncated-frame error,
  // not a silent partial read.
  for (size_t cut = 1; cut < stream.size(); ++cut) {
    FrameReader torn;
    torn.Append(reinterpret_cast<const uint8_t*>(stream.data()), cut);
    r = torn.Next(&frame);
    ASSERT_TRUE(r.ok()) << "cut=" << cut;
    ASSERT_FALSE(*r);
    Status fin = torn.Finish();
    ASSERT_FALSE(fin.ok()) << "cut=" << cut;
    EXPECT_NE(fin.message().find("truncated"), std::string::npos);
  }
}

TEST(WireTest, SocketStatsToString) {
  SocketStats s;
  s.frames_sent = 5;
  s.disconnects = 1;
  std::string text = s.ToString();
  EXPECT_NE(text.find("frames_tx=5"), std::string::npos);
  EXPECT_NE(text.find("disconnects=1"), std::string::npos);
}

TEST(WireTest, HelloHandshakeTimestampsRoundTrip) {
  HelloFrame h;
  h.worker = 1;
  h.t1_us = 1'234'567'890'123;
  std::string buf;
  AppendHelloFrame(h, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->hello.t1_us, h.t1_us);

  HelloAckFrame a;
  a.ok = 1;
  a.t1_us = h.t1_us;        // Echo for the offset estimate.
  a.t2_us = h.t1_us + 150;  // Coordinator receive.
  a.t3_us = h.t1_us + 170;  // Coordinator send.
  buf.clear();
  AppendHelloAckFrame(a, &buf);
  frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->hello_ack.t1_us, a.t1_us);
  EXPECT_EQ(frame->hello_ack.t2_us, a.t2_us);
  EXPECT_EQ(frame->hello_ack.t3_us, a.t3_us);
}

TelemetryFrame MakeTelemetryFrame() {
  TelemetryFrame t;
  t.worker = 1;
  t.final_flush = 1;
  t.wall_time_us = 1'700'000'000'000'000;
  t.clock_offset_us = -250;
  t.metrics.counters["runtime/site/updates"] = 100000;
  t.metrics.counters["runtime/socket/frames_tx"] = 42;
  t.metrics.gauges["queue_depth"] = 3.5;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0, 4.0};
  h.counts = {3, 2, 1, 0};
  h.count = 6;
  h.sum = 9.5;
  h.min = 0.5;
  h.max = 3.0;
  t.metrics.histograms["lag"] = h;
  TelemetryTraceEvent ev;
  ev.kind = 1;
  ev.epoch = 77;
  ev.site = 3;
  ev.value = -9;
  ev.duration_us = 120;
  ev.ts_us = t.wall_time_us - 5;
  t.events.push_back(ev);
  return t;
}

TEST(WireTest, TelemetryRoundTrip) {
  TelemetryFrame t = MakeTelemetryFrame();
  std::string buf;
  ASSERT_TRUE(AppendTelemetryFrame(t, &buf).ok());
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kTelemetry);
  const TelemetryFrame& got = frame->telemetry;
  EXPECT_EQ(got.worker, 1);
  EXPECT_EQ(got.final_flush, 1);
  EXPECT_EQ(got.wall_time_us, t.wall_time_us);
  EXPECT_EQ(got.clock_offset_us, -250);
  EXPECT_EQ(got.metrics.counters.at("runtime/site/updates"), 100000);
  EXPECT_DOUBLE_EQ(got.metrics.gauges.at("queue_depth"), 3.5);
  const obs::HistogramSnapshot& lag = got.metrics.histograms.at("lag");
  ASSERT_EQ(lag.bounds.size(), 3u);
  ASSERT_EQ(lag.counts.size(), 4u);
  EXPECT_EQ(lag.count, 6);
  EXPECT_DOUBLE_EQ(lag.sum, 9.5);
  EXPECT_DOUBLE_EQ(lag.min, 0.5);
  EXPECT_DOUBLE_EQ(lag.max, 3.0);
  ASSERT_EQ(got.events.size(), 1u);
  EXPECT_EQ(got.events[0].epoch, 77);
  EXPECT_EQ(got.events[0].site, 3);
  EXPECT_EQ(got.events[0].value, -9);
  EXPECT_EQ(got.events[0].duration_us, 120);
  EXPECT_EQ(got.events[0].ts_us, t.wall_time_us - 5);
}

TEST(WireTest, ReaderAcceptsLargeTelemetryButNotLargeEnvelopes) {
  // Telemetry frames are the one type allowed past kMaxFramePayload: the
  // reader peeks the type byte before enforcing the size cap.
  TelemetryFrame t = MakeTelemetryFrame();
  for (int i = 0; i < 2000; ++i) {
    t.metrics.counters["c/" + std::to_string(i)] = i;
  }
  std::string buf;
  ASSERT_TRUE(AppendTelemetryFrame(t, &buf).ok());
  ASSERT_GT(buf.size(), kMaxFramePayload);

  FrameReader reader;
  reader.Append(reinterpret_cast<const uint8_t*>(buf.data()), buf.size());
  WireFrame frame;
  auto r = reader.Next(&frame);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(*r);
  EXPECT_EQ(frame.type, FrameType::kTelemetry);
  EXPECT_EQ(frame.telemetry.metrics.counters.size(),
            t.metrics.counters.size());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, TelemetryRejectsOversizedPayload) {
  // Past kMaxTelemetryPayload the append itself refuses — callers trim the
  // event batch rather than shipping unbounded frames.
  TelemetryFrame t;
  const std::string big(2048, 'x');
  for (int i = 0; i < 600; ++i) {
    t.metrics.counters[big + std::to_string(i)] = i;
  }
  std::string buf;
  Status st = AppendTelemetryFrame(t, &buf);
  ASSERT_FALSE(st.ok());
}

TEST(WireTest, TelemetryRejectsMalformedHistogramShape) {
  // counts must be exactly bounds.size() + 1; a mismatched snapshot is a
  // programming error upstream and must not serialize.
  TelemetryFrame t;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0};
  h.counts = {1, 2};  // Missing the overflow bucket.
  h.count = 3;
  t.metrics.histograms["bad"] = h;
  std::string buf;
  EXPECT_FALSE(AppendTelemetryFrame(t, &buf).ok());
}

TEST(WireTest, TelemetryTruncationsNeverDecodeGarbage) {
  TelemetryFrame t = MakeTelemetryFrame();
  std::string buf;
  ASSERT_TRUE(AppendTelemetryFrame(t, &buf).ok());
  const uint8_t* payload = reinterpret_cast<const uint8_t*>(buf.data()) + 4;
  for (size_t len = 0; len < buf.size() - 4; ++len) {
    EXPECT_FALSE(DecodeFramePayload(payload, len).ok()) << "len=" << len;
  }
}

// kEnvelopeBatch (wire v4): K routed envelopes under one length prefix and
// one sequence number — the only envelope frame since v5 (a lone envelope
// is a batch of one).

TEST(WireTest, EnvelopeBatchRoundTrip) {
  std::vector<Envelope> sent;
  for (int i = 0; i < 37; ++i) {
    sent.push_back(MakeEnvelope(i, kCoordinatorId, ActorMsgKind::kEpochReport,
                                2000 + i, i * 11 - 5, i % 2 == 0));
  }
  std::string buf;
  AppendEnvelopeBatchFrame(sent.data(), sent.size(), &buf, /*seq=*/99);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kEnvelopeBatch);
  EXPECT_EQ(frame->seq, 99u);
  ASSERT_EQ(frame->batch.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ExpectEnvelopeEq(sent[i], frame->batch[i]);
  }
}

// The v10 kEnvelopeBatch bytes, pinned: every kind, negative ids, INT64 min
// and max, both flags. Any change to the encoder must leave them as they
// are, since a worker of one build talks to a coordinator of another; only
// a version bump changes the version byte.
TEST(WireTest, EnvelopeBatchGoldenBytes) {
  const Envelope envs[] = {
      MakeEnvelope(kCoordinatorId, 0, ActorMsgKind::kEpochStart, 0, 0, true),
      MakeEnvelope(3, kCoordinatorId, ActorMsgKind::kEpochReport, 1,
                   INT64_MIN, true),
      MakeEnvelope(kCoordinatorId, INT32_MAX, ActorMsgKind::kShutdown, -1,
                   INT64_MAX, false),
      MakeEnvelope(-2, -123456, ActorMsgKind::kSiteDone, 7, 20, false),
      MakeEnvelope(1, kCoordinatorId, ActorMsgKind::kAlarm, INT64_MAX, -5,
                   false),
      MakeEnvelope(kCoordinatorId, 9, ActorMsgKind::kPollRequest, INT64_MIN,
                   0x0102030405060708LL, false),
      MakeEnvelope(INT32_MIN, kCoordinatorId, ActorMsgKind::kPollResponse, 42,
                   -1, true),
      MakeEnvelope(kCoordinatorId, 5, ActorMsgKind::kThresholdUpdate, -9,
                   1000000, true),
  };
  // Length prefix, version 10, type, count; then 26 bytes per envelope
  // (from, to, kind, flag, epoch, value); then the sequence number.
  const std::string golden =
      "de0000000a0608000000"
      "ffffffff00000000000100000000000000000000000000000000"
      "03000000ffffffff010101000000000000000000000000000080"
      "ffffffffffffff7f0200ffffffffffffffffffffffffffffff7f"
      "feffffffc01dfeff030007000000000000001400000000000000"
      "01000000ffffffff0400ffffffffffffff7ffbffffffffffffff"
      "ffffffff09000000050000000000000000800807060504030201"
      "00000080ffffffff06012a00000000000000ffffffffffffffff"
      "ffffffff050000000701f7ffffffffffffff40420f0000000000"
      "efcdab8967452301";
  std::string buf = "prefix";  // The encoder appends.
  AppendEnvelopeBatchFrame(envs, 8, &buf, 0x0123456789abcdefULL);
  ASSERT_EQ(buf.substr(0, 6), "prefix");
  std::string hex;
  for (size_t i = 6; i < buf.size(); ++i) {
    static const char kDigits[] = "0123456789abcdef";
    const auto byte = static_cast<unsigned char>(buf[i]);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  EXPECT_EQ(hex, golden);
}

TEST(WireTest, EnvelopeBatchMaxSizeRoundTripsThroughReader) {
  // The largest legal batch must survive the FrameReader's oversized-frame
  // peek (it is bigger than kMaxFramePayload but under kMaxBatchPayload).
  std::vector<Envelope> sent;
  for (uint32_t i = 0; i < kMaxBatchEnvelopes; ++i) {
    sent.push_back(MakeEnvelope(static_cast<int32_t>(i), kCoordinatorId,
                                ActorMsgKind::kEpochReport, i, i * 3, false));
  }
  std::string stream;
  AppendEnvelopeBatchFrame(sent.data(), sent.size(), &stream, /*seq=*/1);
  FrameReader reader;
  reader.Append(reinterpret_cast<const uint8_t*>(stream.data()),
                stream.size());
  WireFrame frame;
  auto produced = reader.Next(&frame);
  ASSERT_TRUE(produced.ok()) << produced.status().message();
  ASSERT_TRUE(*produced);
  ASSERT_EQ(frame.type, FrameType::kEnvelopeBatch);
  ASSERT_EQ(frame.batch.size(), sent.size());
  ExpectEnvelopeEq(sent.back(), frame.batch.back());
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(WireTest, EnvelopeBatchTruncationsNeverDecodeGarbage) {
  std::vector<Envelope> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(MakeEnvelope(i, kCoordinatorId, ActorMsgKind::kAlarm,
                                i, i, false));
  }
  std::string buf;
  AppendEnvelopeBatchFrame(sent.data(), sent.size(), &buf, /*seq=*/3);
  const uint8_t* payload = reinterpret_cast<const uint8_t*>(buf.data()) + 4;
  for (size_t len = 0; len < buf.size() - 4; ++len) {
    EXPECT_FALSE(DecodeFramePayload(payload, len).ok()) << "len=" << len;
  }
  // Trailing bytes are corruption too.
  std::string padded = buf + std::string(1, '\0');
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(padded.data()) + 4,
                   padded.size() - 4)
                   .ok());
}

TEST(WireTest, EnvelopeBatchRejectsLyingCount) {
  // A count field claiming more envelopes than the body carries must fail
  // loudly instead of reading past the payload.
  Envelope e = MakeEnvelope(1, kCoordinatorId, ActorMsgKind::kAlarm, 1, 1,
                            false);
  std::string buf;
  AppendEnvelopeBatchFrame(&e, 1, &buf, /*seq=*/5);
  // Count lives right after the 3-byte header (version, magic, type) in the
  // payload; bump it from 1 to 2.
  buf[4 + 3] = 2;
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(buf.data()) + 4,
                   buf.size() - 4)
                   .ok());
}

TEST(WireTest, RejectsRetiredSingleEnvelopeType) {
  // Retired frame types, each with its old body: type 0 was the v4
  // single-envelope frame (envelope + seq), types 3 and 4 the v6 layout
  // push (version, sites, shards, 3 boundaries) and its ack (version). In a
  // current payload each is an unknown type, both to the decoder and to
  // the stream reader.
  const std::pair<uint8_t, size_t> retired[] = {
      {0, 26 + 8}, {3, 4 + 4 + 4 + 3 * 4}, {4, 4}};
  for (const auto& [type, body] : retired) {
    std::string payload;
    payload.push_back(static_cast<char>(kWireVersion));
    payload.push_back(static_cast<char>(type));
    payload.append(body, '\0');
    auto frame = DecodeFramePayload(
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
    ASSERT_FALSE(frame.ok()) << "type " << int{type};
    EXPECT_NE(frame.status().message().find("unknown frame type " +
                                            std::to_string(type)),
              std::string::npos)
        << frame.status().message();

    std::string stream(4, '\0');
    stream[0] = static_cast<char>(payload.size());
    stream += payload;
    FrameReader reader;
    reader.Append(reinterpret_cast<const uint8_t*>(stream.data()),
                  stream.size());
    WireFrame out;
    auto r = reader.Next(&out);
    ASSERT_FALSE(r.ok()) << "type " << int{type};
    EXPECT_NE(r.status().message().find("unknown frame type"),
              std::string::npos)
        << r.status().message();
  }
}

TEST(WireTest, FlipEveryByteOfMixedStreamFailsNamed) {
  // One frame of every type, then every byte flipped in turn: the reader
  // must yield frames or a named error, never crash, hang or over-read
  // (the sanitizer build checks the last). A flipped version byte is
  // always caught.
  std::string stream;
  std::vector<size_t> version_at;
  auto mark = [&] { version_at.push_back(stream.size() + 4); };
  HelloFrame hello;
  hello.worker = 1;
  hello.num_workers = 2;
  hello.num_sites = 8;
  mark();
  AppendHelloFrame(hello, &stream);
  HelloAckFrame ack;
  ack.ok = 1;
  mark();
  AppendHelloAckFrame(ack, &stream);
  std::vector<Envelope> envs;
  for (int i = 0; i < 64; ++i) {
    envs.push_back(MakeEnvelope(i, kCoordinatorId, ActorMsgKind::kAlarm, i,
                                i * 5, i % 2 == 0));
  }
  mark();
  AppendEnvelopeBatchFrame(envs.data(), 1, &stream, /*seq=*/1);
  mark();
  AppendEnvelopeBatchFrame(envs.data(), envs.size(), &stream, /*seq=*/2);
  mark();
  ASSERT_TRUE(AppendTelemetryFrame(MakeTelemetryFrame(), &stream).ok());

  for (size_t i = 0; i < stream.size(); ++i) {
    std::string corrupt = stream;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xff);
    FrameReader reader;
    reader.Append(reinterpret_cast<const uint8_t*>(corrupt.data()),
                  corrupt.size());
    Status status = OkStatus();
    size_t frames = 0;
    for (;;) {
      WireFrame frame;
      auto r = reader.Next(&frame);
      if (!r.ok()) {
        status = r.status();
        break;
      }
      if (!*r) {
        status = reader.Finish();
        break;
      }
      ASSERT_LE(++frames, version_at.size()) << "flip at byte " << i;
    }
    if (!status.ok()) {
      EXPECT_FALSE(status.message().empty()) << "flip at byte " << i;
    }
    if (std::find(version_at.begin(), version_at.end(), i) !=
        version_at.end()) {
      ASSERT_FALSE(status.ok()) << "version flip at byte " << i;
      EXPECT_NE(status.message().find("wire version"), std::string::npos)
          << status.message();
    }
  }
}

}  // namespace
}  // namespace dcv

#include "io/codec.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "io/format.h"

namespace dcv::io {
namespace {

constexpr RowCodec kAllCodecs[] = {RowCodec::kDelta, RowCodec::kZoh};

/// Encodes `columns` with every codec and asserts bit-exact recovery.
void ExpectRoundTrip(const std::vector<std::vector<int64_t>>& columns,
                     int64_t rows) {
  for (RowCodec codec : kAllCodecs) {
    std::string encoded;
    EncodeColumns(codec, columns, rows, &encoded);
    std::vector<std::vector<int64_t>> decoded;
    Status status = DecodeColumns(
        codec, reinterpret_cast<const uint8_t*>(encoded.data()),
        encoded.size(), static_cast<int64_t>(columns.size()), rows, &decoded);
    ASSERT_TRUE(status.ok()) << RowCodecName(codec) << ": " << status;
    EXPECT_EQ(decoded, columns) << RowCodecName(codec);
  }
}

TEST(ZigZagTest, RoundTripsExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1234567},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes map to small codes (what makes delta varints short).
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(VarintTest, RoundTrips) {
  Rng rng(99);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t v = rng.NextUint64() >> rng.NextUint64(64);
    std::string buf;
    AppendVarint64(v, &buf);
    uint64_t back = 0;
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    const uint8_t* next = DecodeVarint64(p, p + buf.size(), &back);
    ASSERT_EQ(next, p + buf.size());
    EXPECT_EQ(back, v);
  }
}

TEST(VarintTest, RejectsTruncation) {
  std::string buf;
  AppendVarint64(std::numeric_limits<uint64_t>::max(), &buf);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    uint64_t v = 0;
    EXPECT_EQ(DecodeVarint64(p, p + cut, &v), nullptr) << cut;
  }
}

TEST(VarintTest, RejectsOverlongEncoding) {
  // Eleven continuation bytes claim more than 64 bits.
  const uint8_t overlong[11] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                0xff, 0xff, 0xff, 0xff, 0x01};
  uint64_t v = 0;
  EXPECT_EQ(DecodeVarint64(overlong, overlong + sizeof(overlong), &v),
            nullptr);
}

TEST(CodecTest, ConstantColumns) {
  ExpectRoundTrip({{7, 7, 7, 7, 7}, {0, 0, 0, 0, 0}}, 5);
}

TEST(CodecTest, SingleRow) { ExpectRoundTrip({{42}, {-17}}, 1); }

TEST(CodecTest, StepColumns) {
  std::vector<int64_t> step;
  for (int i = 0; i < 200; ++i) {
    step.push_back(i < 100 ? 10 : 5000);
  }
  ExpectRoundTrip({step}, 200);
}

TEST(CodecTest, Ar1Columns) {
  Rng rng(7);
  std::vector<std::vector<int64_t>> columns(3);
  for (auto& col : columns) {
    int64_t v = 100000;
    for (int i = 0; i < 500; ++i) {
      v += rng.UniformInt(-50, 50);
      col.push_back(v);
    }
  }
  ExpectRoundTrip(columns, 500);
}

TEST(CodecTest, RandomFullRangeColumns) {
  // Uniform random over the full int64 range: the worst case for delta
  // (wrapping differences) and zoh (no runs). Many trials, fresh values.
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t rows = rng.UniformInt(1, 64);
    std::vector<std::vector<int64_t>> columns(
        static_cast<size_t>(rng.UniformInt(1, 4)));
    for (auto& col : columns) {
      for (int64_t r = 0; r < rows; ++r) {
        col.push_back(static_cast<int64_t>(rng.NextUint64()));
      }
    }
    ExpectRoundTrip(columns, rows);
  }
}

TEST(CodecTest, Int64ExtremeSwings) {
  // INT64_MIN <-> INT64_MAX deltas exercise the wrapping arithmetic; a
  // naive signed subtraction here is UB.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  ExpectRoundTrip({{lo, hi, lo, hi, 0, lo, hi}}, 7);
}

TEST(CodecTest, DecodeRejectsTruncatedPayload) {
  std::vector<std::vector<int64_t>> columns = {{1, 2, 3}, {4, 5, 6}};
  for (RowCodec codec : kAllCodecs) {
    std::string encoded;
    EncodeColumns(codec, columns, 3, &encoded);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      std::vector<std::vector<int64_t>> decoded;
      EXPECT_FALSE(DecodeColumns(
                       codec, reinterpret_cast<const uint8_t*>(encoded.data()),
                       cut, 2, 3, &decoded)
                       .ok())
          << RowCodecName(codec) << " cut at " << cut;
    }
  }
}

TEST(CodecTest, DecodeRejectsTrailingBytes) {
  for (RowCodec codec : kAllCodecs) {
    std::string encoded;
    EncodeColumns(codec, {{1, 2, 3}}, 3, &encoded);
    encoded.push_back('\0');
    std::vector<std::vector<int64_t>> decoded;
    Status status = DecodeColumns(
        codec, reinterpret_cast<const uint8_t*>(encoded.data()),
        encoded.size(), 1, 3, &decoded);
    ASSERT_FALSE(status.ok()) << RowCodecName(codec);
    EXPECT_NE(status.message().find("trailing"), std::string::npos);
  }
}

TEST(CodecTest, ZohRejectsZeroRun) {
  // (run 0, value 5): a run that never advances would loop forever if
  // accepted.
  std::string encoded;
  AppendVarint64(0, &encoded);
  AppendVarint64(ZigZagEncode(5), &encoded);
  std::vector<std::vector<int64_t>> decoded;
  Status status = DecodeColumns(
      RowCodec::kZoh, reinterpret_cast<const uint8_t*>(encoded.data()),
      encoded.size(), 1, 3, &decoded);
  EXPECT_FALSE(status.ok());
}

TEST(CodecTest, ZohRejectsOvershootingRun) {
  // A run of 10 in a 3-row block.
  std::string encoded;
  AppendVarint64(10, &encoded);
  AppendVarint64(ZigZagEncode(5), &encoded);
  std::vector<std::vector<int64_t>> decoded;
  Status status = DecodeColumns(
      RowCodec::kZoh, reinterpret_cast<const uint8_t*>(encoded.data()),
      encoded.size(), 1, 3, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("overshoot"), std::string::npos);
}

}  // namespace
}  // namespace dcv::io

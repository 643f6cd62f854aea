#include "trace/trace_bin.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/block_writer.h"
#include "io/format.h"
#include "sim/local_scheme.h"
#include "sim/message.h"
#include "sim/polling_scheme.h"
#include "sim/runner.h"
#include "threshold/fptas.h"
#include "trace/trace.h"

namespace dcv {
namespace {

/// Per-process temp path: ctest runs each discovered test in its own
/// process in parallel, so bare names would collide across tests.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/io_trace_" + std::to_string(getpid()) + "_" +
         name;
}

Trace MakeTrace(int sites, int64_t epochs, uint64_t seed) {
  Rng rng(seed);
  Trace trace(sites);
  std::vector<int64_t> values(static_cast<size_t>(sites), 500);
  for (int64_t t = 0; t < epochs; ++t) {
    for (auto& v : values) {
      v += rng.UniformInt(-20, 20);
      if (v < 0) v = 0;
    }
    EXPECT_TRUE(trace.AppendEpoch(values).ok());
  }
  return trace;
}

void ExpectSameTrace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.num_sites(), b.num_sites());
  ASSERT_EQ(a.num_epochs(), b.num_epochs());
  EXPECT_EQ(a.site_names(), b.site_names());
  for (int64_t t = 0; t < a.num_epochs(); ++t) {
    ASSERT_EQ(a.epoch(t), b.epoch(t)) << "epoch " << t;
  }
}

TEST(TraceBinTest, RoundTripsAcrossCodecs) {
  const Trace trace = MakeTrace(5, 1000, 11);
  for (io::RowCodec codec : {io::RowCodec::kDelta, io::RowCodec::kZoh}) {
    const std::string path = TempPath("trace_rt.dcvb");
    io::WriterOptions options;
    options.codec = codec;
    options.block_rows = 128;
    ASSERT_TRUE(WriteTraceBin(trace, path, options).ok());
    auto back = ReadTraceBin(path);
    ASSERT_TRUE(back.ok()) << back.status();
    ExpectSameTrace(trace, *back);
    std::remove(path.c_str());
  }
}

TEST(TraceBinTest, PreservesSiteNames) {
  Trace trace(std::vector<std::string>{"edge-a", "edge-b"});
  ASSERT_TRUE(trace.AppendEpoch({1, 2}).ok());
  ASSERT_TRUE(trace.AppendEpoch({3, 4}).ok());
  const std::string path = TempPath("names.dcvb");
  ASSERT_TRUE(WriteTraceBin(trace, path).ok());
  auto back = ReadTraceBin(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameTrace(trace, *back);
  std::remove(path.c_str());
}

TEST(TraceBinTest, SniffsAndLoadsBothFormats) {
  const Trace trace = MakeTrace(3, 50, 12);
  const std::string bin_path = TempPath("sniff.dcvb");
  const std::string csv_path = TempPath("sniff.csv");
  ASSERT_TRUE(WriteTraceBin(trace, bin_path).ok());
  ASSERT_TRUE(trace.WriteCsv(csv_path).ok());

  auto bin_format = SniffTraceFormat(bin_path);
  ASSERT_TRUE(bin_format.ok());
  EXPECT_EQ(*bin_format, TraceFormat::kBinary);
  auto csv_format = SniffTraceFormat(csv_path);
  ASSERT_TRUE(csv_format.ok());
  EXPECT_EQ(*csv_format, TraceFormat::kCsv);
  EXPECT_FALSE(SniffTraceFormat(TempPath("missing.dcvb")).ok());

  auto from_bin = LoadTrace(bin_path);
  auto from_csv = LoadTrace(csv_path);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status();
  ASSERT_TRUE(from_csv.ok()) << from_csv.status();
  ExpectSameTrace(*from_bin, *from_csv);
  std::remove(bin_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(TraceBinTest, RejectsNegativeValues) {
  // A structurally valid dcvb file whose payload holds a negative value:
  // ReadTraceBin applies AppendEpoch's validation, so the CRC-clean but
  // semantically invalid observation is rejected.
  const std::string path = TempPath("negative.dcvb");
  {
    auto writer = io::BlockWriter::Open(path, {"site0"}, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRow({-5}).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto back = ReadTraceBin(path);
  EXPECT_FALSE(back.ok());
  std::remove(path.c_str());
}

/// The acceptance property: replaying the same trace from CSV and from the
/// binary format must produce bit-identical detection results — the
/// container may never perturb the protocol.
void ExpectSameSimResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.messages.total(), b.messages.total());
  for (int m = 0; m < kNumMessageTypes; ++m) {
    EXPECT_EQ(a.messages.of(static_cast<MessageType>(m)),
              b.messages.of(static_cast<MessageType>(m)))
        << MessageTypeName(static_cast<MessageType>(m));
  }
  EXPECT_EQ(a.alarm_epochs, b.alarm_epochs);
  EXPECT_EQ(a.total_alarms, b.total_alarms);
  EXPECT_EQ(a.polled_epochs, b.polled_epochs);
  EXPECT_EQ(a.true_violations, b.true_violations);
  EXPECT_EQ(a.detected_violations, b.detected_violations);
  EXPECT_EQ(a.missed_violations, b.missed_violations);
  EXPECT_EQ(a.false_alarm_epochs, b.false_alarm_epochs);
}

TEST(TraceBinTest, CsvAndBinaryYieldIdenticalDetections) {
  const Trace full = MakeTrace(4, 2000, 13);
  const std::string bin_path = TempPath("detect.dcvb");
  const std::string csv_path = TempPath("detect.csv");
  io::WriterOptions options;
  options.codec = io::RowCodec::kDelta;
  options.block_rows = 256;
  ASSERT_TRUE(WriteTraceBin(full, bin_path, options).ok());
  ASSERT_TRUE(full.WriteCsv(csv_path).ok());

  auto from_bin = LoadTrace(bin_path);
  auto from_csv = LoadTrace(csv_path);
  ASSERT_TRUE(from_bin.ok() && from_csv.ok());

  for (const std::string scheme_kind : {"local", "polling"}) {
    auto run = [&](const Trace& trace) -> Result<SimResult> {
      DCV_ASSIGN_OR_RETURN(Trace training, trace.Slice(0, 1000));
      DCV_ASSIGN_OR_RETURN(Trace eval,
                           trace.Slice(1000, trace.num_epochs()));
      SimOptions sim;
      // Tight enough that both alarms and real violations occur.
      sim.global_threshold = 4 * 520;
      FptasSolver solver(0.05);
      if (scheme_kind == "local") {
        LocalThresholdScheme::Options lo;
        lo.solver = &solver;
        LocalThresholdScheme scheme(lo);
        return RunSimulation(&scheme, sim, training, eval);
      }
      PollingScheme scheme(/*period=*/5);
      return RunSimulation(&scheme, sim, training, eval);
    };
    auto bin_result = run(*from_bin);
    auto csv_result = run(*from_csv);
    ASSERT_TRUE(bin_result.ok()) << bin_result.status();
    ASSERT_TRUE(csv_result.ok()) << csv_result.status();
    ExpectSameSimResult(*bin_result, *csv_result);
    EXPECT_GT(bin_result->true_violations, 0) << scheme_kind;
  }
  std::remove(bin_path.c_str());
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace dcv

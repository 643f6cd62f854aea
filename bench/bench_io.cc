// Throughput and size of the binary columnar trace format (src/io): for
// each workload profile x row codec (delta, zoh), write the trace to disk
// through BlockWriter, scan it back through BlockReader, and report
// encode/decode throughput plus the on-disk size against the same
// trace as CSV. "MB/s" is logical int64 payload (rows * sites * 8 bytes)
// per wall second — the replay rate a consumer of the decoded values sees,
// independent of how well the codec shrank the file.
//
// Profiles:
//   ar1_smooth  - AR(1)-style random walk per site (small steps around a
//                 large level): the paper's SNMP-like autocorrelation in
//                 its purest form; delta's best case.
//   snmp        - the repo's diurnal SNMP generator (trace/snmp_synth.h):
//                 realistic mixed behavior.
//   sparse_step - long plateaus with rare level shifts (slowly-changing
//                 counters sampled fast); zoh's best case.
//   random      - uniform noise; the incompressibility floor.
//
// Usage: bench_io [--epochs 100000] [--sites 8] [--seed 42] [--dir .]
//                 [--json BENCH_io.json]
//
// --json dumps every (profile, codec) cell's file size, ratio
// vs CSV, and throughputs as gauges (the BENCH_io.json artifact;
// EXPERIMENTS.md quotes it).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "io/block_reader.h"
#include "io/format.h"
#include "obs/obs.h"
#include "trace/snmp_synth.h"
#include "trace/trace.h"
#include "trace/trace_bin.h"

namespace dcv {
namespace {

struct BenchConfig {
  int64_t epochs = 100000;
  int64_t sites = 8;
  uint64_t seed = 42;
  std::string dir = ".";
  std::string json_path;
};

Result<BenchConfig> ParseArgs(int argc, char** argv) {
  FlagSet flags;
  flags.Value("epochs").Value("sites").Value("seed").Value("dir")
      .Value("json");
  DCV_ASSIGN_OR_RETURN(ParsedFlags parsed, flags.Parse(argc, argv, 1));
  BenchConfig config;
  DCV_ASSIGN_OR_RETURN(config.epochs, parsed.GetInt("epochs", config.epochs));
  DCV_ASSIGN_OR_RETURN(config.sites, parsed.GetInt("sites", config.sites));
  if (config.epochs < 1 || config.sites < 1) {
    return InvalidArgumentError("--epochs and --sites must be >= 1");
  }
  DCV_ASSIGN_OR_RETURN(
      int64_t seed, parsed.GetInt("seed", static_cast<int64_t>(config.seed)));
  config.seed = static_cast<uint64_t>(seed);
  config.dir = parsed.GetString("dir", config.dir);
  config.json_path = parsed.GetString("json", "");
  return config;
}

/// AR(1)-style walk: each site holds a ~50k level and moves by a small
/// uniform step every epoch. Steps fit one zigzag-varint byte, which is the
/// regime the delta codec is built for.
Trace MakeAr1Trace(const BenchConfig& config) {
  Rng rng(config.seed);
  Trace trace(static_cast<int>(config.sites));
  std::vector<int64_t> values(static_cast<size_t>(config.sites), 50000);
  for (int64_t t = 0; t < config.epochs; ++t) {
    for (auto& v : values) {
      v += rng.UniformInt(-31, 31);
      if (v < 0) v = 0;
      if (v > 100000) v = 100000;
    }
    DCV_CHECK(trace.AppendEpoch(values).ok());
  }
  return trace;
}

/// Plateaus with rare jumps: a site keeps its value for ~100 epochs, then
/// steps to a new level. Zero-order-hold runs cover whole plateaus.
Trace MakeSparseStepTrace(const BenchConfig& config) {
  Rng rng(config.seed + 1);
  Trace trace(static_cast<int>(config.sites));
  std::vector<int64_t> values(static_cast<size_t>(config.sites));
  for (auto& v : values) {
    v = rng.UniformInt(0, 1000000);
  }
  for (int64_t t = 0; t < config.epochs; ++t) {
    for (auto& v : values) {
      if (rng.Bernoulli(0.01)) {
        v = rng.UniformInt(0, 1000000);
      }
    }
    DCV_CHECK(trace.AppendEpoch(values).ok());
  }
  return trace;
}

Trace MakeRandomTrace(const BenchConfig& config) {
  Rng rng(config.seed + 2);
  Trace trace(static_cast<int>(config.sites));
  std::vector<int64_t> values(static_cast<size_t>(config.sites));
  for (int64_t t = 0; t < config.epochs; ++t) {
    for (auto& v : values) {
      v = rng.UniformInt(0, 1000000);
    }
    DCV_CHECK(trace.AppendEpoch(values).ok());
  }
  return trace;
}

Result<Trace> MakeSnmpTrace(const BenchConfig& config) {
  SnmpTraceOptions options;
  options.num_sites = static_cast<int>(config.sites);
  options.seed = config.seed + 3;
  // Enough weeks to reach the requested epoch count, then trim.
  options.num_weeks = static_cast<int>(
      (config.epochs + EpochsPerWeek(options) - 1) / EpochsPerWeek(options));
  DCV_ASSIGN_OR_RETURN(Trace full, GenerateSnmpTrace(options));
  const int64_t n = std::min(config.epochs, full.num_epochs());
  return full.Slice(0, n);
}

Result<int64_t> FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError("cannot open file: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  if (size < 0) {
    return InternalError("cannot size file: " + path);
  }
  return static_cast<int64_t>(size);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Scans the whole file through BlockReader::Next, returning decoded rows.
/// This is the replay fast path (no Trace assembly), which is what the
/// decode throughput column measures.
Result<int64_t> ScanFile(const std::string& path) {
  DCV_ASSIGN_OR_RETURN(auto reader, io::BlockReader::Open(path));
  io::ColumnBlock block;
  int64_t rows = 0;
  for (;;) {
    DCV_ASSIGN_OR_RETURN(bool more, reader->Next(&block));
    if (!more) {
      return rows;
    }
    rows += block.rows;
  }
}

Status RunOne(const Trace& trace, const std::string& profile,
              int64_t csv_bytes, io::RowCodec codec, const BenchConfig& config,
              obs::MetricsRegistry* summary) {
  const std::string path = config.dir + "/bench_io_tmp.dcvb";
  io::WriterOptions options;
  options.codec = codec;

  const double logical_mb = static_cast<double>(trace.num_epochs()) *
                            static_cast<double>(trace.num_sites()) * 8.0 /
                            1e6;
  auto start = std::chrono::steady_clock::now();
  DCV_RETURN_IF_ERROR(WriteTraceBin(trace, path, options));
  const double encode_s = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  DCV_ASSIGN_OR_RETURN(int64_t rows, ScanFile(path));
  const double decode_s = SecondsSince(start);
  if (rows != trace.num_epochs()) {
    return InternalError("scan returned " + std::to_string(rows) +
                         " rows, expected " +
                         std::to_string(trace.num_epochs()));
  }

  DCV_ASSIGN_OR_RETURN(int64_t file_bytes, FileSize(path));
  std::remove(path.c_str());
  const double ratio =
      static_cast<double>(csv_bytes) / static_cast<double>(file_bytes);
  const double encode_mb_s = logical_mb / encode_s;
  const double decode_mb_s = logical_mb / decode_s;

  const std::string label(io::RowCodecName(codec));
  std::printf("%12s %12s %12" PRId64 " %12" PRId64 " %10.2f %12.1f %12.1f\n",
              profile.c_str(), label.c_str(), csv_bytes, file_bytes, ratio,
              encode_mb_s, decode_mb_s);

  const std::string prefix = "bench/io/" + profile + "/" + label + "/";
  summary->gauge(prefix + "file_bytes")
      ->Set(static_cast<double>(file_bytes));
  summary->gauge(prefix + "csv_bytes")->Set(static_cast<double>(csv_bytes));
  summary->gauge(prefix + "ratio_vs_csv")->Set(ratio);
  summary->gauge(prefix + "encode_mb_s")->Set(encode_mb_s);
  summary->gauge(prefix + "decode_mb_s")->Set(decode_mb_s);
  return OkStatus();
}

Status RunBench(const BenchConfig& config) {
  obs::MetricsRegistry summary;
  std::printf("# binary trace format: %" PRId64 " epochs x %" PRId64
              " sites per profile\n",
              config.epochs, config.sites);
  std::printf("%12s %12s %12s %12s %10s %12s %12s\n", "profile", "codec",
              "csv-bytes", "file-bytes", "ratio", "enc-MB/s", "dec-MB/s");

  struct Profile {
    std::string name;
    Trace trace;
  };
  std::vector<Profile> profiles;
  profiles.push_back({"ar1_smooth", MakeAr1Trace(config)});
  {
    DCV_ASSIGN_OR_RETURN(Trace snmp, MakeSnmpTrace(config));
    profiles.push_back({"snmp", std::move(snmp)});
  }
  profiles.push_back({"sparse_step", MakeSparseStepTrace(config)});
  profiles.push_back({"random", MakeRandomTrace(config)});

  for (const Profile& profile : profiles) {
    const std::string csv_path = config.dir + "/bench_io_tmp.csv";
    DCV_RETURN_IF_ERROR(profile.trace.WriteCsv(csv_path));
    DCV_ASSIGN_OR_RETURN(int64_t csv_bytes, FileSize(csv_path));
    std::remove(csv_path.c_str());
    for (io::RowCodec codec : {io::RowCodec::kDelta, io::RowCodec::kZoh}) {
      DCV_RETURN_IF_ERROR(RunOne(profile.trace, profile.name, csv_bytes,
                                 codec, config, &summary));
    }
  }
  if (!config.json_path.empty() &&
      !bench::WriteMetricsJson(summary, config.json_path)) {
    return InternalError("cannot write " + config.json_path);
  }
  return OkStatus();
}

}  // namespace
}  // namespace dcv

int main(int argc, char** argv) {
  auto config = dcv::ParseArgs(argc, argv);
  if (!config.ok()) {
    std::fprintf(stderr, "bench_io: %s\n",
                 std::string(config.status().message()).c_str());
    return 2;
  }
  dcv::Status status = dcv::RunBench(*config);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_io: %s\n",
                 std::string(status.message()).c_str());
    return 1;
  }
  return 0;
}

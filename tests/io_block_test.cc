#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "io/block_reader.h"
#include "io/block_writer.h"
#include "io/format.h"

namespace dcv::io {
namespace {

/// Per-process temp path: ctest runs each discovered test in its own
/// process in parallel, so bare names would collide across tests.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/io_block_" + std::to_string(getpid()) + "_" +
         name;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError(path);
  }
  std::fseek(f, 0, SEEK_END);
  std::string out(static_cast<size_t>(std::ftell(f)), '\0');
  std::fseek(f, 0, SEEK_SET);
  const size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) {
    return InternalError("short read");
  }
  return out;
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return InternalError(path);
  }
  const size_t put = std::fwrite(bytes.data(), 1, bytes.size(), f);
  if (std::fclose(f) != 0 || put != bytes.size()) {
    return InternalError("short write");
  }
  return OkStatus();
}

/// Builds a deterministic multi-column workload.
std::vector<std::vector<int64_t>> MakeColumns(int64_t rows, int cols,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> columns(static_cast<size_t>(cols));
  for (auto& col : columns) {
    int64_t v = 1000;
    for (int64_t r = 0; r < rows; ++r) {
      v += rng.UniformInt(-9, 9);
      col.push_back(v);
    }
  }
  return columns;
}

/// Writes `columns` to `path` and returns the Finish status.
Status WriteFile(const std::string& path,
                 const std::vector<std::vector<int64_t>>& columns,
                 int64_t rows, const WriterOptions& options) {
  std::vector<std::string> names;
  for (size_t c = 0; c < columns.size(); ++c) {
    names.push_back("col" + std::to_string(c));
  }
  DCV_ASSIGN_OR_RETURN(auto writer, BlockWriter::Open(path, names, options));
  DCV_RETURN_IF_ERROR(writer->AppendColumns(columns, rows));
  return writer->Finish();
}

/// Scans the whole file and returns the reassembled columns.
Result<std::vector<std::vector<int64_t>>> ScanFile(const std::string& path) {
  DCV_ASSIGN_OR_RETURN(auto reader, BlockReader::Open(path));
  std::vector<std::vector<int64_t>> columns(reader->column_names().size());
  ColumnBlock block;
  for (;;) {
    DCV_ASSIGN_OR_RETURN(bool more, reader->Next(&block));
    if (!more) {
      return columns;
    }
    for (size_t c = 0; c < columns.size(); ++c) {
      columns[c].insert(columns[c].end(), block.columns[c].begin(),
                        block.columns[c].end());
    }
  }
}

TEST(BlockWriterTest, RoundTripsDeltaAndZoh) {
  const auto columns = MakeColumns(1000, 3, 1);
  for (RowCodec codec : {RowCodec::kDelta, RowCodec::kZoh}) {
    const std::string path = TempPath("rt.dcvb");
    WriterOptions options;
    options.codec = codec;
    options.block_rows = 128;  // Forces multiple blocks + a partial tail.
    ASSERT_TRUE(WriteFile(path, columns, 1000, options).ok());
    auto back = ScanFile(path);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, columns) << RowCodecName(codec);
    std::remove(path.c_str());
  }
}

TEST(BlockWriterTest, RowAndColumnAppendsAgree) {
  const auto columns = MakeColumns(257, 2, 2);
  const std::string row_path = TempPath("rows.dcvb");
  const std::string col_path = TempPath("cols.dcvb");
  WriterOptions options;
  options.block_rows = 64;
  ASSERT_TRUE(WriteFile(col_path, columns, 257, options).ok());
  {
    auto writer = BlockWriter::Open(row_path, {"col0", "col1"}, options);
    ASSERT_TRUE(writer.ok());
    for (int64_t r = 0; r < 257; ++r) {
      ASSERT_TRUE((*writer)
                      ->AppendRow({columns[0][static_cast<size_t>(r)],
                                   columns[1][static_cast<size_t>(r)]})
                      .ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto row_bytes = ReadFileBytes(row_path);
  auto col_bytes = ReadFileBytes(col_path);
  ASSERT_TRUE(row_bytes.ok() && col_bytes.ok());
  EXPECT_EQ(*row_bytes, *col_bytes);  // Byte-identical files.
  std::remove(row_path.c_str());
  std::remove(col_path.c_str());
}

TEST(BlockWriterTest, ValidatesOptionsAndRows) {
  const std::string path = TempPath("opts.dcvb");
  EXPECT_FALSE(BlockWriter::Open(path, {}, {}).ok());  // No columns.
  WriterOptions bad_rows;
  bad_rows.block_rows = 0;
  EXPECT_FALSE(BlockWriter::Open(path, {"a"}, bad_rows).ok());
  auto writer = BlockWriter::Open(path, {"a", "b"}, {});
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE((*writer)->AppendRow({1}).ok());  // Width mismatch.
  ASSERT_TRUE((*writer)->Finish().ok());
  std::remove(path.c_str());
}

TEST(BlockWriterTest, EmptyFileRoundTrips) {
  const std::string path = TempPath("empty.dcvb");
  WriterOptions options;
  ASSERT_TRUE(WriteFile(path, {{}, {}}, 0, options).ok());
  auto reader = BlockReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ColumnBlock block;
  auto more = (*reader)->Next(&block);
  ASSERT_TRUE(more.ok()) << more.status();
  EXPECT_FALSE(*more);
  ASSERT_TRUE((*reader)->LoadIndex().ok());
  EXPECT_EQ((*reader)->total_rows(), 0);
  std::remove(path.c_str());
}

TEST(BlockReaderTest, IndexAndSeek) {
  const auto columns = MakeColumns(1000, 2, 3);
  const std::string path = TempPath("seek.dcvb");
  WriterOptions options;
  options.block_rows = 100;
  ASSERT_TRUE(WriteFile(path, columns, 1000, options).ok());
  auto reader = BlockReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->LoadIndex().ok());
  EXPECT_EQ((*reader)->total_rows(), 1000);
  EXPECT_EQ((*reader)->index().size(), 10u);
  // Seek into the middle and verify the stream resumes at block granularity.
  ASSERT_TRUE((*reader)->SeekToRow(437).ok());
  ColumnBlock block;
  auto more = (*reader)->Next(&block);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(block.first_row, 400);
  EXPECT_EQ(block.rows, 100);
  EXPECT_EQ(block.columns[0][37], columns[0][437]);
  // And the scan still finishes cleanly from there.
  int64_t rows = block.rows;
  for (;;) {
    auto next = (*reader)->Next(&block);
    ASSERT_TRUE(next.ok()) << next.status();
    if (!*next) break;
    rows += block.rows;
  }
  EXPECT_EQ(rows, 600);
  EXPECT_FALSE((*reader)->SeekToRow(1000).ok());
  EXPECT_FALSE((*reader)->SeekToRow(-1).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Corruption regression tests: every malformed input must fail with a
// clear Status (never a crash, hang, or silent partial read).

class CorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.dcvb");
    bytes_ = WriteSample(path_, RowCodec::kDelta);
  }

  /// Writes the 300-row, three-block sample file with `codec` to `path`
  /// and returns its bytes.
  static std::string WriteSample(const std::string& path, RowCodec codec) {
    WriterOptions options;
    options.codec = codec;
    options.block_rows = 100;
    EXPECT_TRUE(WriteFile(path, MakeColumns(300, 2, 4), 300, options).ok());
    auto bytes = ReadFileBytes(path);
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? *bytes : std::string();
  }

  /// The sample file's bytes for each codec.
  static std::vector<std::pair<RowCodec, std::string>> SamplePerCodec() {
    std::vector<std::pair<RowCodec, std::string>> samples;
    const std::string path = TempPath("corrupt_sample.dcvb");
    for (RowCodec codec : {RowCodec::kDelta, RowCodec::kZoh}) {
      samples.emplace_back(codec, WriteSample(path, codec));
    }
    std::remove(path.c_str());
    return samples;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Full sequential scan; also exercises LoadIndex on a fresh reader.
  Status Scan(const std::string& bytes) {
    const std::string path = TempPath("corrupt_case.dcvb");
    Status write = WriteFileBytes(path, bytes);
    if (!write.ok()) {
      return write;
    }
    auto scanned = ScanFile(path);
    Status status = scanned.status();
    if (status.ok()) {
      auto reader = BlockReader::Open(path);
      if (reader.ok()) {
        status = (*reader)->LoadIndex();
      }
    }
    std::remove(path.c_str());
    return status;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(CorruptionTest, EveryBitFlipIsDetected) {
  // Flip one bit in every byte of the file; CRCs, structural checks, and
  // the footer cross-checks must catch each one.
  for (const auto& [codec, bytes] : SamplePerCodec()) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
      EXPECT_FALSE(Scan(corrupt).ok())
          << RowCodecName(codec) << " bit flip at byte " << i;
    }
  }
}

TEST_F(CorruptionTest, EveryPrefixCutIsDetected) {
  // Cut the file after every prefix length (0 included): an interrupted
  // writer or download must read as truncated, not as a shorter trace.
  for (const auto& [codec, bytes] : SamplePerCodec()) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(Scan(bytes.substr(0, len)).ok())
          << RowCodecName(codec) << " prefix cut to " << len << " bytes";
    }
  }
}

TEST_F(CorruptionTest, TruncationNamesTheProblem) {
  // Cut inside the data region: the scan ends with a "truncated" error,
  // and LoadIndex reports the missing end marker.
  std::string cut = bytes_.substr(0, bytes_.size() / 2);
  const std::string path = TempPath("cut.dcvb");
  ASSERT_TRUE(WriteFileBytes(path, cut).ok());
  auto scanned = ScanFile(path);
  ASSERT_FALSE(scanned.ok());
  EXPECT_NE(scanned.status().message().find("truncated"), std::string::npos)
      << scanned.status();
  auto reader = BlockReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Status index = (*reader)->LoadIndex();
  ASSERT_FALSE(index.ok());
  EXPECT_NE(index.message().find("end marker"), std::string::npos) << index;
  std::remove(path.c_str());
}

TEST_F(CorruptionTest, PayloadBitRotIsAcrcMismatch) {
  // The byte right after the first block's 16-byte header is payload; its
  // corruption must be reported as a CRC mismatch specifically.
  auto reader = BlockReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->LoadIndex().ok());
  const size_t payload_at =
      static_cast<size_t>((*reader)->index()[0].offset) + 16;
  std::string corrupt = bytes_;
  corrupt[payload_at] = static_cast<char>(corrupt[payload_at] ^ 0x40);
  Status status = Scan(corrupt);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CRC mismatch"), std::string::npos)
      << status;
}

TEST_F(CorruptionTest, OverLengthBlockIsRejectedByName) {
  // Replace the first block's payload_len with a prefix past the format
  // cap: rejected before any allocation is sized from it.
  auto reader = BlockReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->LoadIndex().ok());
  const size_t block_at = static_cast<size_t>((*reader)->index()[0].offset);
  std::string corrupt = bytes_;
  std::string huge;
  AppendLe32(kMaxBlockPayload + 1, &huge);
  corrupt.replace(block_at, 4, huge);
  Status status = Scan(corrupt);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("over-length"), std::string::npos)
      << status;
}

TEST_F(CorruptionTest, NotAFormatFileIsRejected) {
  EXPECT_FALSE(Scan("epoch,site0\n0,1\n").ok());
  EXPECT_FALSE(Scan("").ok());
  EXPECT_FALSE(Scan("DCV").ok());
}

// ---------------------------------------------------------------------
// Retired header values: codec byte 0 and header byte 6 = 1 each carry a
// valid CRC in old files, and must be rejected at Open by name.

/// A one-column header with a valid CRC and the given codec and byte 6.
std::string HeaderWith(uint8_t codec_byte, uint8_t byte6) {
  std::string header;
  AppendLe32(kFileMagic, &header);
  header.push_back(static_cast<char>(kFormatVersion));
  header.push_back(static_cast<char>(codec_byte));
  header.push_back(static_cast<char>(byte6));
  header.push_back('\0');
  AppendLe32(1, &header);  // num_columns.
  std::string schema;
  AppendLe16(1, &schema);
  schema += "a";
  AppendLe32(static_cast<uint32_t>(schema.size()), &header);
  header += schema;
  AppendLe32(Crc32(header), &header);
  return header;
}

TEST(BlockReaderTest, RejectsRetiredCodecAndCompressionByName) {
  const struct {
    uint8_t codec_byte;
    uint8_t byte6;
    const char* name;
  } cases[] = {{0, 0, "flat"}, {static_cast<uint8_t>(RowCodec::kDelta), 1,
                                "lz4"}};
  const std::string path = TempPath("retired.dcvb");
  for (const auto& c : cases) {
    ASSERT_TRUE(WriteFileBytes(path, HeaderWith(c.codec_byte, c.byte6)).ok());
    auto reader = BlockReader::Open(path);
    ASSERT_FALSE(reader.ok()) << c.name;
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument)
        << reader.status();
    EXPECT_NE(reader.status().message().find(c.name), std::string::npos)
        << reader.status();
  }
  // The same header with byte 6 = 0 opens: the rejection is the retired
  // value, not the hand-built header.
  ASSERT_TRUE(WriteFileBytes(
                  path, HeaderWith(static_cast<uint8_t>(RowCodec::kZoh), 0))
                  .ok());
  EXPECT_TRUE(BlockReader::Open(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcv::io

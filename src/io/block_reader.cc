#include "io/block_reader.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/crc32.h"

namespace dcv::io {
namespace {

/// Footer entries are 20 bytes each; cap the count so a corrupt footer
/// cannot size an allocation from garbage (4M blocks of 4096 rows is a
/// 17-billion-row trace — far past anything real).
constexpr uint32_t kMaxFooterBlocks = 1u << 22;

constexpr char kTruncated[] = "truncated file: ";

}  // namespace

Result<std::unique_ptr<BlockReader>> BlockReader::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError("cannot open file: " + path);
  }
  // Fixed preamble: magic, version, codec, two reserved bytes,
  // num_columns, schema_len.
  uint8_t pre[16];
  if (std::fread(pre, 1, sizeof(pre), file) != sizeof(pre)) {
    std::fclose(file);
    return InvalidArgumentError(std::string(kTruncated) +
                                "EOF inside the file header");
  }
  if (ReadLe32(pre) != kFileMagic) {
    std::fclose(file);
    return InvalidArgumentError("not a dcv binary trace (bad magic)");
  }
  if (pre[4] != kFormatVersion) {
    std::fclose(file);
    return InvalidArgumentError(
        "unsupported binary trace version " + std::to_string(pre[4]) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        ")");
  }
  // Codec byte 0 and byte 6 = 1 are retired values; name them so a file
  // that carries one reads as unsupported rather than corrupt.
  if (pre[5] == 0) {
    std::fclose(file);
    return InvalidArgumentError(
        "row codec byte 0 is the retired 'flat' codec (this build reads "
        "delta and zoh)");
  }
  if (pre[5] > static_cast<uint8_t>(RowCodec::kZoh)) {
    std::fclose(file);
    return InvalidArgumentError("unknown row codec byte " +
                                std::to_string(pre[5]));
  }
  const RowCodec codec = static_cast<RowCodec>(pre[5]);
  if (pre[6] == 1) {
    std::fclose(file);
    return InvalidArgumentError(
        "header byte 6 = 1 is the retired 'lz4' block compression (this "
        "build reads uncompressed blocks only)");
  }
  if (pre[6] != 0 || pre[7] != 0) {
    std::fclose(file);
    return InvalidArgumentError("reserved header byte is not zero");
  }
  const uint32_t num_columns = ReadLe32(pre + 8);
  const uint32_t schema_len = ReadLe32(pre + 12);
  if (num_columns == 0 || num_columns > kMaxColumns) {
    std::fclose(file);
    return InvalidArgumentError("over-length header: column count " +
                                std::to_string(num_columns));
  }
  if (schema_len > kMaxSchemaLen || schema_len < 2 * num_columns) {
    std::fclose(file);
    return InvalidArgumentError("over-length header: schema length " +
                                std::to_string(schema_len) + " for " +
                                std::to_string(num_columns) + " columns");
  }
  std::string schema(schema_len, '\0');
  if (std::fread(schema.data(), 1, schema_len, file) != schema_len) {
    std::fclose(file);
    return InvalidArgumentError(std::string(kTruncated) +
                                "EOF inside the schema section");
  }
  uint8_t crc_bytes[4];
  if (std::fread(crc_bytes, 1, 4, file) != 4) {
    std::fclose(file);
    return InvalidArgumentError(std::string(kTruncated) +
                                "EOF before the header CRC");
  }
  uint32_t crc = Crc32(pre, sizeof(pre));
  crc = Crc32(schema.data(), schema.size(), crc);
  if (crc != ReadLe32(crc_bytes)) {
    std::fclose(file);
    return InvalidArgumentError("header CRC mismatch (corrupt file)");
  }
  // Parse the name section; it must consume schema_len exactly.
  std::vector<std::string> names;
  names.reserve(num_columns);
  size_t pos = 0;
  for (uint32_t c = 0; c < num_columns; ++c) {
    if (pos + 2 > schema.size()) {
      std::fclose(file);
      return InvalidArgumentError("corrupt schema: name table truncated");
    }
    const uint16_t len =
        ReadLe16(reinterpret_cast<const uint8_t*>(schema.data()) + pos);
    pos += 2;
    if (pos + len > schema.size()) {
      std::fclose(file);
      return InvalidArgumentError("corrupt schema: name overruns section");
    }
    names.emplace_back(schema.substr(pos, len));
    pos += len;
  }
  if (pos != schema.size()) {
    std::fclose(file);
    return InvalidArgumentError("corrupt schema: trailing bytes");
  }
  const long data_start = std::ftell(file);
  if (data_start < 0) {
    std::fclose(file);
    return InternalError("ftell failed on binary trace");
  }
  return std::unique_ptr<BlockReader>(
      new BlockReader(file, std::move(names), codec, data_start));
}

BlockReader::BlockReader(std::FILE* file,
                         std::vector<std::string> column_names,
                         RowCodec codec, int64_t data_start)
    : file_(file),
      column_names_(std::move(column_names)),
      codec_(codec),
      data_start_(data_start) {}

BlockReader::~BlockReader() { std::fclose(file_); }

Status BlockReader::ReadExact(void* buf, size_t n, const char* what) {
  if (std::fread(buf, 1, n, file_) != n) {
    if (std::feof(file_)) {
      return InvalidArgumentError(std::string(kTruncated) + "EOF inside " +
                                  what);
    }
    return InternalError(std::string("I/O error reading ") + what);
  }
  return OkStatus();
}

Result<bool> BlockReader::Next(ColumnBlock* out) {
  if (end_seen_) {
    return false;
  }
  uint8_t prefix[4];
  DCV_RETURN_IF_ERROR(ReadExact(prefix, 4, "a block length prefix"));
  const uint32_t payload_len = ReadLe32(prefix);
  if (payload_len == 0) {
    // End-of-data sentinel: validate the footer before declaring the scan
    // clean, and cross-check the row total against what we actually read.
    const long footer_pos = std::ftell(file_);
    if (footer_pos < 0) {
      return InternalError("ftell failed on binary trace");
    }
    DCV_RETURN_IF_ERROR(ReadFooterAt(footer_pos));
    if (next_row_ != total_rows_) {
      return InvalidArgumentError(
          "corrupt file: footer claims " + std::to_string(total_rows_) +
          " rows but the data blocks held " + std::to_string(next_row_));
    }
    end_seen_ = true;
    return false;
  }
  if (payload_len > kMaxBlockPayload) {
    return InvalidArgumentError(
        "over-length block: payload length " + std::to_string(payload_len) +
        " exceeds the format cap of " + std::to_string(kMaxBlockPayload));
  }
  uint8_t head[12];
  DCV_RETURN_IF_ERROR(ReadExact(head, sizeof(head), "a block header"));
  const uint32_t rows = ReadLe32(head);
  const uint32_t raw_len = ReadLe32(head + 4);
  const uint32_t expect_crc = ReadLe32(head + 8);
  if (rows == 0 || rows > kMaxBlockRows) {
    return InvalidArgumentError("over-length block: row count " +
                                std::to_string(rows));
  }
  if (raw_len != payload_len) {
    return InvalidArgumentError(
        "corrupt block: raw length " + std::to_string(raw_len) +
        " differs from payload length " + std::to_string(payload_len));
  }
  payload_buf_.resize(payload_len);
  DCV_RETURN_IF_ERROR(
      ReadExact(payload_buf_.data(), payload_len, "a block payload"));
  if (Crc32(payload_buf_) != expect_crc) {
    return InvalidArgumentError("block CRC mismatch (corrupt file)");
  }
  DCV_RETURN_IF_ERROR(DecodeColumns(
      codec_, reinterpret_cast<const uint8_t*>(payload_buf_.data()),
      payload_buf_.size(), static_cast<int64_t>(column_names_.size()),
      static_cast<int64_t>(rows), &out->columns));
  out->first_row = next_row_;
  out->rows = static_cast<int64_t>(rows);
  next_row_ += static_cast<int64_t>(rows);
  return true;
}

Status BlockReader::ReadFooterAt(int64_t footer_pos) {
  uint8_t count_bytes[4];
  DCV_RETURN_IF_ERROR(ReadExact(count_bytes, 4, "the footer"));
  const uint32_t num_blocks = ReadLe32(count_bytes);
  if (num_blocks > kMaxFooterBlocks) {
    return InvalidArgumentError("over-length footer: block count " +
                                std::to_string(num_blocks));
  }
  std::string entries(static_cast<size_t>(num_blocks) * 20 + 8, '\0');
  DCV_RETURN_IF_ERROR(
      ReadExact(entries.data(), entries.size(), "the footer index"));
  uint8_t crc_bytes[4];
  DCV_RETURN_IF_ERROR(ReadExact(crc_bytes, 4, "the footer CRC"));
  uint32_t crc = Crc32(count_bytes, 4);
  crc = Crc32(entries.data(), entries.size(), crc);
  if (crc != ReadLe32(crc_bytes)) {
    return InvalidArgumentError("footer CRC mismatch (corrupt file)");
  }
  uint8_t tail[12];
  DCV_RETURN_IF_ERROR(ReadExact(tail, sizeof(tail), "the footer tail"));
  if (ReadLe32(tail + 8) != kEndMagic) {
    return InvalidArgumentError("corrupt file: bad end marker");
  }
  if (ReadLe64(tail) != static_cast<uint64_t>(footer_pos)) {
    return InvalidArgumentError(
        "corrupt file: footer self-offset does not match its position");
  }

  const uint8_t* p = reinterpret_cast<const uint8_t*>(entries.data());
  std::vector<BlockIndexEntry> index;
  index.reserve(num_blocks);
  int64_t expect_row = 0;
  uint64_t prev_offset = 0;
  for (uint32_t i = 0; i < num_blocks; ++i) {
    BlockIndexEntry e;
    e.offset = ReadLe64(p);
    e.first_row = static_cast<int64_t>(ReadLe64(p + 8));
    e.rows = static_cast<int64_t>(ReadLe32(p + 16));
    p += 20;
    if (e.offset < static_cast<uint64_t>(data_start_) ||
        (i > 0 && e.offset <= prev_offset) || e.rows < 1 ||
        e.rows > static_cast<int64_t>(kMaxBlockRows) ||
        e.first_row != expect_row) {
      return InvalidArgumentError("corrupt footer: inconsistent index entry " +
                                  std::to_string(i));
    }
    prev_offset = e.offset;
    expect_row += e.rows;
    index.push_back(e);
  }
  const int64_t footer_total = static_cast<int64_t>(ReadLe64(p));
  if (footer_total != expect_row) {
    return InvalidArgumentError(
        "corrupt footer: total row count disagrees with the index");
  }
  total_rows_ = footer_total;
  index_ = std::move(index);
  index_loaded_ = true;
  return OkStatus();
}

Status BlockReader::LoadIndex() {
  if (index_loaded_) {
    return OkStatus();
  }
  const long saved = std::ftell(file_);
  if (saved < 0 || std::fseek(file_, 0, SEEK_END) != 0) {
    return InternalError("seek failed on binary trace");
  }
  const long size = std::ftell(file_);
  // Smallest complete file: header + sentinel(4) + empty footer(16) +
  // tail(12).
  if (size < data_start_ + 4 + 16 + 12) {
    std::fseek(file_, saved, SEEK_SET);
    return InvalidArgumentError(std::string(kTruncated) +
                                "no room for a footer");
  }
  if (std::fseek(file_, size - 12, SEEK_SET) != 0) {
    return InternalError("seek failed on binary trace");
  }
  uint8_t tail[12];
  Status s = ReadExact(tail, sizeof(tail), "the footer tail");
  if (s.ok() && ReadLe32(tail + 8) != kEndMagic) {
    s = InvalidArgumentError(
        "corrupt or truncated file: bad end marker (was the writer "
        "interrupted before Finish?)");
  }
  int64_t footer_pos = 0;
  if (s.ok()) {
    footer_pos = static_cast<int64_t>(ReadLe64(tail));
    if (footer_pos < data_start_ + 4 || footer_pos > size - 12) {
      s = InvalidArgumentError("corrupt file: footer offset out of range");
    }
  }
  if (s.ok()) {
    // The 4 bytes before the footer must be the end-of-data sentinel.
    uint8_t sentinel[4];
    if (std::fseek(file_, footer_pos - 4, SEEK_SET) != 0) {
      s = InternalError("seek failed on binary trace");
    } else {
      s = ReadExact(sentinel, 4, "the end sentinel");
      if (s.ok() && ReadLe32(sentinel) != 0) {
        s = InvalidArgumentError(
            "corrupt file: footer is not preceded by the end sentinel");
      }
    }
  }
  if (s.ok()) {
    s = ReadFooterAt(footer_pos);
  }
  if (std::fseek(file_, saved, SEEK_SET) != 0 && s.ok()) {
    s = InternalError("seek failed on binary trace");
  }
  return s;
}

Status BlockReader::SeekToRow(int64_t row) {
  DCV_RETURN_IF_ERROR(LoadIndex());
  if (row < 0 || row >= total_rows_) {
    return OutOfRangeError("row " + std::to_string(row) +
                           " out of range for a trace of " +
                           std::to_string(total_rows_) + " rows");
  }
  auto it = std::upper_bound(
      index_.begin(), index_.end(), row,
      [](int64_t r, const BlockIndexEntry& e) { return r < e.first_row; });
  const BlockIndexEntry& entry = *(it - 1);
  if (std::fseek(file_, static_cast<long>(entry.offset), SEEK_SET) != 0) {
    return InternalError("seek failed on binary trace");
  }
  next_row_ = entry.first_row;
  end_seen_ = false;
  return OkStatus();
}

}  // namespace dcv::io

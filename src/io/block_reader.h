#ifndef DCV_IO_BLOCK_READER_H_
#define DCV_IO_BLOCK_READER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/codec.h"
#include "io/format.h"

namespace dcv::io {

/// One footer index entry: where a block lives and which rows it holds.
struct BlockIndexEntry {
  uint64_t offset = 0;     ///< File offset of the block's length prefix.
  int64_t first_row = 0;
  int64_t rows = 0;
};

/// Streaming reader of the dcvb container. The sequential scan path
/// (Open + Next until false) holds exactly one block in memory — O(1) in
/// the trace length — which is what lets multi-GB traces replay at disk
/// speed. The footer index (LoadIndex / SeekToRow) adds random access for
/// tools that want a slice without scanning the prefix.
///
/// Corruption contract (regression-tested with bit-flipped and truncated
/// files): every malformed input yields a Status error naming the problem,
/// never a crash, hang, unbounded allocation, or silent partial read.
/// Distinct failure modes keep distinct messages, mirroring the socket
/// FrameReader's clean-EOF vs truncated_frame split:
///   * "truncated file"  — EOF inside a header, block, footer, or before
///                         the end sentinel (an aborted writer, a cut
///                         download);
///   * "CRC mismatch"    — bit rot inside an intact structure;
///   * "over-length"     — a length prefix beyond the format's bounds
///                         (corrupt or hostile; rejected before any
///                         allocation is sized from it).
class BlockReader {
 public:
  /// Opens and validates the header (magic, version, codec, reserved
  /// bytes, schema, header CRC). A retired codec or compression byte is
  /// rejected here with kInvalidArgument naming it.
  static Result<std::unique_ptr<BlockReader>> Open(const std::string& path);

  ~BlockReader();

  BlockReader(const BlockReader&) = delete;
  BlockReader& operator=(const BlockReader&) = delete;

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  RowCodec codec() const { return codec_; }

  /// Reads, verifies (CRC), and decodes the next block.
  /// Returns true with `*out` filled; false at the clean end of data
  /// (sentinel reached — the footer is then read and validated too, so a
  /// scan that returns false has proven the whole file intact); an error
  /// Status on any corruption.
  Result<bool> Next(ColumnBlock* out);

  /// Loads the block index from the footer (seeks to the file end and
  /// back). Idempotent. Required before index()/total_rows()/SeekToRow.
  Status LoadIndex();

  /// Total rows in the file, from the footer. LoadIndex must have run.
  int64_t total_rows() const { return total_rows_; }

  const std::vector<BlockIndexEntry>& index() const { return index_; }

  /// Positions the stream so the next Next() returns the block containing
  /// global row `row` (callers skip within the block via
  /// ColumnBlock::first_row). Runs LoadIndex if needed.
  Status SeekToRow(int64_t row);

 private:
  BlockReader(std::FILE* file, std::vector<std::string> column_names,
              RowCodec codec, int64_t data_start);

  /// Reads exactly n bytes into buf; distinguishes EOF ("truncated file")
  /// from I/O errors.
  Status ReadExact(void* buf, size_t n, const char* what);

  /// Parses + validates the footer assuming the stream is positioned at
  /// its first byte (just past the sentinel).
  Status ReadFooterAt(int64_t footer_pos);

  std::FILE* file_;
  std::vector<std::string> column_names_;
  RowCodec codec_;
  int64_t data_start_;   ///< File offset of the first block.
  int64_t next_row_ = 0; ///< Global row index of the next block's row 0.
  bool index_loaded_ = false;
  bool end_seen_ = false;
  int64_t total_rows_ = 0;
  std::vector<BlockIndexEntry> index_;
  std::string payload_buf_;  ///< Reused across blocks (O(1) memory scan).
};

}  // namespace dcv::io

#endif  // DCV_IO_BLOCK_READER_H_

#ifndef DCV_IO_BLOCK_WRITER_H_
#define DCV_IO_BLOCK_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/format.h"

namespace dcv::io {

/// Streaming writer of the dcvb container (see format.h). Rows are
/// buffered into structure-of-arrays column buffers; every
/// `options.block_rows` rows the block is encoded with the row codec and
/// written with fwrite on the caller's thread, so memory stays at one
/// block whatever the trace length.
///
/// Usage:
///   DCV_ASSIGN_OR_RETURN(auto writer,
///                        BlockWriter::Open(path, names, options));
///   for (...) DCV_RETURN_IF_ERROR(writer->AppendRow(values));
///   DCV_RETURN_IF_ERROR(writer->Finish());
///
/// Finish() flushes the partial block, writes the end sentinel and the
/// block-index footer, and closes the file; a writer destroyed without
/// Finish() closes the file truncated (readers will report it as such — a
/// half-written file is never valid).
class BlockWriter {
 public:
  static Result<std::unique_ptr<BlockWriter>> Open(
      const std::string& path, std::vector<std::string> column_names,
      const WriterOptions& options);

  ~BlockWriter();

  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  /// Appends one row; `values.size()` must equal the column count. A
  /// short write of a completed block surfaces here.
  Status AppendRow(const std::vector<int64_t>& values);

  /// Column-batch append: `columns[c]` holds `rows` values of column c.
  /// Equivalent to `rows` AppendRow calls but skips per-row dispatch — the
  /// fast path for converters that already hold columnar data.
  Status AppendColumns(const std::vector<std::vector<int64_t>>& columns,
                       int64_t rows);

  /// Flushes, writes sentinel + footer, closes the file. Must be called
  /// exactly once; returns the first write, flush or close error.
  Status Finish();

 private:
  BlockWriter(std::FILE* file, std::vector<std::string> column_names,
              const WriterOptions& options);

  /// Encodes + writes the buffered rows as one block; no-op when empty.
  Status FlushBlock();

  /// Writes `bytes` at the end of the file and advances next_offset_.
  Status Write(const std::string& bytes);

  std::FILE* file_;
  std::vector<std::string> column_names_;
  WriterOptions options_;

  std::vector<std::vector<int64_t>> pending_;  ///< SoA buffer being filled.
  int64_t pending_rows_ = 0;
  int64_t total_rows_ = 0;
  int64_t next_offset_ = 0;  ///< File offset after everything written.
  bool finished_ = false;

  /// Footer index: (offset, first_row, rows) per block.
  struct IndexEntry {
    uint64_t offset;
    uint64_t first_row;
    uint32_t rows;
  };
  std::vector<IndexEntry> index_;
  std::string payload_;  ///< Encoded block payload, reused across blocks.
};

}  // namespace dcv::io

#endif  // DCV_IO_BLOCK_WRITER_H_

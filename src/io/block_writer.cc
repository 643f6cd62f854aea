#include "io/block_writer.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "io/codec.h"

namespace dcv::io {
namespace {

std::string EncodeHeader(const std::vector<std::string>& names,
                         const WriterOptions& options) {
  std::string out;
  AppendLe32(kFileMagic, &out);
  out.push_back(static_cast<char>(kFormatVersion));
  out.push_back(static_cast<char>(options.codec));
  out.push_back('\0');  // Reserved (no block compression).
  out.push_back('\0');  // Reserved.
  AppendLe32(static_cast<uint32_t>(names.size()), &out);
  std::string schema;
  for (const auto& name : names) {
    AppendLe16(static_cast<uint16_t>(name.size()), &schema);
    schema += name;
  }
  AppendLe32(static_cast<uint32_t>(schema.size()), &out);
  out += schema;
  AppendLe32(Crc32(out), &out);
  return out;
}

}  // namespace

Result<std::unique_ptr<BlockWriter>> BlockWriter::Open(
    const std::string& path, std::vector<std::string> column_names,
    const WriterOptions& options) {
  if (column_names.empty() ||
      column_names.size() > static_cast<size_t>(kMaxColumns)) {
    return InvalidArgumentError(
        "binary trace needs between 1 and " + std::to_string(kMaxColumns) +
        " columns, got " + std::to_string(column_names.size()));
  }
  size_t schema_len = 0;
  for (const auto& name : column_names) {
    if (name.size() > 0xffff) {
      return InvalidArgumentError("column name longer than 65535 bytes");
    }
    schema_len += 2 + name.size();
  }
  if (schema_len > kMaxSchemaLen) {
    return InvalidArgumentError("schema section too large");
  }
  if (options.block_rows < 1 ||
      options.block_rows > static_cast<int64_t>(kMaxBlockRows)) {
    return InvalidArgumentError(
        "block_rows must be in [1, " + std::to_string(kMaxBlockRows) +
        "], got " + std::to_string(options.block_rows));
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return InternalError("cannot open '" + path + "' for writing");
  }
  auto writer = std::unique_ptr<BlockWriter>(
      new BlockWriter(file, std::move(column_names), options));
  DCV_RETURN_IF_ERROR(
      writer->Write(EncodeHeader(writer->column_names_, writer->options_)));
  return writer;
}

BlockWriter::BlockWriter(std::FILE* file,
                         std::vector<std::string> column_names,
                         const WriterOptions& options)
    : file_(file),
      column_names_(std::move(column_names)),
      options_(options),
      pending_(column_names_.size()) {
  for (auto& col : pending_) {
    col.reserve(static_cast<size_t>(options_.block_rows));
  }
}

BlockWriter::~BlockWriter() {
  if (!finished_) {
    // Abandoned writer: the file is missing its sentinel/footer, which
    // readers report as truncation — exactly right for an aborted write.
    std::fclose(file_);
  }
}

Status BlockWriter::AppendRow(const std::vector<int64_t>& values) {
  if (values.size() != column_names_.size()) {
    return InvalidArgumentError(
        "row has " + std::to_string(values.size()) + " values but the file "
        "has " + std::to_string(column_names_.size()) + " columns");
  }
  if (finished_) {
    return FailedPreconditionError("AppendRow after Finish");
  }
  for (size_t c = 0; c < values.size(); ++c) {
    pending_[c].push_back(values[c]);
  }
  if (++pending_rows_ >= options_.block_rows) {
    return FlushBlock();
  }
  return OkStatus();
}

Status BlockWriter::AppendColumns(
    const std::vector<std::vector<int64_t>>& columns, int64_t rows) {
  if (columns.size() != column_names_.size()) {
    return InvalidArgumentError("column-batch width mismatch");
  }
  if (finished_) {
    return FailedPreconditionError("AppendColumns after Finish");
  }
  for (const auto& col : columns) {
    if (static_cast<int64_t>(col.size()) != rows) {
      return InvalidArgumentError("ragged column batch");
    }
  }
  int64_t done = 0;
  while (done < rows) {
    const int64_t take =
        std::min(rows - done, options_.block_rows - pending_rows_);
    for (size_t c = 0; c < columns.size(); ++c) {
      pending_[c].insert(pending_[c].end(),
                         columns[c].begin() + done,
                         columns[c].begin() + done + take);
    }
    pending_rows_ += take;
    done += take;
    if (pending_rows_ >= options_.block_rows) {
      DCV_RETURN_IF_ERROR(FlushBlock());
    }
  }
  return OkStatus();
}

Status BlockWriter::FlushBlock() {
  if (pending_rows_ == 0) {
    return OkStatus();
  }
  payload_.clear();
  EncodeColumns(options_.codec, pending_, pending_rows_, &payload_);
  if (payload_.size() > kMaxBlockPayload) {
    return InternalError("encoded block exceeds kMaxBlockPayload");
  }

  std::string head;
  AppendLe32(static_cast<uint32_t>(payload_.size()), &head);
  AppendLe32(static_cast<uint32_t>(pending_rows_), &head);
  AppendLe32(static_cast<uint32_t>(payload_.size()), &head);  // raw_len.
  AppendLe32(Crc32(payload_), &head);

  index_.push_back({static_cast<uint64_t>(next_offset_),
                    static_cast<uint64_t>(total_rows_),
                    static_cast<uint32_t>(pending_rows_)});
  total_rows_ += pending_rows_;
  pending_rows_ = 0;
  for (auto& col : pending_) {
    col.clear();
  }
  DCV_RETURN_IF_ERROR(Write(head));
  return Write(payload_);
}

Status BlockWriter::Finish() {
  if (finished_) {
    return FailedPreconditionError("Finish called twice");
  }
  Status flush = FlushBlock();
  if (flush.ok()) {
    // Sentinel + footer.
    std::string tail;
    AppendLe32(0, &tail);  // End-of-data sentinel.
    const uint64_t footer_offset = static_cast<uint64_t>(next_offset_) + 4;
    std::string footer;
    AppendLe32(static_cast<uint32_t>(index_.size()), &footer);
    for (const auto& e : index_) {
      AppendLe64(e.offset, &footer);
      AppendLe64(e.first_row, &footer);
      AppendLe32(e.rows, &footer);
    }
    AppendLe64(static_cast<uint64_t>(total_rows_), &footer);
    AppendLe32(Crc32(footer), &footer);
    tail += footer;
    AppendLe64(footer_offset, &tail);
    AppendLe32(kEndMagic, &tail);
    flush = Write(tail);
  }
  finished_ = true;
  const bool flush_ok = std::fflush(file_) == 0;
  const bool close_ok = std::fclose(file_) == 0;
  if (flush.ok() && (!flush_ok || !close_ok)) {
    return InternalError("error flushing binary trace to disk");
  }
  return flush;
}

Status BlockWriter::Write(const std::string& bytes) {
  next_offset_ += static_cast<int64_t>(bytes.size());
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return InternalError("short write to binary trace file");
  }
  return OkStatus();
}

}  // namespace dcv::io

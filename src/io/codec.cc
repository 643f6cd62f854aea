#include "io/codec.h"

#include "common/bytes.h"
#include "common/logging.h"

namespace dcv::io {
namespace {

// Differences are taken in uint64 so INT64_MIN..INT64_MAX swings wrap
// instead of hitting signed overflow; decode adds them back in uint64 and
// the two's-complement wrap cancels exactly.
inline uint64_t WrappingDiff(int64_t a, int64_t b) {
  return static_cast<uint64_t>(a) - static_cast<uint64_t>(b);
}

inline int64_t WrappingAdd(int64_t base, uint64_t diff) {
  return static_cast<int64_t>(static_cast<uint64_t>(base) + diff);
}

void EncodeDeltaColumn(const std::vector<int64_t>& col, std::string* out) {
  int64_t prev = 0;
  for (int64_t v : col) {
    AppendVarint64(ZigZagEncode(static_cast<int64_t>(WrappingDiff(v, prev))),
                   out);
    prev = v;
  }
}

void EncodeZohColumn(const std::vector<int64_t>& col, std::string* out) {
  size_t i = 0;
  while (i < col.size()) {
    size_t run = 1;
    while (i + run < col.size() && col[i + run] == col[i]) {
      ++run;
    }
    AppendVarint64(run, out);
    AppendVarint64(ZigZagEncode(col[i]), out);
    i += run;
  }
}

Status DecodeDeltaColumn(const uint8_t** p, const uint8_t* end, int64_t rows,
                         std::vector<int64_t>* col) {
  col->resize(static_cast<size_t>(rows));
  int64_t prev = 0;
  for (int64_t r = 0; r < rows; ++r) {
    uint64_t zz = 0;
    const uint8_t* next = DecodeVarint64(*p, end, &zz);
    if (next == nullptr) {
      return InvalidArgumentError("corrupt block: delta varint truncated");
    }
    *p = next;
    prev = WrappingAdd(prev, static_cast<uint64_t>(ZigZagDecode(zz)));
    (*col)[static_cast<size_t>(r)] = prev;
  }
  return OkStatus();
}

Status DecodeZohColumn(const uint8_t** p, const uint8_t* end, int64_t rows,
                       std::vector<int64_t>* col) {
  col->clear();
  col->reserve(static_cast<size_t>(rows));
  while (static_cast<int64_t>(col->size()) < rows) {
    uint64_t run = 0;
    uint64_t zz = 0;
    const uint8_t* next = DecodeVarint64(*p, end, &run);
    if (next == nullptr) {
      return InvalidArgumentError("corrupt block: zoh run length truncated");
    }
    next = DecodeVarint64(next, end, &zz);
    if (next == nullptr) {
      return InvalidArgumentError("corrupt block: zoh value truncated");
    }
    *p = next;
    const int64_t remaining = rows - static_cast<int64_t>(col->size());
    if (run == 0 || run > static_cast<uint64_t>(remaining)) {
      return InvalidArgumentError(
          "corrupt block: zoh run overshoots the block's row count");
    }
    col->insert(col->end(), static_cast<size_t>(run), ZigZagDecode(zz));
  }
  return OkStatus();
}

}  // namespace

void EncodeColumns(RowCodec codec,
                   const std::vector<std::vector<int64_t>>& columns,
                   int64_t rows, std::string* out) {
  for (const auto& col : columns) {
    DCV_CHECK(static_cast<int64_t>(col.size()) == rows)
        << "ragged column block";
    switch (codec) {
      case RowCodec::kDelta:
        EncodeDeltaColumn(col, out);
        break;
      case RowCodec::kZoh:
        EncodeZohColumn(col, out);
        break;
    }
  }
}

Status DecodeColumns(RowCodec codec, const uint8_t* data, size_t len,
                     int64_t num_columns, int64_t rows,
                     std::vector<std::vector<int64_t>>* columns) {
  columns->resize(static_cast<size_t>(num_columns));
  const uint8_t* p = data;
  const uint8_t* end = data + len;
  for (int64_t c = 0; c < num_columns; ++c) {
    auto* col = &(*columns)[static_cast<size_t>(c)];
    Status status;
    switch (codec) {
      case RowCodec::kDelta:
        status = DecodeDeltaColumn(&p, end, rows, col);
        break;
      case RowCodec::kZoh:
        status = DecodeZohColumn(&p, end, rows, col);
        break;
    }
    DCV_RETURN_IF_ERROR(status);
  }
  if (p != end) {
    return InvalidArgumentError(
        "corrupt block: " + std::to_string(end - p) +
        " trailing bytes after the last column");
  }
  return OkStatus();
}

}  // namespace dcv::io

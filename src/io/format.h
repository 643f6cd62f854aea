#ifndef DCV_IO_FORMAT_H_
#define DCV_IO_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace dcv::io {

// The dcv binary columnar trace format ("dcvb"): a versioned container for
// long multi-column int64 time series (per-site SNMP-style measurement
// streams), built for disk-speed replay of multi-GB traces that CSV cannot
// reach. Layout:
//
//   FileHeader
//     u32  magic "DCVB"
//     u8   format version (kFormatVersion)
//     u8   row codec (RowCodec)
//     u8   reserved, must be 0 (blocks are stored uncompressed)
//     u8   reserved, must be 0
//     u32  num_columns (>= 1)
//     u32  schema_len — byte length of the name section that follows
//     per column: u16 name_len, name bytes (UTF-8, no NUL)
//     u32  header CRC-32 of every header byte above
//
//   Data blocks, repeated 0+ times
//     u32  payload_len — on-disk payload bytes; 0 is the end sentinel
//     u32  rows in this block (>= 1)
//     u32  raw_len — must equal payload_len
//     u32  payload CRC-32
//     payload — RowCodec-encoded structure-of-arrays column buffers
//
//   End sentinel: a u32 payload_len of 0.
//
//   Footer (immediately after the sentinel)
//     u32  num_blocks
//     per block: u64 file offset of its payload_len prefix,
//                u64 first row index, u32 rows
//     u64  total_rows
//     u32  footer CRC-32 of the footer bytes above
//     u64  footer_offset — file offset where the footer (num_blocks) starts
//     u32  end magic "DCVE"
//
// The payload of a block is the concatenation of one encoded buffer per
// column (column order = schema order):
//   delta: zigzag-varint of the first value, then zigzag-varints of
//          successive differences. Strongly autocorrelated series (AR(1)
//          site values) produce near-zero deltas that fit 1-2 bytes.
//   zoh:   zero-order hold runs: (varint run_length >= 1, zigzag-varint
//          value) pairs covering exactly `rows` rows. Best when values
//          plateau (sparse event counters, slow drifts sampled fast).
//
// Every multi-byte integer is little-endian. All corruption is detected,
// never crashed on: CRC mismatches, truncation (EOF inside any structure),
// and over-length prefixes each produce a distinct Status error. Codec
// byte 0 and header byte 6 = 1 are retired values (a fixed-width codec and
// a block compression); BlockReader::Open rejects each by name.

inline constexpr uint32_t kFileMagic = 0x42564344;  // "DCVB" little-endian.
inline constexpr uint32_t kEndMagic = 0x45564344;   // "DCVE".
inline constexpr uint8_t kFormatVersion = 1;

/// Caps a block's payload size. Purely a bound on the damage a corrupt or
/// hostile length prefix can do — a legitimate writer stays far below it
/// (default blocks are ~4096 rows).
inline constexpr uint32_t kMaxBlockPayload = 64u << 20;

/// Caps rows per block (validated on read so rows * num_columns cannot
/// overflow allocation math).
inline constexpr uint32_t kMaxBlockRows = 1u << 20;

/// Caps the schema section (column count and name bytes).
inline constexpr uint32_t kMaxColumns = 1u << 20;
inline constexpr uint32_t kMaxSchemaLen = 64u << 20;

enum class RowCodec : uint8_t {
  kDelta = 1,
  kZoh = 2,
};

std::string_view RowCodecName(RowCodec codec);

/// Parse the CLI spellings ("delta" | "zoh"); error names the accepted set.
Result<RowCodec> ParseRowCodec(const std::string& name);

/// Writer-side knobs. The defaults favor the common case: delta rows in
/// 4096-row blocks.
struct WriterOptions {
  RowCodec codec = RowCodec::kDelta;
  int64_t block_rows = 4096;
};

}  // namespace dcv::io

#endif  // DCV_IO_FORMAT_H_

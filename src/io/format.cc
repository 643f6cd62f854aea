#include "io/format.h"

namespace dcv::io {

std::string_view RowCodecName(RowCodec codec) {
  switch (codec) {
    case RowCodec::kDelta:
      return "delta";
    case RowCodec::kZoh:
      return "zoh";
  }
  return "?";
}

Result<RowCodec> ParseRowCodec(const std::string& name) {
  if (name == "delta") {
    return RowCodec::kDelta;
  }
  if (name == "zoh") {
    return RowCodec::kZoh;
  }
  return InvalidArgumentError("unknown row codec '" + name +
                              "' (expected delta or zoh)");
}

}  // namespace dcv::io

// Storage dtype of CSCV values (docs/PRECISION.md).
//
// CSCV matrices always COMPUTE in their arithmetic type T (the template
// parameter of CscvMatrix): every FMA chain accumulates in T exactly as the
// fp32 kernels do. The ValueType tag only selects how values are *stored*:
// reduced dtypes (float matrices only) keep each value in 16 bits and the
// kernels widen on load, halving the matrix bytes streamed per apply — the
// dominant cost of the bandwidth-bound CSCV-M path.
#pragma once

#include <cstddef>
#include <string>

#include "util/assertx.hpp"

namespace cscv::core {

// The values are the tags stored in .cscv headers and spill files.
enum class ValueType : int {
  kF32 = 0,   // values stored in the matrix's arithmetic type T
  kBf16 = 1,  // bfloat16 storage, fp32 accumulate (float matrices only)
  kF16 = 2,   // IEEE binary16 storage, fp32 accumulate (float matrices only)
};

[[nodiscard]] inline constexpr bool value_type_is_reduced(ValueType t) {
  return t == ValueType::kBf16 || t == ValueType::kF16;
}

/// Bytes per stored value. For kF32 the value element is the matrix's
/// arithmetic type, so callers that can see T should use sizeof(T) there;
/// this helper covers the float-matrix case every reduced dtype implies.
[[nodiscard]] inline constexpr std::size_t bytes_per_value(ValueType t,
                                                           std::size_t sizeof_t = 4) {
  return t == ValueType::kF32 ? sizeof_t : 2;
}

inline std::string value_type_name(ValueType t) {
  switch (t) {
    case ValueType::kF32: return "fp32";
    case ValueType::kBf16: return "bf16";
    case ValueType::kF16: return "fp16";
  }
  return "?";
}

/// Inverse of value_type_name; CheckError on unknown names (the service wire
/// format and the CLI parse these from untrusted input).
inline ValueType value_type_from_name(const std::string& name) {
  if (name == "fp32") return ValueType::kF32;
  if (name == "bf16") return ValueType::kBf16;
  if (name == "fp16") return ValueType::kF16;
  CSCV_CHECK_MSG(false,
                 "unknown value type \"" << name << "\" (want fp32|bf16|fp16)");
  return ValueType::kF32;  // unreachable
}

}  // namespace cscv::core

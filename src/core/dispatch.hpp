// Unified kernel dispatch for the CSCV runtime — two levels.
//
// Level one picks an ISA *tier*: the hot kernels (kernels_body.inc +
// expand_body.inc) are compiled once per tier with that tier's arch flags
// (core/kernels_isa.cpp, built by CSCV_MULTIVERSION), and each compiled tier
// registers a TierOps entry here. At run time the highest registered tier
// the CPU supports wins, overridable via the CSCV_FORCE_ISA env var or
// PlanOptions::isa (docs/DISPATCH.md).
//
// Level two is the original ladder: the S_VVec / S_VxG / num_rhs template
// parameters of the block kernels are runtime values on the matrix, so the
// selected tier maps (variant, S, V, expand path, num_rhs) to plain function
// pointers with a uniform signature (Z kernels ignore the mask pointer).
// SpmvPlan pays for both levels at plan-build time; the hot loop is an
// indirect call with zero branching.
#pragma once

#include <cstdint>

#include "core/format.hpp"
#include "simd/expand.hpp"
#include "simd/isa.hpp"
#include "sparse/types.hpp"
#include "util/assertx.hpp"

namespace cscv::core::dispatch {

// The value stream is byte-typed (const void*): a kernel set is resolved
// for one concrete ValueType and its wrappers cast to the dtype they were
// instantiated for — fp32 sets read T, reduced sets read std::uint16_t bits
// and widen on load (docs/PRECISION.md).

/// y~ += block * x — one matrix block against its local output (single RHS).
template <typename T>
using ForwardFn = void (*)(sparse::offset_t vxg_begin, sparse::offset_t vxg_end,
                           const sparse::index_t* vxg_col, const std::int32_t* vxg_q,
                           const void* values, const std::uint16_t* masks, const T* x,
                           T* yt);

/// Y~ += block * X for num_rhs interleaved right-hand sides.
template <typename T>
using MultiFn = void (*)(sparse::offset_t vxg_begin, sparse::offset_t vxg_end,
                         const sparse::index_t* vxg_col, const std::int32_t* vxg_q,
                         const void* values, const std::uint16_t* masks, const T* x,
                         int num_rhs, T* yt);

/// x += block^T * y~ — the transpose contraction.
template <typename T>
using TransposeFn = void (*)(sparse::offset_t vxg_begin, sparse::offset_t vxg_end,
                             const sparse::index_t* vxg_col, const std::int32_t* vxg_q,
                             const void* values, const std::uint16_t* masks, const T* yt,
                             T* x);

/// x += block^T * y~ for num_rhs interleaved right-hand sides.
template <typename T>
using TransposeMultiFn = void (*)(sparse::offset_t vxg_begin, sparse::offset_t vxg_end,
                                  const sparse::index_t* vxg_col, const std::int32_t* vxg_q,
                                  const void* values, const std::uint16_t* masks,
                                  const T* yt, int num_rhs, T* x);

/// The four directions of one (variant, S, V, expand path, num_rhs) choice.
template <typename T>
struct KernelSet {
  ForwardFn<T> forward = nullptr;
  MultiFn<T> multi = nullptr;
  TransposeFn<T> transpose = nullptr;
  TransposeMultiFn<T> transpose_multi = nullptr;
};

/// Entry points of one compiled kernel tier (one kernels_isa.cpp object).
/// `hw_expand` answers whether that tier's codegen carries the chunked
/// hardware vexpand for (element type, S_VVec); `compiled_tier` is the
/// simd::IsaTier the object was actually compiled for (a CSCV_NATIVE build
/// compiles one object whose flags follow the host, so it self-reports).
struct TierOps {
  KernelSet<float> (*resolve_f)(bool is_m, int s_vvec, int s_vxg, bool use_hw,
                                int num_rhs, ValueType value_type) = nullptr;
  KernelSet<double> (*resolve_d)(bool is_m, int s_vvec, int s_vxg, bool use_hw,
                                 int num_rhs, ValueType value_type) = nullptr;
  bool (*hw_expand)(bool is_double, int s_vvec) = nullptr;
  int compiled_tier = 0;
};

/// The TierOps registered for `tier`, or nullptr when this binary does not
/// carry that tier. At least one tier is always present.
const TierOps* tier_ops(simd::IsaTier tier);

inline bool tier_registered(simd::IsaTier tier) { return tier_ops(tier) != nullptr; }

/// Outcome of level-one dispatch: the tier that will run, whether the caller
/// (env var or PlanOptions) forced a specific tier, and whether that request
/// had to be clamped to a different tier because the binary does not carry
/// it or the CPU cannot run it.
struct TierChoice {
  simd::IsaTier tier = simd::IsaTier::kGeneric;
  bool forced = false;
  bool clamped = false;
};

/// Reads the CSCV_FORCE_ISA environment variable. Unset or "auto" means no
/// force (kAuto); an unrecognized value throws util::CheckError.
simd::IsaTier forced_tier_from_env();

/// Level-one dispatch. kAuto consults CSCV_FORCE_ISA, then picks the highest
/// registered tier the CPU supports (cached — "once per process"). A
/// concrete request resolves to the highest registered + CPU-supported tier
/// not above it, falling back to the lowest registered tier; `clamped` is
/// set whenever the result differs from the request.
TierChoice select_tier(simd::IsaTier requested = simd::IsaTier::kAuto);

/// Level-one dispatch with the per-dtype CPU clamp on top: the avx2/avx512
/// tier objects widen fp16 values with F16C instructions (vcvtph2ps), so an
/// fp16 matrix on a CPU without the f16c bit falls back to the generic
/// tier's soft-float widening — clamp-and-flag, like any other
/// unsatisfiable request. bf16 widening is integer-only and never clamps.
TierChoice select_tier_for_dtype(simd::IsaTier requested, ValueType value_type);

/// Resolves an ExpandPath against the CPU *and* the selected tier's compiled
/// capabilities: CSCV-M only uses hardware expansion when `tier`'s codegen
/// has it for (element type, S_VVec) and the CPU agrees.
bool resolve_expand_path(simd::ExpandPath path, bool is_double, int s_vvec,
                         simd::IsaTier tier);

/// Level-two dispatch inside `tier` (must be a registered tier, i.e. the
/// .tier of a TierChoice): resolves (variant, S_VVec, S_VxG, expand path,
/// num_rhs) to concrete kernels. `use_hw` must already be resolved via
/// resolve_expand_path. Defined in dispatch.cpp for T = float, double.
/// `value_type` selects the storage decode: kF32 sets read T directly,
/// reduced dtypes (float only; kAuto is not a valid resolution input) get
/// the widen-on-load wrappers.
template <typename T>
KernelSet<T> resolve_kernels(typename CscvMatrix<T>::Variant variant, int s_vvec, int s_vxg,
                             bool use_hw, int num_rhs, simd::IsaTier tier,
                             ValueType value_type = ValueType::kF32);

}  // namespace cscv::core::dispatch

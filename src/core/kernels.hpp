// CSCV block kernels — the fully vectorized inner loops of Algorithm 3.
//
// Both kernels run one matrix block against the block-local output y~.
// Everything the SIMD unit touches is contiguous: a VxG is S_VxG * S_VVec
// consecutive values FMA'd onto S_VxG * S_VVec consecutive y~ slots. There
// is no gather, scatter, or index arithmetic inside the loops; S and V are
// compile-time so the compiler emits straight-line vector code (the paper's
// "compiler-assisted vectorization" claim — no intrinsics in the Z kernel).
//
// The kernel bodies live in kernels_body.inc so the multiversioned tier TU
// (core/kernels_isa.cpp, docs/DISPATCH.md) can compile an internal-linkage
// copy per ISA tier; including this header gives the ambient-flags build.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "simd/expand.hpp"
#include "sparse/types.hpp"
#include "util/assertx.hpp"

namespace cscv::core::kernels {

// Hot-loop preconditions, debug builds only (the macro vanishes entirely
// under NDEBUG, so release codegen is untouched — the gbench cold/warm pair
// guards that). The y~ base must sit on an element boundary and every VxG
// start slot must lie on a CSCVE boundary (vxg_q % S == 0, the invariant
// the contiguous S_VxG*S_VVec FMA window relies on).
#ifdef NDEBUG
#define CSCV_KERNEL_DCHECKS(S, vxg_begin, vxg_end, vxg_q, yt) ((void)0)
#else
#define CSCV_KERNEL_DCHECKS(S, vxg_begin, vxg_end, vxg_q, yt)                      \
  do {                                                                             \
    CSCV_DCHECK((vxg_begin) >= 0 && (vxg_begin) <= (vxg_end));                     \
    CSCV_DCHECK(reinterpret_cast<std::uintptr_t>(yt) % alignof(T) == 0);           \
    for (sparse::offset_t cscv_g_ = (vxg_begin); cscv_g_ < (vxg_end); ++cscv_g_) { \
      CSCV_DCHECK((vxg_q)[cscv_g_] >= 0 && (vxg_q)[cscv_g_] % (S) == 0);           \
    }                                                                              \
  } while (0)
#endif

#include "core/kernels_body.inc"  // NOLINT(bugprone-suspicious-include)

}  // namespace cscv::core::kernels

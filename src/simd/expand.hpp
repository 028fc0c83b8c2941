// Vector expansion: scatter a packed run of values into a fixed-width vector
// under a bitmask, zero-filling the gaps.
//
// This is the core primitive of padding-removal formats (CSCV-M here, SPC5 in
// src/sparse): values are stored without padding zeros plus one mask word per
// vector; the kernel re-inflates each vector on the fly. Two paths exist,
// mirroring the paper:
//   * hardware: AVX-512 `vexpandps/vexpandpd` (expand-load from memory),
//   * soft-vexpand: portable scalar expansion, used on machines without
//     AVX-512 (the paper's Zen2 platform) — correct everywhere, slower.
//
// All functions return the number of packed values consumed (popcount of the
// mask) so callers can advance their packed-value cursor.
//
// The implementation lives in expand_body.inc so the multiversioned kernel
// tiers (core/kernels_isa.cpp, docs/DISPATCH.md) can compile their own
// internal-linkage copy under per-tier arch flags; including this header
// gives the ordinary ambient-flags build.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#if defined(__AVX__) || defined(__F16C__)
#include <immintrin.h>
#endif

namespace cscv::simd {

/// Which expansion implementation a kernel should use.
enum class ExpandPath {
  kAuto,      // hardware when compiled in and supported, else software
  kHardware,  // force AVX-512 vexpand (caller must have checked cpu_isa())
  kSoftware,  // force soft-vexpand (models the paper's Zen2 runs)
};

#include "simd/expand_body.inc"  // NOLINT(bugprone-suspicious-include)

}  // namespace cscv::simd

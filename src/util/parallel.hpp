// Thin OpenMP wrappers.
//
// All thread-level parallelism in the library flows through these helpers so
// kernels stay free of raw pragmas where possible and thread counts are
// controlled uniformly (the benches sweep thread counts per Figure 10).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/assertx.hpp"

// ThreadSanitizer cannot see the fork/join synchronization inside an
// uninstrumented OpenMP runtime (stock libgomp), so worker writes look racy
// against the master's post-region reads. The wrappers below publish the
// fork/join edges explicitly with TSan's acquire/release annotations; they
// compile to nothing in normal builds.
#if defined(__SANITIZE_THREAD__)
#define CSCV_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CSCV_TSAN_ENABLED 1
#endif
#endif

#ifdef CSCV_TSAN_ENABLED
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#endif

// The annotations above cover the region bodies, but not the loads the
// compiler's outlined region makes of its shared-data block (loop bounds,
// the lambda pointer) before tsan_acquire runs: the master writes that
// block and libgomp hands it over unseen. CSCV_NO_TSAN leaves the two
// fork/join wrappers uninstrumented; the bodies they call (fn) are separate
// functions and stay instrumented, so their races are still reported.
#if defined(__clang__)
#define CSCV_NO_TSAN __attribute__((no_sanitize("thread")))
#elif defined(__GNUC__)
#define CSCV_NO_TSAN __attribute__((no_sanitize_thread))
#else
#define CSCV_NO_TSAN
#endif

namespace cscv::util {

inline void tsan_release(void* addr) {
#ifdef CSCV_TSAN_ENABLED
  __tsan_release(addr);
#else
  (void)addr;
#endif
}

inline void tsan_acquire(void* addr) {
#ifdef CSCV_TSAN_ENABLED
  __tsan_acquire(addr);
#else
  (void)addr;
#endif
}

/// Maximum number of OpenMP threads a parallel region would use now.
inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Caps subsequent parallel regions at `n` threads (no-op without OpenMP).
inline void set_num_threads(int n) {
  CSCV_CHECK(n >= 1);
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Index of the calling thread inside a parallel region, 0 outside one.
inline int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Splits [0, total) into `parts` near-equal contiguous ranges and returns
/// range `index` as [begin, end). The first `total % parts` ranges are one
/// element longer, so sizes differ by at most one (paper property P3 makes
/// this an even workload split for CT matrices).
inline std::pair<std::size_t, std::size_t> static_partition(std::size_t total, int parts,
                                                            int index) {
  CSCV_CHECK(parts >= 1 && index >= 0 && index < parts);
  const std::size_t base = total / static_cast<std::size_t>(parts);
  const std::size_t extra = total % static_cast<std::size_t>(parts);
  const auto idx = static_cast<std::size_t>(index);
  const std::size_t begin = idx * base + (idx < extra ? idx : extra);
  const std::size_t end = begin + base + (idx < extra ? 1 : 0);
  return {begin, end};
}

/// Splits `weights.size()` items into `parts` contiguous ranges of
/// near-equal total weight and returns the `parts + 1` range boundaries
/// (boundary[t] .. boundary[t+1] is range t). Boundary t sits at the first
/// prefix sum >= total * t / parts, so each range's load misses the ideal
/// split by at most one item's weight — the balanced analogue of
/// static_partition for per-item work that is *not* uniform (per-block VxG
/// counts in the SpMV planner). Zero-weight tails collapse to empty ranges.
inline std::vector<std::size_t> weighted_boundaries(std::span<const std::uint64_t> weights,
                                                    int parts) {
  CSCV_CHECK(parts >= 1);
  const std::size_t n = weights.size();
  std::uint64_t total = 0;
  for (std::uint64_t w : weights) total += w;
  std::vector<std::size_t> bounds(static_cast<std::size_t>(parts) + 1, n);
  bounds[0] = 0;
  std::size_t cursor = 0;
  std::uint64_t prefix = 0;
  for (int t = 1; t < parts; ++t) {
    // Ceil so ranges can't systematically front-load when weights repeat.
    const std::uint64_t target =
        (total * static_cast<std::uint64_t>(t) + static_cast<std::uint64_t>(parts) - 1) /
        static_cast<std::uint64_t>(parts);
    while (cursor < n && prefix < target) prefix += weights[cursor++];
    bounds[static_cast<std::size_t>(t)] = cursor;
  }
  return bounds;
}

/// Static-scheduled parallel loop over [begin, end); fn(i) per index.
template <typename Fn>
CSCV_NO_TSAN void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
#ifdef _OPENMP
  char token;  // address-only fork/join happens-before token
  tsan_release(&token);
#pragma omp parallel
  {
    tsan_acquire(&token);
#pragma omp for schedule(static) nowait
    for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(begin);
         i < static_cast<std::ptrdiff_t>(end); ++i) {
      fn(static_cast<std::size_t>(i));
    }
    tsan_release(&token);
  }
  tsan_acquire(&token);
#else
  for (std::size_t i = begin; i < end; ++i) fn(i);
#endif
}

/// Runs fn(thread_id, num_threads) on every thread of a parallel region.
template <typename Fn>
CSCV_NO_TSAN void parallel_region(Fn&& fn) {
#ifdef _OPENMP
  char token;  // address-only fork/join happens-before token
  tsan_release(&token);
#pragma omp parallel
  {
    tsan_acquire(&token);
    fn(omp_get_thread_num(), omp_get_num_threads());
    tsan_release(&token);
  }
  tsan_acquire(&token);
#else
  fn(0, 1);
#endif
}

}  // namespace cscv::util

// Performance-telemetry counter layer — zero-overhead when compiled out.
//
// Build with -DCSCV_TELEMETRY=ON (CMake option) to define the
// CSCV_TELEMETRY preprocessor flag; the counters then record plan builds,
// apply timings and per-kernel work volumes, surfaced through
// SpmvPlan::stats(). Without the flag every type here is an empty struct
// whose members are inline no-ops: no state, no loads/stores, no timer
// syscalls — generated kernel code is identical to a build that never
// heard of telemetry (tests/cscv/test_telemetry.cpp pins this down with
// std::is_empty checks).
//
// Counting strategy: the hot loops (kernels.hpp) are never instrumented
// per element or per VxG — that would cost even when enabled. Work volumes
// per apply are compile-time/structural (total VxGs, values, bytes), so
// the plan records one {timestamp, volume} event per execute() at block-
// loop granularity. Overhead when ON is two clock reads per apply.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#ifdef CSCV_TELEMETRY
#define CSCV_TELEMETRY_ENABLED 1
#else
#define CSCV_TELEMETRY_ENABLED 0
#endif

namespace cscv::util::telemetry {

inline constexpr bool kEnabled = CSCV_TELEMETRY_ENABLED != 0;

#if CSCV_TELEMETRY_ENABLED

/// Monotonic stopwatch; compiles to an empty no-op type when telemetry is
/// off, so call sites need no #ifdefs.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Mutable event counters owned by one SpmvPlan (not thread-safe across
/// concurrent execute() calls — plans already forbid those).
struct Counters {
  std::uint64_t plan_builds = 0;
  double plan_build_seconds = 0.0;

  std::uint64_t applies = 0;             // forward execute() calls
  double apply_seconds_total = 0.0;
  double apply_seconds_min = 0.0;        // 0 until the first apply

  std::uint64_t transpose_applies = 0;
  double transpose_seconds_total = 0.0;
  double transpose_seconds_min = 0.0;

  // View-group subset applies (OS-SART strata): counted, not timed, so a
  // stratum's fraction of the work never becomes the best apply time.
  std::uint64_t subset_applies = 0;
  std::uint64_t subset_transpose_applies = 0;

  void record_plan_build(double seconds) {
    ++plan_builds;
    plan_build_seconds += seconds;
  }
  void record_apply(double seconds) {
    ++applies;
    apply_seconds_total += seconds;
    apply_seconds_min =
        applies == 1 ? seconds : std::min(apply_seconds_min, seconds);
  }
  void record_transpose(double seconds) {
    ++transpose_applies;
    transpose_seconds_total += seconds;
    transpose_seconds_min = transpose_applies == 1
                                ? seconds
                                : std::min(transpose_seconds_min, seconds);
  }
  void record_subset_apply() { ++subset_applies; }
  void record_subset_transpose() { ++subset_transpose_applies; }
  void reset() { *this = Counters{}; }
};

#else  // CSCV_TELEMETRY off: stateless no-op twins, nothing survives codegen.

class Stopwatch {
 public:
  [[nodiscard]] double seconds() const { return 0.0; }
};

struct Counters {
  // Mirrors of the live fields, all constant zero (so stats() code reads
  // them without #ifdefs and the optimizer folds everything away).
  static constexpr std::uint64_t plan_builds = 0;
  static constexpr double plan_build_seconds = 0.0;
  static constexpr std::uint64_t applies = 0;
  static constexpr double apply_seconds_total = 0.0;
  static constexpr double apply_seconds_min = 0.0;
  static constexpr std::uint64_t transpose_applies = 0;
  static constexpr double transpose_seconds_total = 0.0;
  static constexpr double transpose_seconds_min = 0.0;
  static constexpr std::uint64_t subset_applies = 0;
  static constexpr std::uint64_t subset_transpose_applies = 0;

  void record_plan_build(double) {}
  void record_apply(double) {}
  void record_transpose(double) {}
  void record_subset_apply() {}
  void record_subset_transpose() {}
  void reset() {}
};

#endif  // CSCV_TELEMETRY_ENABLED

}  // namespace cscv::util::telemetry

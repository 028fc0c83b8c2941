// Shared fixtures/utilities for the test suites.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "core/dispatch.hpp"
#include "ct/geometry.hpp"
#include "ct/system_matrix.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/random.hpp"
#include "util/stats.hpp"

namespace cscv::testing {

/// Small parallel-beam geometry for fast tests. Views default to a number
/// that exercises both divisible and non-divisible view-group splits.
inline ct::ParallelGeometry small_geometry(int image_size = 32, int num_views = 24) {
  return ct::standard_geometry(image_size, num_views);
}

/// Cached CT system matrices (CSC) so every test doesn't rebuild them.
template <typename T>
const sparse::CscMatrix<T>& cached_ct_csc(int image_size, int num_views) {
  static std::map<std::pair<int, int>, sparse::CscMatrix<T>> cache;
  auto key = std::make_pair(image_size, num_views);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, ct::build_system_matrix_csc<T>(
                               ct::standard_geometry(image_size, num_views)))
             .first;
  }
  return it->second;
}

/// CSR view of the same cached matrix (built once from the CSC's COO).
template <typename T>
const sparse::CsrMatrix<T>& cached_ct_csr(int image_size, int num_views) {
  static std::map<std::pair<int, int>, sparse::CsrMatrix<T>> cache;
  auto key = std::make_pair(image_size, num_views);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, sparse::CsrMatrix<T>::from_coo(
                               cached_ct_csc<T>(image_size, num_views).to_coo()))
             .first;
  }
  return it->second;
}

/// Every kernel tier this binary registers and this CPU can run — what a
/// sweep pins through PlanOptions::isa.
inline std::vector<simd::IsaTier> usable_tiers() {
  std::vector<simd::IsaTier> tiers;
  for (simd::IsaTier t : {simd::IsaTier::kGeneric, simd::IsaTier::kAvx2, simd::IsaTier::kAvx512}) {
    if (core::dispatch::tier_registered(t) && simd::cpu_supports_tier(t)) tiers.push_back(t);
  }
  return tiers;
}

/// Asserts relative L2 agreement between an SpMV result and the reference.
template <typename T>
void expect_vectors_close(std::span<const T> got, std::span<const T> want,
                          double tolerance) {
  ASSERT_EQ(got.size(), want.size());
  const double err = util::rel_l2_error(got, want);
  EXPECT_LE(err, tolerance) << "relative L2 error " << err << " exceeds " << tolerance;
}

/// Per-type SpMV tolerance: FP reassociation across formats differs, exact
/// equality is not achievable nor required.
template <typename T>
constexpr double spmv_tolerance() {
  return sizeof(T) == 4 ? 2e-5 : 1e-12;
}

}  // namespace cscv::testing

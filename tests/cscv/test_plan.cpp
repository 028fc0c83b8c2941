// SpmvPlan — the reusable execution context and the one way to apply a
// CscvMatrix.
//
// The thread-count tests cover the slot-striping guarantee (a plan built at
// N threads stays correct at any count) and partitions with more slots
// than view groups; the rest pin scratch stability, exact zeros, and the
// memoized normalizer sums.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;
using testing::cached_ct_csr;
using testing::expect_vectors_close;
using testing::spmv_tolerance;

template <typename T>
CscvMatrix<T> build_cscv(typename CscvMatrix<T>::Variant variant, int image = 32,
                         int views = 24, int s_vvec = 8) {
  const auto& csc = cached_ct_csc<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(csc, layout, {.s_vvec = s_vvec, .s_imgb = 8, .s_vxg = 2},
                              variant);
}

template <typename T>
void expect_bitwise_equal(std::span<const T> got, std::span<const T> want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << "results are not bitwise identical";
}

// A plan the caller holds on to is not invalidated — slots are striped over
// the threads that actually run, so executing a stale plan at a smaller or
// larger thread count must still give the exact build-time result.
TEST(SpmvPlan, StalePlanStaysCorrectAcrossThreadCounts) {
  const int saved = util::max_threads();
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 7);
  for (ThreadScheme scheme : {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
    util::set_num_threads(4);
    const SpmvPlan<float> plan(m, {.scheme = scheme});
    util::AlignedVector<float> y_at4(static_cast<std::size_t>(m.rows()));
    plan.execute(x, y_at4);
    for (int t : {1, 2, 8}) {
      util::set_num_threads(t);
      util::AlignedVector<float> y(y_at4.size());
      plan.execute(x, y);
      expect_bitwise_equal<float>(y, y_at4);
    }
    util::set_num_threads(saved);
  }
}

// More threads than view groups: trailing partition slots are empty (the
// kAuto rule would pick private-y here, but both schemes must cope).
void check_more_threads_than_groups(int views, int groups) {
  const int saved = util::max_threads();
  // s_vvec = 16: 8 threads > the stored view groups.
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM, 32, views, 16);
  ASSERT_EQ(m.grid().view_groups, groups);
  const auto& csr = cached_ct_csr<float>(32, views);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 8);
  util::AlignedVector<float> y_ref(static_cast<std::size_t>(m.rows()));
  csr.spmv(x, y_ref);

  util::set_num_threads(8);
  for (ThreadScheme scheme : {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
    const SpmvPlan<float> plan(m, {.scheme = scheme});
    EXPECT_EQ(plan.threads(), 8);
    // Work conservation: the slot loads sum to the whole matrix.
    const auto work = plan.work_per_slot();
    const std::uint64_t total = std::accumulate(work.begin(), work.end(), std::uint64_t{0});
    std::uint64_t expected = 0;
    for (const auto& b : m.blocks()) {
      expected += static_cast<std::uint64_t>(b.vxg_end - b.vxg_begin);
    }
    EXPECT_EQ(total, expected);

    util::AlignedVector<float> y(y_ref.size());
    plan.execute(x, y);
    expect_vectors_close<float>(y, y_ref, spmv_tolerance<float>());

    util::AlignedVector<float> xt(static_cast<std::size_t>(m.cols()));
    plan.execute_transpose(y_ref, xt);  // tile partition also has empty slots
    util::AlignedVector<float> xt_ref(xt.size());
    csr.spmv_transpose_serial(y_ref, xt_ref);
    expect_vectors_close<float>(xt, xt_ref, spmv_tolerance<float>());
  }
  util::set_num_threads(saved);
}

// 22 views of 16 -> 2 view groups, all stored.
TEST(SpmvPlan, MoreThreadsThanViewGroups) { check_more_threads_than_groups(22, 2); }

// 24 views fold to a stored quarter of 7 views -> 1 view group.
TEST(SpmvPlan, MoreThreadsThanViewGroupsFolded) { check_more_threads_than_groups(24, 1); }

// The nnz-weighted partition balances VxG work, not block counts: on a CT
// matrix (sparse corner tiles, dense center) every private-y slot must land
// within 10% of the ideal equal share.
TEST(SpmvPlan, WeightedPartitionBalancesVxgWork) {
  const int saved = util::max_threads();
  util::set_num_threads(4);
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ, 64, 48);
  const SpmvPlan<float> plan(m, {.scheme = ThreadScheme::kPrivateY});
  const auto work = plan.work_per_slot();
  ASSERT_EQ(work.size(), 4u);
  const std::uint64_t total = std::accumulate(work.begin(), work.end(), std::uint64_t{0});
  const double ideal = static_cast<double>(total) / static_cast<double>(work.size());
  for (std::uint64_t w : work) {
    EXPECT_LE(static_cast<double>(w), 1.10 * ideal)
        << "slot exceeds ideal share by more than 10%";
    EXPECT_GE(static_cast<double>(w), 0.90 * ideal)
        << "slot falls short of ideal share by more than 10%";
  }
  util::set_num_threads(saved);
}

// Scratch is sized and warm after construction; executing does not grow it.
TEST(SpmvPlan, ScratchStableAcrossExecutes) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
  const SpmvPlan<float> plan(m, {.scheme = ThreadScheme::kPrivateY});
  const std::size_t bytes = plan.scratch_bytes();
  EXPECT_GT(bytes, 0u);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 9);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  for (int i = 0; i < 3; ++i) plan.execute(x, y);
  EXPECT_EQ(plan.scratch_bytes(), bytes);
}

// A x for x all +0 or all -0 is exactly +0 on every engine — the fact the
// solvers' zero-start skip rests on (recon/solvers.cpp). The outputs start
// as NaN so a path that leaves an entry unwritten fails too.
TEST(ZeroInput, ForwardIsExactlyPositiveZeroOnEveryEngine) {
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<float>(image, views);
  const auto& csr = cached_ct_csr<float>(image, views);
  const auto rows = static_cast<std::size_t>(csc.rows());
  const auto cols = static_cast<std::size_t>(csc.cols());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto expect_positive_zero = [](const util::AlignedVector<float>& y,
                                       const std::string& what) {
    const util::AlignedVector<float> zeros(y.size(), 0.0F);
    EXPECT_EQ(0, std::memcmp(y.data(), zeros.data(), y.size() * sizeof(float))) << what;
  };

  for (const float zero : {0.0F, -0.0F}) {
    const std::string sign = std::signbit(zero) ? "-0" : "+0";
    for (const int k : {1, 3}) {
      const util::AlignedVector<float> x(cols * static_cast<std::size_t>(k), zero);
      util::AlignedVector<float> y(rows * static_cast<std::size_t>(k), nan);
      csr.spmv_multi(x, y, k);
      expect_positive_zero(y, "CSR x=" + sign + " k=" + std::to_string(k));
    }
    const util::AlignedVector<float> x(cols, zero);
    util::AlignedVector<float> y(rows, nan);
    util::AlignedVector<float> scratch;
    csc.spmv(x, y, scratch);
    expect_positive_zero(y, "CSC x=" + sign);

    for (const simd::IsaTier tier : testing::usable_tiers()) {
      for (const auto variant : {CscvMatrix<float>::Variant::kZ, CscvMatrix<float>::Variant::kM}) {
        for (const ValueType vt : {ValueType::kF32, ValueType::kBf16}) {
          auto m = build_cscv<float>(variant, image, views);
          m.convert_values(vt);
          for (const ThreadScheme scheme :
               {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
            for (const int k : {1, 3}) {
              const SpmvPlan<float> plan(
                  m, {.scheme = scheme, .num_rhs = k, .threads = 2, .isa = tier});
              const util::AlignedVector<float> xk(cols * static_cast<std::size_t>(k), zero);
              util::AlignedVector<float> yk(rows * static_cast<std::size_t>(k), nan);
              plan.execute(xk, yk);
              expect_positive_zero(
                  yk, std::string("CSCV x=") + sign + " tier=" + simd::isa_tier_name(tier) +
                          (variant == CscvMatrix<float>::Variant::kZ ? " Z" : " M") + " " +
                          value_type_name(vt) +
                          (scheme == ThreadScheme::kPrivateY ? " private-y" : " row") +
                          " k=" + std::to_string(k));
            }
          }
        }
      }
    }
  }
}

// The plan's memoized A 1 / A^T 1 are bitwise a fresh execute /
// execute_transpose of ones (column 0 of a replicated batch when K > 1),
// computed once.
TEST(SpmvPlan, MemoizedSumsAreBitwiseFreshAppliesOfOnes) {
  for (const ValueType vt : {ValueType::kF32, ValueType::kBf16}) {
    auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
    m.convert_values(vt);
    const auto rows = static_cast<std::size_t>(m.rows());
    const auto cols = static_cast<std::size_t>(m.cols());
    for (const ThreadScheme scheme : {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
      for (const int k : {1, 3}) {
        const SpmvPlan<float> plan(m, {.scheme = scheme, .num_rhs = k, .threads = 2});
        ASSERT_EQ(plan.scheme(), scheme);
        const auto kk = static_cast<std::size_t>(k);
        const std::span<const float> row_sums = plan.row_sums();
        const std::span<const float> col_sums = plan.col_sums();
        EXPECT_EQ(plan.row_sums().data(), row_sums.data()) << "row sums recomputed";
        EXPECT_EQ(plan.col_sums().data(), col_sums.data()) << "col sums recomputed";

        const util::AlignedVector<float> ones_x(cols * kk, 1.0F);
        const util::AlignedVector<float> ones_y(rows * kk, 1.0F);
        util::AlignedVector<float> fwd(rows * kk);
        util::AlignedVector<float> adj(cols * kk);
        plan.execute(ones_x, fwd);
        plan.execute_transpose(ones_y, adj);
        util::AlignedVector<float> want_rows(rows);
        util::AlignedVector<float> want_cols(cols);
        for (std::size_t i = 0; i < rows; ++i) want_rows[i] = fwd[i * kk];
        for (std::size_t j = 0; j < cols; ++j) want_cols[j] = adj[j * kk];
        SCOPED_TRACE(std::string(value_type_name(vt)) + " k=" + std::to_string(k) +
                     (scheme == ThreadScheme::kPrivateY ? " private-y" : " row"));
        expect_bitwise_equal<float>(row_sums, want_rows);
        expect_bitwise_equal<float>(col_sums, want_cols);
      }
    }
  }
}

}  // namespace
}  // namespace cscv::core

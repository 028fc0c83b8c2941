// Multi-RHS SpMM (Y = A X): must equal K independent SpMVs.
#include <gtest/gtest.h>

#include <cstring>
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

template <typename T>
void check_spmm(int num_rhs, typename CscvMatrix<T>::Variant variant,
                ThreadScheme scheme = ThreadScheme::kAuto) {
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<T>(image, views);
  const auto& csr = cached_ct_csr<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto m = CscvMatrix<T>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                      variant);
  const auto cols = static_cast<std::size_t>(m.cols());
  const auto rows = static_cast<std::size_t>(m.rows());

  // Interleaved X: X[col * K + k].
  auto x_multi = sparse::random_vector<T>(cols * static_cast<std::size_t>(num_rhs), 17, 0.0, 1.0);
  util::AlignedVector<T> y_multi(rows * static_cast<std::size_t>(num_rhs));
  SpmvPlan<T>(m, {.scheme = scheme, .num_rhs = num_rhs}).execute(x_multi, y_multi);

  util::AlignedVector<T> x_one(cols), y_one(rows);
  for (int k = 0; k < num_rhs; ++k) {
    for (std::size_t c = 0; c < cols; ++c) x_one[c] = x_multi[c * num_rhs + k];
    csr.spmv_serial(x_one, y_one);
    util::AlignedVector<T> y_k(rows);
    for (std::size_t r = 0; r < rows; ++r) y_k[r] = y_multi[r * num_rhs + k];
    expect_vectors_close<T>(y_k, y_one, testing::spmv_tolerance<T>());
  }
}

TEST(CscvSpmm, ZSingleRhsDegenerates) { check_spmm<float>(1, CscvMatrix<float>::Variant::kZ); }
TEST(CscvSpmm, ZFourRhs) { check_spmm<float>(4, CscvMatrix<float>::Variant::kZ); }
TEST(CscvSpmm, ZEightRhsDouble) { check_spmm<double>(8, CscvMatrix<double>::Variant::kZ); }
TEST(CscvSpmm, MFourRhs) { check_spmm<float>(4, CscvMatrix<float>::Variant::kM); }
TEST(CscvSpmm, MThreeRhsOdd) { check_spmm<double>(3, CscvMatrix<double>::Variant::kM); }

TEST(CscvSpmm, PrivateYScheme) {
  check_spmm<float>(4, CscvMatrix<float>::Variant::kZ, ThreadScheme::kPrivateY);
}

// The batching tentpole's contract: column k of a fused multi-RHS apply is
// bitwise identical to a single-RHS apply of that column — both directions,
// both variants, same plan thread count. The batched solvers and the
// service's job fusion lean on exactly this (their per-job volumes must
// memcmp-equal serial execution), so the comparison here is memcmp, not
// tolerance.
template <typename T>
void check_bitwise_columns(int num_rhs, typename CscvMatrix<T>::Variant variant) {
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto m = CscvMatrix<T>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                      variant);
  const auto cols = static_cast<std::size_t>(m.cols());
  const auto rows = static_cast<std::size_t>(m.rows());
  const auto k = static_cast<std::size_t>(num_rhs);

  const SpmvPlan<T> fused(m, {.num_rhs = num_rhs});
  const SpmvPlan<T> single(m);
  const auto x_multi = sparse::random_vector<T>(cols * k, 23, 0.0, 1.0);
  util::AlignedVector<T> y_multi(rows * k);
  fused.execute(x_multi, y_multi);

  const auto y_rand = sparse::random_vector<T>(rows * k, 29, 0.0, 1.0);
  util::AlignedVector<T> xt_multi(cols * k);
  fused.execute_transpose(y_rand, xt_multi);

  util::AlignedVector<T> in_one(cols), out_one(rows), col(rows);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < cols; ++j) in_one[j] = x_multi[j * k + c];
    single.execute(in_one, out_one);
    for (std::size_t i = 0; i < rows; ++i) col[i] = y_multi[i * k + c];
    EXPECT_EQ(std::memcmp(col.data(), out_one.data(), rows * sizeof(T)), 0)
        << "forward column " << c << " of " << num_rhs << " not bitwise";
  }
  util::AlignedVector<T> yt_one(rows), xt_one(cols), colx(cols);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < rows; ++i) yt_one[i] = y_rand[i * k + c];
    single.execute_transpose(yt_one, xt_one);
    for (std::size_t j = 0; j < cols; ++j) colx[j] = xt_multi[j * k + c];
    EXPECT_EQ(std::memcmp(colx.data(), xt_one.data(), cols * sizeof(T)), 0)
        << "transpose column " << c << " of " << num_rhs << " not bitwise";
  }
}

TEST(CscvSpmmBitwise, ZFourRhs) {
  check_bitwise_columns<float>(4, CscvMatrix<float>::Variant::kZ);
}
TEST(CscvSpmmBitwise, ZSevenRhsDouble) {
  check_bitwise_columns<double>(7, CscvMatrix<double>::Variant::kZ);
}
TEST(CscvSpmmBitwise, MTwoRhs) {
  check_bitwise_columns<float>(2, CscvMatrix<float>::Variant::kM);
}
TEST(CscvSpmmBitwise, MFourRhs) {
  check_bitwise_columns<float>(4, CscvMatrix<float>::Variant::kM);
}
TEST(CscvSpmmBitwise, MSevenRhsDouble) {
  check_bitwise_columns<double>(7, CscvMatrix<double>::Variant::kM);
}

// The same contract swept over the kernel shapes: every S_VVec x S_VxG x
// {Z, M-hw, M-soft} x K (the compile-time widths 2/8/16 and the runtime-K
// fallback at 3), each registered tier pinned through PlanOptions::isa, both
// directions, memcmp per column against a single-RHS plan of that tier.
template <typename T>
void check_bitwise_sweep(int s_vvec, int s_vxg) {
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto rows = static_cast<std::size_t>(csc.rows());
  const auto cols = static_cast<std::size_t>(csc.cols());
  using Variant = typename CscvMatrix<T>::Variant;
  struct Path {
    Variant variant;
    simd::ExpandPath expand;
    const char* name;
  };
  for (const Path path : {Path{Variant::kZ, simd::ExpandPath::kAuto, "Z"},
                          Path{Variant::kM, simd::ExpandPath::kHardware, "M-hw"},
                          Path{Variant::kM, simd::ExpandPath::kSoftware, "M-soft"}}) {
    const auto m = CscvMatrix<T>::build(
        csc, layout, {.s_vvec = s_vvec, .s_imgb = 8, .s_vxg = s_vxg}, path.variant);
    for (const simd::IsaTier tier : testing::usable_tiers()) {
      const SpmvPlan<T> single(m, {.path = path.expand, .isa = tier});
      for (const int k : {2, 3, 8, 16}) {
        const std::string where = std::string(path.name) + " on " +
                                  simd::isa_tier_name(tier) + ", K=" + std::to_string(k);
        const auto ks = static_cast<std::size_t>(k);
        const SpmvPlan<T> batched(m, {.path = path.expand, .num_rhs = k, .isa = tier});
        const auto x = sparse::random_vector<T>(cols * ks, 41, 0.0, 1.0);
        const auto y = sparse::random_vector<T>(rows * ks, 43, -1.0, 1.0);
        util::AlignedVector<T> y_multi(rows * ks), x_multi(cols * ks);
        batched.execute(x, y_multi);
        batched.execute_transpose(y, x_multi);
        util::AlignedVector<T> x_one(cols), y_one(rows), out_y(rows), out_x(cols);
        util::AlignedVector<T> col_y(rows), col_x(cols);
        for (std::size_t c = 0; c < ks; ++c) {
          for (std::size_t j = 0; j < cols; ++j) x_one[j] = x[j * ks + c];
          for (std::size_t i = 0; i < rows; ++i) y_one[i] = y[i * ks + c];
          single.execute(x_one, out_y);
          single.execute_transpose(y_one, out_x);
          for (std::size_t i = 0; i < rows; ++i) col_y[i] = y_multi[i * ks + c];
          for (std::size_t j = 0; j < cols; ++j) col_x[j] = x_multi[j * ks + c];
          EXPECT_EQ(std::memcmp(col_y.data(), out_y.data(), rows * sizeof(T)), 0)
              << "forward column " << c << ", " << where;
          EXPECT_EQ(std::memcmp(col_x.data(), out_x.data(), cols * sizeof(T)), 0)
              << "transpose column " << c << ", " << where;
        }
      }
    }
  }
}

class CscvSpmmBitwiseSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CscvSpmmBitwiseSweep, FloatColumnsMatchSingleRhs) {
  check_bitwise_sweep<float>(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

TEST_P(CscvSpmmBitwiseSweep, DoubleColumnsMatchSingleRhs) {
  check_bitwise_sweep<double>(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CscvSpmmBitwiseSweep,
    ::testing::Combine(::testing::Values(4, 8, 16), ::testing::Values(1, 2, 4, 8, 16)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "S" + std::to_string(std::get<0>(info.param)) + "_V" +
             std::to_string(std::get<1>(info.param));
    });

// Multi-RHS transpose against the CSR serial reference (tolerance): the
// fused kernels must be *correct*, not just self-consistent.
template <typename T>
void check_transpose_multi(int num_rhs, typename CscvMatrix<T>::Variant variant) {
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<T>(image, views);
  const auto& csr = cached_ct_csr<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto m = CscvMatrix<T>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                      variant);
  const auto cols = static_cast<std::size_t>(m.cols());
  const auto rows = static_cast<std::size_t>(m.rows());
  const auto k = static_cast<std::size_t>(num_rhs);

  const auto y_multi = sparse::random_vector<T>(rows * k, 31, 0.0, 1.0);
  util::AlignedVector<T> x_multi(cols * k);
  SpmvPlan<T>(m, {.num_rhs = num_rhs}).execute_transpose(y_multi, x_multi);

  util::AlignedVector<T> y_one(rows), x_ref(cols), x_col(cols);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < rows; ++i) y_one[i] = y_multi[i * k + c];
    csr.spmv_transpose_serial(y_one, x_ref);
    for (std::size_t j = 0; j < cols; ++j) x_col[j] = x_multi[j * k + c];
    expect_vectors_close<T>(x_col, x_ref, testing::spmv_tolerance<T>());
  }
}

TEST(CscvSpmmTranspose, ZFourRhs) {
  check_transpose_multi<float>(4, CscvMatrix<float>::Variant::kZ);
}
TEST(CscvSpmmTranspose, MFourRhs) {
  check_transpose_multi<float>(4, CscvMatrix<float>::Variant::kM);
}
TEST(CscvSpmmTranspose, MThreeRhsDouble) {
  check_transpose_multi<double>(3, CscvMatrix<double>::Variant::kM);
}

TEST(CscvSpmm, RejectsBadSizes) {
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<float>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto m = CscvMatrix<float>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                          CscvMatrix<float>::Variant::kZ);
  util::AlignedVector<float> x(static_cast<std::size_t>(m.cols()) * 2);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()) * 3);  // wrong K
  const SpmvPlan<float> plan(m, {.num_rhs = 2});
  EXPECT_THROW(plan.execute(x, y), util::CheckError);
}

}  // namespace
}  // namespace cscv::core

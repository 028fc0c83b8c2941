// Property tests: CSCV must behave as a linear operator and agree with CSR
// on structured inputs (impulses, constants) and across geometries.
#include <gtest/gtest.h>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "ct/system_matrix.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;
using testing::cached_ct_csr;
using testing::expect_vectors_close;

template <typename T>
CscvMatrix<T> build(int image, int views, const CscvParams& params,
                    typename CscvMatrix<T>::Variant variant) {
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(cached_ct_csc<T>(image, views), layout, params, variant);
}

TEST(CscvProperty, ImpulseColumnsMatchCsc) {
  // e_j through CSCV must reproduce column j exactly (up to float round).
  const int image = 16, views = 12;
  auto m = build<double>(image, views, {.s_vvec = 4, .s_imgb = 4, .s_vxg = 1},
                         CscvMatrix<double>::Variant::kZ);
  const auto& csc = cached_ct_csc<double>(image, views);
  util::AlignedVector<double> x(static_cast<std::size_t>(csc.cols()), 0.0);
  util::AlignedVector<double> y(static_cast<std::size_t>(csc.rows()));
  const SpmvPlan<double> plan(m);
  for (sparse::index_t j = 0; j < csc.cols(); j += 37) {
    std::fill(x.begin(), x.end(), 0.0);
    x[static_cast<std::size_t>(j)] = 1.0;
    plan.execute(x, y);
    // Column j of the CSC matrix, densified.
    util::AlignedVector<double> want(y.size(), 0.0);
    for (auto k = csc.col_ptr()[static_cast<std::size_t>(j)];
         k < csc.col_ptr()[static_cast<std::size_t>(j) + 1]; ++k) {
      want[static_cast<std::size_t>(csc.row_idx()[static_cast<std::size_t>(k)])] =
          csc.values()[static_cast<std::size_t>(k)];
    }
    expect_vectors_close<double>(y, want, 1e-13);
  }
}

TEST(CscvProperty, Linearity) {
  const int image = 32, views = 24;
  auto m = build<double>(image, views, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                         CscvMatrix<double>::Variant::kM);
  const auto n = static_cast<std::size_t>(m.cols());
  const auto rows = static_cast<std::size_t>(m.rows());
  auto x1 = sparse::random_vector<double>(n, 1);
  auto x2 = sparse::random_vector<double>(n, 2);
  util::AlignedVector<double> x_sum(n);
  for (std::size_t i = 0; i < n; ++i) x_sum[i] = 2.0 * x1[i] - 3.0 * x2[i];
  util::AlignedVector<double> y1(rows), y2(rows), y_sum(rows), want(rows);
  const SpmvPlan<double> plan(m);
  plan.execute(x1, y1);
  plan.execute(x2, y2);
  plan.execute(x_sum, y_sum);
  for (std::size_t i = 0; i < rows; ++i) want[i] = 2.0 * y1[i] - 3.0 * y2[i];
  expect_vectors_close<double>(y_sum, want, 1e-12);
}

TEST(CscvProperty, ConstantImageGivesColumnSums) {
  // A x with x = 1 equals the row sums; CT row sums are the per-(view,bin)
  // total pixel mass, strictly positive on interior bins.
  const int image = 32, views = 24;
  auto m = build<double>(image, views, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                         CscvMatrix<double>::Variant::kZ);
  const auto& csr = cached_ct_csr<double>(image, views);
  util::AlignedVector<double> ones(static_cast<std::size_t>(m.cols()), 1.0);
  util::AlignedVector<double> y_got(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<double> y_ref(static_cast<std::size_t>(m.rows()));
  SpmvPlan<double>(m).execute(ones, y_got);
  csr.spmv_serial(ones, y_ref);
  expect_vectors_close<double>(y_got, y_ref, 1e-12);
}

struct GeometryParam {
  int image;
  int views;
};

class CscvGeometrySweep : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(CscvGeometrySweep, AgreesWithCsr) {
  const auto [image, views] = GetParam();
  auto m = build<float>(image, views, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                        CscvMatrix<float>::Variant::kM);
  const auto& csr = cached_ct_csr<float>(image, views);
  auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 5, 0.0, 1.0);
  util::AlignedVector<float> y_got(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<float> y_ref(static_cast<std::size_t>(m.rows()));
  SpmvPlan<float>(m).execute(x, y_got);
  csr.spmv_serial(x, y_ref);
  expect_vectors_close<float>(y_got, y_ref, 2e-5);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CscvGeometrySweep,
                         ::testing::Values(GeometryParam{16, 8}, GeometryParam{16, 12},
                                           GeometryParam{32, 24}, GeometryParam{48, 20},
                                           GeometryParam{64, 32}),
                         [](const ::testing::TestParamInfo<GeometryParam>& info) {
                           return "img" + std::to_string(info.param.image) + "_v" +
                                  std::to_string(info.param.views);
                         });

TEST(CscvProperty, TrapezoidFootprintMatrixAlsoWorks) {
  // CSCV must not depend on the footprint model, only on P1-P3.
  const int image = 32, views = 16;
  auto g = ct::standard_geometry(image, views);
  auto csc = ct::build_system_matrix_csc<float>(g, ct::FootprintModel::kTrapezoid);
  const OperatorLayout layout = OperatorLayout::from_geometry(g);
  auto m = CscvMatrix<float>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                    CscvMatrix<float>::Variant::kM);
  auto csr = sparse::CsrMatrix<float>::from_coo(csc.to_coo());
  auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 6, 0.0, 1.0);
  util::AlignedVector<float> y_got(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<float> y_ref(static_cast<std::size_t>(m.rows()));
  SpmvPlan<float>(m).execute(x, y_got);
  csr.spmv_serial(x, y_ref);
  expect_vectors_close<float>(y_got, y_ref, 2e-5);
}

TEST(CscvProperty, LimitedAngleGeometry) {
  // Non-180-degree coverage (the paper's 2048 dataset uses limited angles).
  auto g = ct::standard_geometry(32, 16);
  g.delta_angle_deg = 2.0;  // only 32 degrees of coverage
  auto csc = ct::build_system_matrix_csc<float>(g);
  const OperatorLayout layout = OperatorLayout::from_geometry(g);
  auto m = CscvMatrix<float>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                    CscvMatrix<float>::Variant::kZ);
  auto csr = sparse::CsrMatrix<float>::from_coo(csc.to_coo());
  auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 8, 0.0, 1.0);
  util::AlignedVector<float> y_got(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<float> y_ref(static_cast<std::size_t>(m.rows()));
  SpmvPlan<float>(m).execute(x, y_got);
  csr.spmv_serial(x, y_ref);
  expect_vectors_close<float>(y_got, y_ref, 2e-5);
}

TEST(CscvProperty, ArbitraryMatrixWithOperatorShapeIsExact) {
  // CSCV's *performance* assumes integral-operator structure (P1-P3), but
  // its correctness must not: the builder buckets whatever offsets appear.
  // Fully random matrices with (view, bin) x pixel dimensions are the
  // adversarial case — every column produces scattered offsets.
  const OperatorLayout layout{8, 11, 10};  // 64 cols, 110 rows
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto coo = sparse::random_uniform<double>(layout.num_rows(), layout.num_cols(), 0.08,
                                              seed);
    auto csc = sparse::CscMatrix<double>::from_coo(coo);
    auto csr = sparse::CsrMatrix<double>::from_coo(coo);
    for (auto variant :
         {CscvMatrix<double>::Variant::kZ, CscvMatrix<double>::Variant::kM}) {
      auto m = CscvMatrix<double>::build(csc, layout, {.s_vvec = 4, .s_imgb = 4, .s_vxg = 2},
                                         variant);
      auto x = sparse::random_vector<double>(static_cast<std::size_t>(layout.num_cols()),
                                             seed + 7);
      util::AlignedVector<double> y_got(static_cast<std::size_t>(layout.num_rows()));
      util::AlignedVector<double> y_ref(static_cast<std::size_t>(layout.num_rows()));
      const SpmvPlan<double> plan(m);
      plan.execute(x, y_got);
      csr.spmv_serial(x, y_ref);
      expect_vectors_close<double>(y_got, y_ref, 1e-12);

      auto y = sparse::random_vector<double>(static_cast<std::size_t>(layout.num_rows()),
                                             seed + 9);
      util::AlignedVector<double> x_got(static_cast<std::size_t>(layout.num_cols()));
      util::AlignedVector<double> x_ref(static_cast<std::size_t>(layout.num_cols()));
      plan.execute_transpose(y, x_got);
      csr.spmv_transpose_serial(y, x_ref);
      expect_vectors_close<double>(x_got, x_ref, 1e-12);
    }
  }
}

TEST(CscvProperty, BandedOperatorLikeMatrix) {
  // Synthetic "integral-like" structure without the CT builder: each
  // (column, view) gets a short contiguous bin run at a pseudo-random
  // offset — the generalized shape P1/P2 describe.
  const OperatorLayout layout{8, 16, 12};
  sparse::CooMatrix<double> coo(layout.num_rows(), layout.num_cols());
  util::Rng rng(42);
  for (sparse::index_t c = 0; c < layout.num_cols(); ++c) {
    for (int v = 0; v < layout.num_views; ++v) {
      const int start = static_cast<int>(rng.uniform_int(0, layout.num_bins - 3));
      const int len = static_cast<int>(rng.uniform_int(1, 3));
      for (int b = start; b < start + len && b < layout.num_bins; ++b) {
        coo.add(layout.row_of(v, b), c, rng.uniform(0.1, 1.0));
      }
    }
  }
  coo.normalize();
  auto csc = sparse::CscMatrix<double>::from_coo(coo);
  auto csr = sparse::CsrMatrix<double>::from_coo(coo);
  auto m = CscvMatrix<double>::build(csc, layout, {.s_vvec = 4, .s_imgb = 8, .s_vxg = 2},
                                     CscvMatrix<double>::Variant::kM);
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(layout.num_cols()), 3);
  util::AlignedVector<double> y_got(static_cast<std::size_t>(layout.num_rows()));
  util::AlignedVector<double> y_ref(static_cast<std::size_t>(layout.num_rows()));
  SpmvPlan<double>(m).execute(x, y_got);
  csr.spmv_serial(x, y_ref);
  expect_vectors_close<double>(y_got, y_ref, 1e-12);
}

}  // namespace
}  // namespace cscv::core

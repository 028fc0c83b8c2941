#include <gtest/gtest.h>

#include <set>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "ct/fan_beam.hpp"
#include "ct/phantom.hpp"
#include "sparse/convert.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv::ct {
namespace {

using cscv::testing::expect_vectors_close;

const sparse::CscMatrix<double>& fan_matrix() {
  static const auto a = [] {
    return build_fan_system_matrix_csc<double>(standard_fan_geometry(32, 24));
  }();
  return a;
}

TEST(FanBeam, StandardGeometryIsValid) {
  auto g = standard_fan_geometry(64, 48);
  EXPECT_EQ(g.image_size, 64);
  EXPECT_GT(g.source_distance, 64.0);
  // Detector must cover the magnified object shadow.
  EXPECT_GT(g.num_bins, static_cast<int>(64 * std::numbers::sqrt2));
  EXPECT_NEAR(g.delta_angle_deg * g.num_views, 360.0, 1e-9);
}

TEST(FanBeam, ValidateRejectsCloseSource) {
  FanBeamGeometry g = standard_fan_geometry(32, 8);
  g.source_distance = 10.0;  // inside the image circumradius
  EXPECT_THROW(g.validate(), util::CheckError);
}

TEST(FanBeam, MatrixShape) {
  const auto& a = fan_matrix();
  auto g = standard_fan_geometry(32, 24);
  EXPECT_EQ(a.rows(), g.num_rows());
  EXPECT_EQ(a.cols(), g.num_cols());
  EXPECT_GT(a.nnz(), 0);
}

TEST(FanBeam, EveryPixelSeenInEveryView) {
  // The detector covers the whole object, so each column has nonzeros in
  // all (or nearly all) views.
  const auto& a = fan_matrix();
  auto g = standard_fan_geometry(32, 24);
  auto cp = a.col_ptr();
  auto ri = a.row_idx();
  for (sparse::index_t c = 0; c < a.cols(); c += 53) {
    std::set<int> views;
    for (auto k = cp[c]; k < cp[c + 1]; ++k) {
      views.insert(ri[static_cast<std::size_t>(k)] / g.num_bins);
    }
    EXPECT_EQ(static_cast<int>(views.size()), g.num_views) << "column " << c;
  }
}

TEST(FanBeam, BinsContiguousPerView) {
  // Property P2 carries over: a pixel's shadow is one closed interval.
  const auto& a = fan_matrix();
  auto g = standard_fan_geometry(32, 24);
  auto cp = a.col_ptr();
  auto ri = a.row_idx();
  for (sparse::index_t c = 0; c < a.cols(); c += 17) {
    int prev_view = -1, prev_bin = -1;
    for (auto k = cp[c]; k < cp[c + 1]; ++k) {
      const int v = ri[static_cast<std::size_t>(k)] / g.num_bins;
      const int b = ri[static_cast<std::size_t>(k)] % g.num_bins;
      if (v == prev_view) {
        EXPECT_EQ(b, prev_bin + 1) << "col " << c;
      }
      prev_view = v;
      prev_bin = b;
    }
  }
}

TEST(FanBeam, MassMagnifiesWithProximityToSource) {
  // A pixel's per-view mass is ~1 in pixel-frame integration; the column
  // sum over a full turn should be close to num_views (each view's profile
  // integrates to ~1 by the substitution in the builder).
  const auto& a = fan_matrix();
  auto g = standard_fan_geometry(32, 24);
  auto cp = a.col_ptr();
  auto vals = a.values();
  // center pixel
  const auto c = static_cast<std::size_t>((32 / 2) * 32 + 32 / 2);
  double sum = 0.0;
  for (auto k = cp[c]; k < cp[c + 1]; ++k) sum += vals[static_cast<std::size_t>(k)];
  EXPECT_NEAR(sum, g.num_views, 0.05 * g.num_views);
}

TEST(FanBeam, CscvZMatchesCsr) {
  // The paper's generalization claim: CSCV works unchanged on fan-beam
  // matrices through the same OperatorLayout.
  const auto& csc = fan_matrix();
  auto g = standard_fan_geometry(32, 24);
  const core::OperatorLayout layout{g.image_size, g.num_bins, g.num_views};
  auto cscv = core::CscvMatrix<double>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                              core::CscvMatrix<double>::Variant::kZ);
  auto csr = sparse::csr_from_csc(csc);
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(csc.cols()), 3, 0.0, 1.0);
  util::AlignedVector<double> y_got(static_cast<std::size_t>(csc.rows()));
  util::AlignedVector<double> y_ref(static_cast<std::size_t>(csc.rows()));
  core::SpmvPlan<double>(cscv).execute(x, y_got);
  csr.spmv_serial(x, y_ref);
  expect_vectors_close<double>(y_got, y_ref, 1e-12);
}

TEST(FanBeam, CscvMMatchesCsrAndTranspose) {
  const auto& csc = fan_matrix();
  auto g = standard_fan_geometry(32, 24);
  const core::OperatorLayout layout{g.image_size, g.num_bins, g.num_views};
  auto cscv = core::CscvMatrix<double>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                              core::CscvMatrix<double>::Variant::kM);
  auto csr = sparse::csr_from_csc(csc);
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(csc.cols()), 5, 0.0, 1.0);
  auto y = sparse::random_vector<double>(static_cast<std::size_t>(csc.rows()), 6, 0.0, 1.0);
  util::AlignedVector<double> y_got(static_cast<std::size_t>(csc.rows()));
  util::AlignedVector<double> y_ref(static_cast<std::size_t>(csc.rows()));
  const core::SpmvPlan<double> plan(cscv);
  plan.execute(x, y_got);
  csr.spmv_serial(x, y_ref);
  expect_vectors_close<double>(y_got, y_ref, 1e-12);

  util::AlignedVector<double> x_got(static_cast<std::size_t>(csc.cols()));
  util::AlignedVector<double> x_ref(static_cast<std::size_t>(csc.cols()));
  plan.execute_transpose(y, x_got);
  csr.spmv_transpose_serial(y, x_ref);
  expect_vectors_close<double>(x_got, x_ref, 1e-12);
}

TEST(FanBeam, PaddingRateComparableToParallelBeam) {
  // P1-P3 hold for fan geometry, so IOBLR padding should stay in the same
  // order of magnitude as the parallel case at matching sampling.
  const auto& csc = fan_matrix();
  auto g = standard_fan_geometry(32, 24);
  const core::OperatorLayout layout{g.image_size, g.num_bins, g.num_views};
  auto cscv = core::CscvMatrix<double>::build(csc, layout, {.s_vvec = 4, .s_imgb = 8, .s_vxg = 1},
                                              core::CscvMatrix<double>::Variant::kZ);
  EXPECT_LT(cscv.r_nnze(), 2.0);
}

TEST(FanBeam, CentredDiskProjectionIsFlatAcrossViews) {
  // A centered disk looks identical from every source angle.
  auto g = standard_fan_geometry(32, 12);
  auto a = build_fan_system_matrix_csc<double>(g);
  std::vector<Ellipse> disk{{1.0, 0.4, 0.4, 0.0, 0.0, 0.0}};
  auto img = rasterize<double>(disk, 32);
  util::AlignedVector<double> sino(static_cast<std::size_t>(g.num_rows()));
  a.spmv(img, sino);
  // Total mass per view must match across views.
  std::vector<double> mass(static_cast<std::size_t>(g.num_views), 0.0);
  for (int v = 0; v < g.num_views; ++v) {
    for (int b = 0; b < g.num_bins; ++b) {
      mass[static_cast<std::size_t>(v)] += sino[static_cast<std::size_t>(v) * g.num_bins + b];
    }
  }
  for (int v = 1; v < g.num_views; ++v) {
    EXPECT_NEAR(mass[static_cast<std::size_t>(v)], mass[0], 0.01 * mass[0]);
  }
}

}  // namespace
}  // namespace cscv::ct

#include <gtest/gtest.h>

#include <numbers>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "ct/attenuated.hpp"
#include "sparse/convert.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv::ct {
namespace {

using cscv::testing::expect_vectors_close;

TEST(Attenuated, ZeroMuReducesToPlainBuilder) {
  auto g = standard_geometry(16, 8);
  util::AlignedVector<double> mu(static_cast<std::size_t>(g.num_cols()), 0.0);
  auto plain = build_system_matrix_csc<double>(g);
  auto atten = build_attenuated_system_matrix_csc<double>(g, mu);
  ASSERT_EQ(atten.nnz(), plain.nnz());
  for (std::size_t k = 0; k < static_cast<std::size_t>(plain.nnz()); ++k) {
    EXPECT_DOUBLE_EQ(atten.values()[k], plain.values()[k]);
  }
}

TEST(Attenuated, IntegralZeroOutsideSupport) {
  auto g = standard_geometry(16, 8);
  util::AlignedVector<double> mu(static_cast<std::size_t>(g.num_cols()), 0.0);
  EXPECT_DOUBLE_EQ(attenuation_integral(g, mu, 8, 8, 0), 0.0);
}

TEST(Attenuated, UniformMuIntegralMatchesExitDistance) {
  // Uniform mu = 0.1 over the whole square: the integral from the center
  // along view 0 (ray direction (0, 1)) is mu times the distance to the
  // top edge, ~ n/2 pixels.
  const int n = 32;
  auto g = standard_geometry(n, 8);
  g.start_angle_deg = 0.0;
  util::AlignedVector<double> mu(static_cast<std::size_t>(g.num_cols()), 0.1);
  const double got = attenuation_integral(g, mu, n / 2, n / 2, 0, 0.25);
  // Bilinear support fades over the last half-pixel; allow 1.5 px slack.
  EXPECT_NEAR(got, 0.1 * (n / 2.0), 0.1 * 1.5);
}

TEST(Attenuated, WeightsShrinkValuesMonotonically) {
  auto g = standard_geometry(16, 8);
  util::AlignedVector<double> mu_lo(static_cast<std::size_t>(g.num_cols()), 0.01);
  util::AlignedVector<double> mu_hi(static_cast<std::size_t>(g.num_cols()), 0.1);
  auto plain = build_system_matrix_csc<double>(g);
  auto lo = build_attenuated_system_matrix_csc<double>(g, mu_lo);
  auto hi = build_attenuated_system_matrix_csc<double>(g, mu_hi);
  double s_plain = 0, s_lo = 0, s_hi = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(plain.nnz()); ++k) {
    s_plain += plain.values()[k];
    s_lo += lo.values()[k];
    s_hi += hi.values()[k];
    EXPECT_LE(lo.values()[k], plain.values()[k] + 1e-15);
    EXPECT_LE(hi.values()[k], lo.values()[k] + 1e-15);
  }
  EXPECT_LT(s_hi, s_lo);
  EXPECT_LT(s_lo, s_plain);
}

TEST(Attenuated, DeepPixelsAttenuateMoreThanShallow) {
  // View 0 rays exit toward +y: a pixel near the bottom passes under the
  // whole absorber; one near the top exits almost immediately.
  const int n = 32;
  auto g = standard_geometry(n, 4);
  util::AlignedVector<double> mu(static_cast<std::size_t>(g.num_cols()), 0.05);
  const double deep = attenuation_integral(g, mu, n / 2, 2, 0);
  const double shallow = attenuation_integral(g, mu, n / 2, n - 3, 0);
  EXPECT_GT(deep, 3.0 * shallow);
}

TEST(Attenuated, CscvStillExactOnAttenuatedMatrix) {
  // The paper's SPECT claim: attenuation changes values, not structure, so
  // IOBLR/CSCV applies unchanged.
  const int n = 32, views = 24;
  auto g = standard_geometry(n, views);
  // Non-uniform mu: a denser disk in the middle.
  util::AlignedVector<double> mu(static_cast<std::size_t>(g.num_cols()), 0.0);
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      const double dx = ix - n / 2.0, dy = iy - n / 2.0;
      if (dx * dx + dy * dy < (n / 4.0) * (n / 4.0)) {
        mu[static_cast<std::size_t>(iy) * n + ix] = 0.08;
      }
    }
  }
  auto csc = build_attenuated_system_matrix_csc<double>(g, mu);
  auto csr = sparse::csr_from_csc(csc);
  const core::OperatorLayout layout = core::OperatorLayout::from_geometry(g);
  for (auto variant : {core::CscvMatrix<double>::Variant::kZ,
                       core::CscvMatrix<double>::Variant::kM}) {
    auto m = core::CscvMatrix<double>::build(csc, layout,
                                             {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2}, variant);
    auto x = sparse::random_vector<double>(static_cast<std::size_t>(csc.cols()), 3, 0.0, 1.0);
    util::AlignedVector<double> y_got(static_cast<std::size_t>(csc.rows()));
    util::AlignedVector<double> y_ref(static_cast<std::size_t>(csc.rows()));
    core::SpmvPlan<double>(m).execute(x, y_got);
    csr.spmv_serial(x, y_ref);
    expect_vectors_close<double>(y_got, y_ref, 1e-12);
  }
}

// 18 views: not a multiple of 4, so the plain operator is stored in full
// like the attenuated one (which never folds: its weights break the
// symmetry, tests/cscv/test_fold.cpp).
TEST(Attenuated, StructureIdenticalSoPaddingIdentical) {
  const int n = 32, views = 18;
  auto g = standard_geometry(n, views);
  util::AlignedVector<double> mu(static_cast<std::size_t>(g.num_cols()), 0.05);
  auto plain = build_system_matrix_csc<double>(g);
  auto atten = build_attenuated_system_matrix_csc<double>(g, mu);
  const core::OperatorLayout layout = core::OperatorLayout::from_geometry(g);
  const core::CscvParams p{.s_vvec = 8, .s_imgb = 8, .s_vxg = 2};
  auto m1 = core::CscvMatrix<double>::build(plain, layout, p,
                                            core::CscvMatrix<double>::Variant::kZ);
  auto m2 = core::CscvMatrix<double>::build(atten, layout, p,
                                            core::CscvMatrix<double>::Variant::kZ);
  EXPECT_EQ(m1.num_vxgs(), m2.num_vxgs());
  EXPECT_DOUBLE_EQ(m1.r_nnze(), m2.r_nnze());
}

}  // namespace
}  // namespace cscv::ct

#include <gtest/gtest.h>

#include "ct/phantom.hpp"
#include "recon/solvers.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv::recon {
namespace {

using cscv::testing::cached_ct_csc;
using cscv::testing::cached_ct_csr;

TEST(Sirt, ResidualDecreasesMonotonically) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<double>(image, views);
  CsrOperator<double> op(csr);
  auto phantom = ct::shepp_logan_modified();
  auto x_true = ct::rasterize<double>(phantom, image);
  util::AlignedVector<double> b(static_cast<std::size_t>(csr.rows()));
  op.forward(x_true, b);

  util::AlignedVector<double> x(static_cast<std::size_t>(csr.cols()), 0.0);
  auto stats = sirt<double>(op, b, x, {.iterations = 20});
  ASSERT_EQ(stats.iterations_run, 20);
  for (std::size_t i = 1; i < stats.residual_norms.size(); ++i) {
    EXPECT_LE(stats.residual_norms[i], stats.residual_norms[i - 1] * 1.0001)
        << "iteration " << i;
  }
  EXPECT_LT(stats.residual_norms.back(), 0.25 * stats.residual_norms.front());
}

TEST(Sirt, ReconstructionApproachesPhantom) {
  const int image = 16, views = 24;
  auto g = ct::standard_geometry(image, views);
  auto csc = ct::build_system_matrix_csc<double>(g);
  CscOperator<double> op(csc);
  auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), image);
  util::AlignedVector<double> b(static_cast<std::size_t>(csc.rows()));
  op.forward(x_true, b);

  util::AlignedVector<double> x(static_cast<std::size_t>(csc.cols()), 0.0);
  sirt<double>(op, b, x, {.iterations = 200});
  const double err =
      util::rmse<double>(x, x_true);
  EXPECT_LT(err, 0.09) << "SIRT should roughly recover the phantom";
}

TEST(Sirt, CscvForwardEngineGivesSameReconstruction) {
  // The application-level claim: swapping the SpMV engine changes speed,
  // not the reconstruction.
  const int image = 16, views = 12;
  const auto& csc = cached_ct_csc<double>(image, views);
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  auto cscv_m = core::CscvMatrix<double>::build(csc, layout,
                                                {.s_vvec = 4, .s_imgb = 4, .s_vxg = 1},
                                                core::CscvMatrix<double>::Variant::kM);
  const core::SpmvPlan<double> plan(cscv_m);
  const PlanOperator<double> op_cscv(plan);
  CscOperator<double> op_csc(csc);

  auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), image);
  util::AlignedVector<double> b(static_cast<std::size_t>(csc.rows()));
  op_csc.forward(x_true, b);

  util::AlignedVector<double> x1(static_cast<std::size_t>(csc.cols()), 0.0);
  util::AlignedVector<double> x2(static_cast<std::size_t>(csc.cols()), 0.0);
  sirt<double>(op_csc, b, x1, {.iterations = 15});
  sirt<double>(op_cscv, b, x2, {.iterations = 15});
  EXPECT_LT(util::rel_l2_error<double>(x2, x1), 1e-10);
}

TEST(Sirt, NonnegativityClampActive) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<double>(image, views);
  CsrOperator<double> op(csr);
  // Random (unphysical) sinogram drives negative updates; clamp holds.
  auto b = sparse::random_vector<double>(static_cast<std::size_t>(csr.rows()), 11, -1.0, 1.0);
  util::AlignedVector<double> x(static_cast<std::size_t>(csr.cols()), 0.0);
  sirt<double>(op, b, x, {.iterations = 5, .enforce_nonneg = true});
  for (double v : x) EXPECT_GE(v, 0.0);
}

TEST(Sirt, RelaxationScalesStep) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<double>(image, views);
  CsrOperator<double> op(csr);
  auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), image);
  util::AlignedVector<double> b(static_cast<std::size_t>(csr.rows()));
  op.forward(x_true, b);
  util::AlignedVector<double> x_full(static_cast<std::size_t>(csr.cols()), 0.0);
  util::AlignedVector<double> x_half(static_cast<std::size_t>(csr.cols()), 0.0);
  auto s_full = sirt<double>(op, b, x_full, {.iterations = 10, .relaxation = 1.0});
  auto s_half = sirt<double>(op, b, x_half, {.iterations = 10, .relaxation = 0.5});
  EXPECT_LT(s_full.residual_norms.back(), s_half.residual_norms.back());
}

}  // namespace
}  // namespace cscv::recon

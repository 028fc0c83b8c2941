// End-to-end integration: phantom -> system matrix -> analytic sinogram ->
// every SpMV engine -> SIRT reconstruction; the full pipeline a user runs.
#include <gtest/gtest.h>

#include "core/format.hpp"
#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include <sstream>

#include "recon/solvers.hpp"
#include "sparse/merge.hpp"
#include "sparse/mmio.hpp"
#include "sparse/segsum.hpp"
#include "sparse/sell.hpp"
#include "sparse/spc5.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv {
namespace {

TEST(Pipeline, AllEnginesProduceTheSameSinogram) {
  const int image = 32, views = 24;
  auto g = ct::standard_geometry(image, views);
  auto csc = ct::build_system_matrix_csc<float>(g);
  auto coo = csc.to_coo();
  auto csr = sparse::CsrMatrix<float>::from_coo(coo);
  auto sell = sparse::SellMatrix<float>::from_coo(coo, 8, 512);
  sparse::SegSumCsr<float> seg(csr, 256);
  auto spc5 = sparse::Spc5Matrix<float>::from_csr(csr, 4, 8);
  const core::OperatorLayout layout = core::OperatorLayout::from_geometry(g);
  auto cz = core::CscvMatrix<float>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                           core::CscvMatrix<float>::Variant::kZ);
  auto cm = core::CscvMatrix<float>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                           core::CscvMatrix<float>::Variant::kM);

  auto img = ct::rasterize<float>(ct::shepp_logan_modified(), image);
  const auto rows = static_cast<std::size_t>(g.num_rows());
  util::AlignedVector<float> y_ref(rows), y(rows);
  csr.spmv_serial(img, y_ref);

  csc.spmv(img, y);
  EXPECT_LT(util::rel_l2_error<float>(y, y_ref), 1e-5);
  sell.spmv(img, y);
  EXPECT_LT(util::rel_l2_error<float>(y, y_ref), 1e-5);
  seg.spmv(img, y);
  EXPECT_LT(util::rel_l2_error<float>(y, y_ref), 1e-5);
  spc5.spmv(img, y);
  EXPECT_LT(util::rel_l2_error<float>(y, y_ref), 1e-5);
  sparse::merge_spmv(csr, std::span<const float>(img), std::span<float>(y));
  EXPECT_LT(util::rel_l2_error<float>(y, y_ref), 1e-5);
  core::SpmvPlan<float>(cz).execute(img, y);
  EXPECT_LT(util::rel_l2_error<float>(y, y_ref), 1e-5);
  core::SpmvPlan<float>(cm).execute(img, y);
  EXPECT_LT(util::rel_l2_error<float>(y, y_ref), 1e-5);
}

TEST(Pipeline, ReconstructFromAnalyticSinogram) {
  // Reconstruct from the *analytic* sinogram (not A*x), i.e. with genuine
  // discretization mismatch — the realistic inverse problem.
  const int image = 32, views = 48;
  auto g = ct::standard_geometry(image, views);
  auto csc = ct::build_system_matrix_csc<double>(g, ct::FootprintModel::kTrapezoid);
  recon::CscOperator<double> op(csc);
  auto phantom = ct::shepp_logan_modified();
  auto b = ct::analytic_sinogram<double>(phantom, g);
  auto x_true = ct::rasterize<double>(phantom, image);

  util::AlignedVector<double> x(static_cast<std::size_t>(csc.cols()), 0.0);
  recon::sirt<double>(op, b, x, {.iterations = 150});
  EXPECT_LT(util::rmse<double>(x, x_true), 0.12);
}

TEST(Pipeline, CscvReconstructionMatchesCsrReconstruction) {
  const int image = 32, views = 24;
  auto g = ct::standard_geometry(image, views);
  auto csc = ct::build_system_matrix_csc<double>(g);
  auto csr = sparse::CsrMatrix<double>::from_coo(csc.to_coo());
  const core::OperatorLayout layout = core::OperatorLayout::from_geometry(g);
  auto cscv_m = core::CscvMatrix<double>::build(csc, layout,
                                                {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                                core::CscvMatrix<double>::Variant::kM);
  recon::CsrOperator<double> op_csr(csr);
  const core::SpmvPlan<double> plan(cscv_m);
  const recon::PlanOperator<double> op_cscv(plan);

  auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), image);
  util::AlignedVector<double> b(static_cast<std::size_t>(csr.rows()));
  op_csr.forward(x_true, b);

  util::AlignedVector<double> x1(static_cast<std::size_t>(csr.cols()), 0.0);
  util::AlignedVector<double> x2(static_cast<std::size_t>(csr.cols()), 0.0);
  recon::cgls<double>(op_csr, b, x1, {.iterations = 20, .enforce_nonneg = false});
  recon::cgls<double>(op_cscv, b, x2, {.iterations = 20, .enforce_nonneg = false});
  EXPECT_LT(util::rel_l2_error<double>(x2, x1), 1e-7);  // CGLS amplifies kernel rounding
}

TEST(Pipeline, MatrixMarketRoundTripPreservesSpmv) {
  const int image = 16, views = 12;
  auto g = ct::standard_geometry(image, views);
  auto csc = ct::build_system_matrix_csc<double>(g);
  auto coo = csc.to_coo();

  std::stringstream ss;
  sparse::write_matrix_market(ss, coo);
  auto coo2 = sparse::read_matrix_market<double>(ss);

  auto x = sparse::random_vector<double>(static_cast<std::size_t>(coo.cols()), 13);
  util::AlignedVector<double> y1(static_cast<std::size_t>(coo.rows()));
  util::AlignedVector<double> y2(static_cast<std::size_t>(coo.rows()));
  coo.spmv(x, y1);
  coo2.spmv(x, y2);
  EXPECT_LT(util::rel_l2_error<double>(y2, y1), 1e-6);
}

}  // namespace
}  // namespace cscv

// Multi-slice (2.5-D) SIRT: K axial slices share one system matrix, so
// sirt_batch over a K-wide CSCV plan forward-projects and backprojects all
// of them in one matrix traversal per apply. These are the double-precision
// multi-RHS SIRT cases; the float ones live in test_batch_solvers.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ct/phantom.hpp"
#include "recon/solvers.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv::recon {
namespace {

using cscv::testing::cached_ct_csc;

struct VolumeFixture {
  static constexpr int kSlices = 3;
  int image = 16, views = 24;
  const sparse::CscMatrix<double>& csc = cached_ct_csc<double>(16, 24);
  core::OperatorLayout layout{16, ct::standard_num_bins(16), 24};
  core::CscvMatrix<double> cscv = core::CscvMatrix<double>::build(
      csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
      core::CscvMatrix<double>::Variant::kM);
  core::SpmvPlan<double> plan{cscv, {.num_rhs = kSlices}};
  PlanOperator<double> op{plan};
  std::size_t rows = static_cast<std::size_t>(csc.rows());
  std::size_t cols = static_cast<std::size_t>(csc.cols());

  // Ground truth: slice k is the phantom scaled by (k+1), interleaved.
  util::AlignedVector<double> truth;
  util::AlignedVector<double> b;

  VolumeFixture() {
    auto base = ct::rasterize<double>(ct::shepp_logan_modified(), image);
    truth.resize(cols * kSlices);
    for (std::size_t c = 0; c < cols; ++c) {
      for (int k = 0; k < kSlices; ++k) truth[c * kSlices + k] = base[c] * (k + 1);
    }
    b.resize(rows * kSlices);
    plan.execute(truth, b);
  }

  std::vector<RunStats> solve(util::AlignedVector<double>& x, int iterations) const {
    const std::vector<SolveOptions> opts(kSlices, SolveOptions{.iterations = iterations});
    return sirt_batch<double>(op, b, x, kSlices, opts);
  }
};

TEST(SirtVolume, MatchesSliceBySliceSirt) {
  VolumeFixture f;
  util::AlignedVector<double> x_vol(f.truth.size(), 0.0);
  const auto stats = f.solve(x_vol, 10);

  // Reference: plain SIRT per slice over the matrix's one-column plan.
  const core::SpmvPlan<double> plan(f.cscv);
  const PlanOperator<double> serial(plan);
  for (std::size_t k = 0; k < VolumeFixture::kSlices; ++k) {
    util::AlignedVector<double> bk(f.rows), xk(f.cols, 0.0), got(f.cols);
    for (std::size_t r = 0; r < f.rows; ++r) bk[r] = f.b[r * VolumeFixture::kSlices + k];
    const RunStats ref = sirt<double>(serial, bk, xk, {.iterations = 10});
    for (std::size_t c = 0; c < f.cols; ++c) got[c] = x_vol[c * VolumeFixture::kSlices + k];
    EXPECT_EQ(std::memcmp(got.data(), xk.data(), f.cols * sizeof(double)), 0)
        << "slice " << k << " diverges from sirt() on that slice";
    EXPECT_EQ(stats[k].residual_norms, ref.residual_norms) << "slice " << k;
  }
}

TEST(SirtVolume, ResidualDecreases) {
  VolumeFixture f;
  util::AlignedVector<double> x(f.truth.size(), 0.0);
  for (const RunStats& s : f.solve(x, 15)) {
    EXPECT_LT(s.residual_norms.back(), 0.3 * s.residual_norms.front());
  }
}

TEST(SirtVolume, RecoversScaledSlices) {
  VolumeFixture f;
  util::AlignedVector<double> x(f.truth.size(), 0.0);
  f.solve(x, 80);
  // Slice 3 has values up to 3.0, so absolute RMSE scales with it.
  EXPECT_LT(util::rmse<double>(x, f.truth), 0.08 * 3.0);
}

TEST(SirtVolume, RejectsBadSizes) {
  VolumeFixture f;
  const std::vector<SolveOptions> opts(VolumeFixture::kSlices, SolveOptions{.iterations = 1});
  util::AlignedVector<double> x_short(f.cols * 2, 0.0);
  EXPECT_THROW(sirt_batch<double>(f.op, f.b, x_short, VolumeFixture::kSlices, opts),
               util::CheckError);
  util::AlignedVector<double> x(f.truth.size(), 0.0);
  EXPECT_THROW(sirt_batch<double>(f.op, f.b, x, VolumeFixture::kSlices,
                                  std::span(opts).first(2)),
               util::CheckError);
  // The operator is pinned to its plan's three columns.
  util::AlignedVector<double> x2(f.cols * 2, 0.0);
  util::AlignedVector<double> b2(f.rows * 2, 0.0);
  EXPECT_THROW(sirt_batch<double>(f.op, b2, x2, 2, std::span(opts).first(2)),
               util::CheckError);
}

}  // namespace
}  // namespace cscv::recon

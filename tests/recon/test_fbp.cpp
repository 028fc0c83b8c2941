#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "ct/phantom.hpp"
#include "recon/fbp.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv::recon {
namespace {

TEST(RamLak, KernelStructure) {
  auto h = ram_lak_kernel(8);
  ASSERT_EQ(h.size(), 17u);
  EXPECT_DOUBLE_EQ(h[8], 0.25);          // center
  EXPECT_DOUBLE_EQ(h[9], h[7]);          // symmetric
  EXPECT_DOUBLE_EQ(h[10], 0.0);          // even taps vanish
  EXPECT_LT(h[9], 0.0);                  // odd taps negative
  EXPECT_NEAR(h[9], -1.0 / (std::numbers::pi * std::numbers::pi), 1e-15);
}

TEST(RamLak, DcResponseNearZero) {
  // The ramp filter kills DC: sum of taps tends to 0 as the kernel grows.
  auto h = ram_lak_kernel(511);
  double sum = 0.0;
  for (double v : h) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-3);
}

TEST(RampFilter, ConstantRowsLoseDc) {
  auto g = ct::standard_geometry(32, 8);
  util::AlignedVector<double> sino(static_cast<std::size_t>(g.num_rows()), 1.0);
  auto filtered = ramp_filter<double>(g, sino);
  // interior bins of a constant row filter to ~0 (edges see the padding)
  const int mid = g.num_bins / 2;
  for (int v = 0; v < g.num_views; ++v) {
    EXPECT_NEAR(filtered[static_cast<std::size_t>(g.row_id(v, mid))], 0.0, 0.05);
  }
}

// The direct ramp filter one output bin at a time, in the multiply-add form
// ramp_filter uses (fused where the target has FMA).
template <typename T>
std::vector<T> ramp_filter_by_bin(int bins, std::span<const T> sinogram) {
  const auto h = ram_lak_kernel(bins - 1);
  const int hw = bins - 1;
  std::vector<T> out(sinogram.size());
  for (std::size_t v = 0; v < sinogram.size() / static_cast<std::size_t>(bins); ++v) {
    const T* row = sinogram.data() + v * static_cast<std::size_t>(bins);
    for (int b = 0; b < bins; ++b) {
      double acc = 0.0;
      for (int k = b - hw; k <= b; ++k) {
        const double hk = h[static_cast<std::size_t>(hw + k)];
#if defined(__FMA__)
        acc = std::fma(hk, static_cast<double>(row[b - k]), acc);
#else
        acc += hk * static_cast<double>(row[b - k]);
#endif
      }
      out[v * static_cast<std::size_t>(bins) + static_cast<std::size_t>(b)] =
          static_cast<T>(acc);
    }
  }
  return out;
}

// ramp_filter runs several output bins per step; each bin must still be
// bitwise the one-bin sum, at bin counts below, equal to and not a multiple
// of the step width, with one row holding an Inf and one a NaN.
template <typename T>
void check_ramp_filter_bitwise() {
  for (const int bins : {3, 8, 19, 97}) {
    ct::ParallelGeometry g;
    g.image_size = 4;
    g.num_bins = bins;
    g.num_views = 4;
    g.delta_angle_deg = 45.0;
    std::mt19937 rng(static_cast<unsigned>(bins));
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    util::AlignedVector<T> sino(static_cast<std::size_t>(g.num_rows()));
    for (T& v : sino) v = static_cast<T>(u(rng));
    sino[static_cast<std::size_t>(g.row_id(1, bins / 2))] = std::numeric_limits<T>::infinity();
    sino[static_cast<std::size_t>(g.row_id(2, bins - 1))] = std::numeric_limits<T>::quiet_NaN();
    const auto got = ramp_filter<T>(g, sino);
    const auto want = ramp_filter_by_bin<T>(bins, sino);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(T)), 0)
        << bins << " bins, " << sizeof(T) * 8 << "-bit";
  }
}

TEST(RampFilter, BitwiseMatchesOneBinAtATime) {
  check_ramp_filter_bitwise<float>();
  check_ramp_filter_bitwise<double>();
}

TEST(RampFilter, LinearInInput) {
  auto g = ct::standard_geometry(16, 6);
  auto s1 = sparse::random_vector<double>(static_cast<std::size_t>(g.num_rows()), 1);
  auto s2 = sparse::random_vector<double>(static_cast<std::size_t>(g.num_rows()), 2);
  util::AlignedVector<double> sum(s1.size());
  for (std::size_t i = 0; i < s1.size(); ++i) sum[i] = 3.0 * s1[i] - 2.0 * s2[i];
  auto f1 = ramp_filter<double>(g, s1);
  auto f2 = ramp_filter<double>(g, s2);
  auto fsum = ramp_filter<double>(g, sum);
  for (std::size_t i = 0; i < s1.size(); i += 13) {
    EXPECT_NEAR(fsum[i], 3.0 * f1[i] - 2.0 * f2[i], 1e-10);
  }
}

TEST(Fbp, RecoversUnitDiskDensity) {
  // Absolute calibration: FBP of the analytic sinogram of a unit-density
  // disk must give ~1 at the center.
  const int n = 64;
  auto g = ct::standard_geometry(n, 90);
  auto csc = ct::build_system_matrix_csc<double>(g, ct::FootprintModel::kTrapezoid);
  CscOperator<double> op(csc);
  std::vector<ct::Ellipse> disk{{1.0, 0.5, 0.5, 0.0, 0.0, 0.0}};
  auto sino = ct::analytic_sinogram<double>(disk, g);
  auto img = fbp<double>(g, op, sino);
  EXPECT_NEAR(img[static_cast<std::size_t>(n / 2) * n + n / 2], 1.0, 0.03);
  EXPECT_NEAR(img[0], 0.0, 0.08);  // outside the disk
}

TEST(Fbp, SheppLoganReconstruction) {
  const int n = 64;
  auto g = ct::standard_geometry(n, 120);
  auto csc = ct::build_system_matrix_csc<double>(g, ct::FootprintModel::kTrapezoid);
  CscOperator<double> op(csc);
  auto phantom = ct::shepp_logan_modified();
  auto sino = ct::analytic_sinogram<double>(phantom, g);
  auto img = fbp<double>(g, op, sino);
  auto truth = ct::rasterize<double>(phantom, n);
  EXPECT_LT(util::rmse<double>(img, truth), 0.12);
}

TEST(Fbp, CscvBackprojectorMatchesCsc) {
  const int n = 32;
  auto g = ct::standard_geometry(n, 48);
  auto csc = ct::build_system_matrix_csc<double>(g);
  const core::OperatorLayout layout = core::OperatorLayout::from_geometry(g);
  auto cscv = core::CscvMatrix<double>::build(csc, layout,
                                              {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                              core::CscvMatrix<double>::Variant::kM);
  CscOperator<double> op_csc(csc);
  const core::SpmvPlan<double> plan(cscv);
  const PlanOperator<double> op_cscv(plan);
  auto sino = ct::analytic_sinogram<double>(ct::shepp_logan_modified(), g);
  auto img1 = fbp<double>(g, op_csc, std::span<const double>(sino));
  auto img2 = fbp<double>(g, op_cscv, std::span<const double>(sino));
  EXPECT_LT(util::rel_l2_error<double>(img2, img1), 1e-10);
}

TEST(RampFilterFft, MatchesDirectConvolutionForRamLak) {
  auto g = ct::standard_geometry(32, 10);
  auto sino = sparse::random_vector<double>(static_cast<std::size_t>(g.num_rows()), 3);
  auto direct = ramp_filter<double>(g, sino);
  auto via_fft = ramp_filter_fft<double>(g, sino, FbpWindow::kRamLak);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(via_fft[i], direct[i], 1e-9) << "index " << i;
  }
}

TEST(RampFilterFft, HannAttenuatesHighFrequencies) {
  // Alternating-sign (Nyquist) rows survive Ram-Lak but die under Hann.
  auto g = ct::standard_geometry(32, 4);
  util::AlignedVector<double> sino(static_cast<std::size_t>(g.num_rows()));
  for (std::size_t i = 0; i < sino.size(); ++i) sino[i] = (i % 2 == 0) ? 1.0 : -1.0;
  auto ram = ramp_filter_fft<double>(g, sino, FbpWindow::kRamLak);
  auto hann = ramp_filter_fft<double>(g, sino, FbpWindow::kHann);
  double e_ram = 0.0, e_hann = 0.0;
  for (std::size_t i = 0; i < sino.size(); ++i) {
    e_ram += ram[i] * ram[i];
    e_hann += hann[i] * hann[i];
  }
  EXPECT_LT(e_hann, 0.05 * e_ram);
}

TEST(RampFilterFft, SheppLoganBetweenRamLakAndHann) {
  auto g = ct::standard_geometry(32, 4);
  util::AlignedVector<double> sino(static_cast<std::size_t>(g.num_rows()));
  for (std::size_t i = 0; i < sino.size(); ++i) sino[i] = (i % 2 == 0) ? 1.0 : -1.0;
  auto e = [&](FbpWindow w) {
    auto f = ramp_filter_fft<double>(g, sino, w);
    double s = 0.0;
    for (double v : f) s += v * v;
    return s;
  };
  const double ram = e(FbpWindow::kRamLak);
  const double shepp = e(FbpWindow::kSheppLogan);
  const double hann = e(FbpWindow::kHann);
  EXPECT_LT(shepp, ram);
  EXPECT_LT(hann, shepp);
}

TEST(Fbp, HannWindowStillReconstructs) {
  const int n = 64;
  auto g = ct::standard_geometry(n, 90);
  auto csc = ct::build_system_matrix_csc<double>(g, ct::FootprintModel::kTrapezoid);
  CscOperator<double> op(csc);
  auto phantom = ct::shepp_logan_modified();
  auto sino = ct::analytic_sinogram<double>(phantom, g);
  auto img = fbp<double>(g, op, std::span<const double>(sino), FbpWindow::kHann);
  auto truth = ct::rasterize<double>(phantom, n);
  EXPECT_LT(util::rmse<double>(img, truth), 0.15);  // smoother, slightly blurrier
}

}  // namespace
}  // namespace cscv::recon

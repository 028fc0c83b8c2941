#include "recon/fbp.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "util/assertx.hpp"
#include "util/fft.hpp"
#include "util/parallel.hpp"

namespace cscv::recon {

util::AlignedVector<double> ram_lak_kernel(int half_width) {
  CSCV_CHECK(half_width >= 0);
  util::AlignedVector<double> h(static_cast<std::size_t>(2 * half_width) + 1, 0.0);
  h[static_cast<std::size_t>(half_width)] = 0.25;
  for (int k = 1; k <= half_width; k += 2) {  // odd offsets only
    const double v = -1.0 / (std::numbers::pi * std::numbers::pi * k * k);
    h[static_cast<std::size_t>(half_width + k)] = v;
    h[static_cast<std::size_t>(half_width - k)] = v;
  }
  return h;
}

template <typename T>
util::AlignedVector<T> ramp_filter(const ct::ParallelGeometry& geometry,
                                   std::span<const T> sinogram) {
  geometry.validate();
  CSCV_CHECK(sinogram.size() == static_cast<std::size_t>(geometry.num_rows()));
  const int bins = geometry.num_bins;
  const int hw = bins - 1;
  // W output bins per step, one per lane. Output b sums h[hw + k] *
  // row[b - k] over k = b - hw .. b in ascending k, one double multiply-add
  // per tap (fused where the target has FMA). Lane j of a step runs the
  // union of its lanes' k ranges in that same order; its extra taps read
  // the zero padding around the row (and beyond the kernel's end), adding
  // +-0 to an accumulator that starts at +0 and so never changing it:
  // every bin, NaN and Inf included, is bitwise the one-bin-at-a-time sum.
  constexpr int W = 8;
  auto h = ram_lak_kernel(hw);
  h.resize(h.size() + W, 0.0);

  util::AlignedVector<T> out(sinogram.size(), T(0));
  util::parallel_for(0, static_cast<std::size_t>(geometry.num_views), [&](std::size_t v) {
    const T* row = sinogram.data() + v * static_cast<std::size_t>(bins);
    T* dst = out.data() + v * static_cast<std::size_t>(bins);
    // row[i] at padded[W - 1 + i], W - 1 zeros on either side.
    std::vector<double> padded(static_cast<std::size_t>(bins + 2 * (W - 1)), 0.0);
    for (int i = 0; i < bins; ++i) {
      padded[static_cast<std::size_t>(W - 1 + i)] = static_cast<double>(row[i]);
    }
    for (int b0 = 0; b0 < bins; b0 += W) {
      double acc[W] = {};
      for (int k = b0 - hw; k < b0 + W; ++k) {
        const double hk = h[static_cast<std::size_t>(hw + k)];
        const double* src = padded.data() + (W - 1 + b0 - k);  // lane j: row[b0 + j - k]
        for (int j = 0; j < W; ++j) {
#if defined(__FMA__)
          acc[j] = std::fma(hk, src[j], acc[j]);
#else
          acc[j] += hk * src[j];
#endif
        }
      }
      for (int j = 0; j < W && b0 + j < bins; ++j) dst[b0 + j] = static_cast<T>(acc[j]);
    }
  });
  return out;
}

template <typename T>
util::AlignedVector<T> ramp_filter_fft(const ct::ParallelGeometry& geometry,
                                       std::span<const T> sinogram, FbpWindow window) {
  geometry.validate();
  CSCV_CHECK(sinogram.size() == static_cast<std::size_t>(geometry.num_rows()));
  const int bins = geometry.num_bins;
  // Pad to 2x the next power of two: the circular convolution of the padded
  // signals equals the linear convolution on the original support.
  const std::size_t n = util::next_pow2(static_cast<std::size_t>(2 * bins));

  // Frequency response: FFT of the zero-padded spatial Ram-Lak kernel
  // (taking |.| of the analytic ramp instead would reintroduce the DC bias
  // the discrete kernel is constructed to avoid), times the window.
  std::vector<std::complex<double>> response(n, 0.0);
  {
    const auto h = ram_lak_kernel(bins - 1);
    // kernel tap k (offset from center) lands at index (k mod n)
    for (int k = -(bins - 1); k <= bins - 1; ++k) {
      const std::size_t at = static_cast<std::size_t>((k + static_cast<int>(n)) % static_cast<int>(n));
      response[at] += h[static_cast<std::size_t>(k + bins - 1)];
    }
    util::fft_inplace(response, false);
    for (std::size_t i = 0; i < n; ++i) {
      // Normalized frequency in [0, 1]: 0 at DC, 1 at Nyquist.
      const double f = static_cast<double>(i <= n / 2 ? i : n - i) / static_cast<double>(n / 2);
      double w = 1.0;
      switch (window) {
        case FbpWindow::kRamLak: break;
        case FbpWindow::kSheppLogan: {
          const double arg = 0.5 * std::numbers::pi * f;
          w = arg < 1e-12 ? 1.0 : std::sin(arg) / arg;
          break;
        }
        case FbpWindow::kHann:
          w = 0.5 * (1.0 + std::cos(std::numbers::pi * f));
          break;
      }
      response[i] *= w;
    }
  }

  util::AlignedVector<T> out(sinogram.size(), T(0));
  util::parallel_for(0, static_cast<std::size_t>(geometry.num_views), [&](std::size_t v) {
    std::vector<std::complex<double>> row(n, 0.0);
    const T* src = sinogram.data() + v * static_cast<std::size_t>(bins);
    for (int b = 0; b < bins; ++b) row[static_cast<std::size_t>(b)] = static_cast<double>(src[b]);
    util::fft_inplace(row, false);
    for (std::size_t i = 0; i < n; ++i) row[i] *= response[i];
    util::fft_inplace(row, true);
    T* dst = out.data() + v * static_cast<std::size_t>(bins);
    for (int b = 0; b < bins; ++b) dst[b] = static_cast<T>(row[static_cast<std::size_t>(b)].real());
  });
  return out;
}

template <typename T>
util::AlignedVector<T> fbp(const ct::ParallelGeometry& geometry,
                           const LinearOperator<T>& op, std::span<const T> sinogram,
                           FbpWindow window) {
  CSCV_CHECK(op.rows() == geometry.num_rows());
  CSCV_CHECK(op.cols() == geometry.num_cols());
  auto filtered = window == FbpWindow::kRamLak
                      ? ramp_filter(geometry, sinogram)
                      : ramp_filter_fft(geometry, sinogram, window);
  util::AlignedVector<T> image(static_cast<std::size_t>(geometry.num_cols()));
  op.adjoint(filtered, image);
  // Quadrature over theta in [0, pi): delta_theta = pi / num_views. The
  // footprint backprojector A^T already integrates each pixel's unit mass
  // per view, so no extra detector-spacing factor appears (tau = 1).
  const T w = static_cast<T>(std::numbers::pi / geometry.num_views);
  for (auto& p : image) p *= w;
  return image;
}

template util::AlignedVector<float> ramp_filter<float>(const ct::ParallelGeometry&,
                                                       std::span<const float>);
template util::AlignedVector<double> ramp_filter<double>(const ct::ParallelGeometry&,
                                                         std::span<const double>);
template util::AlignedVector<float> ramp_filter_fft<float>(const ct::ParallelGeometry&,
                                                           std::span<const float>, FbpWindow);
template util::AlignedVector<double> ramp_filter_fft<double>(const ct::ParallelGeometry&,
                                                             std::span<const double>,
                                                             FbpWindow);
template util::AlignedVector<float> fbp<float>(const ct::ParallelGeometry&,
                                               const LinearOperator<float>&,
                                               std::span<const float>, FbpWindow);
template util::AlignedVector<double> fbp<double>(const ct::ParallelGeometry&,
                                                 const LinearOperator<double>&,
                                                 std::span<const double>, FbpWindow);

}  // namespace cscv::recon

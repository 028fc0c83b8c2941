#include "ct/attenuated.hpp"

#include "ct/system_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::ct {

namespace {

/// Bilinear sample of the attenuation map at image coordinates (x, y)
/// (same centered frame as ParallelGeometry::pixel_center_*); zero outside.
double sample_mu(std::span<const double> mu, int n, double x, double y) {
  // Convert to continuous pixel-index coordinates: pixel (i, j) center at
  // index (i, j), i.e. x = ix - (n-1)/2.
  const double fx = x + 0.5 * (n - 1);
  const double fy = y + 0.5 * (n - 1);
  if (fx < 0.0 || fy < 0.0 || fx > n - 1 || fy > n - 1) return 0.0;
  const int ix = std::min(static_cast<int>(fx), n - 2);
  const int iy = std::min(static_cast<int>(fy), n - 2);
  const double dx = fx - ix;
  const double dy = fy - iy;
  const auto at = [&](int i, int j) {
    return mu[static_cast<std::size_t>(j) * n + static_cast<std::size_t>(i)];
  };
  return (1.0 - dx) * (1.0 - dy) * at(ix, iy) + dx * (1.0 - dy) * at(ix + 1, iy) +
         (1.0 - dx) * dy * at(ix, iy + 1) + dx * dy * at(ix + 1, iy + 1);
}

}  // namespace

double attenuation_integral(const ParallelGeometry& g, std::span<const double> mu, int ix,
                            int iy, int v, double step) {
  CSCV_CHECK(mu.size() == static_cast<std::size_t>(g.num_cols()));
  CSCV_CHECK(step > 0.0);
  const int n = g.image_size;
  const double th = g.view_angle_rad(v);
  // Photons leave toward the detector along the ray direction
  // u = (-sin, cos) (the line direction of view theta); marching stops once
  // outside the image square, where mu is zero.
  const double ux = -std::sin(th);
  const double uy = std::cos(th);
  double x = g.pixel_center_x(ix);
  double y = g.pixel_center_y(iy);
  const double half = 0.5 * n + 1.0;
  double acc = 0.0;
  // Midpoint rule: sample at x + (k + 0.5) * step * u.
  double t = 0.5 * step;
  while (std::abs(x + t * ux) <= half && std::abs(y + t * uy) <= half) {
    acc += sample_mu(mu, n, x + t * ux, y + t * uy) * step;
    t += step;
  }
  return acc;
}

template <typename T>
sparse::CscMatrix<T> build_attenuated_system_matrix_csc(const ParallelGeometry& geometry,
                                                        std::span<const double> mu,
                                                        FootprintModel model,
                                                        double drop_tolerance) {
  geometry.validate();
  CSCV_CHECK(mu.size() == static_cast<std::size_t>(geometry.num_cols()));

  // Reuse the plain builder for structure/footprint, then scale each
  // column's per-view run by its attenuation weight. Structure is identical
  // by construction (weights are strictly positive).
  auto base = build_system_matrix_csc<T>(geometry, model, drop_tolerance);
  const int n = geometry.image_size;

  util::UninitAlignedVector<sparse::offset_t> col_ptr(base.col_ptr().begin(),
                                                      base.col_ptr().end());
  util::UninitAlignedVector<sparse::index_t> row_idx(base.row_idx().begin(),
                                                     base.row_idx().end());
  util::UninitAlignedVector<T> values(base.values().begin(), base.values().end());

  util::parallel_for(0, static_cast<std::size_t>(geometry.num_cols()), [&](std::size_t c) {
    const int ix = static_cast<int>(c) % n;
    const int iy = static_cast<int>(c) / n;
    int cached_view = -1;
    T weight = T(1);
    for (auto k = col_ptr[c]; k < col_ptr[c + 1]; ++k) {
      const int v = row_idx[static_cast<std::size_t>(k)] / geometry.num_bins;
      if (v != cached_view) {
        cached_view = v;
        weight = static_cast<T>(
            std::exp(-attenuation_integral(geometry, mu, ix, iy, v)));
      }
      values[static_cast<std::size_t>(k)] *= weight;
    }
  });

  return sparse::CscMatrix<T>(geometry.num_rows(), geometry.num_cols(), std::move(col_ptr),
                              std::move(row_idx), std::move(values));
}

template sparse::CscMatrix<float> build_attenuated_system_matrix_csc<float>(
    const ParallelGeometry&, std::span<const double>, FootprintModel, double);
template sparse::CscMatrix<double> build_attenuated_system_matrix_csc<double>(
    const ParallelGeometry&, std::span<const double>, FootprintModel, double);

}  // namespace cscv::ct

// Parallel-beam CT acquisition geometry.
//
// Defines the discretization that turns the paper's integral equation (Eq. 1
// with L = 1, m = 2: the 2-D Radon transform) into the linear system y = Ax:
//   * x — the image, N x N unit pixels centered on the origin,
//   * y — the sinogram, num_views angles x num_bins unit detector cells,
//   * A — the system matrix built in system_matrix.hpp.
// Row ids are bin-major (all bins of view 0, then view 1, ...), the layout
// the paper calls "typical in CT imaging reconstruction".
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "sparse/types.hpp"
#include "util/assertx.hpp"

namespace cscv::ct {

struct ParallelGeometry {
  int image_size = 0;        // N: image is N x N pixels of unit side
  int num_bins = 0;          // detector cells per view, unit width, centered
  int num_views = 0;         // projection angles
  double start_angle_deg = 0.0;
  double delta_angle_deg = 0.0;

  [[nodiscard]] sparse::index_t num_rows() const {
    return static_cast<sparse::index_t>(num_views) * num_bins;
  }
  [[nodiscard]] sparse::index_t num_cols() const {
    return static_cast<sparse::index_t>(image_size) * image_size;
  }

  /// Angle of view v in radians.
  [[nodiscard]] double view_angle_rad(int v) const {
    return (start_angle_deg + v * delta_angle_deg) * std::numbers::pi / 180.0;
  }

  /// Center of pixel (ix, iy) in image coordinates (origin at image center,
  /// x grows with ix, y grows with iy, unit pixel pitch).
  [[nodiscard]] double pixel_center_x(int ix) const {
    return ix - 0.5 * (image_size - 1);
  }
  [[nodiscard]] double pixel_center_y(int iy) const {
    return iy - 0.5 * (image_size - 1);
  }

  /// Detector coordinate of bin b's center (unit pitch, centered detector).
  [[nodiscard]] double bin_center(int b) const { return b - 0.5 * (num_bins - 1); }

  /// Detector coordinate of the projection of point (x, y) at view v:
  /// t = x cos(theta) + y sin(theta)  (the Radon offset).
  [[nodiscard]] double project(double x, double y, int v) const {
    const double th = view_angle_rad(v);
    return x * std::cos(th) + y * std::sin(th);
  }

  /// Detector coordinate t -> fractional bin index.
  [[nodiscard]] double bin_of(double t) const { return t + 0.5 * (num_bins - 1); }

  /// Sinogram entry (view, bin) -> matrix row (bin-major).
  [[nodiscard]] sparse::index_t row_id(int v, int b) const {
    CSCV_DCHECK(v >= 0 && v < num_views && b >= 0 && b < num_bins);
    return static_cast<sparse::index_t>(v) * num_bins + b;
  }

  /// Pixel (ix, iy) -> matrix column (row-major image).
  [[nodiscard]] sparse::index_t col_id(int ix, int iy) const {
    CSCV_DCHECK(ix >= 0 && ix < image_size && iy >= 0 && iy < image_size);
    return static_cast<sparse::index_t>(iy) * image_size + ix;
  }

  /// Positive dimensions and step, and row and column ids that fit
  /// sparse::index_t (num_rows()/num_cols() would overflow otherwise).
  void validate() const {
    CSCV_CHECK(image_size > 0 && num_bins > 0 && num_views > 0);
    CSCV_CHECK(delta_angle_deg > 0.0);
    constexpr auto kMaxIndex =
        static_cast<std::int64_t>(std::numeric_limits<sparse::index_t>::max());
    CSCV_CHECK_MSG(std::int64_t{image_size} * image_size <= kMaxIndex,
                   "geometry: image_size " << image_size << " overflows the column index space");
    CSCV_CHECK_MSG(std::int64_t{num_views} * num_bins <= kMaxIndex,
                   "geometry: num_views " << num_views << " x num_bins " << num_bins
                                          << " overflows the row index space");
  }

  /// Exact field-wise equality — the cache-key identity used by
  /// pipeline::SystemMatrixCache (two geometries that differ in any
  /// discretization field produce different system matrices).
  friend bool operator==(const ParallelGeometry&, const ParallelGeometry&) = default;
};

/// Bin count that covers the image diagonal with a small safety margin —
/// the rule behind Table II's 512 -> 730, 1024 -> 1460, 2048 -> 2920.
/// Defined for every int: an image too large for validate() gets a
/// wrapped count, not an out-of-range float-to-int conversion.
inline int standard_num_bins(int image_size) {
  const double diagonal = image_size * std::numbers::sqrt2;
  return static_cast<int>(static_cast<std::int64_t>(std::ceil(diagonal)) +
                          (image_size >= 1024 ? 12 : 6));
}

/// Geometry mirroring the paper's Table II datasets, scaled by image size:
/// views cover 180 degrees, bins per standard_num_bins.
inline ParallelGeometry standard_geometry(int image_size, int num_views) {
  ParallelGeometry g;
  g.image_size = image_size;
  g.num_bins = standard_num_bins(image_size);
  g.num_views = num_views;
  g.start_angle_deg = 0.0;
  g.delta_angle_deg = 180.0 / num_views;
  g.validate();
  return g;
}

}  // namespace cscv::ct

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
#include <utility>

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
    CSCV_CHECK(std::isfinite(start_angle_deg) && std::isfinite(delta_angle_deg) &&
               delta_angle_deg > 0.0);
    constexpr auto kMaxIndex =
        static_cast<std::int64_t>(std::numeric_limits<sparse::index_t>::max());
    CSCV_CHECK_MSG(std::int64_t{image_size} * image_size <= kMaxIndex,
                   "geometry: image_size " << image_size << " overflows the column index space");
    CSCV_CHECK_MSG(std::int64_t{num_views} * num_bins <= kMaxIndex,
                   "geometry: num_views " << num_views << " x num_bins " << num_bins
                                          << " overflows the row index space");
  }

  /// A 180-degree scan from 0 degrees whose view count is a multiple of 4:
  /// every view is a view in [0, 45] degrees applied to the image
  /// transposed, turned by 90 degrees or mirrored (ViewFold).
  [[nodiscard]] bool foldable() const {
    return start_angle_deg == 0.0 && num_views > 0 && num_views % 4 == 0 &&
           delta_angle_deg == 180.0 / num_views;
  }

  /// Exact field-wise equality — the cache-key identity used by
  /// pipeline::SystemMatrixCache (two geometries that differ in any
  /// discretization field produce different system matrices).
  friend bool operator==(const ParallelGeometry&, const ParallelGeometry&) = default;
};

/// The symmetry of a foldable scan of V views over an N x N image. View w
/// is a canonical view v in [0, V/4] (angles in [0, 45] degrees) applied to
/// one of four images of x, with the same detector bin:
///
///   image  angle       image pixel (jx, jy) reads x at   owns view    for v in
///   I      theta       (jx, jy)                          v            [0, V/4]
///   T      90 - theta  (jy, jx)                          V/2 - v      [0, V/4)
///   R      90 + theta  (N-1-jy, jx)                      V/2 + v      [1, V/4]
///   M      180 - theta (N-1-jx, jy)                      V - v        [1, V/4)
///
/// Every view in [0, V) is owned exactly once. Views V/4, V/2 and 3V/4 are
/// also what a non-owning image computes at v = V/4 or 0; M at v = 0 would
/// be view V (180 degrees) and is no view of the scan.
struct ViewFold {
  enum Image : int { kI, kT, kR, kM };
  static constexpr int kImages = 4;

  int num_views = 0;  // V, a multiple of 4

  /// Views of the stored quarter: 0..V/4.
  [[nodiscard]] int quarter_views() const { return num_views / 4 + 1; }

  /// Full view that canonical view v of `image` fills, or -1 when the image
  /// does not own v.
  [[nodiscard]] int view_of(int image, int v) const {
    const int q = num_views / 4;
    switch (image) {
      case kI: return v;
      case kT: return v < q ? num_views / 2 - v : -1;
      case kR: return v >= 1 ? num_views / 2 + v : -1;
      default: return v >= 1 && v < q ? num_views - v : -1;
    }
  }

  /// Full views that canonical view v fills: 2 at v = 0 and v = V/4, else 4.
  [[nodiscard]] int owners(int v) const {
    int count = 0;
    for (int image = kI; image < kImages; ++image) count += view_of(image, v) >= 0 ? 1 : 0;
    return count;
  }

  struct Owner {
    int image;
    int view;  // canonical view in [0, V/4]
  };
  /// The (image, canonical view) that owns full view w.
  [[nodiscard]] Owner owner(int w) const {
    const int q = num_views / 4;
    if (w <= q) return {kI, w};
    if (w <= 2 * q) return {kT, 2 * q - w};
    if (w <= 3 * q) return {kR, w - 2 * q};
    return {kM, num_views - w};
  }

  /// Pixel of x that pixel (jx, jy) of `image` reads (the table's map).
  [[nodiscard]] static std::pair<int, int> source_pixel(int image, int n, int jx, int jy) {
    switch (image) {
      case kI: return {jx, jy};
      case kT: return {jy, jx};
      case kR: return {n - 1 - jy, jx};
      default: return {n - 1 - jx, jy};
    }
  }

  /// Pixel of `image` whose value is x(px, py): the inverse of the table's
  /// "reads x at" map. Column (px, py) of an owned view w is the canonical
  /// column of this pixel at view v.
  [[nodiscard]] static std::pair<int, int> image_pixel(int image, int n, int px, int py) {
    switch (image) {
      case kI: return {px, py};
      case kT: return {py, px};
      case kR: return {py, n - 1 - px};
      default: return {n - 1 - px, py};
    }
  }
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

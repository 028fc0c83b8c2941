#include "ct/fan_beam.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/parallel.hpp"

namespace cscv::ct {

FanBeamGeometry standard_fan_geometry(int image_size, int num_views) {
  FanBeamGeometry g;
  g.image_size = image_size;
  g.source_distance = 2.0 * image_size;  // comfortable clearance
  // Worst-case magnification D / (D - r) at the near edge of the object.
  const double radius = image_size * std::numbers::sqrt2 / 2.0;
  const double mag = g.source_distance / (g.source_distance - radius);
  g.num_bins = static_cast<int>(std::ceil(2.0 * radius * mag)) + 6;
  g.num_views = num_views;
  g.detector_spacing = 1.0;
  g.start_angle_deg = 0.0;
  g.delta_angle_deg = 360.0 / num_views;  // fan scans need a full turn
  g.validate();
  return g;
}

namespace {

/// Enumerates one pixel column's nonzeros (ascending row order).
template <typename Emit>
void enumerate_fan_column(const FanBeamGeometry& g, const std::vector<double>& cos_b,
                          const std::vector<double>& sin_b, FootprintModel model,
                          int ix, int iy, double drop_tolerance, Emit&& emit) {
  const double cx = ix - 0.5 * (g.image_size - 1);
  const double cy = iy - 0.5 * (g.image_size - 1);
  const double d = g.source_distance;
  const double half_detector = 0.5 * g.num_bins * g.detector_spacing;

  for (int v = 0; v < g.num_views; ++v) {
    // Source axis e_s points from the origin to the source; the detector
    // axis e_u is perpendicular. Pixel coordinates in that frame:
    const double s = cx * cos_b[static_cast<std::size_t>(v)] +
                     cy * sin_b[static_cast<std::size_t>(v)];  // toward source
    const double t = -cx * sin_b[static_cast<std::size_t>(v)] +
                     cy * cos_b[static_cast<std::size_t>(v)];  // along detector
    const double denom = d - s;
    if (denom <= 1.0) continue;  // behind/at the source: outside the fan
    const double mag = d / denom;
    const double u = t * mag;  // perspective projection onto the detector

    // Ray direction through the pixel determines the footprint profile.
    // Footprint(angle) only uses {max, min} of |cos|, |sin|, so it is
    // invariant under 90-degree rotations — the world-frame ray angle can be
    // passed directly (no need to rotate to the detector axis).
    const double ray_angle =
        std::atan2(cy - d * sin_b[static_cast<std::size_t>(v)],
                   cx - d * cos_b[static_cast<std::size_t>(v)]);
    const Footprint fp(model, ray_angle);
    const double hw = fp.half_width() * mag;

    // Bin b covers [b*sp - half, (b+1)*sp - half] in u.
    const double sp = g.detector_spacing;
    int b_first = static_cast<int>(std::floor((u - hw + half_detector) / sp));
    int b_last = static_cast<int>(std::floor((u + hw + half_detector) / sp));
    b_first = std::max(b_first, 0);
    b_last = std::min(b_last, g.num_bins - 1);
    for (int b = b_first; b <= b_last; ++b) {
      const double lo = b * sp - half_detector;
      const double hi = lo + sp;
      // Integrate the magnified profile: substitute back to the pixel frame.
      const double value = fp.integrate((lo - u) / mag, (hi - u) / mag);
      if (value > drop_tolerance) {
        emit(static_cast<sparse::index_t>(v) * g.num_bins + b, value);
      }
    }
  }
}

}  // namespace

template <typename T>
sparse::CscMatrix<T> build_fan_system_matrix_csc(const FanBeamGeometry& geometry,
                                                 FootprintModel model,
                                                 double drop_tolerance) {
  geometry.validate();
  std::vector<double> cos_b(static_cast<std::size_t>(geometry.num_views));
  std::vector<double> sin_b(static_cast<std::size_t>(geometry.num_views));
  for (int v = 0; v < geometry.num_views; ++v) {
    const double beta = geometry.view_angle_rad(v);
    cos_b[static_cast<std::size_t>(v)] = std::cos(beta);
    sin_b[static_cast<std::size_t>(v)] = std::sin(beta);
  }
  const auto cols = static_cast<std::size_t>(geometry.num_cols());
  const int n = geometry.image_size;

  util::UninitAlignedVector<sparse::offset_t> col_ptr(cols + 1, 0);
  util::parallel_for(0, cols, [&](std::size_t c) {
    sparse::offset_t count = 0;
    enumerate_fan_column(geometry, cos_b, sin_b, model, static_cast<int>(c) % n,
                         static_cast<int>(c) / n, drop_tolerance,
                         [&](sparse::index_t, double) { ++count; });
    col_ptr[c + 1] = count;
  });
  for (std::size_t c = 0; c < cols; ++c) col_ptr[c + 1] += col_ptr[c];
  const auto nnz = static_cast<std::size_t>(col_ptr[cols]);

  util::UninitAlignedVector<sparse::index_t> row_idx(nnz);
  util::UninitAlignedVector<T> values(nnz);
  util::parallel_for(0, cols, [&](std::size_t c) {
    std::size_t at = static_cast<std::size_t>(col_ptr[c]);
    enumerate_fan_column(geometry, cos_b, sin_b, model, static_cast<int>(c) % n,
                         static_cast<int>(c) / n, drop_tolerance,
                         [&](sparse::index_t row, double value) {
                           row_idx[at] = row;
                           values[at] = static_cast<T>(value);
                           ++at;
                         });
  });

  return sparse::CscMatrix<T>(geometry.num_rows(), geometry.num_cols(), std::move(col_ptr),
                              std::move(row_idx), std::move(values));
}

template sparse::CscMatrix<float> build_fan_system_matrix_csc<float>(const FanBeamGeometry&,
                                                                     FootprintModel, double);
template sparse::CscMatrix<double> build_fan_system_matrix_csc<double>(const FanBeamGeometry&,
                                                                       FootprintModel,
                                                                       double);

}  // namespace cscv::ct

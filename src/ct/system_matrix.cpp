#include "ct/system_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assertx.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace cscv::ct {

namespace {

/// Per-view trigonometry and footprint, precomputed once per build. On a
/// foldable geometry only the canonical views [0, V/4] are tabulated: every
/// other view reads its owner's row (ViewFold).
struct ViewTables {
  std::vector<double> cos_theta;
  std::vector<double> sin_theta;
  std::vector<Footprint> footprint;
  bool folded = false;
  ViewFold fold;

  ViewTables(const ParallelGeometry& g, FootprintModel model)
      : folded(g.foldable()), fold{g.num_views} {
    const int tabulated = folded ? fold.quarter_views() : g.num_views;
    cos_theta.reserve(static_cast<std::size_t>(tabulated));
    sin_theta.reserve(static_cast<std::size_t>(tabulated));
    footprint.reserve(static_cast<std::size_t>(tabulated));
    for (int v = 0; v < tabulated; ++v) {
      const double th = g.view_angle_rad(v);
      cos_theta.push_back(std::cos(th));
      sin_theta.push_back(std::sin(th));
      footprint.emplace_back(model, th);
    }
  }
};

/// Enumerates the nonzero entries of one column (pixel) restricted to views
/// [view_begin, view_end), in ascending row order, invoking
/// emit(row, value) with GLOBAL row ids for each. On a foldable geometry
/// view w is its canonical view v evaluated at the pixel centre its owning
/// image maps (cx, cy) to: (cy, cx) for T, (cy, -cx) for R, (-cx, cy) for M.
/// Those centres are exactly the centres of the mapped pixels, so each
/// entry is bit for bit the canonical pixel's entry at v.
template <typename Emit>
void enumerate_column(const ParallelGeometry& g, const ViewTables& tables, int ix, int iy,
                      double drop_tolerance, int view_begin, int view_end, Emit&& emit) {
  const double cx = g.pixel_center_x(ix);
  const double cy = g.pixel_center_y(iy);
  const double half_detector = 0.5 * g.num_bins;
  for (int w = view_begin; w < view_end; ++w) {
    int v = w;
    double px = cx;
    double py = cy;
    if (tables.folded) {
      const ViewFold::Owner own = tables.fold.owner(w);
      v = own.view;
      if (own.image == ViewFold::kT) {
        px = cy;
        py = cx;
      } else if (own.image == ViewFold::kR) {
        px = cy;
        py = -cx;
      } else if (own.image == ViewFold::kM) {
        px = -cx;
      }
    }
    const auto vi = static_cast<std::size_t>(v);
    const double t = px * tables.cos_theta[vi] + py * tables.sin_theta[vi];
    const Footprint& fp = tables.footprint[vi];
    const double hw = fp.half_width();
    // Bin b covers [b - num_bins/2, b + 1 - num_bins/2] in detector
    // coordinates; the shadow [t - hw, t + hw] touches a contiguous run.
    int b_first = static_cast<int>(std::floor(t - hw + half_detector));
    int b_last = static_cast<int>(std::floor(t + hw + half_detector));
    b_first = std::max(b_first, 0);
    b_last = std::min(b_last, g.num_bins - 1);
    for (int b = b_first; b <= b_last; ++b) {
      const double lo = b - half_detector;
      const double hi = lo + 1.0;
      const double value = fp.integrate(lo - t, hi - t);
      if (value > drop_tolerance) emit(g.row_id(w, b), value);
    }
  }
}

}  // namespace

template <typename T>
sparse::CscMatrix<T> build_system_matrix_csc_range(const ParallelGeometry& geometry,
                                                   int view_begin, int view_end,
                                                   FootprintModel model,
                                                   double drop_tolerance) {
  geometry.validate();
  CSCV_CHECK_MSG(0 <= view_begin && view_begin < view_end && view_end <= geometry.num_views,
                 "view range [" << view_begin << ", " << view_end
                                << ") out of [0, " << geometry.num_views << ")");
  const ViewTables tables(geometry, model);
  const auto cols = static_cast<std::size_t>(geometry.num_cols());
  const int n = geometry.image_size;
  // Rows are bin-major per view, so the view range is the contiguous row
  // range [row_off, row_off + local_rows).
  const sparse::index_t row_off =
      static_cast<sparse::index_t>(view_begin) * geometry.num_bins;
  const std::int64_t local_rows =
      static_cast<std::int64_t>(view_end - view_begin) * geometry.num_bins;

  // Pass 1: nnz per column (parallel), then prefix-sum into col_ptr.
  util::UninitAlignedVector<sparse::offset_t> col_ptr(cols + 1, 0);
  util::parallel_for(0, cols, [&](std::size_t c) {
    const int ix = static_cast<int>(c) % n;
    const int iy = static_cast<int>(c) / n;
    sparse::offset_t count = 0;
    enumerate_column(geometry, tables, ix, iy, drop_tolerance, view_begin, view_end,
                     [&](sparse::index_t, double) { ++count; });
    col_ptr[c + 1] = count;
  });
  for (std::size_t c = 0; c < cols; ++c) col_ptr[c + 1] += col_ptr[c];
  const auto nnz = static_cast<std::size_t>(col_ptr[cols]);

  // Pass 2: fill (parallel, disjoint ranges per column). The arrays are not
  // zeroed first, so these writes are their first touch.
  util::UninitAlignedVector<sparse::index_t> row_idx(nnz);
  util::UninitAlignedVector<T> values(nnz);
  util::parallel_for(0, cols, [&](std::size_t c) {
    const int ix = static_cast<int>(c) % n;
    const int iy = static_cast<int>(c) / n;
    std::size_t at = static_cast<std::size_t>(col_ptr[c]);
    enumerate_column(geometry, tables, ix, iy, drop_tolerance, view_begin, view_end,
                     [&](sparse::index_t row, double value) {
                       row_idx[at] = row - row_off;
                       values[at] = static_cast<T>(value);
                       ++at;
                     });
  });

  return sparse::CscMatrix<T>(local_rows, geometry.num_cols(), std::move(col_ptr),
                              std::move(row_idx), std::move(values));
}

template <typename T>
sparse::CscMatrix<T> build_system_matrix_csc(const ParallelGeometry& geometry,
                                             FootprintModel model, double drop_tolerance) {
  geometry.validate();
  return build_system_matrix_csc_range<T>(geometry, 0, geometry.num_views, model,
                                          drop_tolerance);
}

std::vector<std::uint64_t> count_view_nnz(const ParallelGeometry& geometry,
                                          FootprintModel model, double drop_tolerance) {
  geometry.validate();
  const ViewTables tables(geometry, model);
  const auto views = static_cast<std::size_t>(geometry.num_views);
  const auto cols = static_cast<std::size_t>(geometry.num_cols());
  const int n = geometry.image_size;
  std::vector<std::uint64_t> per_view(views, 0);
  util::parallel_for(0, views, [&](std::size_t v) {
    std::uint64_t count = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      const int ix = static_cast<int>(c) % n;
      const int iy = static_cast<int>(c) / n;
      enumerate_column(geometry, tables, ix, iy, drop_tolerance, static_cast<int>(v),
                       static_cast<int>(v) + 1,
                       [&](sparse::index_t, double) { ++count; });
    }
    per_view[v] = count;
  });
  return per_view;
}

namespace {

/// Traces the ray of (view v, bin b) through the pixel grid, emitting
/// (column, chord length) for every crossed pixel in arbitrary order.
template <typename Emit>
void trace_ray(const ParallelGeometry& g, double cos_th, double sin_th, int b, Emit&& emit) {
  const int n = g.image_size;
  const double half = 0.5 * n;
  const double t = g.bin_center(b);
  // Ray: P(tau) = t * (cos, sin) + tau * (-sin, cos), tau in R.
  const double px = t * cos_th;
  const double py = t * sin_th;
  const double dx = -sin_th;
  const double dy = cos_th;

  // Clip the ray against the image square [-half, half]^2 (slab method).
  double tau0 = -1e30, tau1 = 1e30;
  auto clip = [&](double p, double d) {
    if (std::abs(d) < 1e-14) return p >= -half && p <= half;
    double a = (-half - p) / d;
    double bb = (half - p) / d;
    if (a > bb) std::swap(a, bb);
    tau0 = std::max(tau0, a);
    tau1 = std::min(tau1, bb);
    return true;
  };
  if (!clip(px, dx) || !clip(py, dy) || tau0 >= tau1) return;

  // Siddon/Amanatides-Woo traversal from tau0 to tau1.
  const double eps = 1e-12;
  double x = px + (tau0 + eps) * dx;
  double y = py + (tau0 + eps) * dy;
  int ix = std::clamp(static_cast<int>(std::floor(x + half)), 0, n - 1);
  int iy = std::clamp(static_cast<int>(std::floor(y + half)), 0, n - 1);
  const int step_x = dx > 0 ? 1 : -1;
  const int step_y = dy > 0 ? 1 : -1;
  const double inv_dx = std::abs(dx) < 1e-14 ? 1e30 : 1.0 / dx;
  const double inv_dy = std::abs(dy) < 1e-14 ? 1e30 : 1.0 / dy;

  auto next_tau_x = [&] {
    if (std::abs(dx) < 1e-14) return 1e30;
    const double edge = (dx > 0 ? ix + 1 : ix) - half;
    return (edge - px) * inv_dx;
  };
  auto next_tau_y = [&] {
    if (std::abs(dy) < 1e-14) return 1e30;
    const double edge = (dy > 0 ? iy + 1 : iy) - half;
    return (edge - py) * inv_dy;
  };

  double tau = tau0;
  while (tau < tau1 - eps) {
    const double tx = next_tau_x();
    const double ty = next_tau_y();
    const double tnext = std::min({tx, ty, tau1});
    const double len = tnext - tau;
    if (len > eps) emit(g.col_id(ix, iy), len);
    if (tnext >= tau1 - eps) break;
    if (tx <= ty) {
      ix += step_x;
      if (ix < 0 || ix >= n) break;
    }
    if (ty <= tx) {
      iy += step_y;
      if (iy < 0 || iy >= n) break;
    }
    tau = tnext;
  }
}

}  // namespace

template <typename T>
sparse::CsrMatrix<T> build_system_matrix_siddon(const ParallelGeometry& geometry) {
  geometry.validate();
  const auto rows = static_cast<std::size_t>(geometry.num_rows());
  std::vector<double> cos_theta(geometry.num_views);
  std::vector<double> sin_theta(geometry.num_views);
  for (int v = 0; v < geometry.num_views; ++v) {
    cos_theta[static_cast<std::size_t>(v)] = std::cos(geometry.view_angle_rad(v));
    sin_theta[static_cast<std::size_t>(v)] = std::sin(geometry.view_angle_rad(v));
  }

  util::AlignedVector<sparse::offset_t> row_ptr(rows + 1, 0);
  util::parallel_for(0, rows, [&](std::size_t r) {
    const int v = static_cast<int>(r) / geometry.num_bins;
    const int b = static_cast<int>(r) % geometry.num_bins;
    sparse::offset_t count = 0;
    trace_ray(geometry, cos_theta[static_cast<std::size_t>(v)],
              sin_theta[static_cast<std::size_t>(v)], b,
              [&](sparse::index_t, double) { ++count; });
    row_ptr[r + 1] = count;
  });
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];
  const auto nnz = static_cast<std::size_t>(row_ptr[rows]);

  util::AlignedVector<sparse::index_t> col_idx(nnz);
  util::AlignedVector<T> values(nnz);
  util::parallel_for(0, rows, [&](std::size_t r) {
    const int v = static_cast<int>(r) / geometry.num_bins;
    const int b = static_cast<int>(r) % geometry.num_bins;
    std::size_t at = static_cast<std::size_t>(row_ptr[r]);
    // Collect then sort by column: the traversal emits in ray order, which
    // is not column order; CSR requires ascending columns per row.
    std::vector<std::pair<sparse::index_t, double>> entries;
    trace_ray(geometry, cos_theta[static_cast<std::size_t>(v)],
              sin_theta[static_cast<std::size_t>(v)], b,
              [&](sparse::index_t col, double len) { entries.emplace_back(col, len); });
    std::sort(entries.begin(), entries.end());
    for (const auto& [col, len] : entries) {
      col_idx[at] = col;
      values[at] = static_cast<T>(len);
      ++at;
    }
  });

  return sparse::CsrMatrix<T>(geometry.num_rows(), geometry.num_cols(), std::move(row_ptr),
                              std::move(col_idx), std::move(values));
}

template sparse::CscMatrix<float> build_system_matrix_csc<float>(const ParallelGeometry&,
                                                                 FootprintModel, double);
template sparse::CscMatrix<double> build_system_matrix_csc<double>(const ParallelGeometry&,
                                                                   FootprintModel, double);
template sparse::CscMatrix<float> build_system_matrix_csc_range<float>(
    const ParallelGeometry&, int, int, FootprintModel, double);
template sparse::CscMatrix<double> build_system_matrix_csc_range<double>(
    const ParallelGeometry&, int, int, FootprintModel, double);
template sparse::CsrMatrix<float> build_system_matrix_siddon<float>(const ParallelGeometry&);
template sparse::CsrMatrix<double> build_system_matrix_siddon<double>(const ParallelGeometry&);

}  // namespace cscv::ct

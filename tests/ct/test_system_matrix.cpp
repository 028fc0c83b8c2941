#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include "sparse/random.hpp"
#include "sparse/stats.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv::ct {
namespace {

TEST(SystemMatrix, ShapeMatchesGeometry) {
  auto g = standard_geometry(16, 12);
  auto a = build_system_matrix_csc<double>(g);
  EXPECT_EQ(a.rows(), g.num_rows());
  EXPECT_EQ(a.cols(), g.num_cols());
  EXPECT_GT(a.nnz(), 0);
}

TEST(SystemMatrix, ColumnMassIsViewsTimesOne) {
  // Every pixel contributes mass 1 per view (footprint normalization), so
  // each column sums to num_views as long as its shadow stays on the
  // detector (always true with standard_num_bins).
  auto g = standard_geometry(16, 12);
  for (auto model : {FootprintModel::kRect, FootprintModel::kTrapezoid}) {
    auto a = build_system_matrix_csc<double>(g, model);
    auto cp = a.col_ptr();
    auto vals = a.values();
    for (sparse::index_t c = 0; c < a.cols(); ++c) {
      double sum = 0.0;
      for (auto k = cp[c]; k < cp[c + 1]; ++k) sum += vals[static_cast<std::size_t>(k)];
      EXPECT_NEAR(sum, 12.0, 1e-6) << "column " << c;
    }
  }
}

TEST(SystemMatrix, NnzPerColumnPerViewAround2point6) {
  auto g = standard_geometry(32, 16);
  auto a = build_system_matrix_csc<float>(g);
  const double per_view =
      static_cast<double>(a.nnz()) / (static_cast<double>(a.cols()) * g.num_views);
  EXPECT_GT(per_view, 2.0);
  EXPECT_LT(per_view, 3.3);
}

TEST(SystemMatrix, BinsPerPixelViewAreContiguous) {
  // Property P2: a pixel maps to a closed interval of bins at each view.
  auto g = standard_geometry(16, 8);
  auto a = build_system_matrix_csc<double>(g);
  auto cp = a.col_ptr();
  auto ri = a.row_idx();
  for (sparse::index_t c = 0; c < a.cols(); ++c) {
    int prev_view = -1;
    int prev_bin = -1;
    for (auto k = cp[c]; k < cp[c + 1]; ++k) {
      const int v = ri[static_cast<std::size_t>(k)] / g.num_bins;
      const int b = ri[static_cast<std::size_t>(k)] % g.num_bins;
      if (v == prev_view) {
        EXPECT_EQ(b, prev_bin + 1) << "gap inside a view's bin run, col " << c;
      }
      prev_view = v;
      prev_bin = b;
    }
  }
}

TEST(SystemMatrix, MatchesAnalyticEllipseSinogram) {
  // End-to-end quadrature check: A * rasterized phantom must approximate
  // the closed-form sinogram of the same ellipses.
  auto g = standard_geometry(64, 24);
  auto a = build_system_matrix_csc<double>(g, FootprintModel::kTrapezoid);
  auto phantom = std::vector<Ellipse>{{1.0, 0.6, 0.4, 0.1, -0.05, 20.0}};
  auto img = rasterize<double>(phantom, 64);
  auto sino_analytic = analytic_sinogram<double>(phantom, g);
  util::AlignedVector<double> sino_fp(static_cast<std::size_t>(g.num_rows()));
  a.spmv(img, sino_fp);
  // Rasterization + footprint discretization errors dominate; demand ~5%
  // relative L2 agreement.
  EXPECT_LT(util::rel_l2_error<double>(sino_fp, sino_analytic), 0.05);
}

TEST(SystemMatrix, SiddonShapeAndChordLengths) {
  auto g = standard_geometry(16, 8);
  auto a = build_system_matrix_siddon<double>(g);
  EXPECT_EQ(a.rows(), g.num_rows());
  EXPECT_EQ(a.cols(), g.num_cols());
  // A horizontal ray (view 0 projects x; ray direction is vertical... take
  // any row): chord lengths through unit pixels are in (0, sqrt(2)].
  auto vals = a.values();
  for (double v : vals) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, std::numbers::sqrt2 + 1e-9);
  }
}

TEST(SystemMatrix, SiddonAxisAlignedRayLengths) {
  // At view 0 (theta=0), rays run parallel to the y axis: a ray through the
  // image center crosses N pixels each with chord length exactly 1.
  auto g = standard_geometry(8, 4);
  g.start_angle_deg = 0.0;
  auto a = build_system_matrix_siddon<double>(g);
  // Bin whose center is at x=0.5 (pixel column 4): t = 0.5 -> bin index
  const int b = static_cast<int>(g.bin_of(0.5));
  const auto r = static_cast<std::size_t>(g.row_id(0, b));
  auto rp = a.row_ptr();
  double total = 0.0;
  for (auto k = rp[r]; k < rp[r + 1]; ++k) total += a.values()[static_cast<std::size_t>(k)];
  EXPECT_NEAR(total, 8.0, 1e-6);  // full traversal of the 8-pixel column
}

TEST(SystemMatrix, SiddonAgreesWithFootprintOnSmoothImages) {
  // Both quadratures approximate the same Radon transform; on a smooth
  // image their sinograms should agree to a few percent.
  auto g = standard_geometry(32, 12);
  auto a_fp = cscv::testing::cached_ct_csc<double>(32, 12);
  auto a_sd = build_system_matrix_siddon<double>(g);
  auto phantom = shepp_logan_modified();
  auto img = rasterize<double>(phantom, 32);
  util::AlignedVector<double> y_fp(static_cast<std::size_t>(g.num_rows()));
  util::AlignedVector<double> y_sd(static_cast<std::size_t>(g.num_rows()));
  a_fp.spmv(img, y_fp);
  a_sd.spmv(img, y_sd);
  EXPECT_LT(util::rel_l2_error<double>(y_fp, y_sd), 0.08);
}

TEST(SystemMatrix, DropToleranceReducesNnz) {
  auto g = standard_geometry(16, 8);
  auto strict = build_system_matrix_csc<float>(g, FootprintModel::kRect, 1e-12);
  auto loose = build_system_matrix_csc<float>(g, FootprintModel::kRect, 1e-2);
  EXPECT_LE(loose.nnz(), strict.nnz());
}

TEST(SystemMatrix, FloatAndDoubleBuildsAgree) {
  auto g = standard_geometry(16, 8);
  auto af = build_system_matrix_csc<float>(g);
  auto ad = build_system_matrix_csc<double>(g);
  ASSERT_EQ(af.nnz(), ad.nnz());
  for (std::size_t k = 0; k < static_cast<std::size_t>(af.nnz()); k += 97) {
    EXPECT_NEAR(af.values()[k], ad.values()[k], 1e-6);
  }
}

// ---- the fold (ViewFold) ---------------------------------------------------

/// [begin, end) of column `col`'s entries at view v.
template <typename T>
std::pair<std::size_t, std::size_t> view_run(const sparse::CscMatrix<T>& a, sparse::index_t col,
                                             int v, int bins) {
  const auto cp = a.col_ptr();
  const auto rows = a.row_idx();
  const auto first = rows.begin() + cp[static_cast<std::size_t>(col)];
  const auto last = rows.begin() + cp[static_cast<std::size_t>(col) + 1];
  const auto lo = std::lower_bound(first, last, static_cast<sparse::index_t>(v) * bins);
  const auto hi = std::lower_bound(lo, last, static_cast<sparse::index_t>(v + 1) * bins);
  return {static_cast<std::size_t>(lo - rows.begin()), static_cast<std::size_t>(hi - rows.begin())};
}

/// Every view w's entries of every column equal, bin for bin and bit for
/// bit, the canonical view's entries at the column's mapped pixel.
template <typename T>
void expect_fold_symmetric(const ParallelGeometry& g, FootprintModel model) {
  ASSERT_TRUE(g.foldable());
  const auto a = build_system_matrix_csc<T>(g, model);
  const ViewFold fold{g.num_views};
  const int n = g.image_size;
  const auto rows = a.row_idx();
  const auto vals = a.values();
  int mismatches = 0;
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      for (int w = 0; w < g.num_views; ++w) {
        const ViewFold::Owner o = fold.owner(w);
        const auto [jx, jy] = ViewFold::image_pixel(o.image, n, ix, iy);
        const auto [b0, b1] = view_run(a, g.col_id(ix, iy), w, g.num_bins);
        const auto [c0, c1] = view_run(a, g.col_id(jx, jy), o.view, g.num_bins);
        bool same = b1 - b0 == c1 - c0;
        for (std::size_t i = 0; same && i < b1 - b0; ++i) {
          same = rows[b0 + i] - w * g.num_bins == rows[c0 + i] - o.view * g.num_bins &&
                 std::memcmp(&vals[b0 + i], &vals[c0 + i], sizeof(T)) == 0;
        }
        if (!same && ++mismatches <= 3) {
          ADD_FAILURE() << "N " << n << " V " << g.num_views << ": pixel (" << ix << "," << iy
                        << ") view " << w << " differs from view " << o.view << " at ("
                        << jx << "," << jy << ")";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Each view of a foldable geometry is computed from its canonical view, so
// the matrix satisfies the fold exactly: N even and odd (the centre pixel
// maps to itself), every V % 4 == 0 count from the smallest, both
// footprints, both precisions.
TEST(SystemMatrixFold, EntriesSatisfyTheSymmetryBitForBit) {
  for (int n : {7, 8}) {
    for (int views : {4, 8, 12, 24, 48}) {
      for (auto model : {FootprintModel::kRect, FootprintModel::kTrapezoid}) {
        SCOPED_TRACE("N " + std::to_string(n) + " V " + std::to_string(views) +
                     (model == FootprintModel::kRect ? " rect" : " trapezoid"));
        expect_fold_symmetric<float>(standard_geometry(n, views), model);
        expect_fold_symmetric<double>(standard_geometry(n, views), model);
      }
    }
  }
}

TEST(SystemMatrixFold, OnlyZeroStartHalfTurnsInQuartersFold) {
  EXPECT_TRUE(standard_geometry(16, 48).foldable());
  EXPECT_FALSE(standard_geometry(16, 30).foldable());
  ParallelGeometry g = standard_geometry(16, 48);
  g.start_angle_deg = 1.0;
  EXPECT_FALSE(g.foldable());
  g = standard_geometry(16, 48);
  g.delta_angle_deg = 30.0 / 48;
  EXPECT_FALSE(g.foldable());
}

// The shard builder's view ranges go through the same per-view mapping, so
// stacking them reproduces the folded full build bit for bit.
TEST(SystemMatrixFold, RangePiecesStackToTheFullBuild) {
  const ParallelGeometry g = standard_geometry(12, 24);
  const auto full = build_system_matrix_csc<float>(g);
  const int cuts[] = {0, 5, 12, 13, 24};
  for (int p = 0; p + 1 < 5; ++p) {
    const auto piece = build_system_matrix_csc_range<float>(g, cuts[p], cuts[p + 1]);
    const sparse::index_t off = static_cast<sparse::index_t>(cuts[p]) * g.num_bins;
    for (sparse::index_t c = 0; c < g.num_cols(); ++c) {
      const std::size_t b0 = view_run(full, c, cuts[p], g.num_bins).first;
      const std::size_t e1 = view_run(full, c, cuts[p + 1] - 1, g.num_bins).second;
      const auto pc = piece.col_ptr();
      ASSERT_EQ(pc[static_cast<std::size_t>(c) + 1] - pc[static_cast<std::size_t>(c)],
                static_cast<sparse::offset_t>(e1 - b0));
      for (std::size_t i = 0; i < e1 - b0; ++i) {
        const auto at = static_cast<std::size_t>(pc[static_cast<std::size_t>(c)]) + i;
        EXPECT_EQ(piece.row_idx()[at] + off, full.row_idx()[b0 + i]);
        EXPECT_EQ(std::memcmp(&piece.values()[at], &full.values()[b0 + i], sizeof(float)), 0);
      }
    }
  }
  // The per-view counts of the partitioner agree with the folded build.
  const auto counts = count_view_nnz(g);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, static_cast<std::uint64_t>(full.nnz()));
}

/// The pixel-driven formula with each view's own trigonometry, written out
/// independently of the builder: what a geometry that does not fold must
/// produce, entry for entry.
template <typename T>
void expect_own_angle_build(const ParallelGeometry& g) {
  ASSERT_FALSE(g.foldable());
  const auto a = build_system_matrix_csc<T>(g);
  const double half = 0.5 * g.num_bins;
  std::size_t at = 0;
  bool same = true;
  for (int iy = 0; iy < g.image_size && same; ++iy) {
    for (int ix = 0; ix < g.image_size && same; ++ix) {
      ASSERT_EQ(static_cast<std::size_t>(a.col_ptr()[static_cast<std::size_t>(g.col_id(ix, iy))]),
                at);
      for (int v = 0; v < g.num_views; ++v) {
        const double th = g.view_angle_rad(v);
        const double t = g.pixel_center_x(ix) * std::cos(th) + g.pixel_center_y(iy) * std::sin(th);
        const Footprint fp(FootprintModel::kRect, th);
        const int b0 = std::max(static_cast<int>(std::floor(t - fp.half_width() + half)), 0);
        const int b1 = std::min(static_cast<int>(std::floor(t + fp.half_width() + half)),
                                g.num_bins - 1);
        for (int b = b0; b <= b1; ++b) {
          const double value = fp.integrate(b - half - t, b - half + 1.0 - t);
          if (value <= 1e-9) continue;
          const T want = static_cast<T>(value);
          same = at < a.row_idx().size() && a.row_idx()[at] == g.row_id(v, b) &&
                 std::memcmp(&a.values()[at], &want, sizeof(T)) == 0;
          if (!same) {
            ADD_FAILURE() << "pixel (" << ix << "," << iy << ") view " << v << " bin " << b;
            break;
          }
          ++at;
        }
        if (!same) break;
      }
    }
  }
  if (same) {
    EXPECT_EQ(at, static_cast<std::size_t>(a.nnz()));
  }
}

// Geometries that do not fold keep each view's own angle: a 1-degree
// start, a view count that is not a multiple of 4, and the limited-angle
// micro-CT set's 30-degree coverage.
TEST(SystemMatrixFold, NonFoldableGeometriesUseEachViewsOwnAngle) {
  ParallelGeometry shifted = standard_geometry(10, 12);
  shifted.start_angle_deg = 1.0;
  expect_own_angle_build<float>(shifted);
  expect_own_angle_build<double>(standard_geometry(10, 30));
  ParallelGeometry micro = standard_geometry(16, 80);
  micro.delta_angle_deg = 30.0 / 80;
  expect_own_angle_build<float>(micro);
}

}  // namespace
}  // namespace cscv::ct

// The folded operator (format.hpp, docs/FORMAT.md §9): a CSC that is
// exactly symmetric under a foldable scan's 90-degree rotation and
// 45-degree reflection stores views 0..V/4, and SpmvPlan applies them to
// four permuted images at once.
//   * Detection: the builder folds exactly the symmetric matrices; one ulp,
//     one missing entry, and the fan-beam, attenuated and Siddon operators
//     build in full.
//   * Structure: the stored quarter is, array for array, the unfolded build
//     of views 0..V/4, while the shape, layout and nnz stay the operator's.
//   * Contracts, on every usable tier for Z, M-hw and M-soft: forward and
//     adjoint within the CSC-reference tolerance in fp32, bf16, fp16 and
//     fp64; the same bytes at 1-4 threads for full and subset applies; batch
//     columns bitwise the serial apply; a one-stratum subset bitwise the
//     full apply.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "ct/attenuated.hpp"
#include "ct/fan_beam.hpp"
#include "ct/system_matrix.hpp"
#include "sparse/convert.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;
using testing::cached_ct_csr;

constexpr int kImage = 32;
constexpr int kViews = 24;  // folds: a quarter of 7 views
const CscvParams kParams{.s_vvec = 4, .s_imgb = 8, .s_vxg = 2};

template <typename T>
CscvMatrix<T> build(const sparse::CscMatrix<T>& csc, int image, int views,
                    typename CscvMatrix<T>::Variant variant, const CscvParams& p = kParams) {
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(csc, layout, p, variant);
}

template <typename T>
CscvMatrix<T> build_ct(typename CscvMatrix<T>::Variant variant, int image = kImage,
                       int views = kViews, const CscvParams& p = kParams) {
  return build<T>(cached_ct_csc<T>(image, views), image, views, variant, p);
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// ---- detection --------------------------------------------------------------

TEST(CscvFold, FoldsExactlyTheSymmetricMatrices) {
  using F = CscvMatrix<float>;
  EXPECT_TRUE(build_ct<float>(F::Variant::kZ).folded());
  EXPECT_TRUE(build_ct<float>(F::Variant::kM).folded());
  EXPECT_TRUE(build_ct<double>(CscvMatrix<double>::Variant::kM, 16, 48).folded());
  EXPECT_TRUE(build_ct<float>(F::Variant::kM, 9, 4).folded());  // the smallest scan
  EXPECT_FALSE(build_ct<float>(F::Variant::kM, kImage, 22).folded());
  // A matrix of a foldable shape whose views use their own angles (a 1-degree
  // start) is not symmetric.
  ct::ParallelGeometry shifted = ct::standard_geometry(kImage, kViews);
  shifted.start_angle_deg = 1.0;
  EXPECT_FALSE(build<float>(ct::build_system_matrix_csc<float>(shifted), kImage, kViews,
                            F::Variant::kM)
                   .folded());
}

TEST(CscvFold, OneUlpOrOneMissingEntryBuildsInFull) {
  using F = CscvMatrix<float>;
  const auto& csc = cached_ct_csc<float>(kImage, kViews);
  const auto bins = static_cast<sparse::index_t>(ct::standard_num_bins(kImage));
  // One entry of view 1 (in the quarter) and one of view 20 (outside it).
  for (const int view : {1, 20}) {
    util::UninitAlignedVector<float> vals(csc.values().begin(), csc.values().end());
    std::size_t at = 0;
    while (csc.row_idx()[at] / bins != view) ++at;
    vals[at] = std::nextafter(vals[at], 2.0F);
    const sparse::CscMatrix<float> bumped(
        csc.rows(), csc.cols(),
        util::UninitAlignedVector<sparse::offset_t>(csc.col_ptr().begin(), csc.col_ptr().end()),
        util::UninitAlignedVector<sparse::index_t>(csc.row_idx().begin(), csc.row_idx().end()),
        std::move(vals));
    EXPECT_FALSE(build<float>(bumped, kImage, kViews, F::Variant::kZ).folded())
        << "1 ulp at view " << view;
  }
  // Drop one entry of view 20 from column 0.
  std::vector<sparse::offset_t> cp(csc.col_ptr().begin(), csc.col_ptr().end());
  std::size_t drop = static_cast<std::size_t>(cp[0]);
  while (csc.row_idx()[drop] / bins != 20) ++drop;
  ASSERT_LT(drop, static_cast<std::size_t>(cp[1]));
  util::UninitAlignedVector<sparse::index_t> rows;
  util::UninitAlignedVector<float> vals;
  for (std::size_t i = 0; i < csc.row_idx().size(); ++i) {
    if (i == drop) continue;
    rows.push_back(csc.row_idx()[i]);
    vals.push_back(csc.values()[i]);
  }
  for (std::size_t c = 1; c < cp.size(); ++c) --cp[c];
  const sparse::CscMatrix<float> holed(
      csc.rows(), csc.cols(), util::UninitAlignedVector<sparse::offset_t>(cp.begin(), cp.end()),
      std::move(rows), std::move(vals));
  const auto m = build<float>(holed, kImage, kViews, F::Variant::kM);
  EXPECT_FALSE(m.folded());
  EXPECT_EQ(m.nnz(), csc.nnz() - 1);
}

TEST(CscvFold, FanBeamAttenuatedAndSiddonOperatorsBuildInFull) {
  using F = CscvMatrix<float>;
  const ct::ParallelGeometry g = ct::standard_geometry(kImage, kViews);
  const util::AlignedVector<double> mu(static_cast<std::size_t>(g.num_cols()), 0.05);
  const auto atten = ct::build_attenuated_system_matrix_csc<float>(g, mu);
  EXPECT_FALSE(build<float>(atten, kImage, kViews, F::Variant::kM).folded());
  // Siddon chord lengths use each view's own angle. In double they are not
  // symmetric; rounded to float they can be, entry for entry, and such a
  // matrix then folds (the check is exact, so the fold is too).
  const auto siddon = sparse::csc_from_csr(ct::build_system_matrix_siddon<double>(g));
  EXPECT_FALSE(
      build<double>(siddon, kImage, kViews, CscvMatrix<double>::Variant::kM).folded());
  const ct::FanBeamGeometry fan = ct::standard_fan_geometry(kImage, kViews);
  const OperatorLayout fan_layout{fan.image_size, fan.num_bins, fan.num_views};
  EXPECT_FALSE(F::build(ct::build_fan_system_matrix_csc<float>(fan), fan_layout, kParams,
                        F::Variant::kM)
                   .folded());
}

// ---- structure ----------------------------------------------------------------

/// The folded matrix stores exactly what an unfolded build of views 0..V/4
/// stores: block table, reference bins, VxG arrays, values, masks, slot
/// rows, padding and bytes. Only the operator-level facts differ.
template <typename T>
void expect_quarter_build(typename CscvMatrix<T>::Variant variant, int image, int views,
                          const CscvParams& p) {
  const ct::ParallelGeometry g = ct::standard_geometry(image, views);
  const int quarter = ct::ViewFold{views}.quarter_views();
  const auto folded = build_ct<T>(variant, image, views, p);
  const auto part = CscvMatrix<T>::build(ct::build_system_matrix_csc_range<T>(g, 0, quarter),
                                         {image, g.num_bins, quarter}, p, variant);
  ASSERT_TRUE(folded.folded());
  ASSERT_FALSE(part.folded());
  const std::string what = std::to_string(image) + "/" + std::to_string(views);

  EXPECT_EQ(folded.rows(), g.num_rows()) << what;
  EXPECT_EQ(folded.cols(), g.num_cols()) << what;
  EXPECT_EQ(folded.layout().num_views, views) << what;
  EXPECT_EQ(folded.nnz(), cached_ct_csc<T>(image, views).nnz()) << what;
  EXPECT_EQ(folded.view_groups(), (views + p.s_vvec - 1) / p.s_vvec) << what;
  EXPECT_EQ(folded.stored_layout().num_views, quarter) << what;
  EXPECT_EQ(folded.stored_nnz(), part.nnz()) << what;

  EXPECT_EQ(folded.grid().view_groups, part.grid().view_groups) << what;
  ASSERT_EQ(folded.num_blocks(), part.num_blocks()) << what;
  for (int b = 0; b < folded.num_blocks(); ++b) {
    const auto& x = folded.blocks()[static_cast<std::size_t>(b)];
    const auto& y = part.blocks()[static_cast<std::size_t>(b)];
    ASSERT_TRUE(x.view_group == y.view_group && x.tile_x == y.tile_x && x.tile_y == y.tile_y &&
                x.o_min == y.o_min && x.o_count == y.o_count && x.vxg_begin == y.vxg_begin &&
                x.vxg_end == y.vxg_end && x.val_begin == y.val_begin)
        << what << ": block " << b;
    for (int o = 0; o < x.o_count; ++o) {
      for (int vi = 0; vi < p.s_vvec; ++vi) {
        ASSERT_EQ(folded.row_of_slot(b, o, vi), part.row_of_slot(b, o, vi)) << what;
      }
    }
  }
  EXPECT_TRUE(same_bytes(folded.reference_bins(), part.reference_bins())) << what;
  EXPECT_TRUE(same_bytes(folded.vxg_col(), part.vxg_col())) << what;
  EXPECT_TRUE(same_bytes(folded.vxg_q(), part.vxg_q())) << what;
  EXPECT_TRUE(same_bytes(folded.values(), part.values())) << what;
  EXPECT_TRUE(same_bytes(folded.masks(), part.masks())) << what;
  EXPECT_EQ(folded.ytilde_max_slots(), part.ytilde_max_slots()) << what;
  EXPECT_EQ(folded.stored_values(), part.stored_values()) << what;
  EXPECT_EQ(folded.matrix_bytes(), part.matrix_bytes()) << what;
  EXPECT_DOUBLE_EQ(folded.r_nnze(), part.r_nnze()) << what;
}

TEST(CscvFold, StoredQuarterIsTheBuildOfViewsZeroToAQuarter) {
  using F = CscvMatrix<float>;
  using D = CscvMatrix<double>;
  for (const CscvParams& p : {CscvParams{.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              CscvParams{.s_vvec = 4, .s_imgb = 16, .s_vxg = 4},
                              CscvParams{.s_vvec = 16, .s_imgb = 8, .s_vxg = 1}}) {
    expect_quarter_build<float>(F::Variant::kZ, 32, 24, p);
    expect_quarter_build<float>(F::Variant::kM, 33, 48, p);
    expect_quarter_build<double>(D::Variant::kM, 32, 24, p);
  }
}

// ---- contracts ------------------------------------------------------------------

struct Path {
  CscvMatrix<float>::Variant variant;
  simd::ExpandPath expand;
  const char* name;
};
constexpr Path kPaths[] = {{CscvMatrix<float>::Variant::kZ, simd::ExpandPath::kAuto, "Z"},
                           {CscvMatrix<float>::Variant::kM, simd::ExpandPath::kHardware, "M-hw"},
                           {CscvMatrix<float>::Variant::kM, simd::ExpandPath::kSoftware,
                            "M-soft"}};

/// Relative L2 tolerance against the CSR reference per stored dtype: the
/// summation-order tolerance of fp32/fp64, the storage rounding of bf16/fp16.
double tolerance(ValueType vt, bool is_double) {
  if (vt == ValueType::kBf16) return 5e-3;
  if (vt == ValueType::kF16) return 7e-4;
  return is_double ? testing::spmv_tolerance<double>() : testing::spmv_tolerance<float>();
}

template <typename T>
void check_against_reference(const CscvMatrix<T>& m, const sparse::CsrMatrix<T>& csr,
                             const PlanOptions& opts, double tol, const std::string& label) {
  const auto rows = static_cast<std::size_t>(m.rows());
  const auto cols = static_cast<std::size_t>(m.cols());
  const SpmvPlan<T> plan(m, opts);
  EXPECT_TRUE(plan.stats().folded) << label;
  const auto x = sparse::random_vector<T>(cols, 61, 0.0, 1.0);
  util::AlignedVector<T> y(rows), y_ref(rows);
  plan.execute(x, y);
  csr.spmv_serial(x, y_ref);
  EXPECT_LE(util::rel_l2_error<T>(y, y_ref), tol) << label << " forward";
  const auto yin = sparse::random_vector<T>(rows, 62, 0.0, 1.0);
  util::AlignedVector<T> xt(cols), xt_ref(cols);
  plan.execute_transpose(yin, xt);
  csr.spmv_transpose_serial(yin, xt_ref);
  EXPECT_LE(util::rel_l2_error<T>(xt, xt_ref), tol) << label << " adjoint";
}

TEST(CscvFold, ForwardAndAdjointMatchTheCsrReference) {
  const auto& csr = cached_ct_csr<float>(kImage, kViews);
  for (const simd::IsaTier tier : testing::usable_tiers()) {
    for (const Path& path : kPaths) {
      for (const ValueType vt : {ValueType::kF32, ValueType::kBf16, ValueType::kF16}) {
        auto m = build_ct<float>(path.variant);
        m.convert_values(vt);
        check_against_reference<float>(
            m, csr, {.path = path.expand, .isa = tier}, tolerance(vt, false),
            std::string(simd::isa_tier_name(tier)) + " " + path.name + " " +
                value_type_name(vt));
      }
      const auto md = build_ct<double>(path.variant == CscvMatrix<float>::Variant::kZ
                                           ? CscvMatrix<double>::Variant::kZ
                                           : CscvMatrix<double>::Variant::kM);
      check_against_reference<double>(md, cached_ct_csr<double>(kImage, kViews),
                                      {.path = path.expand, .isa = tier},
                                      tolerance(ValueType::kF32, true),
                                      std::string(simd::isa_tier_name(tier)) + " " +
                                          path.name + " fp64");
    }
  }
}

/// Every full and subset apply of `plan`, both directions, concatenated;
/// `with_forward` false leaves out the full forward (a private-y plan's
/// reduction order follows its block partition, so only its row-partitioned
/// subset applies and its tile-partitioned transposes are thread-count
/// independent).
std::vector<float> all_outputs(const SpmvPlan<float>& plan, const CscvMatrix<float>& m, int k,
                               bool with_forward = true) {
  const auto rows = static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(k);
  const auto cols = static_cast<std::size_t>(m.cols()) * static_cast<std::size_t>(k);
  const auto x = sparse::random_vector<float>(cols, 71, 0.0, 1.0);
  const auto y_in = sparse::random_vector<float>(rows, 72, 0.0, 1.0);
  std::vector<float> out;
  util::AlignedVector<float> y(rows, 0.0F), xt(cols, 0.0F);
  if (with_forward) {
    plan.execute(x, y);
    out.insert(out.end(), y.begin(), y.end());
  }
  plan.execute_transpose(y_in, xt);
  out.insert(out.end(), xt.begin(), xt.end());
  for (int index = 0; index < 3; ++index) {
    std::fill(y.begin(), y.end(), 0.0F);
    plan.execute(GroupSubset{3, index}, x, y);
    out.insert(out.end(), y.begin(), y.end());
    plan.execute_transpose(GroupSubset{3, index}, y_in, xt);
    out.insert(out.end(), xt.begin(), xt.end());
  }
  return out;
}

TEST(CscvFold, OutputsAreTheSameBytesAtOneToFourThreads) {
  const int saved = util::max_threads();
  for (const simd::IsaTier tier : testing::usable_tiers()) {
    for (const Path& path : kPaths) {
      const auto m = build_ct<float>(path.variant);
      for (const int k : {1, 3}) {
        const std::string label = std::string(simd::isa_tier_name(tier)) + " " + path.name +
                                  " K=" + std::to_string(k);
        util::set_num_threads(1);
        const SpmvPlan<float> serial(
            m, {.path = path.expand, .num_rhs = k, .threads = 1, .isa = tier});
        const std::vector<float> one = all_outputs(serial, m, k);
        const std::vector<float> one_no_forward = all_outputs(serial, m, k, false);
        for (const int threads : {2, 3, 4}) {
          util::set_num_threads(threads);
          const SpmvPlan<float> row(m, {.scheme = ThreadScheme::kRowPartition,
                                        .path = path.expand,
                                        .num_rhs = k,
                                        .threads = threads,
                                        .isa = tier});
          EXPECT_TRUE(same_bytes<float>(all_outputs(row, m, k), one))
              << label << " at " << threads << " threads";
          const SpmvPlan<float> priv(m, {.scheme = ThreadScheme::kPrivateY,
                                         .path = path.expand,
                                         .num_rhs = k,
                                         .threads = threads,
                                         .isa = tier});
          EXPECT_TRUE(same_bytes<float>(all_outputs(priv, m, k, false), one_no_forward))
              << label << " private-y at " << threads << " threads";
        }
      }
    }
  }
  util::set_num_threads(saved);
}

// The private-y scheme's full forward agrees with the CSR reference, like
// the unfolded one.
TEST(CscvFold, PrivateYForwardMatchesTheCsrReference) {
  const auto& csr = cached_ct_csr<float>(kImage, kViews);
  for (const Path& path : kPaths) {
    check_against_reference<float>(build_ct<float>(path.variant), csr,
                                   {.scheme = ThreadScheme::kPrivateY, .path = path.expand,
                                    .threads = 3},
                                   tolerance(ValueType::kF32, false),
                                   std::string(path.name) + " private-y");
  }
}

TEST(CscvFold, BatchColumnsAreTheSerialApply) {
  for (const simd::IsaTier tier : testing::usable_tiers()) {
    for (const Path& path : kPaths) {
      for (const ValueType vt : {ValueType::kF32, ValueType::kBf16}) {
        auto m = build_ct<float>(path.variant);
        m.convert_values(vt);
        const std::string label = std::string(simd::isa_tier_name(tier)) + " " + path.name +
                                  " " + value_type_name(vt);
        const auto rows = static_cast<std::size_t>(m.rows());
        const auto cols = static_cast<std::size_t>(m.cols());
        const int k = 3;
        const SpmvPlan<float> serial(m, {.path = path.expand, .isa = tier});
        const SpmvPlan<float> batch(m, {.path = path.expand, .num_rhs = k, .isa = tier});
        const auto xk = sparse::random_vector<float>(cols * k, 81, 0.0, 1.0);
        const auto yk_in = sparse::random_vector<float>(rows * k, 82, 0.0, 1.0);
        util::AlignedVector<float> yk(rows * k), xtk(cols * k);
        batch.execute(xk, yk);
        batch.execute_transpose(yk_in, xtk);
        for (int c = 0; c < k; ++c) {
          util::AlignedVector<float> x(cols), y_in(rows), y(rows), xt(cols);
          for (std::size_t i = 0; i < cols; ++i) x[i] = xk[i * k + static_cast<std::size_t>(c)];
          for (std::size_t i = 0; i < rows; ++i) {
            y_in[i] = yk_in[i * k + static_cast<std::size_t>(c)];
          }
          serial.execute(x, y);
          serial.execute_transpose(y_in, xt);
          bool fwd = true, adj = true;
          for (std::size_t i = 0; i < rows; ++i) {
            fwd = fwd && std::memcmp(&y[i], &yk[i * k + static_cast<std::size_t>(c)], 4) == 0;
          }
          for (std::size_t i = 0; i < cols; ++i) {
            adj = adj && std::memcmp(&xt[i], &xtk[i * k + static_cast<std::size_t>(c)], 4) == 0;
          }
          EXPECT_TRUE(fwd) << label << " forward column " << c;
          EXPECT_TRUE(adj) << label << " adjoint column " << c;
        }
      }
    }
  }
}

TEST(CscvFold, OneStratumSubsetIsTheFullApply) {
  for (const simd::IsaTier tier : testing::usable_tiers()) {
    for (const Path& path : kPaths) {
      for (const int k : {1, 3}) {
        const auto m = build_ct<float>(path.variant);
        // Subset applies partition rows like the row-partition scheme.
        const SpmvPlan<float> plan(m, {.scheme = ThreadScheme::kRowPartition,
                                       .path = path.expand,
                                       .num_rhs = k,
                                       .isa = tier});
        const auto rows = static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(k);
        const auto cols = static_cast<std::size_t>(m.cols()) * static_cast<std::size_t>(k);
        const auto x = sparse::random_vector<float>(cols, 91, 0.0, 1.0);
        const auto y_in = sparse::random_vector<float>(rows, 92, 0.0, 1.0);
        util::AlignedVector<float> y_full(rows), y_sub(rows), x_full(cols), x_sub(cols);
        plan.execute(x, y_full);
        plan.execute(GroupSubset{}, x, y_sub);
        plan.execute_transpose(y_in, x_full);
        plan.execute_transpose(GroupSubset{}, y_in, x_sub);
        const std::string label = std::string(simd::isa_tier_name(tier)) + " " + path.name +
                                  " K=" + std::to_string(k);
        EXPECT_TRUE(same_bytes<float>(y_sub, y_full)) << label << " forward";
        EXPECT_TRUE(same_bytes<float>(x_sub, x_full)) << label << " adjoint";
      }
    }
  }
}

// The strata of a folded operator add up to the full adjoint (to rounding)
// and each stratum's forward rows are the full forward's, bit for bit.
TEST(CscvFold, StrataCoverTheOperator) {
  const auto m = build_ct<float>(CscvMatrix<float>::Variant::kM);
  const SpmvPlan<float> plan(m, {.scheme = ThreadScheme::kRowPartition});
  const auto rows = static_cast<std::size_t>(m.rows());
  const auto cols = static_cast<std::size_t>(m.cols());
  const auto x = sparse::random_vector<float>(cols, 93, 0.0, 1.0);
  const auto y_in = sparse::random_vector<float>(rows, 94, 0.0, 1.0);
  util::AlignedVector<float> y_full(rows), y(rows, std::nanf("")), x_full(cols), xt(cols);
  std::vector<double> x_sum(cols, 0.0);
  plan.execute(x, y_full);
  plan.execute_transpose(y_in, x_full);
  const int strata = 5;  // of the operator's 6 groups: one stratum holds two
  for (int s = 0; s < strata; ++s) {
    plan.execute(GroupSubset{strata, s}, x, y);
    plan.execute_transpose(GroupSubset{strata, s}, y_in, xt);
    for (std::size_t i = 0; i < cols; ++i) x_sum[i] += xt[i];
  }
  EXPECT_TRUE(same_bytes<float>(y, y_full));
  util::AlignedVector<float> x_sumf(cols);
  for (std::size_t i = 0; i < cols; ++i) x_sumf[i] = static_cast<float>(x_sum[i]);
  EXPECT_LE(util::rel_l2_error<float>(x_sumf, x_full), 1e-6);
}

}  // namespace
}  // namespace cscv::core

// OS-SART over the CSCV plan: its strata are view-group subsets of the
// plan (whole S_VVec-view groups, g % n == k), it converges, and a subset
// count above the view groups is clamped to them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/plan.hpp"
#include "ct/phantom.hpp"
#include "recon/operators.hpp"
#include "recon/solvers.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv::recon {
namespace {

using cscv::testing::cached_ct_csc;

core::CscvMatrix<double> build(int image, int views, int s_vvec = 4) {
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return core::CscvMatrix<double>::build(cached_ct_csc<double>(image, views), layout,
                                         {.s_vvec = s_vvec, .s_imgb = 8, .s_vxg = 2},
                                         core::CscvMatrix<double>::Variant::kM);
}

// Every row belongs to exactly one subset of a count: applied onto NaN, a
// subset forward writes exactly its groups' rows, and the stacked subset
// forwards are the full forward bit for bit.
TEST(ViewSubsets, PartitionCoversAllRowsOnce) {
  const auto a = build(16, 24);  // 6 view groups of 4 views
  const core::SpmvPlan<double> plan(a, {.threads = 1});
  const auto m = static_cast<std::size_t>(a.rows());
  const auto x = sparse::random_vector<double>(static_cast<std::size_t>(a.cols()), 3);
  util::AlignedVector<double> full(m);
  plan.execute(x, full);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const int count : {1, 2, 4, 6}) {
    std::vector<int> written(m, 0);
    util::AlignedVector<double> stacked(m, nan);
    for (int index = 0; index < count; ++index) {
      util::AlignedVector<double> y(m, nan);
      plan.execute({count, index}, x, y);
      plan.execute({count, index}, x, stacked);
      for (std::size_t r = 0; r < m; ++r) written[r] += std::isnan(y[r]) ? 0 : 1;
    }
    for (std::size_t r = 0; r < m; ++r) ASSERT_EQ(written[r], 1) << "row " << r;
    EXPECT_EQ(0, std::memcmp(stacked.data(), full.data(), m * sizeof(double)))
        << count << " subsets";
  }
}

// Stratum k of n owns the groups g with (first_group + g) % n == k: groups
// 0 and 3 of six for {3, 0}; local groups 2 and 5 when the matrix starts at
// global group 2.
TEST(ViewSubsets, InterleavedStrata) {
  const auto a = build(16, 24);
  const core::SpmvPlan<double> plan(a, {.threads = 1});
  const auto bins = static_cast<std::size_t>(a.layout().num_bins);
  const auto x = sparse::random_vector<double>(static_cast<std::size_t>(a.cols()), 4);
  util::AlignedVector<double> y(static_cast<std::size_t>(a.rows()),
                                std::numeric_limits<double>::quiet_NaN());
  plan.execute({3, 0}, x, y);
  for (int v = 0; v < 24; ++v) {
    const bool owned = v / 4 == 0 || v / 4 == 3;
    EXPECT_EQ(!std::isnan(y[static_cast<std::size_t>(v) * bins]), owned) << "view " << v;
  }
  const core::GroupSubset offset{3, 1, 2};
  EXPECT_EQ(offset.first_local(), 2);
  EXPECT_TRUE(offset.contains(2));
  EXPECT_TRUE(offset.contains(5));
  EXPECT_FALSE(offset.contains(0));
  EXPECT_FALSE(offset.contains(3));
}

// Subset forwards are rows of the full forward; the subset transposes of a
// count add up to the full transpose.
TEST(ViewSubsets, SubsetSpmvMatchesSlicedFull) {
  const auto a = build(16, 24);
  const core::SpmvPlan<double> plan(a, {.threads = 1});
  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  const auto x = sparse::random_vector<double>(n, 5);
  const auto y = sparse::random_vector<double>(m, 6);
  util::AlignedVector<double> full(m);
  util::AlignedVector<double> full_t(n);
  plan.execute(x, full);
  plan.execute_transpose(y, full_t);
  util::AlignedVector<double> sum_t(n, 0.0);
  util::AlignedVector<double> part_t(n);
  util::AlignedVector<double> part(m, 0.0);
  for (int index = 0; index < 4; ++index) {
    plan.execute({4, index}, x, part);
    plan.execute_transpose({4, index}, y, part_t);
    for (std::size_t j = 0; j < n; ++j) sum_t[j] += part_t[j];
  }
  EXPECT_EQ(0, std::memcmp(part.data(), full.data(), m * sizeof(double)));
  for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(sum_t[j], full_t[j], 1e-12) << j;
}

TEST(OsSart, ConvergesFasterThanSirtPerPass) {
  // The point of ordered subsets: more corrections per data pass.
  const auto a = build(16, 24);
  const core::SpmvPlan<double> plan(a);
  const PlanOperator<double> op(plan);
  const auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), 16);
  util::AlignedVector<double> b(static_cast<std::size_t>(a.rows()));
  op.forward(x_true, b);

  util::AlignedVector<double> x_os(static_cast<std::size_t>(a.cols()), 0.0);
  util::AlignedVector<double> x_si(static_cast<std::size_t>(a.cols()), 0.0);
  const auto s_os = os_sart<double>(op, b, x_os, 6, {.iterations = 5});
  const auto s_si = sirt<double>(op, b, x_si, {.iterations = 5});
  EXPECT_LT(s_os.residual_norms.back(), s_si.residual_norms.back());
}

TEST(OsSart, SingleSubsetEqualsSirtUpdate) {
  // With one subset OS-SART degenerates to SIRT (same normalizers).
  const auto a = build(16, 12);
  const core::SpmvPlan<double> plan(a);
  const PlanOperator<double> op(plan);
  const auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), 16);
  util::AlignedVector<double> b(static_cast<std::size_t>(a.rows()));
  op.forward(x_true, b);
  util::AlignedVector<double> x1(static_cast<std::size_t>(a.cols()), 0.0);
  util::AlignedVector<double> x2(static_cast<std::size_t>(a.cols()), 0.0);
  os_sart<double>(op, b, x1, 1, {.iterations = 3});
  sirt<double>(op, b, x2, {.iterations = 3});
  EXPECT_LT(util::rel_l2_error<double>(x1, x2), 1e-10);
}

TEST(OsSart, ResidualTrendsDown) {
  const auto a = build(16, 24);
  const core::SpmvPlan<double> plan(a);
  const PlanOperator<double> op(plan);
  const auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), 16);
  util::AlignedVector<double> b(static_cast<std::size_t>(a.rows()));
  plan.execute(x_true, b);
  util::AlignedVector<double> x(static_cast<std::size_t>(a.cols()), 0.0);
  // Damped relaxation: undamped ordered subsets settle into a limit cycle
  // instead of converging; lambda < 1 is standard practice.
  auto stats = os_sart<double>(op, b, x, 6, {.iterations = 8, .relaxation = 0.6});
  EXPECT_LT(stats.residual_norms.back(), 0.5 * stats.residual_norms.front());
}

// More subsets than view groups run as one stratum per group; no subsets
// at all is an error.
TEST(OsSart, ClampsSubsetsToViewGroups) {
  const auto a = build(16, 12);  // 3 view groups of the operator
  EXPECT_EQ(os_sart_strata(a.view_groups(), 13), 3);
  EXPECT_EQ(os_sart_strata(a.view_groups(), 2), 2);
  const core::SpmvPlan<double> plan(a);
  const PlanOperator<double> op(plan);
  const auto b = sparse::random_vector<double>(static_cast<std::size_t>(a.rows()), 7);
  util::AlignedVector<double> x13(static_cast<std::size_t>(a.cols()), 0.0);
  util::AlignedVector<double> x3(static_cast<std::size_t>(a.cols()), 0.0);
  const auto s13 = os_sart<double>(op, b, x13, 13, {.iterations = 2});
  const auto s3 = os_sart<double>(op, b, x3, 3, {.iterations = 2});
  EXPECT_EQ(0, std::memcmp(x13.data(), x3.data(), x3.size() * sizeof(double)));
  EXPECT_EQ(s13.residual_norms, s3.residual_norms);
  EXPECT_THROW(os_sart<double>(op, b, x3, 0, {.iterations = 1}), util::CheckError);
}

}  // namespace
}  // namespace cscv::recon

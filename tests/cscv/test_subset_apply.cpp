// View-group subset applies on SpmvPlan (the OS-SART strata): on every
// usable kernel tier, for Z, M with hardware and with software expansion,
// K in {1, 3} and 1 or 2 OpenMP threads —
//   * a subset forward writes exactly its groups' rows, each bitwise that
//     row of a row-partition full forward, and leaves every other row as it
//     was (also on a private-y plan);
//   * a subset transpose is the same at 1, 2, 3 and 4 threads (the 16
//     tiles split into slot ranges of several tiles each);
//   * the memoized A_s^T 1 is bitwise a fresh subset transpose of ones;
//   * the subsets of a matrix holding a contiguous group range (a dist
//     shard, first_group != 0) are the global strata restricted to it.
// Each holds for a folded operator (24 views) and one stored in full (22).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "ct/system_matrix.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace cscv::core {
namespace {

using Variant = CscvMatrix<float>::Variant;
using testing::cached_ct_csc;

constexpr int kImage = 32;
constexpr int kViews = 24;          // 6 view groups of 4, folded
constexpr int kUnfoldedViews = 22;  // 6 view groups, the last of 2 views
constexpr int kVvec = 4;
const CscvParams kParams{.s_vvec = kVvec, .s_imgb = 8, .s_vxg = 2};

struct Path {
  Variant variant;
  simd::ExpandPath expand;
  const char* name;
};
constexpr Path kPaths[] = {{Variant::kZ, simd::ExpandPath::kAuto, "Z"},
                           {Variant::kM, simd::ExpandPath::kHardware, "M-hw"},
                           {Variant::kM, simd::ExpandPath::kSoftware, "M-soft"}};

CscvMatrix<float> build(Variant variant, int views) {
  const OperatorLayout layout{kImage, ct::standard_num_bins(kImage), views};
  return CscvMatrix<float>::build(cached_ct_csc<float>(kImage, views), layout, kParams,
                                  variant);
}

bool same_bytes(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Runs `fn(variant, plan options, views, label)` over both view counts x
/// every tier x path x K x thread count, with the ambient OpenMP thread
/// count set to the plan's.
template <typename Fn>
void sweep(Fn&& fn) {
  const int saved = util::max_threads();
  for (const int views : {kViews, kUnfoldedViews}) {
    for (const simd::IsaTier tier : testing::usable_tiers()) {
      for (const Path& path : kPaths) {
        for (const int k : {1, 3}) {
          for (const int threads : {1, 2}) {
            util::set_num_threads(threads);
            const std::string label = std::to_string(views) + " views " +
                                      simd::isa_tier_name(tier) + " " + path.name +
                                      " K=" + std::to_string(k) +
                                      " threads=" + std::to_string(threads);
            fn(path.variant,
               PlanOptions{.path = path.expand, .num_rhs = k, .threads = threads, .isa = tier},
               views, label);
          }
        }
      }
    }
  }
  util::set_num_threads(saved);
}

TEST(SubsetApply, ForwardWritesOnlyItsGroupsRowsBitwise) {
  sweep([](Variant variant, PlanOptions opts, int views, const std::string& label) {
    const auto m = build(variant, views);
    ASSERT_EQ(m.folded(), views == kViews) << label;
    const auto k = static_cast<std::size_t>(opts.num_rhs);
    const auto rows = static_cast<std::size_t>(m.rows()) * k;
    const std::size_t group_elems = static_cast<std::size_t>(kVvec) *
                                    static_cast<std::size_t>(m.layout().num_bins) * k;
    const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()) * k, 51,
                                                0.0, 1.0);
    PlanOptions row_opts = opts;
    row_opts.scheme = ThreadScheme::kRowPartition;
    const SpmvPlan<float> reference(m, row_opts);
    util::AlignedVector<float> full(rows);
    reference.execute(x, full);
    const util::AlignedVector<float> sentinel(rows, std::numeric_limits<float>::quiet_NaN());

    for (const ThreadScheme scheme : {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
      if (scheme == ThreadScheme::kPrivateY && opts.threads == 1) continue;
      opts.scheme = scheme;
      const SpmvPlan<float> plan(m, opts);
      for (int index = 0; index < 3; ++index) {
        const GroupSubset subset{3, index};
        util::AlignedVector<float> y = sentinel;
        plan.execute(subset, x, y);
        for (int g = 0; g < m.view_groups(); ++g) {
          const std::size_t r0 = static_cast<std::size_t>(g) * group_elems;
          const std::size_t len = std::min(group_elems, rows - r0);
          const float* want = subset.contains(g) ? full.data() : sentinel.data();
          EXPECT_TRUE(same_bytes(y.data() + r0, want + r0, len))
              << label << (scheme == ThreadScheme::kPrivateY ? " private-y" : "")
              << " subset " << index << " group " << g;
        }
      }
    }
  });
}

TEST(SubsetApply, TransposeIsTheSameAtOneAndTwoThreads) {
  for (const int views : {kViews, kUnfoldedViews}) {
    for (const simd::IsaTier tier : testing::usable_tiers()) {
      for (const Path& path : kPaths) {
        for (const int k : {1, 3}) {
          const auto m = build(path.variant, views);
          const auto ks = static_cast<std::size_t>(k);
          const auto cols = static_cast<std::size_t>(m.cols()) * ks;
          const auto y = sparse::random_vector<float>(static_cast<std::size_t>(m.rows()) * ks,
                                                      52, -1.0, 1.0);
          std::vector<util::AlignedVector<float>> at_one;
          const int saved = util::max_threads();
          for (const int threads : {1, 2, 3, 4}) {
            util::set_num_threads(threads);
            const SpmvPlan<float> plan(
                m, {.path = path.expand, .num_rhs = k, .threads = threads, .isa = tier});
            for (int index = 0; index < 3; ++index) {
              util::AlignedVector<float> x(cols);
              plan.execute_transpose({3, index}, y, x);
              if (threads == 1) {
                at_one.push_back(std::move(x));
              } else {
                EXPECT_TRUE(same_bytes(x.data(), at_one[static_cast<std::size_t>(index)].data(),
                                       cols))
                    << views << " views " << simd::isa_tier_name(tier) << " " << path.name
                    << " K=" << k << " subset " << index << " at " << threads << " threads";
              }
            }
          }
          util::set_num_threads(saved);
        }
      }
    }
  }
}

TEST(SubsetApply, MemoizedColSumsAreFreshSubsetTransposesOfOnes) {
  sweep([](Variant variant, PlanOptions opts, int views, const std::string& label) {
    const auto m = build(variant, views);
    const auto k = static_cast<std::size_t>(opts.num_rhs);
    const auto cols = static_cast<std::size_t>(m.cols());
    const SpmvPlan<float> plan(m, opts);
    const util::AlignedVector<float> ones(static_cast<std::size_t>(m.rows()) * k, 1.0F);
    for (const int count : {3, 2}) {
      for (int index = 0; index < count; ++index) {
        const GroupSubset subset{count, index};
        const std::span<const float> memo = plan.col_sums(subset);
        EXPECT_EQ(plan.col_sums(subset).data(), memo.data()) << label << " recomputed";
        util::AlignedVector<float> fresh(cols * k);
        plan.execute_transpose(subset, ones, fresh);
        util::AlignedVector<float> want(cols);
        for (std::size_t j = 0; j < cols; ++j) want[j] = fresh[j * k];
        ASSERT_EQ(memo.size(), cols);
        EXPECT_TRUE(same_bytes(memo.data(), want.data(), cols))
            << label << " subset " << index << " of " << count;
      }
    }
  });
}

// A matrix over global view groups [2, 5) of the six (a shard) with
// first_group 2: its subsets are the global strata's groups there — the
// forward rows and (fed only those rows) the transposes bit for bit. The
// global operator stores every view: a folded one sums its rows in another
// order than a shard of it (which stays within rounding, not bitwise).
TEST(SubsetApply, OffsetSubsetsMatchTheGlobalStrata) {
  const auto geometry = ct::standard_geometry(kImage, kUnfoldedViews);
  const int first_group = 2;
  const int view_begin = first_group * kVvec;
  const int view_end = 5 * kVvec;
  const OperatorLayout local{kImage, geometry.num_bins, view_end - view_begin};
  const auto part_csc =
      ct::build_system_matrix_csc_range<float>(geometry, view_begin, view_end);
  sweep([&](Variant variant, PlanOptions opts, int views, const std::string& label) {
    if (views != kUnfoldedViews) return;
    const auto global = build(variant, views);
    const auto part = CscvMatrix<float>::build(part_csc, local, kParams, variant);
    const auto k = static_cast<std::size_t>(opts.num_rhs);
    const auto cols = static_cast<std::size_t>(global.cols()) * k;
    const auto g_rows = static_cast<std::size_t>(global.rows()) * k;
    const auto p_rows = static_cast<std::size_t>(part.rows()) * k;
    const std::size_t offset = static_cast<std::size_t>(view_begin) *
                               static_cast<std::size_t>(geometry.num_bins) * k;
    const SpmvPlan<float> global_plan(global, opts);
    const SpmvPlan<float> part_plan(part, opts);
    const auto x = sparse::random_vector<float>(cols, 53, 0.0, 1.0);
    const auto y_part = sparse::random_vector<float>(p_rows, 54, 0.0, 1.0);
    util::AlignedVector<float> y_global(g_rows, 0.0F);
    std::copy(y_part.begin(), y_part.end(), y_global.begin() + static_cast<std::ptrdiff_t>(offset));
    for (int index = 0; index < 3; ++index) {
      util::AlignedVector<float> yg(g_rows, 0.0F);
      util::AlignedVector<float> yp(p_rows, 0.0F);
      global_plan.execute({3, index}, x, yg);
      part_plan.execute({3, index, first_group}, x, yp);
      EXPECT_TRUE(same_bytes(yp.data(), yg.data() + offset, p_rows))
          << label << " forward, subset " << index;
      util::AlignedVector<float> xg(cols);
      util::AlignedVector<float> xp(cols);
      global_plan.execute_transpose({3, index}, y_global, xg);
      part_plan.execute_transpose({3, index, first_group}, y_part, xp);
      EXPECT_TRUE(same_bytes(xp.data(), xg.data(), cols))
          << label << " transpose, subset " << index;
    }
  });
}

}  // namespace
}  // namespace cscv::core

// dist::partition_views — the reusable nnz-weighted view partitioner, cut
// on view-group boundaries.
#include "dist/partition.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "util/assertx.hpp"

namespace cscv::dist {
namespace {

std::uint64_t range_weight(const std::vector<std::uint64_t>& nnz, const ViewRange& r) {
  return std::accumulate(nnz.begin() + r.begin, nnz.begin() + r.end, std::uint64_t{0});
}

void expect_partition(const std::vector<ViewRange>& ranges, int num_views) {
  ASSERT_FALSE(ranges.empty());
  int at = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, at) << "ranges must be sorted, disjoint, covering";
    EXPECT_GT(r.end, r.begin) << "ranges must be non-empty";
    at = r.end;
  }
  EXPECT_EQ(at, num_views);
}

TEST(Partition, SinglePartIsIdentity) {
  const std::vector<std::uint64_t> nnz{5, 0, 3, 12, 1};
  const auto ranges = partition_views(nnz, 1, 1);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (ViewRange{0, 5}));
}

TEST(Partition, UnevenPerViewNnzBalances) {
  // One heavy view: a uniform split would put half the weight in one part.
  const std::vector<std::uint64_t> nnz{100, 1, 1, 1, 1, 1, 1, 1};
  const auto ranges = partition_views(nnz, 2, 1);
  expect_partition(ranges, 8);
  ASSERT_EQ(ranges.size(), 2u);
  // The heavy view must sit alone: [0,1) and [1,8).
  EXPECT_EQ(ranges[0], (ViewRange{0, 1}));
  EXPECT_EQ(range_weight(nnz, ranges[0]), 100u);
  EXPECT_EQ(range_weight(nnz, ranges[1]), 7u);
}

TEST(Partition, NearUniformSplitsNearEvenly) {
  std::vector<std::uint64_t> nnz(12, 10);
  const auto ranges = partition_views(nnz, 4, 1);
  expect_partition(ranges, 12);
  ASSERT_EQ(ranges.size(), 4u);
  for (const auto& r : ranges) EXPECT_EQ(r.count(), 3);
}

TEST(Partition, MorePartsThanViewsCollapsesToSingletons) {
  const std::vector<std::uint64_t> nnz{4, 4, 4};
  const auto ranges = partition_views(nnz, 16, 1);
  expect_partition(ranges, 3);
  ASSERT_EQ(ranges.size(), 3u);
  for (int v = 0; v < 3; ++v) EXPECT_EQ(ranges[static_cast<std::size_t>(v)], (ViewRange{v, v + 1}));
}

TEST(Partition, ZeroWeightViewsStayCovered) {
  // Trailing/leading zero-nnz views must still land in some range — every
  // row of the system belongs to exactly one shard.
  const std::vector<std::uint64_t> nnz{0, 0, 9, 9, 0, 0};
  const auto ranges = partition_views(nnz, 3, 1);
  expect_partition(ranges, 6);
}

// Cuts fall only on group boundaries, weighted by each group's summed nnz;
// the last group may be partial, and parts beyond the groups collapse.
TEST(Partition, CutsOnlyOnViewGroupBoundaries) {
  // Groups of 4 over 10 views: {0..3}, {4..7}, {8, 9}; weights 4, 40, 2.
  const std::vector<std::uint64_t> nnz{1, 1, 1, 1, 10, 10, 10, 10, 1, 1};
  const auto two = partition_views(nnz, 2, 4);
  expect_partition(two, 10);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (ViewRange{0, 8}));
  EXPECT_EQ(two[1], (ViewRange{8, 10}));
  const auto many = partition_views(nnz, 16, 4);
  expect_partition(many, 10);
  ASSERT_EQ(many.size(), 3u);
  for (const auto& r : many) EXPECT_EQ(r.begin % 4, 0);
  EXPECT_THROW((void)partition_views(nnz, 2, 0), util::CheckError);
}

TEST(Partition, RejectsEmptyAndNonPositive) {
  const std::vector<std::uint64_t> empty;
  EXPECT_THROW((void)partition_views(empty, 1, 1), util::CheckError);
  const std::vector<std::uint64_t> nnz{1, 2};
  EXPECT_THROW((void)partition_views(nnz, 0, 1), util::CheckError);
}

}  // namespace
}  // namespace cscv::dist

#include "dist/partition.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::dist {

std::vector<ViewRange> partition_views(std::span<const std::uint64_t> per_view_nnz,
                                       int parts, int group_size) {
  CSCV_CHECK_MSG(!per_view_nnz.empty(), "partition_views: no views");
  CSCV_CHECK_MSG(parts >= 1, "partition_views: parts must be >= 1, got " << parts);
  CSCV_CHECK_MSG(group_size >= 1,
                 "partition_views: group_size must be >= 1, got " << group_size);
  const auto views = static_cast<int>(per_view_nnz.size());
  const auto g_size = static_cast<std::size_t>(group_size);
  std::vector<std::uint64_t> group_nnz((per_view_nnz.size() + g_size - 1) / g_size, 0);
  for (std::size_t v = 0; v < per_view_nnz.size(); ++v) group_nnz[v / g_size] += per_view_nnz[v];
  const auto bounds = util::weighted_boundaries(group_nnz, parts);
  // Group boundaries back to views; the last group may be partial.
  const auto view_at = [&](int p) {
    return std::min(views, static_cast<int>(bounds[static_cast<std::size_t>(p)]) * group_size);
  };
  std::vector<ViewRange> ranges;
  ranges.reserve(static_cast<std::size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    if (view_at(p) < view_at(p + 1)) ranges.push_back({view_at(p), view_at(p + 1)});
  }
  return ranges;
}

}  // namespace cscv::dist

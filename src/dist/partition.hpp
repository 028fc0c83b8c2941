// View-range partitioner — decides which contiguous view ranges (= row
// blocks, rows being bin-major per view) each shard owns. Weighted by
// per-view nnz so a shard's work tracks its share of the matrix, not just
// its share of the views (edge views of a fan/short-scan geometry can be
// much lighter than central ones).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cscv::dist {

/// Half-open view range [begin, end).
struct ViewRange {
  int begin = 0;
  int end = 0;

  [[nodiscard]] int count() const { return end - begin; }
  friend bool operator==(const ViewRange&, const ViewRange&) = default;
};

/// Splits views [0, per_view_nnz.size()) into at most `parts` contiguous,
/// non-empty ranges with near-equal total nnz (util::weighted_boundaries
/// over the per-group sums), cut only on boundaries of view groups of
/// `group_size` consecutive views — the row unit of a CSCV block, so every
/// shard holds whole groups. Properties the shard layer relies on:
///   * ranges are sorted, disjoint, and cover every view exactly once;
///   * every range starts on a group boundary, and ends on one or at the
///     last view (the final group may be partial);
///   * parts == 1 returns the identity range [0, num_views);
///   * parts > groups returns one range per group (empty ranges are
///     dropped — a shard with zero rows would be pure overhead).
/// Throws util::CheckError when per_view_nnz is empty, parts < 1 or
/// group_size < 1.
[[nodiscard]] std::vector<ViewRange> partition_views(
    std::span<const std::uint64_t> per_view_nnz, int parts, int group_size);

}  // namespace cscv::dist

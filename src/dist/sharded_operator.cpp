#include "dist/sharded_operator.hpp"

#include <algorithm>
#include <cstddef>

#include "ct/system_matrix.hpp"
#include "dist/partition.hpp"
#include "recon/colmath.hpp"

namespace cscv::dist {

void check_partition(const std::vector<ShardSpec>& specs) {
  CSCV_CHECK_MSG(!specs.empty(), "sharded run needs at least one shard");
  const auto& first = specs[0];
  int expect_begin = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& s = specs[i];
    CSCV_CHECK_MSG(s.shard_id == i, "spec at index " << i << " has shard_id " << s.shard_id);
    CSCV_CHECK_MSG(s.num_shards == specs.size(),
                   "shard " << i << " believes in " << s.num_shards << " shards, have "
                            << specs.size());
    CSCV_CHECK_MSG(s.geometry == first.geometry && s.cscv == first.cscv &&
                       s.variant == first.variant && s.algorithm == first.algorithm &&
                       s.os_sart_subsets == first.os_sart_subsets,
                   "shard " << i << " disagrees with shard 0 on the global problem");
    CSCV_CHECK_MSG(s.view_begin == expect_begin && s.view_end > s.view_begin,
                   "shard " << i << " views [" << s.view_begin << ", " << s.view_end
                            << ") break the contiguous partition at view " << expect_begin);
    CSCV_CHECK_MSG(s.view_end % s.cscv.s_vvec == 0 || s.view_end == s.geometry.num_views,
                   "shard " << i << " ends at view " << s.view_end
                            << ", inside a view group of " << s.cscv.s_vvec << " views");
    expect_begin = s.view_end;
  }
  CSCV_CHECK_MSG(expect_begin == first.geometry.num_views,
                 "shards cover views [0, " << expect_begin << ") of "
                                           << first.geometry.num_views);
}

// ---- ShardedOperator -------------------------------------------------------

ShardedOperator::ShardedOperator(ShardBackend& backend) : backend_(&backend) {
  const auto& specs = backend.specs();
  check_partition(specs);
  const auto& g = specs[0].geometry;
  rows_ = g.num_rows();
  cols_ = g.num_cols();
  const int s_vvec = specs[0].cscv.s_vvec;
  view_groups_ = (g.num_views + s_vvec - 1) / s_vvec;
  group_rows_ = static_cast<std::size_t>(s_vvec) * static_cast<std::size_t>(g.num_bins);
  row_offset_.reserve(specs.size());
  for (const auto& s : specs) row_offset_.push_back(s.row_offset());
}

void ShardedOperator::forward(std::span<const float> x, std::span<float> y) const {
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<sparse::index_t>(y.size()) == rows_);
  const auto& specs = backend_->specs();
  in_.assign(specs.size(), x);  // every shard projects the same image
  backend_->apply_all(ApplyOp::kForward, -1, in_, parts_);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CSCV_CHECK(parts_[i].size() == static_cast<std::size_t>(specs[i].local_rows()));
    // Concatenation at the shard's row offset: pure placement, no FP ops —
    // the forward side of the determinism contract is free.
    std::copy(parts_[i].begin(), parts_[i].end(),
              y.begin() + static_cast<std::ptrdiff_t>(row_offset_[i]));
  }
}

void ShardedOperator::adjoint(std::span<const float> y, std::span<float> x) const {
  CSCV_CHECK(static_cast<sparse::index_t>(y.size()) == rows_);
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == cols_);
  const auto& specs = backend_->specs();
  in_.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    in_[i] = y.subspan(static_cast<std::size_t>(row_offset_[i]),
                       static_cast<std::size_t>(specs[i].local_rows()));
  }
  backend_->apply_all(ApplyOp::kAdjoint, -1, in_, parts_);
  reduce_parts(x);
}

int ShardedOperator::stratum_of(const core::GroupSubset& subset, int num_rhs) const {
  CSCV_CHECK_MSG(num_rhs == 1, "a sharded operator applies one column at a time");
  const int strata = shard_strata(backend_->specs()[0]);
  CSCV_CHECK_MSG(subset.count == strata && subset.first_group == 0 && subset.index >= 0 &&
                     subset.index < subset.count,
                 "subset " << subset.index << " of " << subset.count
                           << " is not a stratum of the shards' " << strata);
  return subset.index;
}

void ShardedOperator::forward_subset(const core::GroupSubset& subset, std::span<const float> x,
                                     std::span<float> y, int num_rhs) const {
  const int stratum = stratum_of(subset, num_rhs);
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<sparse::index_t>(y.size()) == rows_);
  const auto& specs = backend_->specs();
  in_.assign(specs.size(), x);
  backend_->apply_all(ApplyOp::kForward, stratum, in_, parts_);
  // Each shard's compacted stratum rows go back to their global rows.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::size_t at = 0;
    for (const auto& [r0, len] : stratum_ranges(specs[i], stratum)) {
      CSCV_CHECK(at + len <= parts_[i].size());
      std::copy_n(parts_[i].begin() + static_cast<std::ptrdiff_t>(at), len,
                  y.begin() + row_offset_[i] + static_cast<std::ptrdiff_t>(r0));
      at += len;
    }
    CSCV_CHECK(at == parts_[i].size());
  }
}

void ShardedOperator::adjoint_subset(const core::GroupSubset& subset, std::span<const float> y,
                                     std::span<float> x, int num_rhs) const {
  const int stratum = stratum_of(subset, num_rhs);
  CSCV_CHECK(static_cast<sparse::index_t>(y.size()) == rows_);
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == cols_);
  const auto& specs = backend_->specs();
  // Each shard gets its stratum rows, compacted in stratum_ranges order.
  stratum_rows_.resize(specs.size());
  in_.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    util::AlignedVector<float>& rows = stratum_rows_[i];
    rows.clear();
    for (const auto& [r0, len] : stratum_ranges(specs[i], stratum)) {
      const auto first = y.begin() + row_offset_[i] + static_cast<std::ptrdiff_t>(r0);
      rows.insert(rows.end(), first, first + static_cast<std::ptrdiff_t>(len));
    }
    in_[i] = rows;
  }
  backend_->apply_all(ApplyOp::kAdjoint, stratum, in_, parts_);
  reduce_parts(x);
}

util::AlignedVector<float> ShardedOperator::subset_col_sums(
    const core::GroupSubset& subset) const {
  const int stratum = stratum_of(subset, 1);
  in_.assign(backend_->specs().size(), std::span<const float>());
  backend_->apply_all(ApplyOp::kColSums, stratum, in_, parts_);
  util::AlignedVector<float> sums(static_cast<std::size_t>(cols_));
  reduce_parts(sums);
  return sums;
}

void ShardedOperator::reduce_parts(std::span<float> x) const {
  // Fixed shard-ordered reduce: copy shard 0, accumulate 1..N-1 through the
  // shared colmath primitive. Run-to-run deterministic for every N; at N=1
  // the copy is the serial adjoint bit for bit.
  const auto cols = static_cast<std::size_t>(cols_);
  CSCV_CHECK(parts_[0].size() == cols);
  std::copy(parts_[0].begin(), parts_[0].end(), x.begin());
  for (std::size_t i = 1; i < parts_.size(); ++i) {
    CSCV_CHECK(parts_[i].size() == cols);
    recon::colmath::accumulate(x.data(), parts_[i].data(), cols);
  }
}

// ---- job-level entry points ------------------------------------------------

std::vector<ShardSpec> make_shard_specs(const pipeline::ReconJob& job, int num_shards) {
  CSCV_CHECK_MSG(num_shards >= 1, "num_shards must be positive");
  job.geometry.validate();
  const std::vector<std::uint64_t> nnz = ct::count_view_nnz(job.geometry);
  const std::vector<ViewRange> ranges = partition_views(nnz, num_shards, job.cscv.s_vvec);
  std::vector<ShardSpec> specs;
  specs.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    specs.push_back(ShardSpec{.shard_id = static_cast<std::uint32_t>(i),
                              .num_shards = static_cast<std::uint32_t>(ranges.size()),
                              .view_begin = ranges[i].begin,
                              .view_end = ranges[i].end,
                              .geometry = job.geometry,
                              .cscv = job.cscv,
                              .variant = job.variant,
                              .algorithm = job.algorithm,
                              .os_sart_subsets = job.os_sart_subsets});
  }
  return specs;
}

ShardedRunResult run_sharded_job(ShardBackend& backend, const pipeline::ReconJob& job) {
  const auto& specs = backend.specs();
  check_partition(specs);
  CSCV_CHECK_MSG(specs[0].geometry == job.geometry &&
                     specs[0].algorithm == job.algorithm,
                 "backend shards were built for a different problem than the job");
  CSCV_CHECK_MSG(static_cast<sparse::index_t>(job.sinogram.size()) ==
                     job.geometry.num_rows(),
                 "sinogram has " << job.sinogram.size() << " elements, geometry wants "
                                 << job.geometry.num_rows());

  if (job.algorithm == pipeline::Algorithm::kFbp) {
    throw ShardError("fbp does not shard: nothing to scatter/reduce per iteration");
  }
  ShardedRunResult result;
  result.volume.assign(static_cast<std::size_t>(job.geometry.num_cols()), 0.0f);
  const ShardedOperator op(backend);
  result.stats =
      job.algorithm == pipeline::Algorithm::kCgls
          ? recon::cgls<float>(op, job.sinogram, result.volume, job.solve)
          : recon::os_sart<float>(op, job.sinogram, result.volume, job.sart_subsets(),
                                  job.solve);
  return result;
}

}  // namespace cscv::dist

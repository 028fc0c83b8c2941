// The solver-facing face of the dist subsystem.
//
// ShardedOperator adapts a ShardBackend to recon::LinearOperator<float>, so
// the stock SIRT/OS-SART/CGLS bodies iterate over a sharded operator
// without modification: forward scatters the image to every shard and
// places the per-shard projections at their global rows (pure data
// movement — no arithmetic is introduced); adjoint slices the sinogram by
// shard and reduces the per-shard backprojections in FIXED shard-id order
// (copy shard 0, then colmath::accumulate shards 1..N-1 — the determinism
// contract of docs/SHARDING.md). OS-SART's stratum applies are the same
// two moves over each shard's compacted stratum rows (stratum_ranges).
#pragma once

#include <span>
#include <vector>

#include "dist/coordinator.hpp"
#include "pipeline/job.hpp"
#include "recon/solvers.hpp"
#include "util/aligned_vector.hpp"

namespace cscv::dist {

class ShardedOperator final : public recon::LinearOperator<float> {
 public:
  /// The backend's specs must be a partition: shard_id i at index i, view
  /// ranges contiguous from 0 to num_views, one shared geometry/algorithm.
  /// CheckError otherwise.
  explicit ShardedOperator(ShardBackend& backend);

  [[nodiscard]] sparse::index_t rows() const override { return rows_; }
  [[nodiscard]] sparse::index_t cols() const override { return cols_; }
  void forward(std::span<const float> x, std::span<float> y) const override;
  void adjoint(std::span<const float> y, std::span<float> x) const override;
  // row_sums/col_sums stay the LinearOperator defaults (forward/adjoint of
  // ones) — the same route serial SIRT takes through PlanOperator at
  // num_rhs == 1, which is what makes the N=1 bitwise contract hold.

  /// The global problem's view groups; shards hold whole ones.
  [[nodiscard]] int view_groups() const override { return view_groups_; }
  [[nodiscard]] std::size_t group_rows() const override { return group_rows_; }
  /// Stratum applies (num_rhs == 1): subset.count must be the shards'
  /// stratum count (shard_strata). One round trip each.
  void forward_subset(const core::GroupSubset& subset, std::span<const float> x,
                      std::span<float> y, int num_rhs) const override;
  void adjoint_subset(const core::GroupSubset& subset, std::span<const float> y,
                      std::span<float> x, int num_rhs) const override;
  /// The shards' partial A_s^T 1 (kColSums), reduced in shard-id order.
  [[nodiscard]] util::AlignedVector<float> subset_col_sums(
      const core::GroupSubset& subset) const override;

 private:
  /// The stratum index `subset` names on the shards; CheckError otherwise.
  int stratum_of(const core::GroupSubset& subset, int num_rhs) const;
  /// x = the shard-ordered sum of parts_ (copy shard 0, accumulate 1..N-1).
  void reduce_parts(std::span<float> x) const;

  ShardBackend* backend_;
  sparse::index_t rows_ = 0;
  sparse::index_t cols_ = 0;
  int view_groups_ = 1;
  std::size_t group_rows_ = 0;
  std::vector<sparse::index_t> row_offset_;  // per shard
  // apply_all scratch, reused across iterations.
  mutable std::vector<std::span<const float>> in_;
  mutable std::vector<util::AlignedVector<float>> parts_;
  mutable std::vector<util::AlignedVector<float>> stratum_rows_;
};

/// Validates that `specs` partition the problem ShardedOperator expects —
/// contiguous ranges of whole view groups. CheckError on violations.
void check_partition(const std::vector<ShardSpec>& specs);

/// Splits `job`'s problem into `num_shards` specs along nnz-balanced
/// view-group boundaries (ct::count_view_nnz + partition_views). May return
/// fewer shards than requested when view groups run out.
[[nodiscard]] std::vector<ShardSpec> make_shard_specs(const pipeline::ReconJob& job,
                                                      int num_shards);

struct ShardedRunResult {
  util::AlignedVector<float> volume;
  recon::RunStats stats;
};

/// Runs `job` on the backend through ShardedOperator into the stock
/// solvers. x starts at zero. ShardError for algorithms that do not shard
/// (kFbp).
[[nodiscard]] ShardedRunResult run_sharded_job(ShardBackend& backend,
                                               const pipeline::ReconJob& job);

}  // namespace cscv::dist

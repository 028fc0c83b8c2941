// The solver-facing face of the dist subsystem.
//
// ShardedOperator adapts a ShardBackend to recon::LinearOperator<float>, so
// the existing SIRT/CGLS implementations iterate over a sharded operator
// without modification: forward scatters the image to every shard and
// concatenates the per-shard projections at their row offsets (pure data
// movement — no arithmetic is introduced); adjoint slices the sinogram by
// shard and reduces the per-shard backprojections in FIXED shard-id order
// (copy shard 0, then colmath::accumulate shards 1..N-1 — the determinism
// contract of docs/SHARDING.md).
//
// OS-SART cannot ride LinearOperator (its updates are per stratum), so
// sharded_os_sart() mirrors recon::os_sart's iteration line for line with
// the stratum applies (whole view groups) going through the backend.
#pragma once

#include <span>
#include <vector>

#include "dist/coordinator.hpp"
#include "pipeline/job.hpp"
#include "recon/os_sart.hpp"
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

 private:
  ShardBackend* backend_;
  sparse::index_t rows_ = 0;
  sparse::index_t cols_ = 0;
  std::vector<sparse::index_t> row_offset_;  // per shard
  // apply_all scratch, reused across iterations.
  mutable std::vector<std::span<const float>> in_;
  mutable std::vector<util::AlignedVector<float>> parts_;
};

/// Validates that `specs` partition the problem ShardedOperator expects —
/// contiguous ranges of whole view groups; shared by the operator and
/// sharded_os_sart. CheckError on violations.
void check_partition(const std::vector<ShardSpec>& specs);

/// OS-SART over a sharded backend. Mirrors recon::os_sart exactly — same
/// strata (view groups g % n == k, n = shard_strata), same stratum order and
/// stratum-0 reuse, same colmath update calls, normalizers fetched from the
/// shards (kRowSums/kColSums) and reduced in shard order.
/// options.num_subsets must equal the os_sart_subsets the shards were
/// built with.
recon::RunStats sharded_os_sart(ShardBackend& backend, std::span<const float> b,
                                std::span<float> x,
                                const recon::OsSartOptions& options = {});

/// Splits `job`'s problem into `num_shards` specs along nnz-balanced
/// view-group boundaries (ct::count_view_nnz + partition_views). May return
/// fewer shards than requested when view groups run out.
[[nodiscard]] std::vector<ShardSpec> make_shard_specs(const pipeline::ReconJob& job,
                                                      int num_shards);

struct ShardedRunResult {
  util::AlignedVector<float> volume;
  recon::RunStats stats;
};

/// Runs `job` on the backend: kSirt/kCgls through ShardedOperator into the
/// stock solvers, kOsSart through sharded_os_sart. x starts at zero.
/// ShardError for algorithms that do not shard (kFbp).
[[nodiscard]] ShardedRunResult run_sharded_job(ShardBackend& backend,
                                               const pipeline::ReconJob& job);

}  // namespace cscv::dist

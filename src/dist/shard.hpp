// One shard's operator state, worker-side: the CSCV matrix (+ plan) of a
// contiguous range of whole view groups, for every algorithm. Built from a
// ShardSpec by the exact same code paths the serial pipeline uses
// (ct::build_system_matrix_csc_range / CscvMatrix::build), so a single
// shard covering [0, num_views) is bit-for-bit the serial operator — the
// anchor of the N=1 determinism contract (docs/SHARDING.md). OS-SART
// strata are the plan's group subsets, offset by the shard's first global
// view group, so they stay chosen by global group.
//
// Everything here is single-threaded by contract: plans are built with
// threads = 1 and callers pin util::set_num_threads(1), so shard results
// do not depend on which box they ran on.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "dist/protocol.hpp"
#include "util/aligned_vector.hpp"

namespace cscv::dist {

struct Shard {
  ShardSpec spec;
  core::OperatorLayout local_layout;  // num_views = spec.num_local_views()
  std::shared_ptr<core::CscvMatrix<float>> cscv;
  /// The single-threaded single-RHS plan every apply runs, built once by
  /// build_shard.
  std::shared_ptr<const core::SpmvPlan<float>> plan;

  std::uint64_t nnz = 0;
  bool restored_from_spill = false;
  double build_seconds = 0.0;
};

/// The OS-SART stratum count of the spec's global problem:
/// recon::os_sart_strata over its view groups.
[[nodiscard]] int shard_strata(const ShardSpec& spec);

/// Local row ranges {begin, length} of global OS-SART stratum `subset` on
/// the shard: its view groups g (global index) with g % strata == subset,
/// ascending, each group's rows whole. Concatenated over shards in shard
/// order they list the stratum's rows in global order. Empty when the
/// shard holds none of the stratum's groups.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> stratum_ranges(
    const ShardSpec& spec, int subset);

/// Builds (or restores from `spill_dir`) the shard.
/// Spill files are keyed by the global MatrixKey fingerprint plus the view
/// range, written atomically (tmp + rename), and verified on load; any
/// restore failure silently falls back to a fresh build.
[[nodiscard]] Shard build_shard(const ShardSpec& spec, const std::string& spill_dir);

/// Dispatches one apply on the shard. `subset` is an OS-SART global stratum
/// index or -1 for the whole shard; stratum rows are those of
/// stratum_ranges, concatenated. Input/output lengths by op:
///   kForward  subset<0: in cols           -> out shard rows
///   kForward  subset>=0: in cols          -> out stratum rows
///   kAdjoint  subset<0: in shard rows     -> out cols
///   kAdjoint  subset>=0: in stratum rows  -> out cols
///   kRowSums  subset>=0: in empty         -> out stratum rows
///   kColSums  subset>=0: in empty         -> out cols
/// Throws CheckError on length/op/subset mismatches.
void apply_shard(const Shard& shard, ApplyOp op, int subset,
                 std::span<const float> in, util::AlignedVector<float>& out);

}  // namespace cscv::dist

// One shard's operator state, worker-side: the CSCV matrix (+ plan) of a
// contiguous view range for SIRT/CGLS, or the range's CSR plus its
// per-global-subset strata and their sums for OS-SART. Built from a
// ShardSpec by the exact same code paths the serial pipeline uses
// (ct::build_system_matrix_csc_range / CscvMatrix::build / csr_from_csc /
// recon::split_view_subsets), so a single shard covering [0, num_views) is
// bit-for-bit the serial operator — the anchor of the N=1 determinism
// contract (docs/SHARDING.md).
//
// Everything here is single-threaded by contract: plans are built with
// threads = 1 and callers pin util::set_num_threads(1), because the CSR
// transpose reduction is thread-count-dependent and shard results must not
// depend on which box they ran on.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "dist/protocol.hpp"
#include "sparse/csr.hpp"
#include "util/aligned_vector.hpp"

namespace cscv::dist {

struct Shard {
  ShardSpec spec;
  core::OperatorLayout local_layout;  // num_views = spec.num_local_views()

  /// SIRT/CGLS engine (null for kOsSart).
  std::shared_ptr<core::CscvMatrix<float>> cscv;
  /// OS-SART engines (empty for the CSCV algorithms): the shard's CSR and
  /// one stratum per GLOBAL subset s — the shard's views v with
  /// v % num_subsets == s, ascending, bins inner (recon::split_view_subsets
  /// with the shard's first view as offset). A subset with no local views
  /// gets an empty (0-row) matrix. Each stratum's sums A_s 1 and A_s^T 1 are
  /// computed once at build, at the thread count the shard then applies at
  /// (see above), so kRowSums/kColSums answer from memory.
  struct Stratum {
    sparse::CsrMatrix<float> matrix;
    util::AlignedVector<float> row_sums;
    util::AlignedVector<float> col_sums;
  };
  std::shared_ptr<sparse::CsrMatrix<float>> csr;
  std::vector<Stratum> strata;

  std::uint64_t nnz = 0;
  bool restored_from_spill = false;
  double build_seconds = 0.0;

  /// The single-threaded single-RHS plan (cached inside the matrix).
  [[nodiscard]] const core::SpmvPlan<float>& plan() const {
    return cscv->plan({.threads = 1});
  }
};

/// Builds (or restores from `spill_dir`, CSCV algorithms only) the shard.
/// Spill files are keyed by the global MatrixKey fingerprint plus the view
/// range, written atomically (tmp + rename), and verified on load; any
/// restore failure silently falls back to a fresh build.
[[nodiscard]] Shard build_shard(const ShardSpec& spec, const std::string& spill_dir);

/// Dispatches one apply on the shard. `subset` is an OS-SART global subset
/// index or -1 for the whole shard. Input/output lengths by op:
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

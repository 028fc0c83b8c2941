// SpmvPlan — the reusable execution context of the CSCV runtime.
//
// Iterative CT reconstruction calls SpMV thousands of times on the same
// matrix (SIRT / OS-SART / CGLS, paper Section III). Everything that does
// not depend on the vector values is therefore hoisted out of the apply
// path into a plan built once per (matrix, thread count, scheme, expand
// path, num_rhs):
//
//   * thread scheme + expand path resolution (was: every call),
//   * the S_VVec x S_VxG x K kernel template dispatch, resolved to function
//     pointers via dispatch.hpp (was: a switch ladder per block loop),
//   * an nnz-weighted block partition — threads are assigned contiguous
//     ranges by prefix sums of per-block VxG counts instead of equal block
//     counts, so sparse corner tiles can't starve a thread's peers,
//   * per-thread aligned y~ scratch and, for the private-y scheme, the
//     threads x m reduction pool, allocated once; each thread re-zeroes
//     only the row interval its blocks can touch, so the warm path
//     performs no heap allocation and no full threads x m fill.
//
// On a folded matrix (format.hpp) a full apply runs the stored quarter once
// at 4 * num_rhs columns over the four permuted images of x, and writes
// each row from the image that owns its view; subset applies keep their
// meaning over the operator's view groups (docs/FORMAT.md §9).
//
// A plan is the only way to apply a CscvMatrix: callers build one and hold
// it for as long as they iterate. It stays *correct* if util::max_threads()
// changes after construction (partition slots are striped over however many
// OpenMP threads show up), but it is tuned for the thread count it was
// built with, so a caller that changes the thread count builds a new plan.
// A plan owns mutable scratch: concurrent execute() calls on one plan are
// not allowed (use one plan per caller thread).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"
#include "core/format.hpp"
#include "util/aligned_vector.hpp"
#include "util/telemetry.hpp"

namespace cscv::core {

/// Snapshot returned by SpmvPlan::stats(): the structural half (padding,
/// work and traffic volumes, partition shape) is always available; the
/// dynamic half (call counts, timings, derived rates) is populated only
/// when the library is built with -DCSCV_TELEMETRY=ON and reads as zero
/// otherwise. Padding fraction and GFLOP/s follow the paper's definitions
/// (fig5 / fig4 benches): padding counts zero slots of nnz(A~), GFLOP/s
/// counts only original nonzeros as useful work.
struct PlanStats {
  // ---- structural (always filled) --------------------------------------
  std::uint64_t nnz = 0;             // original nonzeros of A
  std::uint64_t padded_values = 0;   // logical CSCVE slots, nnz(A~)
  std::uint64_t stored_values = 0;   // physical values (kZ: padded, kM: nnz)
  double padding_fraction = 0.0;     // zero slots / nnz(A~) = 1 - occupancy
  double r_nnze = 0.0;               // the paper's nnz(A~)/nnz(A) - 1
  double vxg_occupancy = 0.0;        // nnz / nnz(A~), SIMD lane utilization
  std::uint64_t num_vxgs = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t nonempty_blocks = 0;
  std::uint64_t flops_per_apply = 0;         // useful: 2 * nnz * num_rhs
  std::uint64_t padded_flops_per_apply = 0;  // issued by kZ: 2 * nnz(A~) * num_rhs
  std::uint64_t matrix_bytes = 0;            // M(A) per apply
  std::uint64_t vector_bytes_per_apply = 0;  // x read + y written once
  std::uint64_t scratch_bytes = 0;
  int threads = 0;
  int num_rhs = 1;
  ThreadScheme scheme = ThreadScheme::kRowPartition;
  bool hardware_expand = false;
  /// The kernel ISA tier this plan dispatched to (docs/DISPATCH.md), plus
  /// whether it was forced (CSCV_FORCE_ISA / PlanOptions::isa) and whether
  /// the request had to be clamped to a tier the binary/CPU actually has —
  /// the telemetry trail for "why is this not running AVX-512?".
  simd::IsaTier isa_tier = simd::IsaTier::kGeneric;
  bool isa_forced = false;
  bool isa_clamped = false;
  /// Storage dtype of the matrix values this plan streams, and the bytes
  /// each stored value occupies (2 for bf16/fp16 — docs/PRECISION.md).
  ValueType value_type = ValueType::kF32;
  std::uint64_t bytes_per_value = sizeof(float);
  /// The matrix stores a quarter of the views and each full apply runs it
  /// over four permuted images (format.hpp). nnz and the flop counts are
  /// the operator's; matrix bytes, padding and occupancy the quarter's.
  bool folded = false;
  /// max/mean of per-slot VxG work — 1.0 is a perfectly balanced partition.
  double load_imbalance = 0.0;

  // ---- dynamic (zero unless built with CSCV_TELEMETRY) -----------------
  bool telemetry_enabled = false;
  std::uint64_t applies = 0;
  std::uint64_t transpose_applies = 0;
  double plan_build_seconds = 0.0;
  double apply_seconds_total = 0.0;
  double apply_seconds_min = 0.0;
  double transpose_seconds_total = 0.0;
  double transpose_seconds_min = 0.0;
  /// View-group subset applies (execute / execute_transpose with a
  /// GroupSubset), counted apart from the full applies above.
  std::uint64_t subset_applies = 0;
  std::uint64_t subset_transpose_applies = 0;
  /// 2 * nnz * num_rhs / apply_seconds_min / 1e9 (best observed apply).
  double gflops_best = 0.0;
  double gflops_avg = 0.0;
  /// (M(A) + vector traffic) / apply_seconds_min, in GB/s.
  double gbytes_per_second_best = 0.0;
  /// The two best-apply rates above over transpose_seconds_min.
  double transpose_gflops_best = 0.0;
  double transpose_gbytes_per_second_best = 0.0;
};

/// A set of view groups — the row unit of every CSCV block: the groups g
/// with (g + first_group) % count == index. `first_group` is the global
/// index of the matrix's group 0, nonzero only when the matrix holds a
/// contiguous group range of a larger problem (a dist shard), so subsets
/// stay chosen by global group. OS-SART's strata are the subsets of one
/// count (recon/solvers.hpp).
struct GroupSubset {
  int count = 1;
  int index = 0;
  int first_group = 0;

  [[nodiscard]] bool contains(int g) const { return (g + first_group) % count == index; }
  /// The lowest local group in the subset; the rest follow every `count`.
  [[nodiscard]] int first_local() const {
    return ((index - first_group) % count + count) % count;
  }
};

template <typename T>
class SpmvPlan {
 public:
  /// Builds a plan for `a`. The matrix must outlive the plan (and not move).
  explicit SpmvPlan(const CscvMatrix<T>& a, const PlanOptions& opts = {});

  /// y = A x (num_rhs == 1) or Y = A X for num_rhs interleaved RHS
  /// (X[col * K + k], Y[row * K + k]): the multi-slice CT case, where K
  /// slices share one pass of the matrix values. x.size() == cols * num_rhs,
  /// y.size() == rows * num_rhs. Kernels are fully vectorized FMAs over
  /// contiguous y~ slots (Algorithm 3 with the gather replaced by zero-init,
  /// since y is overwritten); each block's y~ is added into y in block
  /// order. Under kRowPartition a row's sum does not depend on the thread
  /// count; kPrivateY reduces the per-slot copies in partition order.
  void execute(std::span<const T> x, std::span<T> y) const;

  /// x = A^T y (num_rhs == 1) or X = A^T Y for num_rhs interleaved RHS —
  /// CSCV backprojection (the paper's stated future work). Per block: gather
  /// y into y~ with iota_k, then each VxG reduces to one x entry in a fixed
  /// order: one partial sum per view lane over the S_VxG CSCVEs, a pairwise
  /// tree over the lanes, then x[col] += in block order; folded, the four
  /// images add as ((I + T) + R) + M per pixel. Slots partition image
  /// tiles, whose x ranges are disjoint, so the result does not depend on
  /// the thread count, and column k is bitwise identical to a single-RHS
  /// transpose of that column. y.size() == rows * num_rhs,
  /// x.size() == cols * num_rhs.
  void execute_transpose(std::span<const T> y, std::span<T> x) const;

  /// y = A_s x over the rows of subset s's view groups only; every other
  /// row of y is left untouched. Slots own whole groups whatever the
  /// plan's scheme, so each written row is bitwise that row of a
  /// row-partition execute(). Sizes as execute(). The groups are the
  /// operator's (CscvMatrix::view_groups()), folded or not.
  void execute(const GroupSubset& subset, std::span<const T> x, std::span<T> y) const;
  /// x = A_s^T y: execute_transpose over subset s's groups only (in the
  /// same ascending group order, so independent of the thread count). Only
  /// the subset's rows of y are read. Sizes as execute_transpose().
  void execute_transpose(const GroupSubset& subset, std::span<const T> y,
                         std::span<T> x) const;

  /// A 1 and A^T 1 (rows and cols long): the SIRT normalizers, computed
  /// through execute() / execute_transpose() the first time each is asked
  /// for and kept, so a plan that outlives one solve pays for them once.
  /// On a num_rhs > 1 plan the ones are replicated across the batch and
  /// column 0 is kept; every column of a fused apply is bitwise the
  /// single-RHS apply. Same concurrency rule as execute().
  [[nodiscard]] std::span<const T> row_sums() const { return sums_of_ones(false); }
  [[nodiscard]] std::span<const T> col_sums() const { return sums_of_ones(true); }
  /// A_s^T 1 through execute_transpose(subset, ...), memoized for every
  /// subset of the last (count, first_group) asked for; asking for another
  /// count drops the memo (and invalidates its spans), which bounds it at
  /// one count's worth. A subset's row sums are its rows of row_sums().
  /// Same concurrency rule as execute().
  [[nodiscard]] std::span<const T> col_sums(const GroupSubset& subset) const;

  // ---- introspection ---------------------------------------------------
  [[nodiscard]] const CscvMatrix<T>* matrix() const { return a_; }
  /// Partition slots == the thread count the plan was built for.
  [[nodiscard]] int threads() const { return threads_; }
  /// The scheme after kAuto resolution.
  [[nodiscard]] ThreadScheme scheme() const { return scheme_; }
  [[nodiscard]] bool hardware_expand() const { return use_hw_; }
  /// The kernel ISA tier the plan resolved (never kAuto).
  [[nodiscard]] simd::IsaTier isa_tier() const { return tier_.tier; }
  /// The storage dtype the plan's kernels decode: the matrix's at build.
  [[nodiscard]] ValueType value_type() const { return value_type_; }
  [[nodiscard]] int num_rhs() const { return num_rhs_; }
  /// VxGs assigned to each forward-partition slot (load-balance checks).
  [[nodiscard]] std::span<const std::uint64_t> work_per_slot() const { return work_; }
  /// Scratch + reduction-pool + folded-image footprint in bytes.
  [[nodiscard]] std::size_t scratch_bytes() const {
    return (ytilde_pool_.size() + copies_.size() + images_.size() + image_rows_.size()) *
           sizeof(T);
  }

  /// Telemetry snapshot (see PlanStats). The structural half is free; the
  /// dynamic half aggregates the counters recorded by execute()/
  /// execute_transpose() when the build has CSCV_TELEMETRY on.
  [[nodiscard]] PlanStats stats() const;
  /// Clears the dynamic counters (no-op without CSCV_TELEMETRY).
  void reset_telemetry() { counters_.reset(); }

 private:
  [[nodiscard]] T* ytilde_slot(int slot) const {
    return ytilde_pool_.data() + static_cast<std::size_t>(slot) * ytilde_stride_;
  }
  // The block loops run the stored views at RHS width k: k_stored_ for a
  // full apply, num_rhs_ for one image of a folded subset apply.
  void scatter_add(int block, const T* ytilde, T* dst, int k) const;
  void gather(int block, const T* src, T* ytilde, int k) const;
  void run_forward(int block, const T* x, T* ytilde, int k) const;
  /// The row-partition block loop: zeroes and fills the rows of the stored
  /// groups g with pick(g).
  template <typename Pick>
  void forward_groups(Pick pick, const T* x, T* y, int k) const;
  /// A full forward of the stored views at k_stored_, by the plan's scheme.
  void forward_stored(const T* x, T* y) const;
  /// The tile-partition block loop over the stored groups g with pick(g).
  template <typename Pick>
  void transpose_groups(Pick pick, const T* y, T* x, int k) const;

  // ---- folded matrices: the four images (ct::ViewFold) -----------------
  /// out[j * stride + (f - f0) * num_rhs + r] = x at the pixel image f's
  /// pixel j reads, column r, for images f in [f0, f1).
  void load_images(const T* x, int f0, int f1, std::size_t stride, T* out) const;
  /// For stored view v and image f in [f0, f1): the rows of the full view
  /// f fills from v, when f owns v and want(view), else zeros.
  template <typename Want>
  void load_rows(const T* y, int f0, int f1, std::size_t stride, Want want, T* rows) const;
  /// Writes each full view w with want(w) whose owner is in [f0, f1) from
  /// its owner's stored rows.
  template <typename Want>
  void store_rows(const T* rows, int f0, int f1, std::size_t stride, Want want, T* y) const;
  /// x = ((I + T) + R) + M at every pixel, image f's pixel j at
  /// images[f * image_offset + j * stride].
  void sum_images(const T* images, std::size_t image_offset, std::size_t stride, T* x) const;
  /// Whether image f's rows of stored group g fill a full view of `subset`,
  /// and whether any stored group's do.
  [[nodiscard]] bool pair_in(const GroupSubset& subset, int g, int f) const;
  [[nodiscard]] bool image_in(const GroupSubset& subset, int f) const;

  void check_sizes(std::size_t x_size, std::size_t y_size) const;
  [[nodiscard]] std::span<const T> sums_of_ones(bool transpose) const;

  const CscvMatrix<T>* a_ = nullptr;
  int threads_ = 1;          // partition slots
  int num_rhs_ = 1;
  ThreadScheme scheme_ = ThreadScheme::kRowPartition;  // resolved, never kAuto
  bool use_hw_ = false;
  ValueType value_type_ = ValueType::kF32;
  dispatch::TierChoice tier_;  // resolved ISA tier (level-one dispatch)
  dispatch::KernelSet<T> kernels_;  // for k_stored_ columns

  // A folded matrix runs its stored quarter once per full apply over the
  // four images of x, k_stored_ = 4 * num_rhs_ columns; a subset apply runs
  // one image at a time at num_rhs_ through image_kernels_.
  bool folded_ = false;
  int k_stored_ = 1;
  OperatorLayout stored_;  // the matrix's stored views
  dispatch::KernelSet<T> image_kernels_;
  mutable util::AlignedVector<T> images_;      // folded: cols * k_stored_
  mutable util::AlignedVector<T> image_rows_;  // folded: stored rows * k_stored_

  // Forward partition: view-group granularity for kRowPartition, block
  // granularity (plus per-slot touchable row intervals, in y-element units)
  // for kPrivateY. Transpose partition: image-tile granularity.
  std::vector<std::size_t> group_bounds_;
  std::vector<std::size_t> block_bounds_;
  std::vector<std::pair<std::size_t, std::size_t>> row_interval_;
  std::vector<std::size_t> tile_bounds_;
  std::vector<std::uint64_t> work_;

  std::size_t ytilde_stride_ = 0;
  mutable util::AlignedVector<T> ytilde_pool_;  // threads_ * ytilde_stride_
  mutable util::AlignedVector<T> copies_;       // kPrivateY: threads_ * rows * num_rhs
  mutable util::AlignedVector<T> row_sums_;     // memo of row_sums(), empty until asked
  mutable util::AlignedVector<T> col_sums_;     // memo of col_sums(), empty until asked
  // Memo of col_sums(subset): one vector per index of subset_sums_for_'s
  // (count, first_group), each empty until asked.
  mutable GroupSubset subset_sums_for_;
  mutable std::vector<util::AlignedVector<T>> subset_col_sums_;

  // Empty when CSCV_TELEMETRY is off — overlaps other members, adds no
  // state and no codegen (verified by tests/cscv/test_telemetry.cpp).
  [[no_unique_address]] mutable util::telemetry::Counters counters_;
};

}  // namespace cscv::core

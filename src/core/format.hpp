// CscvMatrix — the paper's Compressed Sparse Column Vector format.
//
// Structure (Section IV):
//   * The matrix is cut into blocks: a view group of S_VVec consecutive
//     views x an S_ImgB x S_ImgB pixel tile.
//   * Per block, IOBLR re-indexes the touched sinogram entries by
//     (bin offset o from the reference trajectory, view lane vi); the local
//     output vector y~ has o_count * S_VVec contiguous slots.
//   * A CSCVE is one offset row of y~ for one column: S_VVec values (some
//     padding zeros) that FMA against S_VVec contiguous y~ slots.
//   * A VxG concatenates S_VxG CSCVEs of one column at consecutive offsets,
//     so one index pair (column, start slot) covers S_VxG * S_VVec values.
//
// Two storage variants:
//   * kZ — padding zeros stored in-line; lowest instruction count.
//   * kM — padding removed; values packed, one S_VVec-bit mask per CSCVE,
//     re-expanded in the kernel via vexpand / soft-vexpand; lowest traffic.
//
// Folding: when the source matrix is exactly symmetric under a foldable
// scan's 90-degree rotation and 45-degree reflection (ct::ViewFold), only
// views 0..V/4 are stored, and SpmvPlan applies them to four permuted
// images of x at once. The operator's shape, layout, nnz and subsets are
// unchanged; grid, blocks, reference bins and slot rows describe the
// stored quarter (docs/FORMAT.md §9).
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "core/layout.hpp"
#include "core/params.hpp"
#include "core/value_type.hpp"
#include "simd/expand.hpp"
#include "simd/isa.hpp"
#include "sparse/csc.hpp"
#include "sparse/types.hpp"
#include "util/aligned_vector.hpp"

namespace cscv::core {

/// Thread-level scheduling of the block loop (Section IV-E).
enum class ThreadScheme {
  // Row partition when the *stored* view groups (grid().view_groups: the
  // quarter's when folded) are >= threads, else private copies. So a folded
  // 64x64/48 operator at S_VVec 8 (2 stored groups) picks private-y from 3
  // threads up, where its unfolded form (6 groups) would not.
  kAuto,
  kRowPartition,  // threads own whole view groups; scatter straight into y
  kPrivateY,      // threads split blocks; private y copies + reduction
};

template <typename T>
class SpmvPlan;

/// Configuration an SpmvPlan is built for. A plan resolves these once;
/// changing any of them (including the ambient thread count when `threads`
/// is 0) takes a new plan. The value dtype is the matrix's own.
struct PlanOptions {
  ThreadScheme scheme = ThreadScheme::kAuto;
  simd::ExpandPath path = simd::ExpandPath::kAuto;
  int num_rhs = 1;  // interleaved right-hand sides (1 = plain SpMV)
  int threads = 0;  // partition slots; 0 = util::max_threads() at build time
  // Kernel ISA tier (docs/DISPATCH.md). kAuto honors CSCV_FORCE_ISA, then
  // picks the best registered tier for this CPU; a concrete tier pins the
  // plan to it (clamped to what the binary carries — see PlanStats).
  simd::IsaTier isa = simd::IsaTier::kAuto;
};

/// What sparsify() dropped and the certificate it computed. The bound is
/// per-row: for every output row i, |(A_sparse x)_i - (A x)_i| <=
/// row_l1_dropped(i) * max_j|x_j|; max_row_l1 is the max over rows and is
/// stored in the matrix header (docs/PRECISION.md).
struct SparsifyReport {
  double eps = 0.0;
  std::uint64_t dropped = 0;     // entries removed (kM) or zeroed (kZ)
  std::uint64_t kept = 0;        // nonzeros remaining
  double dropped_mass = 0.0;     // total |v| over dropped entries
  double max_row_l1 = 0.0;       // the certified per-row l1 bound
};

template <typename T>
class CscvMatrix {
 public:
  enum class Variant { kZ, kM };

  /// Descriptor of one matrix block. o_min may be negative (bins left of
  /// the reference trajectory); o_count includes slack offsets introduced
  /// by VxG chunking (Fig. 6's red groups).
  struct BlockInfo {
    std::int32_t view_group = 0;
    std::int32_t tile_x = 0;
    std::int32_t tile_y = 0;
    std::int32_t o_min = 0;
    std::int32_t o_count = 0;
    // Always 0. Fills what would be padding before the 8-byte fields, so
    // the table serializes to the same bytes for equal matrices.
    std::int32_t reserved = 0;
    sparse::offset_t vxg_begin = 0;
    sparse::offset_t vxg_end = 0;
    sparse::offset_t val_begin = 0;  // into values_ (packed cursor for kM)
  };
  static_assert(std::has_unique_object_representations_v<BlockInfo>,
                "BlockInfo is written raw to .cscv files: it must have no padding");

  CscvMatrix() = default;

  /// Converts a CSC matrix with integral-operator row/column semantics.
  /// Folds when layout.num_views % 4 == 0 and every entry of a view outside
  /// [0, V/4] equals, bit for bit, the canonical entry at its mapped pixel
  /// (ct::ViewFold) — which ct::build_system_matrix_csc guarantees for a
  /// foldable geometry. Any other matrix builds in full.
  static CscvMatrix build(const sparse::CscMatrix<T>& a, const OperatorLayout& layout,
                          const CscvParams& params, Variant variant);

  // ---- shape and format statistics ------------------------------------
  [[nodiscard]] Variant variant() const { return variant_; }
  [[nodiscard]] const CscvParams& params() const { return params_; }
  /// The operator's layout: rows() x cols() whether folded or not.
  [[nodiscard]] const OperatorLayout& layout() const { return layout_; }
  /// Block grid of the stored views (the quarter when folded).
  [[nodiscard]] const BlockGrid& grid() const { return grid_; }
  [[nodiscard]] sparse::index_t rows() const { return layout_.num_rows(); }
  [[nodiscard]] sparse::index_t cols() const { return layout_.num_cols(); }
  /// View groups of the operator, ceil(num_views / S_VVec): the unit a
  /// GroupSubset names. Equals grid().view_groups unless folded.
  [[nodiscard]] int view_groups() const {
    return (layout_.num_views + params_.s_vvec - 1) / params_.s_vvec;
  }

  /// True when only views 0..V/4 are stored (see the file comment).
  [[nodiscard]] bool folded() const { return folded_; }
  /// Layout of the stored views: the operator's, or views 0..V/4 of it.
  [[nodiscard]] OperatorLayout stored_layout() const {
    return folded_ ? OperatorLayout{layout_.image_size, layout_.num_bins,
                                    ct::ViewFold{layout_.num_views}.quarter_views()}
                   : layout_;
  }

  /// Nonzeros of the operator (the source matrix).
  [[nodiscard]] sparse::offset_t nnz() const { return nnz_; }
  /// Nonzeros of the stored views: nnz() unless folded.
  [[nodiscard]] sparse::offset_t stored_nnz() const { return stored_nnz_; }
  /// Logical CSCVE slots = num_vxgs * S_VxG * S_VVec (the nnz(A~) of the
  /// paper's zero-padding rate).
  [[nodiscard]] sparse::offset_t padded_values() const {
    return num_vxgs() * params_.s_vxg * params_.s_vvec;
  }
  /// Values physically stored: padded for kZ, exactly stored_nnz for kM.
  [[nodiscard]] sparse::offset_t stored_values() const {
    return variant_ == Variant::kZ ? padded_values() : stored_nnz_;
  }
  /// Storage dtype of the value array (docs/PRECISION.md). Always kF32 for
  /// double matrices; float matrices may hold bf16/fp16 after
  /// convert_values() — the kernels widen on load and accumulate in T.
  [[nodiscard]] ValueType value_type() const { return value_type_; }
  /// Bytes per stored value under the current dtype.
  [[nodiscard]] std::size_t value_bytes() const {
    return bytes_per_value(value_type_, sizeof(T));
  }
  /// Epsilon the matrix was sparsified with (0 = never sparsified) and the
  /// certified max per-row l1 mass removed by sparsification plus dtype
  /// rounding: |(A~ x)_i - (A x)_i| <= sparsify_error_bound() * max_j|x_j|.
  [[nodiscard]] double sparsify_eps() const { return sparsify_eps_; }
  [[nodiscard]] double sparsify_error_bound() const { return sparsify_bound_; }
  /// The paper's R_nnzE = nnz(A~)/nnz(A) - 1, over the stored views.
  [[nodiscard]] double r_nnze() const {
    return stored_nnz_ == 0 ? 0.0
                            : static_cast<double>(padded_values()) /
                                      static_cast<double>(stored_nnz_) -
                                  1.0;
  }
  [[nodiscard]] sparse::offset_t num_vxgs() const {
    return static_cast<sparse::offset_t>(vxg_col_.size());
  }
  [[nodiscard]] int num_blocks() const { return static_cast<int>(blocks_.size()); }
  /// Matrix bytes read per SpMV iteration (values + masks + VxG index +
  /// block table + reference curves) — M(A) in the bandwidth model. A
  /// folded matrix streams its stored quarter once per apply.
  [[nodiscard]] std::size_t matrix_bytes() const;
  /// Largest per-block y~ scratch requirement, in elements.
  [[nodiscard]] std::size_t ytilde_max_slots() const { return ytilde_max_slots_; }

  // ---- storage transforms (docs/PRECISION.md) --------------------------
  /// Re-encodes the value array to `vt` in place (float matrices only for
  /// reduced dtypes; round-to-nearest-even per value). Returns the certified
  /// max per-row l1 rounding mass, which is also added into
  /// sparsify_error_bound(). Converting back to kF32 widens exactly but does
  /// not recover precision already rounded away. A plan built before the
  /// call decodes the old storage: rebuild every SpmvPlan of the matrix.
  double convert_values(ValueType vt);

  /// Drops every stored entry with |v| < eps: kZ zeroes in place (structure
  /// unchanged), kM repacks values and masks so the dropped entries stop
  /// being streamed. Requires kF32 storage (sparsify before convert_values).
  /// The certificate (report.max_row_l1) accumulates into
  /// sparsify_error_bound(). A plan built before the call reads stale
  /// value offsets: rebuild every SpmvPlan of the matrix.
  SparsifyReport sparsify(double eps);

  // ---- introspection (tests, analysis benches) -------------------------
  [[nodiscard]] std::span<const BlockInfo> blocks() const { return blocks_; }
  /// Reference bin r_k(v) per (block, view lane): refs()[block * S_VVec + vi].
  [[nodiscard]] std::span<const sparse::index_t> reference_bins() const { return refs_; }
  [[nodiscard]] std::span<const sparse::index_t> vxg_col() const { return vxg_col_; }
  [[nodiscard]] std::span<const std::int32_t> vxg_q() const { return vxg_q_; }
  /// Value array in arithmetic precision — valid only while value_type() is
  /// kF32 (empty after conversion to a reduced dtype; see values_u16()).
  [[nodiscard]] std::span<const T> values() const { return values_; }
  /// 16-bit value array — populated exactly when value_type() is reduced.
  [[nodiscard]] std::span<const std::uint16_t> values_u16() const { return values16_; }
  [[nodiscard]] std::span<const std::uint16_t> masks() const { return masks_; }

  /// Stored value at flat index i, widened to T whatever the dtype (exact:
  /// both 16-bit encodings widen losslessly). Verify/test convenience, not a
  /// kernel path.
  [[nodiscard]] T stored_value(sparse::offset_t i) const {
    if (value_type_ == ValueType::kF32) return values_[static_cast<std::size_t>(i)];
    if constexpr (std::is_same_v<T, float>) {
      const std::uint16_t bits = values16_[static_cast<std::size_t>(i)];
      return value_type_ == ValueType::kBf16 ? simd::bf16_bits_to_float(bits)
                                             : simd::fp16_bits_to_float(bits);
    } else {
      CSCV_CHECK_MSG(false, "reduced value dtype on a non-float matrix");
      return T(0);  // unreachable
    }
  }

  /// Byte-typed pointer to the value stream starting at element `val_begin`
  /// — what the dispatched kernels consume (they know the dtype they were
  /// resolved for).
  [[nodiscard]] const void* value_ptr(sparse::offset_t val_begin) const {
    if (value_type_ == ValueType::kF32) {
      return values_.data() + static_cast<std::size_t>(val_begin);
    }
    return values16_.data() + static_cast<std::size_t>(val_begin);
  }

  /// Row of the stored views addressed by y~ slot (o_idx, vi) of `block`,
  /// or -1 when the slot is dead (bin off the detector / view past the last
  /// one). Folded, that is a row of views 0..V/4.
  [[nodiscard]] sparse::index_t row_of_slot(int block, int o_idx, int vi) const;

 private:
  Variant variant_ = Variant::kZ;
  CscvParams params_;
  OperatorLayout layout_;
  BlockGrid grid_;
  bool folded_ = false;
  sparse::offset_t nnz_ = 0;
  sparse::offset_t stored_nnz_ = 0;
  std::size_t ytilde_max_slots_ = 0;

  // The VxG-sized arrays skip value-initialisation: the builder's parallel
  // fill writes every element and so first-touches them.
  std::vector<BlockInfo> blocks_;
  util::AlignedVector<sparse::index_t> refs_;          // num_blocks * s_vvec
  util::UninitAlignedVector<sparse::index_t> vxg_col_; // global column per VxG
  util::UninitAlignedVector<std::int32_t> vxg_q_;      // start slot in block y~
  util::UninitAlignedVector<T> values_;                // kZ: VxG-major dense; kM: packed
                                                       //   (kF32 dtype only)
  util::AlignedVector<std::uint16_t> values16_;        // same layout, bf16/fp16 bits
  util::UninitAlignedVector<std::uint16_t> masks_;     // kM: per-CSCVE lane masks
  ValueType value_type_ = ValueType::kF32;
  double sparsify_eps_ = 0.0;    // 0 = never sparsified
  double sparsify_bound_ = 0.0;  // certified max per-row l1 error mass

  template <typename U>
  friend class CscvBuilderAccess;
  template <typename U>
  friend class SpmvPlan;
};

// Note: no `extern template class` here on purpose. The out-of-line members
// are explicitly instantiated member-by-member in builder.cpp /
// serialize.cpp; suppressing implicit instantiation of the whole class would
// also suppress the in-class inline accessors, which unoptimized builds do
// not inline (undefined references at Debug link time).

}  // namespace cscv::core

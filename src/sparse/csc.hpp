// Compressed Sparse Column — the paper's Algorithm 1 baseline.
//
// Column-major twin of CSR; the MKL-CSC stand-in. The parallel kernel uses
// per-thread private y copies plus a reduction, the same scheme the paper
// describes for its own multithreaded CSCV (Section IV-E), because columns
// scatter into shared y rows.
#pragma once

#include <span>

#include "sparse/coo.hpp"
#include "sparse/types.hpp"
#include "util/aligned_vector.hpp"

namespace cscv::sparse {

template <typename T>
class CscMatrix {
 public:
  CscMatrix() = default;

  static CscMatrix from_coo(const CooMatrix<T>& coo);

  /// Takes the arrays as built. They are UninitAlignedVectors: a producer
  /// sizes them without zeroing and writes every element itself (in parallel
  /// where it fills in parallel, so its writes are the first touch).
  CscMatrix(index_t rows, index_t cols, util::UninitAlignedVector<offset_t> col_ptr,
            util::UninitAlignedVector<index_t> row_idx, util::UninitAlignedVector<T> values);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] offset_t nnz() const { return static_cast<offset_t>(values_.size()); }
  [[nodiscard]] Shape shape() const { return {rows_, cols_, nnz()}; }

  [[nodiscard]] std::span<const offset_t> col_ptr() const { return col_ptr_; }
  [[nodiscard]] std::span<const index_t> row_idx() const { return row_idx_; }
  [[nodiscard]] std::span<const T> values() const { return values_; }

  /// y = A x, serial (Algorithm 1 of the paper).
  void spmv_serial(std::span<const T> x, std::span<T> y) const;

  /// y = A x, parallel: column partitioning + per-thread y + reduction.
  void spmv(std::span<const T> x, std::span<T> y) const;

  /// Same, reusing caller-held accumulator scratch: grown on first use to
  /// threads * rows elements, then reused allocation-free across calls.
  void spmv(std::span<const T> x, std::span<T> y, util::AlignedVector<T>& scratch) const;

  /// x = A^T y. CSC of A is CSR of A^T, so this is a gather kernel and
  /// trivially row-parallel — the reason CSC-style formats suit ICD-type
  /// reconstruction algorithms (paper Section III).
  void spmv_transpose(std::span<const T> y, std::span<T> x) const;

  [[nodiscard]] std::size_t matrix_bytes() const;

  [[nodiscard]] CooMatrix<T> to_coo() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  util::UninitAlignedVector<offset_t> col_ptr_;  // cols_ + 1 entries
  util::UninitAlignedVector<index_t> row_idx_;   // nnz entries
  util::UninitAlignedVector<T> values_;          // nnz entries
};

extern template class CscMatrix<float>;
extern template class CscMatrix<double>;

}  // namespace cscv::sparse

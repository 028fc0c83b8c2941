// Linear-operator interface for iterative reconstruction.
//
// Reconstruction algorithms only need y = Ax and x = A^T y; expressing them
// against this interface lets the same SIRT/OS-SART/CGLS code run on CSR,
// CSC, CSCV or sharded engines — the application-level payoff of the paper
// (SpMV is the dominant kernel of iterative CT reconstruction). OS-SART's
// strata are sets of view groups, so the interface also names its row
// groups and applies a GroupSubset of them; the full apply is the
// one-subset case.
#pragma once

#include <cstddef>
#include <span>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "util/aligned_vector.hpp"
#include "util/assertx.hpp"

namespace cscv::recon {

template <typename T>
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  [[nodiscard]] virtual sparse::index_t rows() const = 0;
  [[nodiscard]] virtual sparse::index_t cols() const = 0;
  /// y = A x.
  virtual void forward(std::span<const T> x, std::span<T> y) const = 0;
  /// x = A^T y.
  virtual void adjoint(std::span<const T> y, std::span<T> x) const = 0;

  /// Y = A X for num_rhs interleaved columns (X[col * K + k],
  /// Y[row * K + k]) — the strided multi-column apply batched solvers
  /// advance k reconstructions with. num_rhs == 1 is the plain forward.
  /// The default de-interleaves into temporaries and applies column by
  /// column, so column k always equals the single-RHS apply bitwise;
  /// engines with native SpMM (CSCV, CSR) override with one fused
  /// traversal that preserves the same per-column guarantee.
  virtual void forward_batch(std::span<const T> x, std::span<T> y, int num_rhs) const {
    if (num_rhs == 1) {
      forward(x, y);
      return;
    }
    apply_columns(x, y, num_rhs, /*transpose=*/false);
  }
  /// X = A^T Y, num_rhs interleaved columns; see forward_batch.
  virtual void adjoint_batch(std::span<const T> y, std::span<T> x, int num_rhs) const {
    if (num_rhs == 1) {
      adjoint(y, x);
      return;
    }
    apply_columns(y, x, num_rhs, /*transpose=*/true);
  }

 private:
  void apply_columns(std::span<const T> in, std::span<T> out, int num_rhs,
                     bool transpose) const {
    const auto k = static_cast<std::size_t>(num_rhs);
    const auto in_len = static_cast<std::size_t>(transpose ? rows() : cols());
    const auto out_len = static_cast<std::size_t>(transpose ? cols() : rows());
    util::AlignedVector<T> in_col(in_len);
    util::AlignedVector<T> out_col(out_len);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t i = 0; i < in_len; ++i) in_col[i] = in[i * k + c];
      if (transpose) {
        adjoint(in_col, out_col);
      } else {
        forward(in_col, out_col);
      }
      for (std::size_t i = 0; i < out_len; ++i) out[i * k + c] = out_col[i];
    }
  }

 public:

  /// The rows fall into view_groups() groups of group_rows() consecutive
  /// rows each (the last may be shorter): the unit a GroupSubset names, and
  /// so the unit of OS-SART's strata. Default: one group of rows() rows.
  [[nodiscard]] virtual int view_groups() const { return 1; }
  [[nodiscard]] virtual std::size_t group_rows() const {
    return static_cast<std::size_t>(rows());
  }

  /// Y = A_s X over the rows of `subset`'s view groups only (num_rhs
  /// interleaved columns, sizes as forward_batch); every other row of y is
  /// left untouched. The full apply is the one-subset case, and the default
  /// serves only that.
  virtual void forward_subset(const core::GroupSubset& subset, std::span<const T> x,
                              std::span<T> y, int num_rhs) const {
    CSCV_CHECK_MSG(subset.count == 1, "this operator applies no view-group subsets");
    forward_batch(x, y, num_rhs);
  }
  /// X = A_s^T Y, reading only the rows of `subset`'s view groups.
  virtual void adjoint_subset(const core::GroupSubset& subset, std::span<const T> y,
                              std::span<T> x, int num_rhs) const {
    CSCV_CHECK_MSG(subset.count == 1, "this operator applies no view-group subsets");
    adjoint_batch(y, x, num_rhs);
  }
  /// A_s^T 1, the column normalizer of one OS-SART stratum. A subset's row
  /// sums are its rows of row_sums().
  [[nodiscard]] virtual util::AlignedVector<T> subset_col_sums(
      const core::GroupSubset& subset) const {
    CSCV_CHECK_MSG(subset.count == 1, "this operator applies no view-group subsets");
    return col_sums();
  }

  /// Row sums A * 1 — the R normalizer of SIRT. Default: one forward apply.
  [[nodiscard]] virtual util::AlignedVector<T> row_sums() const {
    util::AlignedVector<T> ones(static_cast<std::size_t>(cols()), T(1));
    util::AlignedVector<T> out(static_cast<std::size_t>(rows()));
    forward(ones, out);
    return out;
  }
  /// Column sums A^T * 1 — the C normalizer of SIRT.
  [[nodiscard]] virtual util::AlignedVector<T> col_sums() const {
    util::AlignedVector<T> ones(static_cast<std::size_t>(rows()), T(1));
    util::AlignedVector<T> out(static_cast<std::size_t>(cols()));
    adjoint(ones, out);
    return out;
  }
};

/// CSR-backed operator (row-parallel forward, reduction-based adjoint).
/// Holds the adjoint's accumulator scratch so iterating solvers allocate
/// only on the first apply.
template <typename T>
class CsrOperator final : public LinearOperator<T> {
 public:
  explicit CsrOperator(const sparse::CsrMatrix<T>& a) : a_(&a) {}
  [[nodiscard]] sparse::index_t rows() const override { return a_->rows(); }
  [[nodiscard]] sparse::index_t cols() const override { return a_->cols(); }
  void forward(std::span<const T> x, std::span<T> y) const override { a_->spmv(x, y); }
  void adjoint(std::span<const T> y, std::span<T> x) const override {
    a_->spmv_transpose(y, x, adjoint_scratch_);
  }
  void forward_batch(std::span<const T> x, std::span<T> y, int num_rhs) const override {
    a_->spmv_multi(x, y, num_rhs);
  }
  void adjoint_batch(std::span<const T> y, std::span<T> x, int num_rhs) const override {
    a_->spmv_transpose_multi(y, x, num_rhs, adjoint_scratch_);
  }

 private:
  const sparse::CsrMatrix<T>* a_;
  mutable util::AlignedVector<T> adjoint_scratch_;
};

/// CSC-backed operator (the transpose apply is the fast, gather-style path —
/// the reason CSC-style formats suit ICD-type algorithms, paper Section III).
/// Holds the forward's accumulator scratch so iterating solvers allocate
/// only on the first apply.
template <typename T>
class CscOperator final : public LinearOperator<T> {
 public:
  explicit CscOperator(const sparse::CscMatrix<T>& a) : a_(&a) {}
  [[nodiscard]] sparse::index_t rows() const override { return a_->rows(); }
  [[nodiscard]] sparse::index_t cols() const override { return a_->cols(); }
  void forward(std::span<const T> x, std::span<T> y) const override {
    a_->spmv(x, y, forward_scratch_);
  }
  void adjoint(std::span<const T> y, std::span<T> x) const override {
    a_->spmv_transpose(y, x);
  }

 private:
  const sparse::CscMatrix<T>* a_;
  mutable util::AlignedVector<T> forward_scratch_;
};

/// The CSCV operator: forward via the plan's execute, adjoint via its
/// execute_transpose (the CSCV transpose, the paper's future work). The
/// caller owns the plan, so it decides which plan instance serves which
/// thread: one plan per solve in serial code, one plan per worker in
/// pipeline::ReconService, since a plan's scratch forbids concurrent
/// execute() calls on one instance. A plan built with num_rhs == K serves
/// K-column batched solves.
template <typename T>
class PlanOperator final : public LinearOperator<T> {
 public:
  explicit PlanOperator(const core::SpmvPlan<T>& plan) : plan_(&plan) {}
  [[nodiscard]] sparse::index_t rows() const override { return plan_->matrix()->rows(); }
  [[nodiscard]] sparse::index_t cols() const override { return plan_->matrix()->cols(); }
  void forward(std::span<const T> x, std::span<T> y) const override {
    plan_->execute(x, y);
  }
  void adjoint(std::span<const T> y, std::span<T> x) const override {
    plan_->execute_transpose(y, x);
  }
  /// A PlanOperator is pinned to its plan's batch width: the caller picked
  /// the plan, so a mismatched num_rhs is a programming error, not a cue to
  /// silently rebuild.
  void forward_batch(std::span<const T> x, std::span<T> y, int num_rhs) const override {
    CSCV_CHECK(num_rhs == plan_->num_rhs());
    plan_->execute(x, y);
  }
  void adjoint_batch(std::span<const T> y, std::span<T> x, int num_rhs) const override {
    CSCV_CHECK(num_rhs == plan_->num_rhs());
    plan_->execute_transpose(y, x);
  }
  /// The plan's memoized normalizer sums (SpmvPlan::row_sums/col_sums):
  /// bitwise the forward/adjoint of ones at any num_rhs, computed once per
  /// plan rather than once per solve.
  [[nodiscard]] util::AlignedVector<T> row_sums() const override {
    const std::span<const T> sums = plan_->row_sums();
    return util::AlignedVector<T>(sums.begin(), sums.end());
  }
  [[nodiscard]] util::AlignedVector<T> col_sums() const override {
    const std::span<const T> sums = plan_->col_sums();
    return util::AlignedVector<T>(sums.begin(), sums.end());
  }

  /// The operator's view groups (CscvMatrix::view_groups()), folded or not.
  [[nodiscard]] int view_groups() const override { return plan_->matrix()->view_groups(); }
  [[nodiscard]] std::size_t group_rows() const override {
    const core::CscvMatrix<T>& a = *plan_->matrix();
    return static_cast<std::size_t>(a.params().s_vvec) *
           static_cast<std::size_t>(a.layout().num_bins);
  }
  void forward_subset(const core::GroupSubset& subset, std::span<const T> x, std::span<T> y,
                      int num_rhs) const override {
    CSCV_CHECK(num_rhs == plan_->num_rhs());
    plan_->execute(subset, x, y);
  }
  void adjoint_subset(const core::GroupSubset& subset, std::span<const T> y, std::span<T> x,
                      int num_rhs) const override {
    CSCV_CHECK(num_rhs == plan_->num_rhs());
    plan_->execute_transpose(subset, y, x);
  }
  /// The plan's memo of A_s^T 1 (SpmvPlan::col_sums(GroupSubset)).
  [[nodiscard]] util::AlignedVector<T> subset_col_sums(
      const core::GroupSubset& subset) const override {
    const std::span<const T> sums = plan_->col_sums(subset);
    return util::AlignedVector<T>(sums.begin(), sums.end());
  }

 private:
  const core::SpmvPlan<T>* plan_;
};

}  // namespace cscv::recon

// OS-SART — ordered-subsets SART, the standard accelerated iterative CT
// reconstruction: each update uses only a subset of views (interleaved
// strata, maximizing angular spread per subset), so one pass over the data
// applies `num_subsets` corrections instead of one. Converges in far fewer
// data passes than SIRT on well-posed problems.
//
// Everything an OS-SART solve derives from the operator alone — the view
// strata and their SART weights — lives in an OsSartSystem, built once per
// (matrix, layout, num_subsets) and shared by every solve over it; a solve
// itself only slices b and iterates.
#pragma once

#include <span>
#include <vector>

#include "core/layout.hpp"
#include "recon/solvers.hpp"
#include "sparse/csr.hpp"

namespace cscv::recon {

/// One view-subset of the system: the rows of the selected views extracted
/// into a standalone CSR block plus their row ids in the source matrix (for
/// slicing b).
template <typename T>
struct ViewSubset {
  sparse::CsrMatrix<T> matrix;
  util::AlignedVector<sparse::index_t> global_rows;  // subset row -> A row
};

/// Splits `a` (rows = view-major sinogram of `layout`) into `num_subsets`
/// interleaved view strata: subset k owns the views v of `layout` with
/// (first_view + v) % num_subsets == k, ascending, bins inner. Each stratum
/// row is a verbatim copy of its row of `a`. `first_view` is the global
/// index of the layout's view 0: nonzero when `a` holds a contiguous view
/// range of a larger problem (a dist shard), so strata stay chosen by
/// global view index; a subset with no views there is an empty block.
template <typename T>
std::vector<ViewSubset<T>> split_view_subsets(const sparse::CsrMatrix<T>& a,
                                              const core::OperatorLayout& layout,
                                              int num_subsets, int first_view = 0);

struct OsSartOptions {
  int iterations = 10;     // full passes over all subsets
  int num_subsets = 8;
  double relaxation = 1.0;
  bool enforce_nonneg = true;
};

/// The operator half of OS-SART: the `num_subsets` strata of `a` and their
/// weights, inverse row sums R_s = 1/(A_s 1) and inverse column sums
/// C_s = 1/(A_s^T 1) (zero sums give zero weights). Immutable after
/// construction, so one system serves any number of solves, concurrently
/// (pipeline::SystemMatrixCache keeps one per OS-SART entry). The strata
/// hold every row of `a` exactly once, so the source matrix is not needed
/// after construction.
///
/// A^T 1 goes through CsrMatrix::spmv_transpose, whose reduction runs over
/// util::max_threads() slots, so C_s carries the thread count current at
/// construction. A solve at another count recomputes C_s for itself, which
/// keeps every solve bitwise what a one-shot solve at its thread count
/// gives.
template <typename T>
class OsSartSystem {
 public:
  OsSartSystem(const sparse::CsrMatrix<T>& a, const core::OperatorLayout& layout,
               int num_subsets);

  [[nodiscard]] int num_subsets() const { return static_cast<int>(strata_.size()); }
  [[nodiscard]] sparse::index_t rows() const { return rows_; }
  [[nodiscard]] sparse::index_t cols() const { return cols_; }
  [[nodiscard]] const ViewSubset<T>& subset(int s) const { return stratum(s).subset; }
  [[nodiscard]] std::span<const T> inv_row(int s) const { return stratum(s).inv_row; }
  [[nodiscard]] std::span<const T> inv_col(int s) const { return stratum(s).inv_col; }
  /// The util::max_threads() value inv_col was computed at.
  [[nodiscard]] int weights_threads() const { return weights_threads_; }

  /// Y = A X in global row order for num_rhs interleaved columns, stacked
  /// from the strata forwards. Every row goes through the same CSR row
  /// kernel as a forward of the full matrix, so Y is bitwise that forward.
  /// `scratch` holds one stratum's output between calls.
  void forward(std::span<const T> x, std::span<T> y, int num_rhs,
               util::AlignedVector<T>& scratch) const;

  /// Resident footprint: strata, row maps and weights.
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct Stratum {
    ViewSubset<T> subset;
    util::AlignedVector<T> inv_row;
    util::AlignedVector<T> inv_col;
  };
  [[nodiscard]] const Stratum& stratum(int s) const {
    return strata_[static_cast<std::size_t>(s)];
  }

  sparse::index_t rows_ = 0;
  sparse::index_t cols_ = 0;
  std::vector<Stratum> strata_;
  int weights_threads_ = 1;
};

/// OS-SART over a prebuilt system. options.num_subsets must equal the
/// system's. Residual norms are recorded once per full pass (all subsets
/// applied).
template <typename T>
RunStats os_sart(const OsSartSystem<T>& system, std::span<const T> b, std::span<T> x,
                 const OsSartOptions& options = {});

/// One-shot OS-SART over the subsets of `a`: builds the system, then solves.
template <typename T>
RunStats os_sart(const sparse::CsrMatrix<T>& a, const core::OperatorLayout& layout,
                 std::span<const T> b, std::span<T> x, const OsSartOptions& options = {});

/// Batched OS-SART: num_rhs reconstructions advance in lockstep, sharing
/// one subset traversal per update (b and x interleaved as in sirt_batch).
/// Every option's num_subsets must equal the system's (the subset split is
/// structural); iterations/relaxation/nonneg may differ per column, and a
/// finished column freezes without stalling the batch. Column k is bitwise
/// identical to os_sart() run alone on that column.
template <typename T>
std::vector<RunStats> os_sart_batch(const OsSartSystem<T>& system, std::span<const T> b,
                                    std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options);

/// One-shot batched OS-SART over the subsets of `a` (options[0].num_subsets).
template <typename T>
std::vector<RunStats> os_sart_batch(const sparse::CsrMatrix<T>& a,
                                    const core::OperatorLayout& layout, std::span<const T> b,
                                    std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options);

extern template std::vector<ViewSubset<float>> split_view_subsets<float>(
    const sparse::CsrMatrix<float>&, const core::OperatorLayout&, int, int);
extern template std::vector<ViewSubset<double>> split_view_subsets<double>(
    const sparse::CsrMatrix<double>&, const core::OperatorLayout&, int, int);
extern template class OsSartSystem<float>;
extern template class OsSartSystem<double>;
extern template RunStats os_sart<float>(const OsSartSystem<float>&, std::span<const float>,
                                        std::span<float>, const OsSartOptions&);
extern template RunStats os_sart<double>(const OsSartSystem<double>&,
                                         std::span<const double>, std::span<double>,
                                         const OsSartOptions&);
extern template RunStats os_sart<float>(const sparse::CsrMatrix<float>&,
                                        const core::OperatorLayout&, std::span<const float>,
                                        std::span<float>, const OsSartOptions&);
extern template RunStats os_sart<double>(const sparse::CsrMatrix<double>&,
                                         const core::OperatorLayout&,
                                         std::span<const double>, std::span<double>,
                                         const OsSartOptions&);
extern template std::vector<RunStats> os_sart_batch<float>(const OsSartSystem<float>&,
                                                           std::span<const float>,
                                                           std::span<float>, int,
                                                           std::span<const OsSartOptions>);
extern template std::vector<RunStats> os_sart_batch<double>(
    const OsSartSystem<double>&, std::span<const double>, std::span<double>, int,
    std::span<const OsSartOptions>);
extern template std::vector<RunStats> os_sart_batch<float>(const sparse::CsrMatrix<float>&,
                                                           const core::OperatorLayout&,
                                                           std::span<const float>,
                                                           std::span<float>, int,
                                                           std::span<const OsSartOptions>);
extern template std::vector<RunStats> os_sart_batch<double>(
    const sparse::CsrMatrix<double>&, const core::OperatorLayout&, std::span<const double>,
    std::span<double>, int, std::span<const OsSartOptions>);

}  // namespace cscv::recon

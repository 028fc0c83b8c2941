#include "recon/os_sart.hpp"

#include <algorithm>
#include <cmath>

#include "recon/colmath.hpp"
#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::recon {

namespace {

/// SART weight of a row or column sum: 1/sum, zero sums give zero weights.
template <typename T>
util::AlignedVector<T> inverted(util::AlignedVector<T> sums) {
  for (auto& v : sums) v = v > T(0) ? T(1) / v : T(0);
  return sums;
}

template <typename T>
util::AlignedVector<T> inverse_col_sums(const sparse::CsrMatrix<T>& stratum) {
  return inverted(CsrOperator<T>(stratum).col_sums());
}

/// The C_s a solve at the current thread count uses: the system's own when
/// it was built at this count, else recomputed into `local`.
template <typename T>
std::vector<std::span<const T>> column_weights(const OsSartSystem<T>& system,
                                               std::vector<util::AlignedVector<T>>& local) {
  const auto n = static_cast<std::size_t>(system.num_subsets());
  std::vector<std::span<const T>> weights(n);
  if (util::max_threads() == system.weights_threads()) {
    for (std::size_t s = 0; s < n; ++s) weights[s] = system.inv_col(static_cast<int>(s));
    return weights;
  }
  local.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    local[s] = inverse_col_sums(system.subset(static_cast<int>(s)).matrix);
    weights[s] = local[s];
  }
  return weights;
}

void check_subsets(int want, int have) {
  CSCV_CHECK_MSG(want == have, "OS-SART options want " << want << " subsets, the system has "
                                                       << have);
}

}  // namespace

template <typename T>
std::vector<ViewSubset<T>> split_view_subsets(const sparse::CsrMatrix<T>& a,
                                              const core::OperatorLayout& layout,
                                              int num_subsets, int first_view) {
  CSCV_CHECK(a.rows() == layout.num_rows());
  CSCV_CHECK(num_subsets >= 1 && first_view >= 0);
  auto row_ptr = a.row_ptr();
  auto col_idx = a.col_idx();
  auto vals = a.values();

  std::vector<ViewSubset<T>> subsets;
  subsets.reserve(static_cast<std::size_t>(num_subsets));
  for (int s = 0; s < num_subsets; ++s) {
    ViewSubset<T> subset;
    // Interleaved strata: global views s, s+n, s+2n ... (maximal angular
    // spread); the first local view of stratum s is the one whose global
    // index first_view + v is congruent to s.
    const int v0 = ((s - first_view) % num_subsets + num_subsets) % num_subsets;
    for (int v = v0; v < layout.num_views; v += num_subsets) {
      for (int bin = 0; bin < layout.num_bins; ++bin) {
        subset.global_rows.push_back(layout.row_of(v, bin));
      }
    }
    const auto sub_rows = subset.global_rows.size();
    util::AlignedVector<sparse::offset_t> sub_ptr(sub_rows + 1, 0);
    for (std::size_t r = 0; r < sub_rows; ++r) {
      const auto gr = static_cast<std::size_t>(subset.global_rows[r]);
      sub_ptr[r + 1] = sub_ptr[r] + (row_ptr[gr + 1] - row_ptr[gr]);
    }
    util::AlignedVector<sparse::index_t> sub_cols(static_cast<std::size_t>(sub_ptr[sub_rows]));
    util::AlignedVector<T> sub_vals(static_cast<std::size_t>(sub_ptr[sub_rows]));
    for (std::size_t r = 0; r < sub_rows; ++r) {
      const auto gr = static_cast<std::size_t>(subset.global_rows[r]);
      std::copy(col_idx.begin() + row_ptr[gr], col_idx.begin() + row_ptr[gr + 1],
                sub_cols.begin() + sub_ptr[r]);
      std::copy(vals.begin() + row_ptr[gr], vals.begin() + row_ptr[gr + 1],
                sub_vals.begin() + sub_ptr[r]);
    }
    subset.matrix = sparse::CsrMatrix<T>(static_cast<sparse::index_t>(sub_rows), a.cols(),
                                         std::move(sub_ptr), std::move(sub_cols),
                                         std::move(sub_vals));
    subsets.push_back(std::move(subset));
  }
  return subsets;
}

template <typename T>
OsSartSystem<T>::OsSartSystem(const sparse::CsrMatrix<T>& a,
                              const core::OperatorLayout& layout, int num_subsets)
    : rows_(a.rows()), cols_(a.cols()), weights_threads_(util::max_threads()) {
  CSCV_CHECK_MSG(num_subsets >= 1 && num_subsets <= layout.num_views,
                 "OS-SART subsets " << num_subsets << " out of [1, " << layout.num_views
                                    << "]");
  auto subsets = split_view_subsets(a, layout, num_subsets);
  strata_.reserve(subsets.size());
  for (ViewSubset<T>& sub : subsets) {
    Stratum st{std::move(sub), {}, {}};
    st.inv_row = inverted(CsrOperator<T>(st.subset.matrix).row_sums());
    st.inv_col = inverse_col_sums(st.subset.matrix);
    strata_.push_back(std::move(st));
  }
}

template <typename T>
void OsSartSystem<T>::forward(std::span<const T> x, std::span<T> y, int num_rhs,
                              util::AlignedVector<T>& scratch) const {
  const auto k = static_cast<std::size_t>(num_rhs);
  CSCV_CHECK(x.size() == static_cast<std::size_t>(cols_) * k);
  CSCV_CHECK(y.size() == static_cast<std::size_t>(rows_) * k);
  for (const Stratum& st : strata_) {
    const auto& rows = st.subset.global_rows;
    scratch.resize(rows.size() * k);
    st.subset.matrix.spmv_multi(x, scratch, num_rhs);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::copy_n(scratch.data() + r * k, k,
                  y.data() + static_cast<std::size_t>(rows[r]) * k);
    }
  }
}

template <typename T>
std::size_t OsSartSystem<T>::bytes() const {
  std::size_t total = 0;
  for (const Stratum& st : strata_) {
    total += st.subset.matrix.matrix_bytes() +
             st.subset.global_rows.size() * sizeof(sparse::index_t) +
             (st.inv_row.size() + st.inv_col.size()) * sizeof(T);
  }
  return total;
}

template <typename T>
RunStats os_sart(const OsSartSystem<T>& system, std::span<const T> b, std::span<T> x,
                 const OsSartOptions& options) {
  CSCV_CHECK(static_cast<sparse::index_t>(b.size()) == system.rows());
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == system.cols());
  check_subsets(options.num_subsets, system.num_subsets());
  std::vector<util::AlignedVector<T>> recomputed;
  const auto inv_col = column_weights(system, recomputed);

  // Measurements sliced per stratum.
  std::vector<util::AlignedVector<T>> b_sub(static_cast<std::size_t>(system.num_subsets()));
  for (int s = 0; s < system.num_subsets(); ++s) {
    const auto& rows = system.subset(s).global_rows;
    auto& bs = b_sub[static_cast<std::size_t>(s)];
    bs.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) bs[r] = b[static_cast<std::size_t>(rows[r])];
  }

  const T lambda = static_cast<T>(options.relaxation);
  util::AlignedVector<T> residual;
  util::AlignedVector<T> back(x.size());
  util::AlignedVector<T> full_residual(b.size());
  util::AlignedVector<T> transpose_scratch;
  RunStats stats;

  for (int it = 0; it < options.iterations; ++it) {
    for (int s = 0; s < system.num_subsets(); ++s) {
      const auto& sub = system.subset(s);
      const auto& bs = b_sub[static_cast<std::size_t>(s)];
      residual.resize(bs.size());
      sub.matrix.spmv(x, residual);
      // Per-element updates go through colmath so os_sart_batch can run
      // the identical instantiations per column (bitwise contract).
      colmath::weighted_residual(bs.data(), system.inv_row(s).data(), residual.data(),
                                 residual.size());
      sub.matrix.spmv_transpose(residual, back, transpose_scratch);
      colmath::sart_step(x.data(), inv_col[static_cast<std::size_t>(s)].data(), back.data(),
                         lambda, options.enforce_nonneg, back.size());
    }
    system.forward(x, full_residual, 1, residual);
    stats.residual_norms.push_back(
        colmath::diff_norm2(b.data(), full_residual.data(), full_residual.size()));
    ++stats.iterations_run;
  }
  return stats;
}

template <typename T>
RunStats os_sart(const sparse::CsrMatrix<T>& a, const core::OperatorLayout& layout,
                 std::span<const T> b, std::span<T> x, const OsSartOptions& options) {
  return os_sart(OsSartSystem<T>(a, layout, options.num_subsets), b, x, options);
}

template <typename T>
std::vector<RunStats> os_sart_batch(const OsSartSystem<T>& system, std::span<const T> b,
                                    std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options) {
  CSCV_CHECK(num_rhs >= 1);
  CSCV_CHECK(options.size() == static_cast<std::size_t>(num_rhs));
  // The subset split is structural; fusable jobs must agree on it.
  for (const OsSartOptions& o : options) check_subsets(o.num_subsets, system.num_subsets());
  if (num_rhs == 1) return {os_sart(system, b, x, options[0])};
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const std::size_t m = static_cast<std::size_t>(system.rows());
  const std::size_t n = static_cast<std::size_t>(system.cols());
  CSCV_CHECK(b.size() == m * k);
  CSCV_CHECK(x.size() == n * k);
  std::vector<util::AlignedVector<T>> recomputed;
  const auto inv_col = column_weights(system, recomputed);

  // The weights are per-matrix (shared by every column); the b slices are
  // per-column contiguous so the weighted-residual update can run through
  // the exact colmath instantiation serial os_sart uses.
  const auto num_subsets = static_cast<std::size_t>(system.num_subsets());
  std::vector<std::vector<util::AlignedVector<T>>> b_sub(num_subsets);  // [s][c]
  for (std::size_t s = 0; s < num_subsets; ++s) {
    const auto& rows = system.subset(static_cast<int>(s)).global_rows;
    b_sub[s].resize(k);
    for (std::size_t c = 0; c < k; ++c) {
      b_sub[s][c].resize(rows.size());
      for (std::size_t r = 0; r < rows.size(); ++r) {
        b_sub[s][c][r] = b[static_cast<std::size_t>(rows[r]) * k + c];
      }
    }
  }

  util::AlignedVector<T> residual;
  util::AlignedVector<T> back(n * k);
  util::AlignedVector<T> full_residual(m * k);
  util::AlignedVector<T> transpose_scratch;
  // Contiguous per-column scratch for the gathered update steps.
  util::AlignedVector<T> col_m(m);
  util::AlignedVector<T> col_back(n);
  util::AlignedVector<T> col_x(n);
  std::vector<util::AlignedVector<T>> b_cols(k);
  for (std::size_t c = 0; c < k; ++c) {
    b_cols[c].resize(m);
    colmath::gather_column(b.data(), m, k, c, b_cols[c].data());
  }
  std::vector<RunStats> stats(k);
  int max_iters = 0;
  for (const OsSartOptions& o : options) max_iters = std::max(max_iters, o.iterations);

  for (int it = 0; it < max_iters; ++it) {
    for (std::size_t s = 0; s < num_subsets; ++s) {
      const auto& sub = system.subset(static_cast<int>(s));
      const auto inv_row = system.inv_row(static_cast<int>(s));
      const std::size_t sub_rows = sub.global_rows.size();
      residual.resize(sub_rows * k);
      sub.matrix.spmv_multi(x, residual, num_rhs);
      for (std::size_t c = 0; c < k; ++c) {
        if (it >= options[c].iterations) continue;  // finished column: x frozen
        colmath::gather_column(residual.data(), sub_rows, k, c, col_m.data());
        colmath::weighted_residual(b_sub[s][c].data(), inv_row.data(), col_m.data(), sub_rows);
        colmath::scatter_column(col_m.data(), sub_rows, k, c, residual.data());
      }
      sub.matrix.spmv_transpose_multi(residual, back, num_rhs, transpose_scratch);
      for (std::size_t c = 0; c < k; ++c) {
        if (it >= options[c].iterations) continue;
        colmath::gather_column(back.data(), n, k, c, col_back.data());
        colmath::gather_column(x.data(), n, k, c, col_x.data());
        colmath::sart_step(col_x.data(), inv_col[s].data(), col_back.data(),
                           static_cast<T>(options[c].relaxation),
                           options[c].enforce_nonneg, n);
        colmath::scatter_column(col_x.data(), n, k, c, x.data());
      }
    }
    system.forward(x, full_residual, num_rhs, residual);
    for (std::size_t c = 0; c < k; ++c) {
      if (it >= options[c].iterations) continue;
      colmath::gather_column(full_residual.data(), m, k, c, col_m.data());
      stats[c].residual_norms.push_back(colmath::diff_norm2(b_cols[c].data(), col_m.data(), m));
      ++stats[c].iterations_run;
    }
  }
  return stats;
}

template <typename T>
std::vector<RunStats> os_sart_batch(const sparse::CsrMatrix<T>& a,
                                    const core::OperatorLayout& layout, std::span<const T> b,
                                    std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options) {
  CSCV_CHECK(num_rhs >= 1);
  CSCV_CHECK(options.size() == static_cast<std::size_t>(num_rhs));
  return os_sart_batch(OsSartSystem<T>(a, layout, options[0].num_subsets), b, x, num_rhs,
                       options);
}

template std::vector<ViewSubset<float>> split_view_subsets<float>(
    const sparse::CsrMatrix<float>&, const core::OperatorLayout&, int, int);
template std::vector<ViewSubset<double>> split_view_subsets<double>(
    const sparse::CsrMatrix<double>&, const core::OperatorLayout&, int, int);
template class OsSartSystem<float>;
template class OsSartSystem<double>;
template RunStats os_sart<float>(const OsSartSystem<float>&, std::span<const float>,
                                 std::span<float>, const OsSartOptions&);
template RunStats os_sart<double>(const OsSartSystem<double>&, std::span<const double>,
                                  std::span<double>, const OsSartOptions&);
template RunStats os_sart<float>(const sparse::CsrMatrix<float>&, const core::OperatorLayout&,
                                 std::span<const float>, std::span<float>,
                                 const OsSartOptions&);
template RunStats os_sart<double>(const sparse::CsrMatrix<double>&,
                                  const core::OperatorLayout&, std::span<const double>,
                                  std::span<double>, const OsSartOptions&);
template std::vector<RunStats> os_sart_batch<float>(const OsSartSystem<float>&,
                                                    std::span<const float>, std::span<float>,
                                                    int, std::span<const OsSartOptions>);
template std::vector<RunStats> os_sart_batch<double>(const OsSartSystem<double>&,
                                                     std::span<const double>,
                                                     std::span<double>, int,
                                                     std::span<const OsSartOptions>);
template std::vector<RunStats> os_sart_batch<float>(const sparse::CsrMatrix<float>&,
                                                    const core::OperatorLayout&,
                                                    std::span<const float>, std::span<float>,
                                                    int, std::span<const OsSartOptions>);
template std::vector<RunStats> os_sart_batch<double>(const sparse::CsrMatrix<double>&,
                                                     const core::OperatorLayout&,
                                                     std::span<const double>,
                                                     std::span<double>, int,
                                                     std::span<const OsSartOptions>);

}  // namespace cscv::recon

#include "sparse/ell.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::sparse {

template <typename T>
EllMatrix<T> EllMatrix<T>::from_coo(const CooMatrix<T>& coo) {
  CSCV_CHECK_MSG(coo.normalized(), "ELL build requires a normalized COO");
  EllMatrix m;
  m.rows_ = coo.rows();
  m.cols_ = coo.cols();
  m.nnz_ = coo.nnz();

  util::AlignedVector<index_t> row_len(static_cast<std::size_t>(m.rows_), 0);
  for (index_t r : coo.row_indices()) row_len[static_cast<std::size_t>(r)]++;
  m.width_ = row_len.empty() ? 0 : *std::max_element(row_len.begin(), row_len.end());

  const std::size_t stored = static_cast<std::size_t>(m.rows_) * static_cast<std::size_t>(m.width_);
  m.col_idx_.assign(stored, 0);
  m.values_.assign(stored, T(0));

  util::AlignedVector<index_t> cursor(static_cast<std::size_t>(m.rows_), 0);
  auto rows_in = coo.row_indices();
  auto cols_in = coo.col_indices();
  auto vals_in = coo.values();
  for (std::size_t k = 0; k < vals_in.size(); ++k) {
    const auto r = static_cast<std::size_t>(rows_in[k]);
    const auto j = static_cast<std::size_t>(cursor[r]++);
    m.col_idx_[j * static_cast<std::size_t>(m.rows_) + r] = cols_in[k];
    m.values_[j * static_cast<std::size_t>(m.rows_) + r] = vals_in[k];
  }
  // Padding repeats the last valid column of each row so the gather stays in
  // bounds; the value is zero so the FMA is a no-op.
  for (index_t r = 0; r < m.rows_; ++r) {
    const auto len = static_cast<std::size_t>(row_len[static_cast<std::size_t>(r)]);
    const index_t pad_col =
        len == 0 ? 0
                 : m.col_idx_[(len - 1) * static_cast<std::size_t>(m.rows_) +
                              static_cast<std::size_t>(r)];
    for (std::size_t j = len; j < static_cast<std::size_t>(m.width_); ++j) {
      m.col_idx_[j * static_cast<std::size_t>(m.rows_) + static_cast<std::size_t>(r)] = pad_col;
    }
  }
  return m;
}

template <typename T>
void EllMatrix<T>::spmv(std::span<const T> x, std::span<T> y) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  const index_t* ci = col_idx_.data();
  const T* v = values_.data();
  T* yp = y.data();
  const auto nrows = static_cast<std::size_t>(rows_);
  util::parallel_for(0, nrows, [&](std::size_t r) {
    T acc = T(0);
    for (std::size_t j = 0; j < static_cast<std::size_t>(width_); ++j) {
      const std::size_t at = j * nrows + r;
      acc += v[at] * x[static_cast<std::size_t>(ci[at])];
    }
    yp[r] = acc;
  });
}

template <typename T>
std::size_t EllMatrix<T>::matrix_bytes() const {
  return values_.size() * sizeof(T) + col_idx_.size() * sizeof(index_t);
}

template class EllMatrix<float>;
template class EllMatrix<double>;

}  // namespace cscv::sparse

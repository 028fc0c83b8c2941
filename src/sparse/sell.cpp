#include "sparse/sell.hpp"

#include <algorithm>
#include <numeric>

#include "sparse/csr.hpp"
#include "util/assertx.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace cscv::sparse {

template <typename T>
SellMatrix<T> SellMatrix<T>::from_coo(const CooMatrix<T>& coo, int slice_height,
                                      int sort_window) {
  CSCV_CHECK_MSG(coo.normalized(), "SELL build requires a normalized COO");
  return from_csr(CsrMatrix<T>::from_coo(coo), slice_height, sort_window);
}

template <typename T>
SellMatrix<T> SellMatrix<T>::from_csr(const CsrMatrix<T>& csr, int slice_height,
                                      int sort_window) {
  CSCV_CHECK(slice_height >= 1 && slice_height <= 64);
  CSCV_CHECK((slice_height & (slice_height - 1)) == 0);
  CSCV_CHECK(sort_window >= 0);

  SellMatrix m;
  m.rows_ = csr.rows();
  m.cols_ = csr.cols();
  m.nnz_ = csr.nnz();
  m.slice_height_ = slice_height;

  const auto nrows = static_cast<std::size_t>(m.rows_);
  auto row_ptr = csr.row_ptr();

  // Permutation: within each sigma-window, order rows by descending length.
  m.perm_.resize(nrows);
  std::iota(m.perm_.begin(), m.perm_.end(), index_t{0});
  if (sort_window > 1) {
    for (std::size_t w0 = 0; w0 < nrows; w0 += static_cast<std::size_t>(sort_window)) {
      const std::size_t w1 = std::min(nrows, w0 + static_cast<std::size_t>(sort_window));
      std::stable_sort(m.perm_.begin() + static_cast<std::ptrdiff_t>(w0),
                       m.perm_.begin() + static_cast<std::ptrdiff_t>(w1),
                       [&](index_t a, index_t b) {
                         const offset_t la = row_ptr[static_cast<std::size_t>(a) + 1] -
                                             row_ptr[static_cast<std::size_t>(a)];
                         const offset_t lb = row_ptr[static_cast<std::size_t>(b) + 1] -
                                             row_ptr[static_cast<std::size_t>(b)];
                         return la > lb;
                       });
    }
  }

  const auto ch = static_cast<std::size_t>(slice_height);
  m.num_slices_ = static_cast<index_t>(util::ceil_div(nrows, ch));
  m.slice_width_.resize(static_cast<std::size_t>(m.num_slices_));
  m.slice_ptr_.resize(static_cast<std::size_t>(m.num_slices_) + 1, 0);

  auto row_len = [&](std::size_t sorted_pos) -> offset_t {
    if (sorted_pos >= nrows) return 0;  // slice tail past the last row
    const auto r = static_cast<std::size_t>(m.perm_[sorted_pos]);
    return row_ptr[r + 1] - row_ptr[r];
  };

  for (index_t s = 0; s < m.num_slices_; ++s) {
    offset_t width = 0;
    for (std::size_t l = 0; l < ch; ++l) {
      width = std::max(width, row_len(static_cast<std::size_t>(s) * ch + l));
    }
    m.slice_width_[static_cast<std::size_t>(s)] = static_cast<index_t>(width);
    m.slice_ptr_[static_cast<std::size_t>(s) + 1] =
        m.slice_ptr_[static_cast<std::size_t>(s)] + width * static_cast<offset_t>(ch);
  }

  const auto stored = static_cast<std::size_t>(m.slice_ptr_.back());
  m.col_idx_.assign(stored, 0);
  m.values_.assign(stored, T(0));

  auto col_idx_in = csr.col_idx();
  auto vals_in = csr.values();
  for (index_t s = 0; s < m.num_slices_; ++s) {
    const auto base = static_cast<std::size_t>(m.slice_ptr_[static_cast<std::size_t>(s)]);
    const auto width = static_cast<std::size_t>(m.slice_width_[static_cast<std::size_t>(s)]);
    for (std::size_t l = 0; l < ch; ++l) {
      const std::size_t sorted_pos = static_cast<std::size_t>(s) * ch + l;
      if (sorted_pos >= nrows) continue;
      const auto r = static_cast<std::size_t>(m.perm_[sorted_pos]);
      const auto len = static_cast<std::size_t>(row_ptr[r + 1] - row_ptr[r]);
      index_t pad_col = 0;
      for (std::size_t j = 0; j < len; ++j) {
        const auto src = static_cast<std::size_t>(row_ptr[r]) + j;
        m.col_idx_[base + j * ch + l] = col_idx_in[src];
        m.values_[base + j * ch + l] = vals_in[src];
        pad_col = col_idx_in[src];
      }
      for (std::size_t j = len; j < width; ++j) {
        m.col_idx_[base + j * ch + l] = pad_col;  // in-bounds no-op gather
      }
    }
  }
  return m;
}

template <typename T>
void SellMatrix<T>::spmv(std::span<const T> x, std::span<T> y) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  const auto ch = static_cast<std::size_t>(slice_height_);
  const index_t* ci = col_idx_.data();
  const T* v = values_.data();
  const index_t* perm = perm_.data();
  T* yp = y.data();
  const auto nrows = static_cast<std::size_t>(rows_);
  util::parallel_for(0, static_cast<std::size_t>(num_slices_), [&](std::size_t s) {
    const auto base = static_cast<std::size_t>(slice_ptr_[s]);
    const auto width = static_cast<std::size_t>(slice_width_[s]);
    T acc[64] = {};  // slice_height_ <= 64
    for (std::size_t j = 0; j < width; ++j) {
      const std::size_t at = base + j * ch;
      for (std::size_t l = 0; l < ch; ++l) {  // SIMD lane loop
        acc[l] += v[at + l] * x[static_cast<std::size_t>(ci[at + l])];
      }
    }
    for (std::size_t l = 0; l < ch; ++l) {
      const std::size_t sorted_pos = s * ch + l;
      if (sorted_pos < nrows) yp[static_cast<std::size_t>(perm[sorted_pos])] = acc[l];
    }
  });
}

template <typename T>
std::size_t SellMatrix<T>::matrix_bytes() const {
  return values_.size() * sizeof(T) + col_idx_.size() * sizeof(index_t) +
         slice_ptr_.size() * sizeof(offset_t) + slice_width_.size() * sizeof(index_t) +
         perm_.size() * sizeof(index_t);
}

template class SellMatrix<float>;
template class SellMatrix<double>;

}  // namespace cscv::sparse

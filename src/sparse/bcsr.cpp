#include "sparse/bcsr.hpp"

#include <algorithm>
#include <map>

#include "util/assertx.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace cscv::sparse {

template <typename T>
BcsrMatrix<T> BcsrMatrix<T>::from_csr(const CsrMatrix<T>& a, int block_rows,
                                      int block_cols) {
  auto valid = [](int v) { return v == 1 || v == 2 || v == 4 || v == 8; };
  CSCV_CHECK_MSG(valid(block_rows) && valid(block_cols),
                 "BCSR block dims must be in {1,2,4,8}");

  BcsrMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.nnz_ = a.nnz();
  m.block_rows_ = block_rows;
  m.block_cols_ = block_cols;
  m.num_block_rows_ = static_cast<index_t>(
      util::ceil_div<std::size_t>(static_cast<std::size_t>(m.rows_),
                                  static_cast<std::size_t>(block_rows)));

  auto row_ptr = a.row_ptr();
  auto col_idx = a.col_idx();
  auto vals = a.values();

  m.block_row_ptr_.assign(static_cast<std::size_t>(m.num_block_rows_) + 1, 0);
  const std::size_t blk_sz = static_cast<std::size_t>(block_rows) * block_cols;

  // Per block-row: collect touched block columns, then densify.
  std::map<index_t, std::size_t> touched;  // block col -> dense offset
  for (index_t br = 0; br < m.num_block_rows_; ++br) {
    touched.clear();
    const index_t r0 = br * block_rows;
    const index_t r1 = std::min<index_t>(r0 + block_rows, m.rows_);
    for (index_t r = r0; r < r1; ++r) {
      for (auto k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        touched.emplace(col_idx[static_cast<std::size_t>(k)] / block_cols, 0);
      }
    }
    const std::size_t base = m.values_.size();
    std::size_t slot = 0;
    for (auto& [bc, off] : touched) {
      off = base + (slot++) * blk_sz;
      m.block_col_.push_back(bc);
    }
    m.values_.resize(base + touched.size() * blk_sz, T(0));
    for (index_t r = r0; r < r1; ++r) {
      for (auto k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const index_t c = col_idx[static_cast<std::size_t>(k)];
        const std::size_t off = touched[c / block_cols];
        m.values_[off + static_cast<std::size_t>(r - r0) * block_cols +
                  static_cast<std::size_t>(c % block_cols)] =
            vals[static_cast<std::size_t>(k)];
      }
    }
    m.block_row_ptr_[static_cast<std::size_t>(br) + 1] =
        static_cast<offset_t>(m.block_col_.size());
  }
  return m;
}

template <typename T>
template <int R, int C>
void BcsrMatrix<T>::spmv_kernel(std::span<const T> x, std::span<T> y) const {
  const index_t* bc = block_col_.data();
  const T* v = values_.data();
  const T* xp = x.data();
  T* yp = y.data();
  const index_t nbr = num_block_rows_;
  const index_t rows = rows_;
  const index_t cols = cols_;

  util::parallel_for(0, static_cast<std::size_t>(nbr), [&](std::size_t i_br) {
    const auto br = static_cast<index_t>(i_br);
    T acc[R] = {};
    for (offset_t b = block_row_ptr_[static_cast<std::size_t>(br)];
         b < block_row_ptr_[static_cast<std::size_t>(br) + 1]; ++b) {
      const index_t c0 = bc[static_cast<std::size_t>(b)] * C;
      const T* blk = v + static_cast<std::size_t>(b) * R * C;
      if (c0 + C <= cols) {
        for (int i = 0; i < R; ++i) {
          for (int j = 0; j < C; ++j) {
            acc[i] += blk[i * C + j] * xp[static_cast<std::size_t>(c0) + j];
          }
        }
      } else {  // edge block: fill columns past the matrix are zero anyway
        for (int i = 0; i < R; ++i) {
          for (int j = 0; j < C && c0 + j < cols; ++j) {
            acc[i] += blk[i * C + j] * xp[static_cast<std::size_t>(c0) + j];
          }
        }
      }
    }
    for (int i = 0; i < R; ++i) {
      const index_t r = br * R + i;
      if (r < rows) yp[r] = acc[i];
    }
  });
}

template <typename T>
void BcsrMatrix<T>::spmv(std::span<const T> x, std::span<T> y) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  const int key = block_rows_ * 10 + block_cols_;
  switch (key) {
    case 11: spmv_kernel<1, 1>(x, y); return;
    case 12: spmv_kernel<1, 2>(x, y); return;
    case 14: spmv_kernel<1, 4>(x, y); return;
    case 18: spmv_kernel<1, 8>(x, y); return;
    case 22: spmv_kernel<2, 2>(x, y); return;
    case 24: spmv_kernel<2, 4>(x, y); return;
    case 28: spmv_kernel<2, 8>(x, y); return;
    case 42: spmv_kernel<4, 2>(x, y); return;
    case 82: spmv_kernel<8, 2>(x, y); return;
    case 21: spmv_kernel<2, 1>(x, y); return;
    case 41: spmv_kernel<4, 1>(x, y); return;
    case 81: spmv_kernel<8, 1>(x, y); return;
    case 44: spmv_kernel<4, 4>(x, y); return;
    case 48: spmv_kernel<4, 8>(x, y); return;
    case 84: spmv_kernel<8, 4>(x, y); return;
    case 88: spmv_kernel<8, 8>(x, y); return;
    default:
      CSCV_CHECK_MSG(false, "unsupported BCSR kernel " << block_rows_ << "x" << block_cols_);
  }
}

template <typename T>
std::size_t BcsrMatrix<T>::matrix_bytes() const {
  return values_.size() * sizeof(T) + block_col_.size() * sizeof(index_t) +
         block_row_ptr_.size() * sizeof(offset_t);
}

template class BcsrMatrix<float>;
template class BcsrMatrix<double>;

}  // namespace cscv::sparse

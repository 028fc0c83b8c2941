#include "sparse/csc.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::sparse {

template <typename T>
CscMatrix<T> CscMatrix<T>::from_coo(const CooMatrix<T>& coo) {
  CSCV_CHECK_MSG(coo.normalized(), "CSC build requires a normalized COO");
  const auto cols = coo.cols();
  const auto nnz = coo.nnz();
  util::UninitAlignedVector<offset_t> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  for (index_t c : coo.col_indices()) col_ptr[static_cast<std::size_t>(c) + 1]++;
  for (index_t c = 0; c < cols; ++c) {
    col_ptr[static_cast<std::size_t>(c) + 1] += col_ptr[static_cast<std::size_t>(c)];
  }
  // COO is row-major sorted; counting-sort by column keeps rows ascending
  // within each column (stable pass over row-major order).
  util::UninitAlignedVector<index_t> row_idx(static_cast<std::size_t>(nnz));
  util::UninitAlignedVector<T> values(static_cast<std::size_t>(nnz));
  util::AlignedVector<offset_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  auto rows_in = coo.row_indices();
  auto cols_in = coo.col_indices();
  auto vals_in = coo.values();
  for (offset_t k = 0; k < nnz; ++k) {
    const auto c = static_cast<std::size_t>(cols_in[static_cast<std::size_t>(k)]);
    const auto dst = static_cast<std::size_t>(cursor[c]++);
    row_idx[dst] = rows_in[static_cast<std::size_t>(k)];
    values[dst] = vals_in[static_cast<std::size_t>(k)];
  }
  return CscMatrix(coo.rows(), cols, std::move(col_ptr), std::move(row_idx),
                   std::move(values));
}

template <typename T>
CscMatrix<T>::CscMatrix(index_t rows, index_t cols, util::UninitAlignedVector<offset_t> col_ptr,
                        util::UninitAlignedVector<index_t> row_idx,
                        util::UninitAlignedVector<T> values)
    : rows_(rows),
      cols_(cols),
      col_ptr_(std::move(col_ptr)),
      row_idx_(std::move(row_idx)),
      values_(std::move(values)) {
  CSCV_CHECK(rows_ >= 0 && cols_ >= 0);
  CSCV_CHECK(col_ptr_.size() == static_cast<std::size_t>(cols_) + 1);
  CSCV_CHECK(row_idx_.size() == values_.size());
  CSCV_CHECK(col_ptr_.front() == 0);
  CSCV_CHECK(col_ptr_.back() == static_cast<offset_t>(values_.size()));
  for (std::size_t c = 0; c < static_cast<std::size_t>(cols_); ++c) {
    CSCV_CHECK_MSG(col_ptr_[c] <= col_ptr_[c + 1], "col_ptr must be nondecreasing");
  }
}

template <typename T>
void CscMatrix<T>::spmv_serial(std::span<const T> x, std::span<T> y) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  std::fill(y.begin(), y.end(), T(0));
  const offset_t* cp = col_ptr_.data();
  const index_t* ri = row_idx_.data();
  const T* v = values_.data();
  for (index_t c = 0; c < cols_; ++c) {
    const T xc = x[static_cast<std::size_t>(c)];
    for (offset_t k = cp[c]; k < cp[c + 1]; ++k) {
      y[static_cast<std::size_t>(ri[k])] += v[k] * xc;
    }
  }
}

template <typename T>
void CscMatrix<T>::spmv(std::span<const T> x, std::span<T> y) const {
  util::AlignedVector<T> scratch;
  spmv(x, y, scratch);
}

template <typename T>
void CscMatrix<T>::spmv(std::span<const T> x, std::span<T> y,
                        util::AlignedVector<T>& scratch) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  const int slots = util::max_threads();
  if (slots == 1) {
    spmv_serial(x, y);
    return;
  }
  // Per-slot private copies of y + flat reduction. Slots are striped over
  // however many threads actually run, so a scratch sized for one thread
  // count stays correct (just oversized) for another.
  const std::size_t m = y.size();
  const std::size_t need = static_cast<std::size_t>(slots) * m;
  if (scratch.size() < need) scratch.resize(need);
  const offset_t* cp = col_ptr_.data();
  const index_t* ri = row_idx_.data();
  const T* v = values_.data();
  util::parallel_region([&](int tid, int nthreads) {
    for (int slot = tid; slot < slots; slot += nthreads) {
      T* yt = scratch.data() + static_cast<std::size_t>(slot) * m;
      std::fill_n(yt, m, T(0));
      auto [c0, c1] = util::static_partition(static_cast<std::size_t>(cols_), slots, slot);
      for (std::size_t c = c0; c < c1; ++c) {
        const T xc = x[c];
        for (offset_t k = cp[c]; k < cp[c + 1]; ++k) {
          yt[static_cast<std::size_t>(ri[k])] += v[k] * xc;
        }
      }
    }
  });
  util::parallel_region([&](int tid, int nthreads) {
    auto [r0, r1] = util::static_partition(m, nthreads, tid);
    for (std::size_t r = r0; r < r1; ++r) {
      T acc = T(0);
      for (int t = 0; t < slots; ++t) acc += scratch[static_cast<std::size_t>(t) * m + r];
      y[r] = acc;
    }
  });
}

template <typename T>
void CscMatrix<T>::spmv_transpose(std::span<const T> y, std::span<T> x) const {
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  const offset_t* cp = col_ptr_.data();
  const index_t* ri = row_idx_.data();
  const T* v = values_.data();
  T* xp = x.data();
  util::parallel_for(0, static_cast<std::size_t>(cols_), [&](std::size_t c) {
    T acc = T(0);
    for (offset_t k = cp[c]; k < cp[c + 1]; ++k) {
      acc += v[k] * y[static_cast<std::size_t>(ri[k])];
    }
    xp[c] = acc;
  });
}

template <typename T>
std::size_t CscMatrix<T>::matrix_bytes() const {
  return values_.size() * sizeof(T) + row_idx_.size() * sizeof(index_t) +
         col_ptr_.size() * sizeof(offset_t);
}

template <typename T>
CooMatrix<T> CscMatrix<T>::to_coo() const {
  CooMatrix<T> coo(rows_, cols_);
  coo.reserve(nnz());
  for (index_t c = 0; c < cols_; ++c) {
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      coo.add(row_idx_[static_cast<std::size_t>(k)], c, values_[static_cast<std::size_t>(k)]);
    }
  }
  coo.normalize();
  return coo;
}

template class CscMatrix<float>;
template class CscMatrix<double>;

}  // namespace cscv::sparse

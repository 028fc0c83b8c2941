#include "sparse/segsum.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace cscv::sparse {

template <typename T>
SegSumCsr<T>::SegSumCsr(const CsrMatrix<T>& a, int tile_size)
    : a_(&a), tile_size_(tile_size) {
  CSCV_CHECK(tile_size >= 1);
  const offset_t nnz = a.nnz();
  num_tiles_ = static_cast<index_t>(util::ceil_div<offset_t>(std::max<offset_t>(nnz, 1),
                                                             tile_size));
  tile_row_.resize(static_cast<std::size_t>(num_tiles_));
  auto row_ptr = a.row_ptr();
  for (index_t t = 0; t < num_tiles_; ++t) {
    const offset_t start = static_cast<offset_t>(t) * tile_size;
    // Largest row whose first nonzero offset is <= start. Empty rows that
    // share the offset are fine: the fold pass adds zero for them.
    auto it = std::upper_bound(row_ptr.begin(), row_ptr.end(), start);
    tile_row_[static_cast<std::size_t>(t)] =
        static_cast<index_t>(std::distance(row_ptr.begin(), it)) - 1;
  }
}

template <typename T>
void SegSumCsr<T>::spmv(std::span<const T> x, std::span<T> y) const {
  const CsrMatrix<T>& a = *a_;
  CSCV_CHECK(static_cast<index_t>(x.size()) == a.cols());
  CSCV_CHECK(static_cast<index_t>(y.size()) == a.rows());
  const offset_t nnz = a.nnz();
  auto row_ptr = a.row_ptr();
  const index_t* ci = a.col_idx().data();
  const T* v = a.values().data();
  T* yp = y.data();
  const index_t rows = a.rows();

  std::fill(y.begin(), y.end(), T(0));

  util::AlignedVector<index_t> carry_row(static_cast<std::size_t>(num_tiles_), rows);
  util::AlignedVector<T> carry_val(static_cast<std::size_t>(num_tiles_), T(0));

  util::parallel_region([&](int thread, int num_threads) {
    // Per-thread product buffer; the product pass below is the vectorizable
    // phase that motivates the format (no row logic inside it).
    util::AlignedVector<T> tmp(static_cast<std::size_t>(tile_size_));
    const auto [first, last] =
        util::static_partition(static_cast<std::size_t>(num_tiles_), num_threads, thread);
    for (auto t = static_cast<index_t>(first); t < static_cast<index_t>(last); ++t) {
      const offset_t start = static_cast<offset_t>(t) * tile_size_;
      const offset_t end = std::min(nnz, start + tile_size_);
      const auto len = static_cast<std::size_t>(end - start);

      for (std::size_t k = 0; k < len; ++k) {
        tmp[k] = v[start + static_cast<offset_t>(k)] *
                 x[static_cast<std::size_t>(ci[start + static_cast<offset_t>(k)])];
      }

      // Segmented fold: rows ending inside (start, end] are finished here;
      // the trailing open segment becomes this tile's carry.
      index_t r = tile_row_[static_cast<std::size_t>(t)];
      offset_t k = start;
      while (r < rows && row_ptr[static_cast<std::size_t>(r) + 1] <= end) {
        T s = T(0);
        const offset_t row_end = row_ptr[static_cast<std::size_t>(r) + 1];
        for (; k < row_end; ++k) s += tmp[static_cast<std::size_t>(k - start)];
        // Each row's end offset lies in exactly one tile, so this store is
        // race-free; earlier tiles' contributions arrive via the carry pass.
        yp[r] += s;
        ++r;
      }
      T s = T(0);
      for (; k < end; ++k) s += tmp[static_cast<std::size_t>(k - start)];
      carry_row[static_cast<std::size_t>(t)] = r;
      carry_val[static_cast<std::size_t>(t)] = s;
    }
  });

  for (index_t t = 0; t < num_tiles_; ++t) {
    const index_t r = carry_row[static_cast<std::size_t>(t)];
    if (r < rows) yp[r] += carry_val[static_cast<std::size_t>(t)];
  }
}

template <typename T>
std::size_t SegSumCsr<T>::matrix_bytes() const {
  return a_->matrix_bytes() + tile_row_.size() * sizeof(index_t);
}

template class SegSumCsr<float>;
template class SegSumCsr<double>;

}  // namespace cscv::sparse

#include "sparse/spc5.hpp"

#include <algorithm>

#include "simd/isa.hpp"
#include "util/assertx.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace cscv::sparse {

template <typename T>
Spc5Matrix<T> Spc5Matrix<T>::from_csr(const CsrMatrix<T>& a, int rows_per_pack,
                                      int block_width) {
  CSCV_CHECK(rows_per_pack == 1 || rows_per_pack == 2 || rows_per_pack == 4);
  CSCV_CHECK(block_width == 4 || block_width == 8 || block_width == 16);

  Spc5Matrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.nnz_ = a.nnz();
  m.rows_per_pack_ = rows_per_pack;
  m.block_width_ = block_width;
  m.num_packs_ = static_cast<index_t>(
      util::ceil_div<std::size_t>(static_cast<std::size_t>(m.rows_),
                                  static_cast<std::size_t>(rows_per_pack)));

  auto row_ptr = a.row_ptr();
  auto col_idx = a.col_idx();
  auto vals = a.values();

  m.pack_block_ptr_.assign(static_cast<std::size_t>(m.num_packs_) + 1, 0);
  m.pack_val_ptr_.assign(static_cast<std::size_t>(m.num_packs_) + 1, 0);
  m.values_.reserve(static_cast<std::size_t>(m.nnz_) + static_cast<std::size_t>(block_width));

  // Per-row cursors into the CSR arrays, reused across blocks of a pack.
  offset_t cursor[4];
  offset_t row_end[4];

  for (index_t p = 0; p < m.num_packs_; ++p) {
    const index_t r0 = p * rows_per_pack;
    for (int i = 0; i < rows_per_pack; ++i) {
      const index_t r = r0 + i;
      cursor[i] = r < m.rows_ ? row_ptr[static_cast<std::size_t>(r)] : 0;
      row_end[i] = r < m.rows_ ? row_ptr[static_cast<std::size_t>(r) + 1] : 0;
    }
    while (true) {
      // Next uncovered column across the pack's rows.
      index_t c0 = m.cols_;
      bool any = false;
      for (int i = 0; i < rows_per_pack; ++i) {
        if (cursor[i] < row_end[i]) {
          c0 = std::min(c0, col_idx[static_cast<std::size_t>(cursor[i])]);
          any = true;
        }
      }
      if (!any) break;
      m.block_col_.push_back(c0);
      for (int i = 0; i < rows_per_pack; ++i) {
        std::uint16_t mask = 0;
        while (cursor[i] < row_end[i] &&
               col_idx[static_cast<std::size_t>(cursor[i])] < c0 + block_width) {
          mask |= static_cast<std::uint16_t>(
              1u << (col_idx[static_cast<std::size_t>(cursor[i])] - c0));
          m.values_.push_back(vals[static_cast<std::size_t>(cursor[i])]);
          ++cursor[i];
        }
        m.masks_.push_back(mask);
      }
    }
    m.pack_block_ptr_[static_cast<std::size_t>(p) + 1] =
        static_cast<offset_t>(m.block_col_.size());
    m.pack_val_ptr_[static_cast<std::size_t>(p) + 1] =
        static_cast<offset_t>(m.values_.size());
  }
  CSCV_CHECK(static_cast<offset_t>(m.values_.size()) == m.nnz_);
  // Tail slack so branch-free expansion may read one full vector past the
  // last value without faulting.
  m.values_.resize(m.values_.size() + static_cast<std::size_t>(block_width), T(0));
  return m;
}

template <typename T>
template <int R, int C, bool UseHw>
void Spc5Matrix<T>::spmv_kernel(std::span<const T> x, std::span<T> y) const {
  const index_t* block_col = block_col_.data();
  const std::uint16_t* masks = masks_.data();
  const T* vals = values_.data();
  T* yp = y.data();
  const T* xp = x.data();
  const index_t num_packs = num_packs_;
  const index_t rows = rows_;

  util::parallel_for(0, static_cast<std::size_t>(num_packs), [&](std::size_t i_p) {
    const auto p = static_cast<index_t>(i_p);
    alignas(64) T acc[R][C] = {};
    alignas(64) T expanded[C];
    const offset_t b0 = pack_block_ptr_[static_cast<std::size_t>(p)];
    const offset_t b1 = pack_block_ptr_[static_cast<std::size_t>(p) + 1];
    offset_t vcur = pack_val_ptr_[static_cast<std::size_t>(p)];
    for (offset_t b = b0; b < b1; ++b) {
      const auto col = static_cast<std::size_t>(block_col[static_cast<std::size_t>(b)]);
      // Fast path: read x straight from the vector. Only blocks touching
      // the last C-1 columns need the zero-padded copy (mask bits past the
      // edge are zero, but the x load itself must stay in bounds).
      alignas(64) T xbuf[C];
      const T* xv = xp + col;
      if (col + C > x.size()) {
        const std::size_t avail = x.size() - col;
        for (std::size_t l = 0; l < avail; ++l) xbuf[l] = xp[col + l];
        for (std::size_t l = avail; l < C; ++l) xbuf[l] = T(0);
        xv = xbuf;
      }
      // Degrade to soft expansion when no hardware path was compiled in for
      // this (type, width) — keeps every (R, C) combination instantiable.
      constexpr bool kHw = UseHw && simd::has_chunked_hardware_expand<T, C>();
      for (int i = 0; i < R; ++i) {
        const std::uint32_t mask = masks[static_cast<std::size_t>(b) * R + i];
        vcur += simd::expand_any<T, C, kHw>(vals + vcur, mask, expanded);
        for (int l = 0; l < C; ++l) acc[i][l] += expanded[l] * xv[l];
      }
    }
    for (int i = 0; i < R; ++i) {
      const index_t r = p * R + i;
      if (r >= rows) break;
      T s = T(0);
      for (int l = 0; l < C; ++l) s += acc[i][l];
      yp[r] = s;
    }
  });
}

template <typename T>
template <bool UseHw>
void Spc5Matrix<T>::spmv_dispatch(std::span<const T> x, std::span<T> y) const {
  const int key = rows_per_pack_ * 100 + block_width_;
  switch (key) {
    case 104: spmv_kernel<1, 4, UseHw>(x, y); return;
    case 108: spmv_kernel<1, 8, UseHw>(x, y); return;
    case 116: spmv_kernel<1, 16, UseHw>(x, y); return;
    case 204: spmv_kernel<2, 4, UseHw>(x, y); return;
    case 208: spmv_kernel<2, 8, UseHw>(x, y); return;
    case 216: spmv_kernel<2, 16, UseHw>(x, y); return;
    case 404: spmv_kernel<4, 4, UseHw>(x, y); return;
    case 408: spmv_kernel<4, 8, UseHw>(x, y); return;
    case 416: spmv_kernel<4, 16, UseHw>(x, y); return;
    default: CSCV_CHECK_MSG(false, "unsupported SPC5 kernel beta(" << rows_per_pack_ << ","
                                                                   << block_width_ << ")");
  }
}

template <typename T>
void Spc5Matrix<T>::spmv(std::span<const T> x, std::span<T> y, simd::ExpandPath path) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  bool use_hw = false;
  switch (path) {
    case simd::ExpandPath::kHardware: use_hw = true; break;
    case simd::ExpandPath::kSoftware: use_hw = false; break;
    case simd::ExpandPath::kAuto:
      use_hw = simd::cpu_isa().avx512f && simd::kCompiledAvx512f;
      break;
  }
  if (use_hw) {
    spmv_dispatch<true>(x, y);
  } else {
    spmv_dispatch<false>(x, y);
  }
}

template <typename T>
std::size_t Spc5Matrix<T>::matrix_bytes() const {
  // Tail slack is excluded: it is never read on the masked path and exists
  // only to keep branch-free expansion in-bounds.
  return static_cast<std::size_t>(nnz_) * sizeof(T) + block_col_.size() * sizeof(index_t) +
         masks_.size() * sizeof(std::uint16_t) +
         (pack_block_ptr_.size() + pack_val_ptr_.size()) * sizeof(offset_t);
}

template class Spc5Matrix<float>;
template class Spc5Matrix<double>;

}  // namespace cscv::sparse

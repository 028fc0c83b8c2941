#include "sparse/cvr.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::sparse {

template <typename T>
CvrMatrix<T> CvrMatrix<T>::from_csr(const CsrMatrix<T>& a, int lanes, int chunks) {
  CSCV_CHECK(lanes == 4 || lanes == 8 || lanes == 16);
  if (chunks <= 0) chunks = util::max_threads();
  const index_t rows = a.rows();
  chunks = std::max(1, std::min<int>(chunks, std::max<index_t>(rows, 1)));

  CvrMatrix m;
  m.rows_ = rows;
  m.cols_ = a.cols();
  m.nnz_ = a.nnz();
  m.lanes_ = lanes;
  m.chunk_step_ptr_.assign(static_cast<std::size_t>(chunks) + 1, 0);
  m.chunk_rec_ptr_.assign(static_cast<std::size_t>(chunks) + 1, 0);

  auto row_ptr = a.row_ptr();
  auto col_in = a.col_idx();
  auto val_in = a.values();

  // Chunk boundaries: rows split so chunks carry near-equal nonzeros.
  std::vector<index_t> chunk_row(static_cast<std::size_t>(chunks) + 1, 0);
  for (int c = 1; c < chunks; ++c) {
    const offset_t target = m.nnz_ * c / chunks;
    auto it = std::upper_bound(row_ptr.begin(), row_ptr.end(), target);
    chunk_row[static_cast<std::size_t>(c)] =
        static_cast<index_t>(std::distance(row_ptr.begin(), it)) - 1;
  }
  chunk_row[static_cast<std::size_t>(chunks)] = rows;
  for (int c = 0; c < chunks; ++c) {  // monotone guard for tiny matrices
    chunk_row[static_cast<std::size_t>(c) + 1] =
        std::max(chunk_row[static_cast<std::size_t>(c) + 1], chunk_row[static_cast<std::size_t>(c)]);
  }

  // Serial build, chunk by chunk (appends to shared arrays).
  struct Lane {
    index_t row = -1;
    offset_t cursor = 0;
    offset_t end = 0;
  };
  std::vector<Lane> lane(static_cast<std::size_t>(lanes));

  for (int c = 0; c < chunks; ++c) {
    index_t next_row = chunk_row[static_cast<std::size_t>(c)];
    const index_t row_end = chunk_row[static_cast<std::size_t>(c) + 1];
    for (auto& l : lane) l = Lane{};
    offset_t step = m.chunk_step_ptr_[static_cast<std::size_t>(c)];

    while (true) {
      // Refill idle lanes with the next nonempty rows (lane stealing).
      bool any_active = false;
      for (int l = 0; l < lanes; ++l) {
        while (lane[static_cast<std::size_t>(l)].row < 0 && next_row < row_end) {
          const index_t r = next_row++;
          if (row_ptr[static_cast<std::size_t>(r)] < row_ptr[static_cast<std::size_t>(r) + 1]) {
            lane[static_cast<std::size_t>(l)] = {r, row_ptr[static_cast<std::size_t>(r)],
                                                 row_ptr[static_cast<std::size_t>(r) + 1]};
          }
        }
        any_active |= lane[static_cast<std::size_t>(l)].row >= 0;
      }
      if (!any_active) break;

      // Emit one step: every lane contributes one (col, val) slot; idle
      // lanes pad with a zero value against column 0.
      for (int l = 0; l < lanes; ++l) {
        Lane& ln = lane[static_cast<std::size_t>(l)];
        if (ln.row >= 0) {
          m.col_idx_.push_back(col_in[static_cast<std::size_t>(ln.cursor)]);
          m.values_.push_back(val_in[static_cast<std::size_t>(ln.cursor)]);
          ++ln.cursor;
          if (ln.cursor == ln.end) {
            m.rec_step_.push_back(step);
            m.rec_lane_.push_back(l);
            m.rec_row_.push_back(ln.row);
            ln.row = -1;
          }
        } else {
          m.col_idx_.push_back(0);
          m.values_.push_back(T(0));
        }
      }
      ++step;
    }
    m.chunk_step_ptr_[static_cast<std::size_t>(c) + 1] = step;
    m.chunk_rec_ptr_[static_cast<std::size_t>(c) + 1] =
        static_cast<offset_t>(m.rec_row_.size());
  }
  return m;
}

template <typename T>
template <int W>
void CvrMatrix<T>::spmv_chunk(int chunk, const T* x, T* y) const {
  alignas(64) T acc[W] = {};
  const offset_t s0 = chunk_step_ptr_[static_cast<std::size_t>(chunk)];
  const offset_t s1 = chunk_step_ptr_[static_cast<std::size_t>(chunk) + 1];
  offset_t r = chunk_rec_ptr_[static_cast<std::size_t>(chunk)];
  const offset_t r_end = chunk_rec_ptr_[static_cast<std::size_t>(chunk) + 1];
  const index_t* ci = col_idx_.data();
  const T* v = values_.data();
  for (offset_t s = s0; s < s1; ++s) {
    const std::size_t base = static_cast<std::size_t>(s) * W;
    for (int l = 0; l < W; ++l) {  // the vectorized step: W rows advance
      acc[l] += v[base + static_cast<std::size_t>(l)] *
                x[static_cast<std::size_t>(ci[base + static_cast<std::size_t>(l)])];
    }
    while (r < r_end && rec_step_[static_cast<std::size_t>(r)] == s) {
      const int l = rec_lane_[static_cast<std::size_t>(r)];
      y[static_cast<std::size_t>(rec_row_[static_cast<std::size_t>(r)])] =
          acc[static_cast<std::size_t>(l)];
      acc[static_cast<std::size_t>(l)] = T(0);
      ++r;
    }
  }
}

template <typename T>
void CvrMatrix<T>::spmv(std::span<const T> x, std::span<T> y) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  std::fill(y.begin(), y.end(), T(0));
  const int nchunks = chunks();
  util::parallel_for(0, static_cast<std::size_t>(nchunks), [&](std::size_t i_c) {
    const auto c = static_cast<int>(i_c);
    switch (lanes_) {
      case 4: spmv_chunk<4>(c, x.data(), y.data()); break;
      case 8: spmv_chunk<8>(c, x.data(), y.data()); break;
      case 16: spmv_chunk<16>(c, x.data(), y.data()); break;
      default: break;  // unreachable: validated at build
    }
  });
}

template <typename T>
std::size_t CvrMatrix<T>::matrix_bytes() const {
  return values_.size() * sizeof(T) + col_idx_.size() * sizeof(index_t) +
         rec_step_.size() * sizeof(offset_t) + rec_lane_.size() * sizeof(std::int32_t) +
         rec_row_.size() * sizeof(index_t) +
         (chunk_step_ptr_.size() + chunk_rec_ptr_.size()) * sizeof(offset_t);
}

template class CvrMatrix<float>;
template class CvrMatrix<double>;

}  // namespace cscv::sparse

#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::sparse {

namespace {

// One compiled per-row body serves every CSR kernel variant: the single-RHS
// kernels call with stride 1 / column 0, the multi-RHS kernels with stride
// num_rhs / column c. Open-coding the loop at each call site — even with
// identical source shape — lets the compiler make a different FP-contraction
// choice per site (fused FMA chain in one, unfused mul+add in another),
// which diverges in the last ulp and breaks the batched solvers' contract
// that column c of a fused apply is bitwise identical to the single-RHS
// apply. noinline pins both paths to this one instantiation.
//
// That is not enough for row_dot: GCC 12 still specializes it for stride 1
// (a clone, and loop versioning inside) and vectorizes that copy into
// separately rounded products, while the strided copy contracts to FMA.
// Where the target has FMA, row_dot therefore fuses explicitly, so every
// copy rounds alike.
template <typename T>
[[gnu::noinline]] T row_dot(const T* v, const index_t* ci, offset_t k0, offset_t k1,
                            const T* x, std::size_t stride, std::size_t c) {
  T acc = T(0);
  for (offset_t k = k0; k < k1; ++k) {
#if defined(__FMA__)
    acc = std::fma(v[k], x[static_cast<std::size_t>(ci[k]) * stride + c], acc);
#else
    acc += v[k] * x[static_cast<std::size_t>(ci[k]) * stride + c];
#endif
  }
  return acc;
}

template <typename T>
[[gnu::noinline]] void row_scatter(const T* v, const index_t* ci, offset_t k0, offset_t k1,
                                   T yr, T* x, std::size_t stride, std::size_t c) {
  for (offset_t k = k0; k < k1; ++k) {
    x[static_cast<std::size_t>(ci[k]) * stride + c] += v[k] * yr;
  }
}

}  // namespace

template <typename T>
CsrMatrix<T> CsrMatrix<T>::from_coo(const CooMatrix<T>& coo) {
  CSCV_CHECK_MSG(coo.normalized(), "CSR build requires a normalized COO");
  const auto rows = coo.rows();
  const auto nnz = coo.nnz();
  util::AlignedVector<offset_t> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  for (index_t r : coo.row_indices()) row_ptr[static_cast<std::size_t>(r) + 1]++;
  for (index_t r = 0; r < rows; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] += row_ptr[static_cast<std::size_t>(r)];
  }
  util::AlignedVector<index_t> col_idx(coo.col_indices().begin(), coo.col_indices().end());
  util::AlignedVector<T> values(coo.values().begin(), coo.values().end());
  CSCV_CHECK(row_ptr.back() == nnz);
  return CsrMatrix(rows, coo.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

template <typename T>
CsrMatrix<T>::CsrMatrix(index_t rows, index_t cols, util::AlignedVector<offset_t> row_ptr,
                        util::AlignedVector<index_t> col_idx, util::AlignedVector<T> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  CSCV_CHECK(rows_ >= 0 && cols_ >= 0);
  CSCV_CHECK(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1);
  CSCV_CHECK(col_idx_.size() == values_.size());
  CSCV_CHECK(row_ptr_.front() == 0);
  CSCV_CHECK(row_ptr_.back() == static_cast<offset_t>(values_.size()));
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r) {
    CSCV_CHECK_MSG(row_ptr_[r] <= row_ptr_[r + 1], "row_ptr must be nondecreasing");
  }
}

template <typename T>
void CsrMatrix<T>::spmv_serial(std::span<const T> x, std::span<T> y) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  const offset_t* rp = row_ptr_.data();
  const index_t* ci = col_idx_.data();
  const T* v = values_.data();
  for (index_t r = 0; r < rows_; ++r) {
    y[static_cast<std::size_t>(r)] =
        row_dot(v, ci, rp[r], rp[r + 1], x.data(), std::size_t{1}, std::size_t{0});
  }
}

template <typename T>
void CsrMatrix<T>::spmv(std::span<const T> x, std::span<T> y) const {
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  const offset_t* rp = row_ptr_.data();
  const index_t* ci = col_idx_.data();
  const T* v = values_.data();
  T* yp = y.data();
  const T* xp = x.data();
  util::parallel_for(0, static_cast<std::size_t>(rows_), [&](std::size_t r) {
    yp[r] = row_dot(v, ci, rp[r], rp[r + 1], xp, std::size_t{1}, std::size_t{0});
  });
}

template <typename T>
void CsrMatrix<T>::spmv_multi(std::span<const T> x, std::span<T> y, int num_rhs) const {
  CSCV_CHECK(num_rhs >= 1);
  if (num_rhs == 1) {
    spmv(x, y);
    return;
  }
  CSCV_CHECK(x.size() == static_cast<std::size_t>(cols_) * static_cast<std::size_t>(num_rhs));
  CSCV_CHECK(y.size() == static_cast<std::size_t>(rows_) * static_cast<std::size_t>(num_rhs));
  const offset_t* rp = row_ptr_.data();
  const index_t* ci = col_idx_.data();
  const T* v = values_.data();
  const T* xp = x.data();
  T* yp = y.data();
  // Column-outer on purpose: each column's dot product goes through the same
  // row_dot instantiation single-RHS spmv uses, so column c of the fused
  // apply stays bitwise identical to spmv on that column (the batched
  // solvers' determinism contract). A lane-parallel acc[] over columns
  // invites an in-order vectorized reduction — separately rounded products
  // instead of the single-RHS fused chain — which breaks exactly that.
  // The row's values/indices stay hot in cache across the k passes.
  const std::size_t kk = static_cast<std::size_t>(num_rhs);
  util::parallel_for(0, static_cast<std::size_t>(rows_), [&](std::size_t r) {
    T* yr = yp + r * kk;
    for (std::size_t c = 0; c < kk; ++c) {
      yr[c] = row_dot(v, ci, rp[r], rp[r + 1], xp, kk, c);
    }
  });
}

template <typename T>
void CsrMatrix<T>::spmv_transpose_serial(std::span<const T> y, std::span<T> x) const {
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  std::fill(x.begin(), x.end(), T(0));
  const offset_t* rp = row_ptr_.data();
  const index_t* ci = col_idx_.data();
  const T* v = values_.data();
  for (index_t r = 0; r < rows_; ++r) {
    row_scatter(v, ci, rp[static_cast<std::size_t>(r)], rp[static_cast<std::size_t>(r) + 1],
                y[static_cast<std::size_t>(r)], x.data(), std::size_t{1}, std::size_t{0});
  }
}

template <typename T>
void CsrMatrix<T>::spmv_transpose(std::span<const T> y, std::span<T> x) const {
  util::AlignedVector<T> scratch;
  spmv_transpose(y, x, scratch);
}

template <typename T>
void CsrMatrix<T>::spmv_transpose(std::span<const T> y, std::span<T> x,
                                  util::AlignedVector<T>& scratch) const {
  CSCV_CHECK(static_cast<index_t>(y.size()) == rows_);
  CSCV_CHECK(static_cast<index_t>(x.size()) == cols_);
  const int slots = util::max_threads();
  if (slots == 1) {
    spmv_transpose_serial(y, x);
    return;
  }
  // Scatter into per-slot private copies of x, then tree-free flat
  // reduction: each thread sums one contiguous slice over all copies.
  // Slots are striped over however many threads actually run, so a scratch
  // sized for one thread count stays correct (just oversized) for another.
  const std::size_t n = x.size();
  const std::size_t need = static_cast<std::size_t>(slots) * n;
  if (scratch.size() < need) scratch.resize(need);
  util::parallel_region([&](int tid, int nthreads) {
    for (int slot = tid; slot < slots; slot += nthreads) {
      T* xt = scratch.data() + static_cast<std::size_t>(slot) * n;
      std::fill_n(xt, n, T(0));
      auto [r0, r1] = util::static_partition(static_cast<std::size_t>(rows_), slots, slot);
      for (std::size_t r = r0; r < r1; ++r) {
        row_scatter(values_.data(), col_idx_.data(), row_ptr_[r], row_ptr_[r + 1], y[r], xt,
                    std::size_t{1}, std::size_t{0});
      }
    }
  });
  util::parallel_region([&](int tid, int nthreads) {
    auto [c0, c1] = util::static_partition(n, nthreads, tid);
    for (std::size_t c = c0; c < c1; ++c) {
      T acc = T(0);
      for (int t = 0; t < slots; ++t) acc += scratch[static_cast<std::size_t>(t) * n + c];
      x[c] = acc;
    }
  });
}

template <typename T>
void CsrMatrix<T>::spmv_transpose_multi(std::span<const T> y, std::span<T> x, int num_rhs,
                                        util::AlignedVector<T>& scratch) const {
  CSCV_CHECK(num_rhs >= 1);
  if (num_rhs == 1) {
    spmv_transpose(y, x, scratch);
    return;
  }
  CSCV_CHECK(y.size() == static_cast<std::size_t>(rows_) * static_cast<std::size_t>(num_rhs));
  CSCV_CHECK(x.size() == static_cast<std::size_t>(cols_) * static_cast<std::size_t>(num_rhs));
  const std::size_t kk = static_cast<std::size_t>(num_rhs);
  const int slots = util::max_threads();
  if (slots == 1) {
    // Serial scatter, column-outer within each row: per column the adds hit
    // x in exactly spmv_transpose_serial's nonzero order, through the same
    // row_scatter instantiation, so each column stays bitwise identical to
    // a single-RHS transpose.
    std::fill(x.begin(), x.end(), T(0));
    const offset_t* rp = row_ptr_.data();
    const index_t* ci = col_idx_.data();
    const T* v = values_.data();
    for (index_t r = 0; r < rows_; ++r) {
      const T* yr = y.data() + static_cast<std::size_t>(r) * kk;
      for (std::size_t c = 0; c < kk; ++c) {
        row_scatter(v, ci, rp[static_cast<std::size_t>(r)], rp[static_cast<std::size_t>(r) + 1],
                    yr[c], x.data(), kk, c);
      }
    }
    return;
  }
  // Per-slot private copies + flat reduction, mirroring the single-RHS row
  // partition and slot order — and the shared row_scatter per column for
  // the same contraction-matching reason as the serial path — so every
  // column reduces bitwise identically to a single-RHS transpose.
  const std::size_t n = static_cast<std::size_t>(cols_) * kk;
  const std::size_t need = static_cast<std::size_t>(slots) * n;
  if (scratch.size() < need) scratch.resize(need);
  util::parallel_region([&](int tid, int nthreads) {
    for (int slot = tid; slot < slots; slot += nthreads) {
      T* xt = scratch.data() + static_cast<std::size_t>(slot) * n;
      std::fill_n(xt, n, T(0));
      auto [r0, r1] = util::static_partition(static_cast<std::size_t>(rows_), slots, slot);
      for (std::size_t r = r0; r < r1; ++r) {
        const T* yr = y.data() + r * kk;
        for (std::size_t c = 0; c < kk; ++c) {
          row_scatter(values_.data(), col_idx_.data(), row_ptr_[r], row_ptr_[r + 1], yr[c],
                      xt, kk, c);
        }
      }
    }
  });
  util::parallel_region([&](int tid, int nthreads) {
    auto [c0, c1] = util::static_partition(n, nthreads, tid);
    for (std::size_t c = c0; c < c1; ++c) {
      T acc = T(0);
      for (int t = 0; t < slots; ++t) acc += scratch[static_cast<std::size_t>(t) * n + c];
      x[c] = acc;
    }
  });
}

template <typename T>
std::size_t CsrMatrix<T>::matrix_bytes() const {
  return values_.size() * sizeof(T) + col_idx_.size() * sizeof(index_t) +
         row_ptr_.size() * sizeof(offset_t);
}

template <typename T>
CooMatrix<T> CsrMatrix<T>::to_coo() const {
  CooMatrix<T> coo(rows_, cols_);
  coo.reserve(nnz());
  for (index_t r = 0; r < rows_; ++r) {
    for (offset_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      coo.add(r, col_idx_[static_cast<std::size_t>(k)], values_[static_cast<std::size_t>(k)]);
    }
  }
  coo.normalize();
  return coo;
}

template class CsrMatrix<float>;
template class CsrMatrix<double>;

}  // namespace cscv::sparse

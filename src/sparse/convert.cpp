#include "sparse/convert.hpp"

namespace cscv::sparse {

template <typename T>
CsrMatrix<T> csr_from_csc(const CscMatrix<T>& a) {
  const auto rows = static_cast<std::size_t>(a.rows());
  const auto nnz = static_cast<std::size_t>(a.nnz());
  auto col_ptr = a.col_ptr();
  auto row_idx = a.row_idx();
  auto vals = a.values();

  util::AlignedVector<offset_t> row_ptr(rows + 1, 0);
  for (index_t r : row_idx) row_ptr[static_cast<std::size_t>(r) + 1]++;
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];

  util::AlignedVector<index_t> col_idx(nnz);
  util::AlignedVector<T> values(nnz);
  util::AlignedVector<offset_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (index_t c = 0; c < a.cols(); ++c) {
    for (offset_t k = col_ptr[static_cast<std::size_t>(c)];
         k < col_ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const auto r = static_cast<std::size_t>(row_idx[static_cast<std::size_t>(k)]);
      const auto dst = static_cast<std::size_t>(cursor[r]++);
      col_idx[dst] = c;
      values[dst] = vals[static_cast<std::size_t>(k)];
    }
  }
  return CsrMatrix<T>(a.rows(), a.cols(), std::move(row_ptr), std::move(col_idx),
                      std::move(values));
}

template <typename T>
CscMatrix<T> csc_from_csr(const CsrMatrix<T>& a) {
  const auto cols = static_cast<std::size_t>(a.cols());
  const auto nnz = static_cast<std::size_t>(a.nnz());
  auto row_ptr = a.row_ptr();
  auto col_idx = a.col_idx();
  auto vals = a.values();

  util::UninitAlignedVector<offset_t> col_ptr(cols + 1, 0);
  for (index_t c : col_idx) col_ptr[static_cast<std::size_t>(c) + 1]++;
  for (std::size_t c = 0; c < cols; ++c) col_ptr[c + 1] += col_ptr[c];

  util::UninitAlignedVector<index_t> row_idx(nnz);
  util::UninitAlignedVector<T> values(nnz);
  util::AlignedVector<offset_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  for (index_t r = 0; r < a.rows(); ++r) {
    for (offset_t k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const auto c = static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)]);
      const auto dst = static_cast<std::size_t>(cursor[c]++);
      row_idx[dst] = r;
      values[dst] = vals[static_cast<std::size_t>(k)];
    }
  }
  return CscMatrix<T>(a.rows(), a.cols(), std::move(col_ptr), std::move(row_idx),
                      std::move(values));
}

template CsrMatrix<float> csr_from_csc<float>(const CscMatrix<float>&);
template CsrMatrix<double> csr_from_csc<double>(const CscMatrix<double>&);
template CscMatrix<float> csc_from_csr<float>(const CsrMatrix<float>&);
template CscMatrix<double> csc_from_csr<double>(const CsrMatrix<double>&);

}  // namespace cscv::sparse

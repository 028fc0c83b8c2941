// CSCV one-shot apply entry points.
//
// The parallel drivers (block scheduling, weighted partitions, private-y
// reduction, kernel dispatch) live in the plan layer (plan.cpp /
// dispatch.hpp); spmv / spmv_multi / spmv_transpose are conveniences that
// route through the matrix's cached SpmvPlan, so repeated calls on one
// matrix hit a fully warmed execution context.
#include "core/format.hpp"
#include "core/plan.hpp"
#include "util/assertx.hpp"

namespace cscv::core {

template <typename T>
void CscvMatrix<T>::spmv(std::span<const T> x, std::span<T> y, ThreadScheme scheme,
                         simd::ExpandPath path) const {
  plan({.scheme = scheme, .path = path}).execute(x, y);
}

template <typename T>
void CscvMatrix<T>::spmv_multi(std::span<const T> x, std::span<T> y, int num_rhs,
                               ThreadScheme scheme) const {
  CSCV_CHECK(num_rhs >= 1);
  if (num_rhs == 1) {  // the single-RHS kernels are strictly better tuned
    spmv(x, y, scheme);
    return;
  }
  plan({.scheme = scheme, .num_rhs = num_rhs}).execute(x, y);
}

template <typename T>
void CscvMatrix<T>::spmv_transpose(std::span<const T> y, std::span<T> x,
                                   simd::ExpandPath path) const {
  plan({.path = path}).execute_transpose(y, x);
}

template <typename T>
void CscvMatrix<T>::spmv_transpose_multi(std::span<const T> y, std::span<T> x,
                                         int num_rhs) const {
  CSCV_CHECK(num_rhs >= 1);
  if (num_rhs == 1) {
    spmv_transpose(y, x);
    return;
  }
  plan({.num_rhs = num_rhs}).execute_transpose(y, x);
}

template void CscvMatrix<float>::spmv_multi(std::span<const float>, std::span<float>, int,
                                            ThreadScheme) const;
template void CscvMatrix<double>::spmv_multi(std::span<const double>, std::span<double>, int,
                                             ThreadScheme) const;

template void CscvMatrix<float>::spmv_transpose(std::span<const float>, std::span<float>,
                                                simd::ExpandPath) const;
template void CscvMatrix<double>::spmv_transpose(std::span<const double>, std::span<double>,
                                                 simd::ExpandPath) const;
template void CscvMatrix<float>::spmv_transpose_multi(std::span<const float>,
                                                      std::span<float>, int) const;
template void CscvMatrix<double>::spmv_transpose_multi(std::span<const double>,
                                                       std::span<double>, int) const;

// The class is explicitly instantiated member-by-member across builder.cpp,
// spmv.cpp, and plan.cpp (the definitions are split between the TUs).
template void CscvMatrix<float>::spmv(std::span<const float>, std::span<float>, ThreadScheme,
                                      simd::ExpandPath) const;
template void CscvMatrix<double>::spmv(std::span<const double>, std::span<double>,
                                       ThreadScheme, simd::ExpandPath) const;

}  // namespace cscv::core

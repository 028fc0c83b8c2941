// Iterative CT reconstruction algorithms over LinearOperator.
//
//  * SIRT — Simultaneous Iterative Reconstruction Technique with the usual
//    row/column-sum normalization: x += C A^T R (b - A x). Robust, the
//    default in the examples.
//  * ART — Kaczmarz row action (needs row access, so it takes CSR).
//  * CGLS — conjugate gradient on the normal equations, the fastest of the
//    three per iteration count.
//
// All solvers report per-iteration residual norms through RunStats so tests
// can assert monotone convergence.
//
// sirt/cgls and their batches skip the first forward apply when they start
// from x == 0 (every entry ±0): that apply is exactly +0 on every engine,
// so b - A x is b and the outputs are unchanged (docs/API.md).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "recon/operators.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "util/aligned_vector.hpp"

namespace cscv::recon {

struct SolveOptions {
  int iterations = 50;
  double relaxation = 1.0;      // lambda for SIRT/ART
  double nonneg_floor = 0.0;    // clamp x below this (CT images are >= 0);
                                // set to a negative value to disable
  bool enforce_nonneg = true;
};

struct RunStats {
  std::vector<double> residual_norms;  // ||b - A x|| after each iteration
  int iterations_run = 0;
};

/// SIRT: x_{k+1} = x_k + lambda * C A^T R (b - A x_k), C/R inverse col/row
/// sums (zero sums leave the entry untouched). The one-column case of
/// sirt_batch: it runs in place on x and b with the plain forward/adjoint.
template <typename T>
RunStats sirt(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
              const SolveOptions& options = {});

/// Kaczmarz ART, one sweep over all rows per iteration.
template <typename T>
RunStats art(const sparse::CsrMatrix<T>& a, std::span<const T> b, std::span<T> x,
             const SolveOptions& options = {});

/// CGLS on min ||Ax - b||_2. Ignores relaxation; nonnegativity is applied
/// only to the final iterate (projecting inside CG breaks conjugacy). The
/// last iteration skips A^T r, which only feeds a next search direction, so
/// n iterations from zero make n forwards and n adjoints. The one-column
/// case of cgls_batch, in place like sirt.
template <typename T>
RunStats cgls(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
              const SolveOptions& options = {});

/// Batched SIRT: advances num_rhs reconstructions in lockstep over one
/// matrix traversal per iteration. b and x hold interleaved columns
/// (b[i * K + k], x[j * K + k]); options[k] steers column k independently.
/// A column that reaches its iteration count drops out of the scalar
/// updates (its x freezes) while the remaining columns keep riding the
/// fused applies — a finished column never stalls the batch. Column k of
/// the result is bitwise identical to sirt() run alone on that column,
/// provided the operator's batch applies preserve per-column bitwise
/// equality (CSCV/CSR SpMM and the de-interleaving fallback all do).
template <typename T>
std::vector<RunStats> sirt_batch(const LinearOperator<T>& a, std::span<const T> b,
                                 std::span<T> x, int num_rhs,
                                 std::span<const SolveOptions> options);

/// Batched CGLS; same interleaved layout and per-column dropout contract as
/// sirt_batch. A column that hits its CG breakdown condition (gamma == 0 or
/// q == 0) finishes early exactly as serial cgls() would break, without
/// stalling the other columns. The final adjoint is skipped once no
/// column has another iteration.
template <typename T>
std::vector<RunStats> cgls_batch(const LinearOperator<T>& a, std::span<const T> b,
                                 std::span<T> x, int num_rhs,
                                 std::span<const SolveOptions> options);

/// ICD — Iterative Coordinate Descent (the MBIR update of Sauer & Bouman,
/// cited by the paper as the algorithm CSC-style formats serve): maintains
/// the residual e = b - Ax and sweeps pixels, each update needing one
/// column dot product and one column axpy — exactly the two column-major
/// access patterns CSC provides in O(nnz(column)). One iteration = one full
/// sweep. Nonnegativity is enforced per update (the natural ICD constraint
/// handling), so convergence is monotone in ||e||.
template <typename T>
RunStats icd(const sparse::CscMatrix<T>& a, std::span<const T> b, std::span<T> x,
             const SolveOptions& options = {});

extern template RunStats sirt<float>(const LinearOperator<float>&, std::span<const float>,
                                     std::span<float>, const SolveOptions&);
extern template RunStats sirt<double>(const LinearOperator<double>&, std::span<const double>,
                                      std::span<double>, const SolveOptions&);
extern template RunStats art<float>(const sparse::CsrMatrix<float>&, std::span<const float>,
                                    std::span<float>, const SolveOptions&);
extern template RunStats art<double>(const sparse::CsrMatrix<double>&,
                                     std::span<const double>, std::span<double>,
                                     const SolveOptions&);
extern template RunStats cgls<float>(const LinearOperator<float>&, std::span<const float>,
                                     std::span<float>, const SolveOptions&);
extern template RunStats cgls<double>(const LinearOperator<double>&, std::span<const double>,
                                      std::span<double>, const SolveOptions&);
extern template std::vector<RunStats> sirt_batch<float>(const LinearOperator<float>&,
                                                        std::span<const float>,
                                                        std::span<float>, int,
                                                        std::span<const SolveOptions>);
extern template std::vector<RunStats> sirt_batch<double>(const LinearOperator<double>&,
                                                         std::span<const double>,
                                                         std::span<double>, int,
                                                         std::span<const SolveOptions>);
extern template std::vector<RunStats> cgls_batch<float>(const LinearOperator<float>&,
                                                        std::span<const float>,
                                                        std::span<float>, int,
                                                        std::span<const SolveOptions>);
extern template std::vector<RunStats> cgls_batch<double>(const LinearOperator<double>&,
                                                         std::span<const double>,
                                                         std::span<double>, int,
                                                         std::span<const SolveOptions>);
extern template RunStats icd<float>(const sparse::CscMatrix<float>&, std::span<const float>,
                                    std::span<float>, const SolveOptions&);
extern template RunStats icd<double>(const sparse::CscMatrix<double>&,
                                     std::span<const double>, std::span<double>,
                                     const SolveOptions&);

}  // namespace cscv::recon

// Iterative CT reconstruction algorithms over LinearOperator.
//
//  * OS-SART — ordered-subsets SART: each update uses the rows of one
//    stratum of view groups, so a pass over the data applies n corrections
//    instead of one. SIRT — x += C A^T R (b - A x), row/column-sum
//    normalized, the default in the examples — is its one-stratum case:
//    one body serves both, locally and sharded.
//  * CGLS — conjugate gradient on the normal equations, the fastest per
//    iteration count.
//  * ICD — iterative coordinate descent over a CSC matrix.
//
// All solvers report per-iteration residual norms through RunStats so tests
// can assert monotone convergence.
//
// The SART family and cgls skip the first forward apply when they start
// from x == 0 (every entry ±0): that apply is exactly +0 on every engine,
// so b - A x is b and the outputs are unchanged (docs/API.md).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "recon/operators.hpp"
#include "sparse/csc.hpp"
#include "util/aligned_vector.hpp"

namespace cscv::recon {

struct SolveOptions {
  int iterations = 50;          // passes over the data
  double relaxation = 1.0;      // lambda for SIRT/OS-SART
  double nonneg_floor = 0.0;    // clamp x below this (CT images are >= 0);
                                // set to a negative value to disable
  bool enforce_nonneg = true;
};

struct RunStats {
  /// One norm of b - A x per iteration (see os_sart_batch for which x).
  std::vector<double> residual_norms;
  int iterations_run = 0;
};

/// The stratum count an OS-SART solve over an operator of `view_groups`
/// view groups runs with: num_subsets clamped to view_groups (a stratum
/// needs a group). CheckError when num_subsets < 1.
[[nodiscard]] int os_sart_strata(int view_groups, int num_subsets);

/// Batched OS-SART, the one SART body: num_rhs reconstructions advance in
/// lockstep, b and x holding interleaved columns (b[i * K + k],
/// x[j * K + k]); options[k] steers column k. Stratum s of
/// n = os_sart_strata(a.view_groups(), num_subsets) is the view groups g
/// with g % n == s. Each stratum in turn takes
///   x += lambda * C_s A_s^T R_s (b_s - A_s x),  then x = max(x, floor),
/// with R the inverse row sums of A, C_s the inverse column sums of A_s
/// (zero sums give zero weights) and the clamp when enforce_nonneg. At
/// n == 1 that is SIRT, run on the operator's full applies. A pass's
/// residual norm is ||b - A x|| over all rows, each row taken at the x its
/// stratum's update used, so it costs no extra apply; at n == 1 it is the
/// norm before the pass's update.
/// A column that reaches its iteration count drops out of the scalar
/// updates (its x freezes) while the rest keep riding the fused applies.
/// Column k of the result is bitwise the num_rhs == 1 solve of that column,
/// provided the operator's batch applies keep per-column bitwise equality
/// (CSCV/CSR SpMM and the de-interleaving fallback all do).
template <typename T>
std::vector<RunStats> os_sart_batch(const LinearOperator<T>& a, std::span<const T> b,
                                    std::span<T> x, int num_rhs, int num_subsets,
                                    std::span<const SolveOptions> options);

/// One-column OS-SART: os_sart_batch at num_rhs == 1, in place on x and b.
template <typename T>
RunStats os_sart(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
                 int num_subsets, const SolveOptions& options = {});

/// SIRT: x_{k+1} = x_k + lambda * C A^T R (b - A x_k) — os_sart at one
/// subset.
template <typename T>
RunStats sirt(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
              const SolveOptions& options = {});

/// Batched SIRT: os_sart_batch at one subset.
template <typename T>
std::vector<RunStats> sirt_batch(const LinearOperator<T>& a, std::span<const T> b,
                                 std::span<T> x, int num_rhs,
                                 std::span<const SolveOptions> options);

/// CGLS on min ||Ax - b||_2. Ignores relaxation; nonnegativity is applied
/// only to the final iterate (projecting inside CG breaks conjugacy). The
/// last iteration skips A^T r, which only feeds a next search direction, so
/// n iterations from zero make n forwards and n adjoints. The one-column
/// case of cgls_batch, in place like sirt.
template <typename T>
RunStats cgls(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
              const SolveOptions& options = {});

/// Batched CGLS; same interleaved layout and per-column dropout contract as
/// os_sart_batch. A column that hits its CG breakdown condition (gamma == 0 or
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

extern template std::vector<RunStats> os_sart_batch<float>(const LinearOperator<float>&,
                                                           std::span<const float>,
                                                           std::span<float>, int, int,
                                                           std::span<const SolveOptions>);
extern template std::vector<RunStats> os_sart_batch<double>(const LinearOperator<double>&,
                                                            std::span<const double>,
                                                            std::span<double>, int, int,
                                                            std::span<const SolveOptions>);
extern template RunStats os_sart<float>(const LinearOperator<float>&, std::span<const float>,
                                        std::span<float>, int, const SolveOptions&);
extern template RunStats os_sart<double>(const LinearOperator<double>&,
                                         std::span<const double>, std::span<double>, int,
                                         const SolveOptions&);
extern template RunStats sirt<float>(const LinearOperator<float>&, std::span<const float>,
                                     std::span<float>, const SolveOptions&);
extern template RunStats sirt<double>(const LinearOperator<double>&, std::span<const double>,
                                      std::span<double>, const SolveOptions&);
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

#include "recon/solvers.hpp"

#include <algorithm>
#include <cmath>

#include "recon/colmath.hpp"
#include "util/assertx.hpp"

namespace cscv::recon {

namespace {

// All per-element arithmetic routes through colmath so the serial and
// batched solvers execute the same instantiations (see colmath.hpp for
// why that is what makes the batch bitwise-equal to serial).
template <typename T>
double norm2(std::span<const T> v) {
  return colmath::norm2(v.data(), v.size());
}

template <typename T>
void clamp_nonneg(std::span<T> x, const SolveOptions& options) {
  if (!options.enforce_nonneg) return;
  colmath::clamp_floor(x.data(), static_cast<T>(options.nonneg_floor), x.size());
}

// A x for x all ±0 is exactly +0 on every engine (finite A): accumulators
// start at +0 and +0 + ±0 == +0. A solve started from zero therefore skips
// its first forward and writes those zeros itself, so b - A x == b bit for
// bit.
template <typename T>
bool all_zero(std::span<const T> x) {
  return std::all_of(x.begin(), x.end(), [](T v) { return v == T(0); });
}

/// y = A X over num_rhs interleaved columns, or +0 when `zero_x` (above).
template <typename T>
void forward_or_zero(const LinearOperator<T>& a, std::span<const T> x, std::span<T> y,
                     int num_rhs, bool zero_x) {
  if (zero_x) {
    std::fill(y.begin(), y.end(), T(0));
  } else if (num_rhs == 1) {
    a.forward(x, y);
  } else {
    a.forward_batch(x, y, num_rhs);
  }
}

}  // namespace

template <typename T>
RunStats sirt(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
              const SolveOptions& options) {
  CSCV_CHECK(static_cast<sparse::index_t>(b.size()) == a.rows());
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == a.cols());
  const std::size_t m = b.size();
  const std::size_t n = x.size();

  util::AlignedVector<T> inv_row = a.row_sums();
  util::AlignedVector<T> inv_col = a.col_sums();
  for (auto& v : inv_row) v = v > T(0) ? T(1) / v : T(0);
  for (auto& v : inv_col) v = v > T(0) ? T(1) / v : T(0);

  util::AlignedVector<T> residual(m);
  util::AlignedVector<T> back(n);
  RunStats stats;
  const T lambda = static_cast<T>(options.relaxation);

  const bool zero_start = all_zero<T>(x);
  for (int it = 0; it < options.iterations; ++it) {
    forward_or_zero<T>(a, x, residual, 1, it == 0 && zero_start);
    colmath::residual_from(b.data(), residual.data(), m);
    stats.residual_norms.push_back(colmath::norm2(residual.data(), m));
    colmath::scale_by(residual.data(), inv_row.data(), m);
    a.adjoint(residual, back);
    colmath::sirt_step(x.data(), inv_col.data(), back.data(), lambda, n);
    clamp_nonneg(x, options);
    ++stats.iterations_run;
  }
  return stats;
}

template <typename T>
std::vector<RunStats> sirt_batch(const LinearOperator<T>& a, std::span<const T> b,
                                 std::span<T> x, int num_rhs,
                                 std::span<const SolveOptions> options) {
  CSCV_CHECK(num_rhs >= 1);
  CSCV_CHECK(options.size() == static_cast<std::size_t>(num_rhs));
  if (num_rhs == 1) return {sirt(a, b, x, options[0])};
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t n = static_cast<std::size_t>(a.cols());
  CSCV_CHECK(b.size() == m * k);
  CSCV_CHECK(x.size() == n * k);

  // The normalizers depend only on the matrix, so one single-RHS pass
  // serves every column — bitwise what each serial sirt() would compute.
  util::AlignedVector<T> inv_row = a.row_sums();
  util::AlignedVector<T> inv_col = a.col_sums();
  for (auto& v : inv_row) v = v > T(0) ? T(1) / v : T(0);
  for (auto& v : inv_col) v = v > T(0) ? T(1) / v : T(0);

  util::AlignedVector<T> residual(m * k);
  util::AlignedVector<T> back(n * k);
  // Contiguous per-column scratch: every update runs on a gathered column
  // through the same colmath instantiation the serial solver uses, then
  // scatters back. The gathers are O(m+n) against the O(nnz) applies.
  util::AlignedVector<T> col_m(m);
  util::AlignedVector<T> col_n(n);
  util::AlignedVector<T> col_x(n);
  std::vector<util::AlignedVector<T>> b_cols(k);
  for (std::size_t c = 0; c < k; ++c) {
    b_cols[c].resize(m);
    colmath::gather_column(b.data(), m, k, c, b_cols[c].data());
  }
  std::vector<RunStats> stats(k);
  int max_iters = 0;
  for (const SolveOptions& o : options) max_iters = std::max(max_iters, o.iterations);

  const bool zero_start = all_zero<T>(x);
  for (int it = 0; it < max_iters; ++it) {
    forward_or_zero<T>(a, x, residual, num_rhs, it == 0 && zero_start);
    for (std::size_t c = 0; c < k; ++c) {
      if (it >= options[c].iterations) continue;  // finished column: x frozen
      colmath::gather_column(residual.data(), m, k, c, col_m.data());
      colmath::residual_from(b_cols[c].data(), col_m.data(), m);
      stats[c].residual_norms.push_back(colmath::norm2(col_m.data(), m));
      colmath::scale_by(col_m.data(), inv_row.data(), m);
      colmath::scatter_column(col_m.data(), m, k, c, residual.data());
    }
    a.adjoint_batch(residual, back, num_rhs);
    for (std::size_t c = 0; c < k; ++c) {
      if (it >= options[c].iterations) continue;
      colmath::gather_column(back.data(), n, k, c, col_n.data());
      colmath::gather_column(x.data(), n, k, c, col_x.data());
      colmath::sirt_step(col_x.data(), inv_col.data(), col_n.data(),
                         static_cast<T>(options[c].relaxation), n);
      if (options[c].enforce_nonneg) {
        colmath::clamp_floor(col_x.data(), static_cast<T>(options[c].nonneg_floor), n);
      }
      colmath::scatter_column(col_x.data(), n, k, c, x.data());
      ++stats[c].iterations_run;
    }
  }
  return stats;
}

template <typename T>
RunStats art(const sparse::CsrMatrix<T>& a, std::span<const T> b, std::span<T> x,
             const SolveOptions& options) {
  CSCV_CHECK(static_cast<sparse::index_t>(b.size()) == a.rows());
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == a.cols());
  auto row_ptr = a.row_ptr();
  auto col_idx = a.col_idx();
  auto vals = a.values();
  const T lambda = static_cast<T>(options.relaxation);

  // Squared row norms, reused every sweep.
  util::AlignedVector<T> row_norm2(static_cast<std::size_t>(a.rows()), T(0));
  for (sparse::index_t r = 0; r < a.rows(); ++r) {
    T s = T(0);
    for (auto k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      s += vals[static_cast<std::size_t>(k)] * vals[static_cast<std::size_t>(k)];
    }
    row_norm2[static_cast<std::size_t>(r)] = s;
  }

  util::AlignedVector<T> residual(b.size());
  RunStats stats;
  for (int it = 0; it < options.iterations; ++it) {
    for (sparse::index_t r = 0; r < a.rows(); ++r) {
      const T nrm = row_norm2[static_cast<std::size_t>(r)];
      if (nrm == T(0)) continue;
      T dot = T(0);
      for (auto k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        dot += vals[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])];
      }
      const T alpha = lambda * (b[static_cast<std::size_t>(r)] - dot) / nrm;
      for (auto k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])] +=
            alpha * vals[static_cast<std::size_t>(k)];
      }
    }
    clamp_nonneg(x, options);
    a.spmv(x, residual);
    for (std::size_t i = 0; i < residual.size(); ++i) residual[i] = b[i] - residual[i];
    stats.residual_norms.push_back(norm2(std::span<const T>(residual)));
    ++stats.iterations_run;
  }
  return stats;
}

template <typename T>
RunStats cgls(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
              const SolveOptions& options) {
  CSCV_CHECK(static_cast<sparse::index_t>(b.size()) == a.rows());
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == a.cols());
  const std::size_t m = b.size();
  const std::size_t n = x.size();

  util::AlignedVector<T> r(m);   // b - A x
  util::AlignedVector<T> s(n);   // A^T r
  util::AlignedVector<T> p(n);
  util::AlignedVector<T> q(m);   // A p

  forward_or_zero<T>(a, x, r, 1, all_zero<T>(x));
  colmath::residual_from(b.data(), r.data(), m);
  a.adjoint(r, s);
  p.assign(s.begin(), s.end());
  double gamma = colmath::dot_self(s.data(), n);

  RunStats stats;
  for (int it = 0; it < options.iterations; ++it) {
    if (gamma == 0.0) break;
    a.forward(p, q);
    const double qq = colmath::dot_self(q.data(), m);
    if (qq == 0.0) break;
    const double alpha = gamma / qq;
    colmath::axpy(x.data(), static_cast<T>(alpha), p.data(), n);
    colmath::axmy(r.data(), static_cast<T>(alpha), q.data(), m);
    stats.residual_norms.push_back(colmath::norm2(r.data(), m));
    ++stats.iterations_run;
    // The next search direction only serves a next iteration.
    if (it + 1 == options.iterations) break;
    a.adjoint(r, s);
    const double gamma_new = colmath::dot_self(s.data(), n);
    const double beta = gamma_new / gamma;
    gamma = gamma_new;
    colmath::xpay(p.data(), s.data(), static_cast<T>(beta), n);
  }
  clamp_nonneg(x, options);
  return stats;
}

template <typename T>
std::vector<RunStats> cgls_batch(const LinearOperator<T>& a, std::span<const T> b,
                                 std::span<T> x, int num_rhs,
                                 std::span<const SolveOptions> options) {
  CSCV_CHECK(num_rhs >= 1);
  CSCV_CHECK(options.size() == static_cast<std::size_t>(num_rhs));
  if (num_rhs == 1) return {cgls(a, b, x, options[0])};
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t n = static_cast<std::size_t>(a.cols());
  CSCV_CHECK(b.size() == m * k);
  CSCV_CHECK(x.size() == n * k);

  // Interleaved staging used only at the fused applies; all solver state
  // lives in contiguous per-column vectors so every vector update and
  // reduction runs through the exact colmath instantiation serial cgls
  // uses (the bitwise contract — see colmath.hpp).
  util::AlignedVector<T> multi_m(m * k);
  util::AlignedVector<T> multi_n(n * k);
  std::vector<util::AlignedVector<T>> bc(k), xc(k), rc(k), sc(k), pc(k), qc(k);
  for (std::size_t c = 0; c < k; ++c) {
    bc[c].resize(m);
    colmath::gather_column(b.data(), m, k, c, bc[c].data());
    xc[c].resize(n);
    colmath::gather_column(x.data(), n, k, c, xc[c].data());
    rc[c].resize(m);
    sc[c].resize(n);
    qc[c].resize(m);
  }

  forward_or_zero<T>(a, x, multi_m, num_rhs, all_zero<T>(x));
  for (std::size_t c = 0; c < k; ++c) {
    colmath::gather_column(multi_m.data(), m, k, c, rc[c].data());
    colmath::residual_from(bc[c].data(), rc[c].data(), m);
    colmath::scatter_column(rc[c].data(), m, k, c, multi_m.data());
  }
  a.adjoint_batch(multi_m, multi_n, num_rhs);
  std::vector<double> gamma(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    colmath::gather_column(multi_n.data(), n, k, c, sc[c].data());
    pc[c].assign(sc[c].begin(), sc[c].end());
    gamma[c] = colmath::dot_self(sc[c].data(), n);
  }

  std::vector<RunStats> stats(k);
  // A column is done once serial cgls would have broken out (gamma or qq
  // hit zero); done columns freeze while the rest share the fused applies.
  std::vector<char> done(k, 0);
  int max_iters = 0;
  for (const SolveOptions& o : options) max_iters = std::max(max_iters, o.iterations);

  for (int it = 0; it < max_iters; ++it) {
    bool any_active = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (!done[c] && it < options[c].iterations && gamma[c] == 0.0) done[c] = 1;
      if (!done[c] && it < options[c].iterations) any_active = true;
    }
    if (!any_active) break;
    for (std::size_t c = 0; c < k; ++c) {
      colmath::scatter_column(pc[c].data(), n, k, c, multi_n.data());
    }
    a.forward_batch(multi_n, multi_m, num_rhs);
    bool any_next = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (done[c] || it >= options[c].iterations) continue;
      colmath::gather_column(multi_m.data(), m, k, c, qc[c].data());
      const double qq = colmath::dot_self(qc[c].data(), m);
      if (qq == 0.0) {
        done[c] = 1;
        continue;
      }
      const double alpha = gamma[c] / qq;
      colmath::axpy(xc[c].data(), static_cast<T>(alpha), pc[c].data(), n);
      colmath::axmy(rc[c].data(), static_cast<T>(alpha), qc[c].data(), m);
      stats[c].residual_norms.push_back(colmath::norm2(rc[c].data(), m));
      ++stats[c].iterations_run;
      if (it + 1 < options[c].iterations) any_next = true;
    }
    // As in serial cgls, the next search directions only serve a next
    // iteration; columns that end here ride along when others go on.
    if (!any_next) break;
    for (std::size_t c = 0; c < k; ++c) {
      colmath::scatter_column(rc[c].data(), m, k, c, multi_m.data());
    }
    a.adjoint_batch(multi_m, multi_n, num_rhs);
    for (std::size_t c = 0; c < k; ++c) {
      if (done[c] || it >= options[c].iterations) continue;
      colmath::gather_column(multi_n.data(), n, k, c, sc[c].data());
      const double gamma_new = colmath::dot_self(sc[c].data(), n);
      const double beta = gamma_new / gamma[c];
      gamma[c] = gamma_new;
      colmath::xpay(pc[c].data(), sc[c].data(), static_cast<T>(beta), n);
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (options[c].enforce_nonneg) {
      colmath::clamp_floor(xc[c].data(), static_cast<T>(options[c].nonneg_floor), n);
    }
    colmath::scatter_column(xc[c].data(), n, k, c, x.data());
  }
  return stats;
}

template <typename T>
RunStats icd(const sparse::CscMatrix<T>& a, std::span<const T> b, std::span<T> x,
             const SolveOptions& options) {
  CSCV_CHECK(static_cast<sparse::index_t>(b.size()) == a.rows());
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == a.cols());
  auto col_ptr = a.col_ptr();
  auto row_idx = a.row_idx();
  auto vals = a.values();

  // Column squared norms, fixed across sweeps.
  util::AlignedVector<T> col_norm2(static_cast<std::size_t>(a.cols()), T(0));
  for (sparse::index_t c = 0; c < a.cols(); ++c) {
    T s = T(0);
    for (auto k = col_ptr[static_cast<std::size_t>(c)];
         k < col_ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      s += vals[static_cast<std::size_t>(k)] * vals[static_cast<std::size_t>(k)];
    }
    col_norm2[static_cast<std::size_t>(c)] = s;
  }

  // Residual e = b - A x, maintained incrementally: the whole point of ICD
  // is that one pixel update touches only its column's rows.
  util::AlignedVector<T> e(b.begin(), b.end());
  {
    util::AlignedVector<T> ax(b.size());
    a.spmv(x, ax);
    for (std::size_t i = 0; i < e.size(); ++i) e[i] -= ax[i];
  }

  const T lambda = static_cast<T>(options.relaxation);
  const T floor_v = options.enforce_nonneg ? static_cast<T>(options.nonneg_floor)
                                           : std::numeric_limits<T>::lowest();
  RunStats stats;
  for (int it = 0; it < options.iterations; ++it) {
    for (sparse::index_t c = 0; c < a.cols(); ++c) {
      const T nrm = col_norm2[static_cast<std::size_t>(c)];
      if (nrm == T(0)) continue;
      // Optimal 1-D step: alpha = <A_col, e> / ||A_col||^2, clamped so the
      // pixel stays feasible; the residual absorbs the actual step.
      T dot = T(0);
      for (auto k = col_ptr[static_cast<std::size_t>(c)];
           k < col_ptr[static_cast<std::size_t>(c) + 1]; ++k) {
        dot += vals[static_cast<std::size_t>(k)] *
               e[static_cast<std::size_t>(row_idx[static_cast<std::size_t>(k)])];
      }
      const T old = x[static_cast<std::size_t>(c)];
      const T updated = std::max(floor_v, old + lambda * dot / nrm);
      const T step = updated - old;
      if (step == T(0)) continue;
      x[static_cast<std::size_t>(c)] = updated;
      for (auto k = col_ptr[static_cast<std::size_t>(c)];
           k < col_ptr[static_cast<std::size_t>(c) + 1]; ++k) {
        e[static_cast<std::size_t>(row_idx[static_cast<std::size_t>(k)])] -=
            step * vals[static_cast<std::size_t>(k)];
      }
    }
    stats.residual_norms.push_back(norm2(std::span<const T>(e)));
    ++stats.iterations_run;
  }
  return stats;
}

template RunStats icd<float>(const sparse::CscMatrix<float>&, std::span<const float>,
                             std::span<float>, const SolveOptions&);
template RunStats icd<double>(const sparse::CscMatrix<double>&, std::span<const double>,
                              std::span<double>, const SolveOptions&);

template RunStats sirt<float>(const LinearOperator<float>&, std::span<const float>,
                              std::span<float>, const SolveOptions&);
template RunStats sirt<double>(const LinearOperator<double>&, std::span<const double>,
                               std::span<double>, const SolveOptions&);
template RunStats art<float>(const sparse::CsrMatrix<float>&, std::span<const float>,
                             std::span<float>, const SolveOptions&);
template RunStats art<double>(const sparse::CsrMatrix<double>&, std::span<const double>,
                              std::span<double>, const SolveOptions&);
template RunStats cgls<float>(const LinearOperator<float>&, std::span<const float>,
                              std::span<float>, const SolveOptions&);
template RunStats cgls<double>(const LinearOperator<double>&, std::span<const double>,
                               std::span<double>, const SolveOptions&);
template std::vector<RunStats> sirt_batch<float>(const LinearOperator<float>&,
                                                 std::span<const float>, std::span<float>,
                                                 int, std::span<const SolveOptions>);
template std::vector<RunStats> sirt_batch<double>(const LinearOperator<double>&,
                                                  std::span<const double>, std::span<double>,
                                                  int, std::span<const SolveOptions>);
template std::vector<RunStats> cgls_batch<float>(const LinearOperator<float>&,
                                                 std::span<const float>, std::span<float>,
                                                 int, std::span<const SolveOptions>);
template std::vector<RunStats> cgls_batch<double>(const LinearOperator<double>&,
                                                  std::span<const double>, std::span<double>,
                                                  int, std::span<const SolveOptions>);

}  // namespace cscv::recon

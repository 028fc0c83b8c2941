#include "recon/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "recon/colmath.hpp"
#include "util/assertx.hpp"

namespace cscv::recon {

namespace {

// All per-element arithmetic routes through colmath, so every column of a
// solve, in place or gathered, runs the same instantiations (colmath.hpp).
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

/// SIRT weights of row or column sums: 1/sum, zero sums give zero weights.
template <typename T>
util::AlignedVector<T> inverted(util::AlignedVector<T> sums) {
  for (auto& v : sums) v = v > T(0) ? T(1) / v : T(0);
  return sums;
}

/// One vector per column of a k-column solve, each contiguous, so every
/// update runs on a plain array. Built fresh (`len` elements per column)
/// or over an interleaved caller array: one column is that array itself,
/// in place; k columns are gathered copies, written back by scatter_to.
template <typename T>
class Columns {
  using V = std::remove_const_t<T>;

 public:
  Columns(std::size_t k, std::size_t len) : len_(len), store_(k) {
    for (auto& s : store_) {
      s.resize(len);
      col_.push_back(s.data());
    }
  }
  Columns(std::span<T> multi, std::size_t k) : len_(multi.size() / k) {
    if (k == 1) {
      col_.push_back(multi.data());
      return;
    }
    store_.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
      store_[c].resize(len_);
      colmath::gather_column(multi.data(), len_, k, c, store_[c].data());
      col_.push_back(store_[c].data());
    }
  }

  T* operator[](std::size_t c) const { return col_[c]; }
  [[nodiscard]] std::size_t len() const { return len_; }
  void fill_zero() const {
    for (T* c : col_) std::fill_n(c, len_, V(0));
  }
  /// Writes gathered columns back into `multi`; nothing to do in place.
  void scatter_to(std::span<V> multi) const {
    for (std::size_t c = 0; c < store_.size(); ++c) {
      colmath::scatter_column(col_[c], len_, store_.size(), c, multi.data());
    }
  }

 private:
  std::size_t len_;
  std::vector<util::AlignedVector<V>> store_;
  std::vector<T*> col_;
};

/// out[c] = A in[c] (A^T in[c] when `transpose`) for every column, as one
/// apply: the plain forward or adjoint for one column, one fused batch
/// apply through interleaved staging for k.
template <typename T>
class FusedApply {
 public:
  FusedApply(const LinearOperator<T>& a, std::size_t k)
      : a_(a),
        k_(k),
        stage_m_(k > 1 ? k * static_cast<std::size_t>(a.rows()) : 0),
        stage_n_(k > 1 ? k * static_cast<std::size_t>(a.cols()) : 0) {}

  void forward(const Columns<T>& in, const Columns<T>& out) { apply(in, out, false); }
  void adjoint(const Columns<T>& in, const Columns<T>& out) { apply(in, out, true); }

 private:
  void apply(const Columns<T>& in, const Columns<T>& out, bool transpose) {
    if (k_ == 1) {
      const std::span<const T> x(in[0], in.len());
      const std::span<T> y(out[0], out.len());
      transpose ? a_.adjoint(x, y) : a_.forward(x, y);
      return;
    }
    util::AlignedVector<T>& stage_in = transpose ? stage_m_ : stage_n_;
    util::AlignedVector<T>& stage_out = transpose ? stage_n_ : stage_m_;
    for (std::size_t c = 0; c < k_; ++c) {
      colmath::scatter_column(in[c], in.len(), k_, c, stage_in.data());
    }
    const int num_rhs = static_cast<int>(k_);
    transpose ? a_.adjoint_batch(stage_in, stage_out, num_rhs)
              : a_.forward_batch(stage_in, stage_out, num_rhs);
    for (std::size_t c = 0; c < k_; ++c) {
      colmath::gather_column(stage_out.data(), out.len(), k_, c, out[c]);
    }
  }

  const LinearOperator<T>& a_;
  std::size_t k_;
  util::AlignedVector<T> stage_m_;
  util::AlignedVector<T> stage_n_;
};

/// Checks a k-column solve's arguments and returns k.
template <typename T>
std::size_t check_batch(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
                        int num_rhs, std::span<const SolveOptions> options) {
  CSCV_CHECK(num_rhs >= 1);
  CSCV_CHECK(options.size() == static_cast<std::size_t>(num_rhs));
  const auto k = static_cast<std::size_t>(num_rhs);
  CSCV_CHECK(b.size() == static_cast<std::size_t>(a.rows()) * k);
  CSCV_CHECK(x.size() == static_cast<std::size_t>(a.cols()) * k);
  return k;
}

int max_iterations(std::span<const SolveOptions> options) {
  int max_iters = 0;
  for (const SolveOptions& o : options) max_iters = std::max(max_iters, o.iterations);
  return max_iters;
}

}  // namespace

// One body per solver: one column (sirt/cgls) works in place on the
// caller's x and b with the plain applies; k columns run the very same
// per-column calls on gathered columns around fused applies, which is what
// makes column c of a batch bitwise the one-column solve.
template <typename T>
RunStats sirt(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
              const SolveOptions& options) {
  return sirt_batch(a, b, x, 1, std::span<const SolveOptions>(&options, 1)).front();
}

template <typename T>
std::vector<RunStats> sirt_batch(const LinearOperator<T>& a, std::span<const T> b,
                                 std::span<T> x, int num_rhs,
                                 std::span<const SolveOptions> options) {
  const std::size_t k = check_batch(a, b, x, num_rhs, options);
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t n = static_cast<std::size_t>(a.cols());

  // The normalizers depend only on the matrix: one pass serves every column.
  const util::AlignedVector<T> inv_row = inverted(a.row_sums());
  const util::AlignedVector<T> inv_col = inverted(a.col_sums());

  const Columns<const T> bc(b, k);
  Columns<T> xc(x, k);
  Columns<T> residual(k, m);
  Columns<T> back(k, n);
  FusedApply<T> apply(a, k);
  std::vector<RunStats> stats(k);

  const bool zero_start = all_zero<T>(x);
  const int max_iters = max_iterations(options);
  for (int it = 0; it < max_iters; ++it) {
    if (it == 0 && zero_start) {
      residual.fill_zero();
    } else {
      apply.forward(xc, residual);
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (it >= options[c].iterations) continue;  // finished column: x frozen
      colmath::residual_from(bc[c], residual[c], m);
      stats[c].residual_norms.push_back(colmath::norm2(residual[c], m));
      colmath::scale_by(residual[c], inv_row.data(), m);
    }
    apply.adjoint(residual, back);
    for (std::size_t c = 0; c < k; ++c) {
      if (it >= options[c].iterations) continue;
      colmath::sirt_step(xc[c], inv_col.data(), back[c],
                         static_cast<T>(options[c].relaxation), n);
      clamp_nonneg(std::span<T>(xc[c], n), options[c]);
      ++stats[c].iterations_run;
    }
  }
  xc.scatter_to(x);
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
  return cgls_batch(a, b, x, 1, std::span<const SolveOptions>(&options, 1)).front();
}

template <typename T>
std::vector<RunStats> cgls_batch(const LinearOperator<T>& a, std::span<const T> b,
                                 std::span<T> x, int num_rhs,
                                 std::span<const SolveOptions> options) {
  const std::size_t k = check_batch(a, b, x, num_rhs, options);
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t n = static_cast<std::size_t>(a.cols());

  const Columns<const T> bc(b, k);
  Columns<T> xc(x, k);
  Columns<T> r(k, m);  // b - A x
  Columns<T> s(k, n);  // A^T r
  Columns<T> p(k, n);
  Columns<T> q(k, m);  // A p
  FusedApply<T> apply(a, k);

  if (all_zero<T>(x)) {
    r.fill_zero();
  } else {
    apply.forward(xc, r);
  }
  for (std::size_t c = 0; c < k; ++c) colmath::residual_from(bc[c], r[c], m);
  apply.adjoint(r, s);
  std::vector<double> gamma(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::copy_n(s[c], n, p[c]);
    gamma[c] = colmath::dot_self(s[c], n);
  }

  std::vector<RunStats> stats(k);
  // A column is done once CG breaks down (gamma or qq hits zero); done
  // columns freeze while the rest share the fused applies.
  std::vector<char> done(k, 0);
  const auto active = [&](std::size_t c, int it) {
    return !done[c] && it < options[c].iterations;
  };
  const int max_iters = max_iterations(options);
  for (int it = 0; it < max_iters; ++it) {
    bool any_active = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (active(c, it) && gamma[c] == 0.0) done[c] = 1;
      any_active = any_active || active(c, it);
    }
    if (!any_active) break;
    apply.forward(p, q);
    bool any_next = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (!active(c, it)) continue;
      const double qq = colmath::dot_self(q[c], m);
      if (qq == 0.0) {
        done[c] = 1;
        continue;
      }
      const double alpha = gamma[c] / qq;
      colmath::axpy(xc[c], static_cast<T>(alpha), p[c], n);
      colmath::axmy(r[c], static_cast<T>(alpha), q[c], m);
      stats[c].residual_norms.push_back(colmath::norm2(r[c], m));
      ++stats[c].iterations_run;
      any_next = any_next || it + 1 < options[c].iterations;
    }
    // The next search directions only serve a next iteration; columns that
    // end here ride along when others go on.
    if (!any_next) break;
    apply.adjoint(r, s);
    for (std::size_t c = 0; c < k; ++c) {
      if (!active(c, it)) continue;
      const double gamma_new = colmath::dot_self(s[c], n);
      const double beta = gamma_new / gamma[c];
      gamma[c] = gamma_new;
      colmath::xpay(p[c], s[c], static_cast<T>(beta), n);
    }
  }
  for (std::size_t c = 0; c < k; ++c) clamp_nonneg(std::span<T>(xc[c], n), options[c]);
  xc.scatter_to(x);
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

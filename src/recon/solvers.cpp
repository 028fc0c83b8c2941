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

/// Rows [begin, begin + len) of an m-row vector.
struct RowRange {
  std::size_t begin;
  std::size_t len;
};

/// One OS-SART stratum: its view groups as a subset of the operator's,
/// their rows as maximal contiguous ranges (one range [0, m) at one
/// stratum), and its inverse column sums.
template <typename T>
struct Stratum {
  core::GroupSubset subset;
  std::vector<RowRange> rows;
  util::AlignedVector<T> inv_col;
};

/// out[c] = A in[c] (A^T in[c] when `transpose`) for every column, as one
/// apply: the plain forward or adjoint for one column, one fused batch
/// apply through interleaved staging for k. A stratum's apply is the
/// operator's subset apply, and only the stratum's rows are staged; the
/// one stratum of a SIRT solve is the whole operator, applied in full.
template <typename T>
class FusedApply {
 public:
  FusedApply(const LinearOperator<T>& a, std::size_t k)
      : a_(a),
        k_(k),
        all_rows_{{0, static_cast<std::size_t>(a.rows())}},
        stage_m_(k > 1 ? k * static_cast<std::size_t>(a.rows()) : 0),
        stage_n_(k > 1 ? k * static_cast<std::size_t>(a.cols()) : 0) {}

  void forward(const Columns<T>& in, const Columns<T>& out) { apply(in, out, false, nullptr); }
  void adjoint(const Columns<T>& in, const Columns<T>& out) { apply(in, out, true, nullptr); }
  void forward(const Stratum<T>& s, const Columns<T>& in, const Columns<T>& out) {
    apply(in, out, false, &s);
  }
  void adjoint(const Stratum<T>& s, const Columns<T>& in, const Columns<T>& out) {
    apply(in, out, true, &s);
  }

 private:
  void apply(const Columns<T>& in, const Columns<T>& out, bool transpose,
             const Stratum<T>* s) {
    const core::GroupSubset* subset = s != nullptr && s->subset.count > 1 ? &s->subset : nullptr;
    const std::vector<RowRange>& rows = subset != nullptr ? s->rows : all_rows_;
    const auto run = [&](std::span<const T> from, std::span<T> to, int num_rhs) {
      if (subset != nullptr) {
        transpose ? a_.adjoint_subset(*subset, from, to, num_rhs)
                  : a_.forward_subset(*subset, from, to, num_rhs);
      } else if (num_rhs == 1) {
        transpose ? a_.adjoint(from, to) : a_.forward(from, to);
      } else {
        transpose ? a_.adjoint_batch(from, to, num_rhs) : a_.forward_batch(from, to, num_rhs);
      }
    };
    if (k_ == 1) {
      run(std::span<const T>(in[0], in.len()), std::span<T>(out[0], out.len()), 1);
      return;
    }
    // Rows (the m side) move range by range: a subset reads and writes
    // only its own.
    const auto move_rows = [&](T* multi, std::size_t c, T* col, bool to_multi) {
      for (const RowRange& r : rows) {
        to_multi ? colmath::scatter_column(col + r.begin, r.len, k_, c, multi + r.begin * k_)
                 : colmath::gather_column(multi + r.begin * k_, r.len, k_, c, col + r.begin);
      }
    };
    for (std::size_t c = 0; c < k_; ++c) {
      transpose ? move_rows(stage_m_.data(), c, in[c], true)
                : colmath::scatter_column(in[c], in.len(), k_, c, stage_n_.data());
    }
    transpose ? run(stage_m_, stage_n_, static_cast<int>(k_))
              : run(stage_n_, stage_m_, static_cast<int>(k_));
    for (std::size_t c = 0; c < k_; ++c) {
      transpose ? colmath::gather_column(stage_n_.data(), out.len(), k_, c, out[c])
                : move_rows(stage_m_.data(), c, out[c], false);
    }
  }

  const LinearOperator<T>& a_;
  std::size_t k_;
  std::vector<RowRange> all_rows_;
  util::AlignedVector<T> stage_m_;
  util::AlignedVector<T> stage_n_;
};

/// The strata of an OS-SART solve over `a` and their column weights: the
/// plain col_sums() at one stratum, the subset column sums at more.
template <typename T>
std::vector<Stratum<T>> make_strata(const LinearOperator<T>& a, int num_subsets) {
  const int groups = a.view_groups();
  const int n = os_sart_strata(groups, num_subsets);
  const auto m = static_cast<std::size_t>(a.rows());
  const std::size_t group_rows = a.group_rows();
  CSCV_CHECK_MSG(groups >= 1 && group_rows * static_cast<std::size_t>(groups) >= m &&
                     group_rows * static_cast<std::size_t>(groups - 1) < m,
                 groups << " view groups of " << group_rows << " rows do not tile " << m
                        << " rows");
  std::vector<Stratum<T>> strata(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    Stratum<T>& st = strata[static_cast<std::size_t>(s)];
    st.subset = {n, s};
    for (int g = s; g < groups; g += n) {
      const std::size_t r0 = static_cast<std::size_t>(g) * group_rows;
      const std::size_t len = std::min(group_rows, m - r0);
      if (!st.rows.empty() && st.rows.back().begin + st.rows.back().len == r0) {
        st.rows.back().len += len;
      } else {
        st.rows.push_back({r0, len});
      }
    }
    st.inv_col = inverted(n == 1 ? a.col_sums() : a.subset_col_sums(st.subset));
  }
  return strata;
}

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

int os_sart_strata(int view_groups, int num_subsets) {
  CSCV_CHECK_MSG(num_subsets >= 1, "OS-SART needs at least one subset, got " << num_subsets);
  return std::min(num_subsets, view_groups);
}

// One body per solver: one column works in place on the caller's x and b
// with the plain applies; k columns run the very same per-column calls on
// gathered columns around fused applies, which is what makes column c of a
// batch bitwise the one-column solve. SIRT is the one-stratum case of the
// SART body, so its calls are exactly those of the full applies.
template <typename T>
std::vector<RunStats> os_sart_batch(const LinearOperator<T>& a, std::span<const T> b,
                                    std::span<T> x, int num_rhs, int num_subsets,
                                    std::span<const SolveOptions> options) {
  const std::size_t k = check_batch(a, b, x, num_rhs, options);
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t n = static_cast<std::size_t>(a.cols());

  // The normalizers depend only on the matrix: one pass serves every column.
  const util::AlignedVector<T> inv_row = inverted(a.row_sums());
  const std::vector<Stratum<T>> strata = make_strata(a, num_subsets);

  const Columns<const T> bc(b, k);
  Columns<T> xc(x, k);
  Columns<T> residual(k, m);
  Columns<T> back(k, n);
  FusedApply<T> apply(a, k);
  std::vector<RunStats> stats(k);
  std::vector<double> sum2(k);

  const bool zero_start = all_zero<T>(x);
  const int max_iters = max_iterations(options);
  for (int it = 0; it < max_iters; ++it) {
    std::fill(sum2.begin(), sum2.end(), 0.0);
    for (const Stratum<T>& s : strata) {
      if (it == 0 && zero_start && &s == &strata.front()) {
        residual.fill_zero();
      } else {
        apply.forward(s, xc, residual);
      }
      for (std::size_t c = 0; c < k; ++c) {
        if (it >= options[c].iterations) continue;  // finished column: x frozen
        for (const RowRange& r : s.rows) {
          T* rc = residual[c] + r.begin;
          colmath::residual_from(bc[c] + r.begin, rc, r.len);
          sum2[c] += colmath::dot_self(rc, r.len);
          colmath::scale_by(rc, inv_row.data() + r.begin, r.len);
        }
      }
      apply.adjoint(s, residual, back);
      for (std::size_t c = 0; c < k; ++c) {
        if (it >= options[c].iterations) continue;
        colmath::sirt_step(xc[c], s.inv_col.data(), back[c],
                           static_cast<T>(options[c].relaxation), n);
        clamp_nonneg(std::span<T>(xc[c], n), options[c]);
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (it >= options[c].iterations) continue;
      stats[c].residual_norms.push_back(std::sqrt(sum2[c]));
      ++stats[c].iterations_run;
    }
  }
  xc.scatter_to(x);
  return stats;
}

template <typename T>
RunStats os_sart(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
                 int num_subsets, const SolveOptions& options) {
  return os_sart_batch(a, b, x, 1, num_subsets, std::span<const SolveOptions>(&options, 1))
      .front();
}

template <typename T>
RunStats sirt(const LinearOperator<T>& a, std::span<const T> b, std::span<T> x,
              const SolveOptions& options) {
  return os_sart(a, b, x, 1, options);
}

template <typename T>
std::vector<RunStats> sirt_batch(const LinearOperator<T>& a, std::span<const T> b,
                                 std::span<T> x, int num_rhs,
                                 std::span<const SolveOptions> options) {
  return os_sart_batch(a, b, x, num_rhs, 1, options);
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

template std::vector<RunStats> os_sart_batch<float>(const LinearOperator<float>&,
                                                    std::span<const float>, std::span<float>,
                                                    int, int, std::span<const SolveOptions>);
template std::vector<RunStats> os_sart_batch<double>(const LinearOperator<double>&,
                                                     std::span<const double>,
                                                     std::span<double>, int, int,
                                                     std::span<const SolveOptions>);
template RunStats os_sart<float>(const LinearOperator<float>&, std::span<const float>,
                                 std::span<float>, int, const SolveOptions&);
template RunStats os_sart<double>(const LinearOperator<double>&, std::span<const double>,
                                  std::span<double>, int, const SolveOptions&);
template RunStats sirt<float>(const LinearOperator<float>&, std::span<const float>,
                              std::span<float>, const SolveOptions&);
template RunStats sirt<double>(const LinearOperator<double>&, std::span<const double>,
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

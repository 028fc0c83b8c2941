#include "recon/os_sart.hpp"

#include <algorithm>

#include "recon/colmath.hpp"
#include "util/assertx.hpp"

namespace cscv::recon {

namespace {

/// SART weights of row or column sums: 1/sum, zero sums give zero weights.
template <typename T>
util::AlignedVector<T> inverted(std::span<const T> sums) {
  util::AlignedVector<T> w(sums.begin(), sums.end());
  for (auto& v : w) v = v > T(0) ? T(1) / v : T(0);
  return w;
}

}  // namespace

int os_sart_strata(int view_groups, int num_subsets) {
  CSCV_CHECK_MSG(num_subsets >= 1, "OS-SART needs at least one subset, got " << num_subsets);
  return std::min(num_subsets, view_groups);
}

// One body for serial and batched solves: with one column every update
// runs in place, with k columns on a gathered column through the very same
// colmath instantiation — which is what makes column c of a batch bitwise
// the serial solve.
template <typename T>
std::vector<RunStats> os_sart_batch(const core::SpmvPlan<T>& plan, std::span<const T> b,
                                    std::span<T> x, std::span<const OsSartOptions> options) {
  const core::CscvMatrix<T>& a = *plan.matrix();
  const std::size_t k = options.size();
  CSCV_CHECK_MSG(k >= 1 && static_cast<std::size_t>(plan.num_rhs()) == k,
                 "OS-SART over a num_rhs " << plan.num_rhs() << " plan got " << k
                                           << " column options");
  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  CSCV_CHECK(b.size() == m * k);
  CSCV_CHECK(x.size() == n * k);
  // The strata are structural; fusable jobs must agree on them.
  for (const OsSartOptions& o : options) {
    CSCV_CHECK_MSG(o.num_subsets == options[0].num_subsets,
                   "batched OS-SART columns want " << o.num_subsets << " and "
                                                   << options[0].num_subsets << " subsets");
  }
  const int groups = a.view_groups();  // of the operator, folded or not
  const int strata = os_sart_strata(groups, options[0].num_subsets);
  const std::size_t group_rows =
      static_cast<std::size_t>(a.params().s_vvec) * static_cast<std::size_t>(a.layout().num_bins);

  const util::AlignedVector<T> inv_row = inverted(plan.row_sums());
  std::vector<util::AlignedVector<T>> inv_col;
  inv_col.reserve(static_cast<std::size_t>(strata));
  for (int s = 0; s < strata; ++s) inv_col.push_back(inverted(plan.col_sums({strata, s})));

  // Contiguous per-column b (b itself for one column) and scratch.
  std::vector<util::AlignedVector<T>> b_cols(k > 1 ? k : 0);
  for (std::size_t c = 0; c < b_cols.size(); ++c) {
    b_cols[c].resize(m);
    colmath::gather_column(b.data(), m, k, c, b_cols[c].data());
  }
  const auto b_col = [&](std::size_t c) { return k == 1 ? b.data() : b_cols[c].data(); };
  util::AlignedVector<T> fwd(m * k);
  util::AlignedVector<T> back(n * k);
  util::AlignedVector<T> col_m(k > 1 ? m : 0);
  util::AlignedVector<T> col_back(k > 1 ? n : 0);
  util::AlignedVector<T> col_x(k > 1 ? n : 0);

  std::vector<RunStats> stats(k);
  int max_iters = 0;
  for (const OsSartOptions& o : options) max_iters = std::max(max_iters, o.iterations);
  const auto active = [&](std::size_t c, int it) { return it < options[c].iterations; };

  for (int it = 0; it < max_iters; ++it) {
    for (int s = 0; s < strata; ++s) {
      const core::GroupSubset subset{strata, s};
      // After the first pass, stratum 0's rows at this x are already in fwd:
      // the previous pass's residual stack forwarded them.
      if (it == 0 || s != 0) plan.execute(subset, x, fwd);
      for (std::size_t c = 0; c < k; ++c) {
        if (!active(c, it)) continue;  // finished column: x frozen
        for (int g = s; g < groups; g += strata) {
          const std::size_t r0 = static_cast<std::size_t>(g) * group_rows;
          const std::size_t len = std::min(group_rows, m - r0);
          if (k == 1) {
            colmath::weighted_residual(b.data() + r0, inv_row.data() + r0, fwd.data() + r0, len);
          } else {
            colmath::gather_column(fwd.data() + r0 * k, len, k, c, col_m.data());
            colmath::weighted_residual(b_col(c) + r0, inv_row.data() + r0, col_m.data(), len);
            colmath::scatter_column(col_m.data(), len, k, c, fwd.data() + r0 * k);
          }
        }
      }
      plan.execute_transpose(subset, fwd, back);
      const T* w = inv_col[static_cast<std::size_t>(s)].data();
      for (std::size_t c = 0; c < k; ++c) {
        if (!active(c, it)) continue;
        const auto lambda = static_cast<T>(options[c].relaxation);
        if (k == 1) {
          colmath::sart_step(x.data(), w, back.data(), lambda, options[c].enforce_nonneg, n);
        } else {
          colmath::gather_column(back.data(), n, k, c, col_back.data());
          colmath::gather_column(x.data(), n, k, c, col_x.data());
          colmath::sart_step(col_x.data(), w, col_back.data(), lambda,
                             options[c].enforce_nonneg, n);
          colmath::scatter_column(col_x.data(), n, k, c, x.data());
        }
      }
    }
    // The per-pass residual: every stratum's forward at the pass's final x,
    // stacked, so each row is the same subset apply the updates use.
    for (int s = 0; s < strata; ++s) plan.execute(core::GroupSubset{strata, s}, x, fwd);
    for (std::size_t c = 0; c < k; ++c) {
      if (!active(c, it)) continue;
      const T* ax = fwd.data();
      if (k > 1) {
        colmath::gather_column(fwd.data(), m, k, c, col_m.data());
        ax = col_m.data();
      }
      stats[c].residual_norms.push_back(colmath::diff_norm2(b_col(c), ax, m));
      ++stats[c].iterations_run;
    }
  }
  return stats;
}

template <typename T>
RunStats os_sart(const core::SpmvPlan<T>& plan, std::span<const T> b, std::span<T> x,
                 const OsSartOptions& options) {
  return os_sart_batch(plan, b, x, std::span<const OsSartOptions>(&options, 1)).front();
}

template RunStats os_sart<float>(const core::SpmvPlan<float>&, std::span<const float>,
                                 std::span<float>, const OsSartOptions&);
template RunStats os_sart<double>(const core::SpmvPlan<double>&, std::span<const double>,
                                  std::span<double>, const OsSartOptions&);
template std::vector<RunStats> os_sart_batch<float>(const core::SpmvPlan<float>&,
                                                    std::span<const float>, std::span<float>,
                                                    std::span<const OsSartOptions>);
template std::vector<RunStats> os_sart_batch<double>(const core::SpmvPlan<double>&,
                                                     std::span<const double>,
                                                     std::span<double>,
                                                     std::span<const OsSartOptions>);

}  // namespace cscv::recon

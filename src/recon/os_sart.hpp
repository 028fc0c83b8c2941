// OS-SART — ordered-subsets SART, the standard accelerated iterative CT
// reconstruction: each update uses only a subset of the views, so one pass
// over the data applies `num_subsets` corrections instead of one. Converges
// in far fewer data passes than SIRT on well-posed problems.
//
// A stratum is a set of whole view groups (S_VVec consecutive views, the
// row unit of every CSCV block): stratum k owns the groups g with
// g % n == k, interleaved for angular spread. A stratum apply is therefore
// the operator's own plan restricted to those groups
// (SpmvPlan::execute(GroupSubset, ...)): no second matrix, the same padding
// and lane packing. The SART weights come from the plan's memos: a
// stratum's row weights are its rows of 1/(A 1), its column weights
// 1/(A_s^T 1).
#pragma once

#include <span>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "recon/solvers.hpp"

namespace cscv::recon {

struct OsSartOptions {
  int iterations = 10;     // full passes over all subsets
  int num_subsets = 8;
  double relaxation = 1.0;
  bool enforce_nonneg = true;
};

/// The stratum count a solve over an operator of `view_groups` view groups
/// runs with: num_subsets clamped to view_groups (a stratum needs a group).
[[nodiscard]] int os_sart_strata(int view_groups, int num_subsets);

/// OS-SART over the plan's operator (num_rhs == 1). Stratum k is the view
/// groups g with g % n == k, n = os_sart_strata(view groups, num_subsets). Residual norms are
/// recorded once per full pass from the stacked stratum forwards at the
/// pass's final x, and the next pass's first stratum reuses its rows.
template <typename T>
RunStats os_sart(const core::SpmvPlan<T>& plan, std::span<const T> b, std::span<T> x,
                 const OsSartOptions& options = {});

/// Batched OS-SART over a plan with num_rhs == options.size(): the columns
/// advance in lockstep, sharing one stratum traversal per update (b and x
/// interleaved as in sirt_batch). Every option's num_subsets must agree
/// (the strata are structural); iterations/relaxation/nonneg may differ per
/// column, and a finished column freezes without stalling the batch.
/// Column k is bitwise identical to os_sart() run alone on that column.
template <typename T>
std::vector<RunStats> os_sart_batch(const core::SpmvPlan<T>& plan, std::span<const T> b,
                                    std::span<T> x, std::span<const OsSartOptions> options);

extern template RunStats os_sart<float>(const core::SpmvPlan<float>&, std::span<const float>,
                                        std::span<float>, const OsSartOptions&);
extern template RunStats os_sart<double>(const core::SpmvPlan<double>&,
                                         std::span<const double>, std::span<double>,
                                         const OsSartOptions&);
extern template std::vector<RunStats> os_sart_batch<float>(const core::SpmvPlan<float>&,
                                                           std::span<const float>,
                                                           std::span<float>,
                                                           std::span<const OsSartOptions>);
extern template std::vector<RunStats> os_sart_batch<double>(
    const core::SpmvPlan<double>&, std::span<const double>, std::span<double>,
    std::span<const OsSartOptions>);

}  // namespace cscv::recon

// Operator-only solver set-up done once: the zero-start skip of the first
// forward (the SART family, cgls and their batches), CGLS's skip of its
// last adjoint, and OS-SART over a plan — stratum weights memoized on the
// plan and reused by every solve, bit for bit what a fresh plan computes,
// with per-pass norms of the residual rows the strata used.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "recon/colmath.hpp"
#include "recon/solvers.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace cscv::recon {
namespace {

using cscv::testing::cached_ct_csc;
using cscv::testing::cached_ct_csr;

/// Counts the applies a solver makes through the wrapped operator.
template <typename T>
class CountingOperator final : public LinearOperator<T> {
 public:
  explicit CountingOperator(const LinearOperator<T>& inner) : inner_(&inner) {}
  [[nodiscard]] sparse::index_t rows() const override { return inner_->rows(); }
  [[nodiscard]] sparse::index_t cols() const override { return inner_->cols(); }
  void forward(std::span<const T> x, std::span<T> y) const override {
    ++forwards;
    inner_->forward(x, y);
  }
  void adjoint(std::span<const T> y, std::span<T> x) const override {
    ++adjoints;
    inner_->adjoint(y, x);
  }
  void forward_batch(std::span<const T> x, std::span<T> y, int num_rhs) const override {
    ++forwards;
    inner_->forward_batch(x, y, num_rhs);
  }
  void adjoint_batch(std::span<const T> y, std::span<T> x, int num_rhs) const override {
    ++adjoints;
    inner_->adjoint_batch(y, x, num_rhs);
  }

  mutable int forwards = 0;
  mutable int adjoints = 0;

 private:
  const LinearOperator<T>* inner_;
};

struct Counts {
  int forwards = 0;
  int adjoints = 0;
};

enum class Solver { kSirt, kCgls };

/// Applies one solve makes from x0 (num_rhs interleaved columns).
Counts count_applies(Solver solver, float x0, int num_rhs) {
  const auto& csr = cached_ct_csr<float>(16, 12);
  const CsrOperator<float> inner(csr);
  const CountingOperator<float> op(inner);
  const auto k = static_cast<std::size_t>(num_rhs);
  const auto b = sparse::random_vector<float>(static_cast<std::size_t>(csr.rows()) * k, 21,
                                              0.0, 1.0);
  util::AlignedVector<float> x(static_cast<std::size_t>(csr.cols()) * k, x0);
  const std::vector<SolveOptions> opts(k, SolveOptions{.iterations = 4});
  if (solver == Solver::kSirt) {
    (void)sirt_batch<float>(op, b, x, num_rhs, opts);
  } else {
    (void)cgls_batch<float>(op, b, x, num_rhs, opts);
  }
  return {op.forwards, op.adjoints};
}

TEST(ZeroStart, SolversStartedFromZeroMakeOneForwardFewer) {
  for (const Solver solver : {Solver::kSirt, Solver::kCgls}) {
    for (const int k : {1, 3}) {
      SCOPED_TRACE((solver == Solver::kSirt ? "sirt k=" : "cgls k=") + std::to_string(k));
      const Counts from_zero = count_applies(solver, 0.0F, k);
      const Counts from_neg_zero = count_applies(solver, -0.0F, k);
      const Counts from_x = count_applies(solver, 0.25F, k);
      EXPECT_EQ(from_zero.forwards, from_x.forwards - 1);
      EXPECT_EQ(from_neg_zero.forwards, from_x.forwards - 1);
      EXPECT_EQ(from_zero.adjoints, from_x.adjoints);
    }
  }
}

/// CGLS from x == 0 as it ran while every iteration, the last one too,
/// ended with s = A^T r and a new search direction.
RunStats cgls_with_final_adjoint(const LinearOperator<float>& a, std::span<const float> b,
                                 std::span<float> x, const SolveOptions& options) {
  const std::size_t m = b.size();
  const std::size_t n = x.size();
  util::AlignedVector<float> r(m, 0.0F);
  util::AlignedVector<float> s(n);
  util::AlignedVector<float> q(m);
  colmath::residual_from(b.data(), r.data(), m);
  a.adjoint(r, s);
  util::AlignedVector<float> p(s.begin(), s.end());
  double gamma = colmath::dot_self(s.data(), n);
  RunStats stats;
  for (int it = 0; it < options.iterations; ++it) {
    if (gamma == 0.0) break;
    a.forward(p, q);
    const double qq = colmath::dot_self(q.data(), m);
    if (qq == 0.0) break;
    const double alpha = gamma / qq;
    colmath::axpy(x.data(), static_cast<float>(alpha), p.data(), n);
    colmath::axmy(r.data(), static_cast<float>(alpha), q.data(), m);
    stats.residual_norms.push_back(colmath::norm2(r.data(), m));
    a.adjoint(r, s);
    const double gamma_new = colmath::dot_self(s.data(), n);
    const double beta = gamma_new / gamma;
    gamma = gamma_new;
    colmath::xpay(p.data(), s.data(), static_cast<float>(beta), n);
    ++stats.iterations_run;
  }
  colmath::clamp_floor(x.data(), static_cast<float>(options.nonneg_floor), n);
  return stats;
}

// CGLS from zero makes n forwards and n adjoints for n iterations: the
// first forward is skipped, and so is the last iteration's adjoint, which
// would only feed a next search direction. x and the norms keep the bits
// of the loop that still makes it, serial and per batch column, also when
// one column stops before the others.
TEST(ZeroStart, CglsMakesNForwardsAndNAdjoints) {
  const auto& csr = cached_ct_csr<float>(16, 12);
  const CsrOperator<float> inner(csr);
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  for (const int iters : {1, 4}) {
    for (const int k : {1, 3}) {
      SCOPED_TRACE("n=" + std::to_string(iters) + " k=" + std::to_string(k));
      const auto kk = static_cast<std::size_t>(k);
      std::vector<SolveOptions> opts(kk, SolveOptions{.iterations = iters});
      if (k > 1) opts[1].iterations = (iters + 1) / 2;  // ends first when n > 1
      const auto b = sparse::random_vector<float>(m * kk, 25, 0.0, 1.0);
      util::AlignedVector<float> x(n * kk, 0.0F);
      const CountingOperator<float> op(inner);
      const auto stats = k == 1 ? std::vector<RunStats>{cgls<float>(op, b, x, opts[0])}
                                : cgls_batch<float>(op, b, x, k, opts);
      EXPECT_EQ(op.forwards, iters);
      EXPECT_EQ(op.adjoints, iters);

      util::AlignedVector<float> b_col(m);
      util::AlignedVector<float> x_col(n);
      util::AlignedVector<float> want(n);
      for (std::size_t c = 0; c < kk; ++c) {
        colmath::gather_column(b.data(), m, kk, c, b_col.data());
        colmath::gather_column(x.data(), n, kk, c, x_col.data());
        std::fill(want.begin(), want.end(), 0.0F);
        const RunStats ref = cgls_with_final_adjoint(inner, b_col, want, opts[c]);
        EXPECT_EQ(0, std::memcmp(x_col.data(), want.data(), n * sizeof(float)))
            << "column " << c;
        EXPECT_EQ(stats[c].residual_norms, ref.residual_norms) << "column " << c;
        EXPECT_EQ(stats[c].iterations_run, ref.iterations_run) << "column " << c;
      }
    }
  }
}

// The skipped forward would have returned +0, so the first SIRT residual is
// b itself: its norm is norm2(b) exactly, serial and per batch column.
TEST(ZeroStart, FirstSirtResidualIsExactlyNormOfB) {
  const auto& csr = cached_ct_csr<float>(16, 12);
  const CsrOperator<float> op(csr);
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  const auto b = sparse::random_vector<float>(m, 22, 0.0, 1.0);
  util::AlignedVector<float> x(n, 0.0F);
  const RunStats stats = sirt<float>(op, b, x, {.iterations = 2});
  EXPECT_EQ(stats.residual_norms[0], colmath::norm2(b.data(), m));

  constexpr int kBatch = 3;
  const auto bk = sparse::random_vector<float>(m * kBatch, 23, 0.0, 1.0);
  util::AlignedVector<float> xk(n * kBatch, 0.0F);
  const std::vector<SolveOptions> opts(kBatch, SolveOptions{.iterations = 2});
  const auto batch = sirt_batch<float>(op, bk, xk, kBatch, opts);
  util::AlignedVector<float> col(m);
  for (std::size_t c = 0; c < kBatch; ++c) {
    colmath::gather_column(bk.data(), m, kBatch, c, col.data());
    EXPECT_EQ(batch[c].residual_norms[0], colmath::norm2(col.data(), m)) << "column " << c;
  }
}

core::CscvMatrix<float> os_sart_matrix() {
  const int image = 16, views = 24;
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return core::CscvMatrix<float>::build(cached_ct_csc<float>(image, views), layout,
                                        {.s_vvec = 4, .s_imgb = 8, .s_vxg = 2},
                                        core::CscvMatrix<float>::Variant::kM);
}

/// A PlanOperator that keeps a copy of every subset forward's output.
class RecordingOperator final : public LinearOperator<float> {
 public:
  explicit RecordingOperator(const core::SpmvPlan<float>& plan) : inner_(plan) {}
  [[nodiscard]] sparse::index_t rows() const override { return inner_.rows(); }
  [[nodiscard]] sparse::index_t cols() const override { return inner_.cols(); }
  void forward(std::span<const float> x, std::span<float> y) const override {
    inner_.forward(x, y);
  }
  void adjoint(std::span<const float> y, std::span<float> x) const override {
    inner_.adjoint(y, x);
  }
  [[nodiscard]] util::AlignedVector<float> row_sums() const override {
    return inner_.row_sums();
  }
  [[nodiscard]] int view_groups() const override { return inner_.view_groups(); }
  [[nodiscard]] std::size_t group_rows() const override { return inner_.group_rows(); }
  void forward_subset(const core::GroupSubset& subset, std::span<const float> x,
                      std::span<float> y, int num_rhs) const override {
    inner_.forward_subset(subset, x, y, num_rhs);
    forwards.emplace_back(subset.index, util::AlignedVector<float>(y.begin(), y.end()));
  }
  void adjoint_subset(const core::GroupSubset& subset, std::span<const float> y,
                      std::span<float> x, int num_rhs) const override {
    inner_.adjoint_subset(subset, y, x, num_rhs);
  }
  [[nodiscard]] util::AlignedVector<float> subset_col_sums(
      const core::GroupSubset& subset) const override {
    return inner_.subset_col_sums(subset);
  }

  /// (stratum, y) per subset forward, in call order.
  mutable std::vector<std::pair<int, util::AlignedVector<float>>> forwards;

 private:
  PlanOperator<float> inner_;
};

/// Each pass's reported norm must be ||b - A x|| over the rows its strata
/// used, each row at the x of its stratum's update: the residual rows of
/// the recorded subset forwards (+0 for the first stratum of a solve from
/// zero, which makes none), summed group by group in stratum order — also
/// on a private-y plan, whose strata still run as subset forwards.
void check_per_pass_norms(core::ThreadScheme scheme, int threads) {
  const auto a = os_sart_matrix();  // 6 view groups: strata {0, 4}, {1, 5}, {2}, {3}
  const core::SpmvPlan<float> plan(a, {.scheme = scheme, .threads = threads});
  ASSERT_EQ(plan.scheme(), scheme);
  const RecordingOperator op(plan);
  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  const auto b = sparse::random_vector<float>(m, 24, 0.0, 1.0);
  constexpr int kStrata = 4;
  constexpr int kPasses = 3;

  util::AlignedVector<float> x(n, 0.0F);
  const RunStats stats = os_sart<float>(op, b, x, kStrata, {.iterations = kPasses});
  ASSERT_EQ(stats.residual_norms.size(), std::size_t{kPasses});
  ASSERT_EQ(op.forwards.size(), std::size_t{kPasses * kStrata - 1});

  const std::size_t group_rows = op.group_rows();
  std::size_t next = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    double sum2 = 0.0;
    for (int s = 0; s < kStrata; ++s) {
      util::AlignedVector<float> r(m, 0.0F);
      if (pass > 0 || s > 0) {
        ASSERT_EQ(op.forwards[next].first, s);
        r = op.forwards[next++].second;
      }
      for (int g = s; g < op.view_groups(); g += kStrata) {
        const std::size_t r0 = static_cast<std::size_t>(g) * group_rows;
        const std::size_t len = std::min(group_rows, m - r0);
        colmath::residual_from(b.data() + r0, r.data() + r0, len);
        sum2 += colmath::dot_self(r.data() + r0, len);
      }
    }
    const double want = std::sqrt(sum2);
    EXPECT_EQ(0, std::memcmp(&stats.residual_norms[static_cast<std::size_t>(pass)], &want,
                             sizeof(double)))
        << "pass " << pass << " at " << threads << " threads";
  }
}

TEST(OsSartPlan, PerPassNormsAreStratumResidualNorms) {
  const int saved = util::max_threads();
  for (const int threads : {1, 2}) {
    util::set_num_threads(threads);
    check_per_pass_norms(core::ThreadScheme::kRowPartition, threads);
  }
  check_per_pass_norms(core::ThreadScheme::kPrivateY, 2);
  util::set_num_threads(saved);
}

// One plan serves any number of solves, at any ambient thread count, each
// bitwise a fresh plan's solve; its stratum weights are computed once.
TEST(OsSartPlan, ReusedPlanMatchesFreshPlans) {
  const auto a = os_sart_matrix();
  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  const SolveOptions opts{.iterations = 3};
  const int saved = util::max_threads();

  const core::SpmvPlan<float> reused(a, {.threads = 2});
  const float* weights = nullptr;
  for (const int threads : {2, 1}) {
    util::set_num_threads(threads);
    for (const unsigned seed : {31U, 32U}) {
      const auto b = sparse::random_vector<float>(m, seed, 0.0, 1.0);
      util::AlignedVector<float> x(n, 0.0F);
      util::AlignedVector<float> x_ref(n, 0.0F);
      const RunStats got = os_sart<float>(PlanOperator<float>(reused), b, x, 3, opts);
      const core::SpmvPlan<float> fresh(a, {.threads = 2});
      const RunStats want = os_sart<float>(PlanOperator<float>(fresh), b, x_ref, 3, opts);
      EXPECT_EQ(0, std::memcmp(x.data(), x_ref.data(), n * sizeof(float)))
          << threads << " threads, seed " << seed;
      EXPECT_EQ(got.residual_norms, want.residual_norms);
      if (weights == nullptr) weights = reused.col_sums({3, 0}).data();
      EXPECT_EQ(reused.col_sums({3, 0}).data(), weights) << "stratum weights recomputed";
    }
  }
  util::set_num_threads(saved);
}

// The strata are structural, so a batch has one subset count; a batch
// narrower than its plan is an error.
TEST(OsSartBatch, RejectsColumnsWithAnotherSubsetCount) {
  const auto a = os_sart_matrix();
  const core::SpmvPlan<float> plan(a, {.num_rhs = 2, .threads = 1});
  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  util::AlignedVector<float> b(m, 1.0F);
  util::AlignedVector<float> x(n, 0.0F);
  const std::vector<SolveOptions> one = {{.iterations = 1}};
  EXPECT_THROW(os_sart_batch<float>(PlanOperator<float>(plan), b, x, 1, 4, one),
               util::CheckError);
}

}  // namespace
}  // namespace cscv::recon

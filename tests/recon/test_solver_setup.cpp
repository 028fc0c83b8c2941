// Operator-only solver set-up done once: the zero-start skip of the first
// forward (sirt/cgls and their batches), and OsSartSystem — strata and SART
// weights built once and reused by every OS-SART solve, bit for bit what a
// one-shot solve computes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "recon/colmath.hpp"
#include "recon/os_sart.hpp"
#include "recon/solvers.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace cscv::recon {
namespace {

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

/// OS-SART passes one at a time; after each, the reported norm must equal
/// diff_norm2(b, A x) with A x the full CSR's forward, bit for bit.
void check_per_pass_norms(int threads) {
  const int saved = util::max_threads();
  util::set_num_threads(threads);
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<float>(image, views);
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  const auto b = sparse::random_vector<float>(m, 24, 0.0, 1.0);
  const OsSartOptions opts{.iterations = 4, .num_subsets = 4};
  const OsSartSystem<float> system(csr, layout, opts.num_subsets);

  util::AlignedVector<float> x(n, 0.0F);
  const RunStats stats = os_sart<float>(system, b, x, opts);
  ASSERT_EQ(stats.residual_norms.size(), 4U);

  util::AlignedVector<float> x_step(n, 0.0F);
  util::AlignedVector<float> ax(m);
  OsSartOptions one_pass = opts;
  one_pass.iterations = 1;
  for (std::size_t pass = 0; pass < 4; ++pass) {
    (void)os_sart<float>(system, b, x_step, one_pass);
    csr.spmv(x_step, ax);
    const double want = colmath::diff_norm2(b.data(), ax.data(), m);
    EXPECT_EQ(0, std::memcmp(&stats.residual_norms[pass], &want, sizeof(double)))
        << "pass " << pass << " at " << threads << " threads";
  }
  EXPECT_EQ(0, std::memcmp(x.data(), x_step.data(), n * sizeof(float)));
  util::set_num_threads(saved);
}

TEST(OsSartSystem, PerPassNormsAreFullCsrForwardNorms) {
  check_per_pass_norms(1);
  check_per_pass_norms(2);
}

// One system serves any number of solves, each bitwise a one-shot solve;
// a system built at another thread count still matches the one-shot at the
// solve's count (its column weights are recomputed for that solve).
TEST(OsSartSystem, ReusedSystemMatchesOneShotSolves) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<float>(image, views);
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  const OsSartOptions opts{.iterations = 3, .num_subsets = 3};
  const int saved = util::max_threads();

  util::set_num_threads(2);
  const OsSartSystem<float> built_at_two(csr, layout, opts.num_subsets);
  EXPECT_EQ(built_at_two.weights_threads(), 2);
  for (const int threads : {2, 1}) {
    util::set_num_threads(threads);
    for (const unsigned seed : {31U, 32U}) {
      const auto b = sparse::random_vector<float>(m, seed, 0.0, 1.0);
      util::AlignedVector<float> x(n, 0.0F);
      util::AlignedVector<float> x_ref(n, 0.0F);
      const RunStats got = os_sart<float>(built_at_two, b, x, opts);
      const RunStats want = os_sart<float>(csr, layout, b, x_ref, opts);
      EXPECT_EQ(0, std::memcmp(x.data(), x_ref.data(), n * sizeof(float)))
          << threads << " threads, seed " << seed;
      EXPECT_EQ(got.residual_norms, want.residual_norms);
    }
  }
  util::set_num_threads(saved);
}

TEST(OsSartSystem, HoldsEveryRowOnceAndRejectsAnotherSubsetCount) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<float>(image, views);
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const OsSartSystem<float> system(csr, layout, 4);
  sparse::offset_t nnz = 0;
  for (int s = 0; s < system.num_subsets(); ++s) nnz += system.subset(s).matrix.nnz();
  EXPECT_EQ(nnz, csr.nnz());
  EXPECT_GT(system.bytes(), csr.matrix_bytes());  // plus row maps and weights

  util::AlignedVector<float> b(static_cast<std::size_t>(csr.rows()), 1.0F);
  util::AlignedVector<float> x(static_cast<std::size_t>(csr.cols()), 0.0F);
  EXPECT_THROW(os_sart<float>(system, b, x, {.iterations = 1, .num_subsets = 3}),
               util::CheckError);
  EXPECT_THROW(OsSartSystem<float>(csr, layout, views + 1), util::CheckError);
}

}  // namespace
}  // namespace cscv::recon

// Batched solvers (sirt_batch / cgls_batch / os_sart_batch): column k of a
// fused multi-RHS solve must be *bitwise* identical to running the serial
// solver alone on that column — the contract that lets the service fuse
// queued jobs without changing any job's output. Comparisons here are
// memcmp, not tolerance.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "recon/colmath.hpp"
#include "recon/solvers.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"

namespace cscv::recon {
namespace {

using cscv::testing::cached_ct_csc;
using cscv::testing::cached_ct_csr;

template <typename T>
util::AlignedVector<T> interleave_columns(const std::vector<util::AlignedVector<T>>& cols) {
  const auto k = cols.size();
  const auto n = cols[0].size();
  util::AlignedVector<T> out(n * k);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) out[i * k + c] = cols[c][i];
  }
  return out;
}

template <typename T>
util::AlignedVector<T> extract_column(const util::AlignedVector<T>& multi, std::size_t k,
                                      std::size_t c) {
  util::AlignedVector<T> out(multi.size() / k);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = multi[i * k + c];
  return out;
}

template <typename T>
void expect_bitwise(const util::AlignedVector<T>& got, const util::AlignedVector<T>& want,
                    const char* what, std::size_t c) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(T)), 0)
      << what << " column " << c << " diverges from the serial solver";
}

void expect_same_stats(const RunStats& got, const RunStats& want, std::size_t c) {
  EXPECT_EQ(got.iterations_run, want.iterations_run) << "column " << c;
  ASSERT_EQ(got.residual_norms.size(), want.residual_norms.size()) << "column " << c;
  for (std::size_t i = 0; i < want.residual_norms.size(); ++i) {
    EXPECT_EQ(got.residual_norms[i], want.residual_norms[i])
        << "column " << c << " iteration " << i;
  }
}

TEST(SirtBatch, ColumnsBitwiseMatchSerialOnCsr) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<float>(image, views);
  CsrOperator<float> op(csr);
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  constexpr std::size_t kBatch = 3;

  std::vector<util::AlignedVector<float>> bs;
  for (std::size_t c = 0; c < kBatch; ++c) {
    bs.push_back(sparse::random_vector<float>(m, 40 + static_cast<unsigned>(c), 0.0, 1.0));
  }
  const auto b = interleave_columns(bs);
  util::AlignedVector<float> x(n * kBatch, 0.0f);
  const std::vector<SolveOptions> opts(kBatch, SolveOptions{.iterations = 8});
  const auto stats = sirt_batch<float>(op, b, x, kBatch, opts);
  ASSERT_EQ(stats.size(), kBatch);

  for (std::size_t c = 0; c < kBatch; ++c) {
    util::AlignedVector<float> x_ref(n, 0.0f);
    const auto ref_stats = sirt<float>(op, bs[c], x_ref, opts[c]);
    expect_bitwise(extract_column(x, kBatch, c), x_ref, "sirt", c);
    expect_same_stats(stats[c], ref_stats, c);
  }
}

TEST(SirtBatch, FinishedColumnFreezesWithoutStallingTheBatch) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<float>(image, views);
  CsrOperator<float> op(csr);
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  constexpr std::size_t kBatch = 3;

  std::vector<util::AlignedVector<float>> bs;
  for (std::size_t c = 0; c < kBatch; ++c) {
    bs.push_back(sparse::random_vector<float>(m, 50 + static_cast<unsigned>(c), 0.0, 1.0));
  }
  const auto b = interleave_columns(bs);
  util::AlignedVector<float> x(n * kBatch, 0.0f);
  // Heterogeneous stopping: columns drop out at 2, 9, and 5 iterations.
  const std::vector<SolveOptions> opts = {SolveOptions{.iterations = 2},
                                          SolveOptions{.iterations = 9},
                                          SolveOptions{.iterations = 5}};
  const auto stats = sirt_batch<float>(op, b, x, kBatch, opts);

  for (std::size_t c = 0; c < kBatch; ++c) {
    EXPECT_EQ(stats[c].iterations_run, opts[c].iterations);
    util::AlignedVector<float> x_ref(n, 0.0f);
    const auto ref_stats = sirt<float>(op, bs[c], x_ref, opts[c]);
    expect_bitwise(extract_column(x, kBatch, c), x_ref, "sirt(mixed iters)", c);
    expect_same_stats(stats[c], ref_stats, c);
  }
}

TEST(SirtBatch, ColumnsBitwiseMatchSerialOnCscv) {
  // Same contract through the CSCV engine: the batch goes through a
  // four-wide plan (fused SpMM kernels), the serial reference through the
  // a single-RHS plan.
  const int image = 16, views = 12;
  const auto& csc = cached_ct_csc<float>(image, views);
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto cscv = core::CscvMatrix<float>::build(
      csc, layout, {.s_vvec = 4, .s_imgb = 4, .s_vxg = 1},
      core::CscvMatrix<float>::Variant::kM);
  constexpr std::size_t kBatch = 4;
  const core::SpmvPlan<float> fused(cscv, {.num_rhs = kBatch});
  const PlanOperator<float> op(fused);
  const core::SpmvPlan<float> single(cscv);
  const PlanOperator<float> serial(single);
  const auto m = static_cast<std::size_t>(cscv.rows());
  const auto n = static_cast<std::size_t>(cscv.cols());

  std::vector<util::AlignedVector<float>> bs;
  for (std::size_t c = 0; c < kBatch; ++c) {
    bs.push_back(sparse::random_vector<float>(m, 60 + static_cast<unsigned>(c), 0.0, 1.0));
  }
  const auto b = interleave_columns(bs);
  util::AlignedVector<float> x(n * kBatch, 0.0f);
  const std::vector<SolveOptions> opts(kBatch, SolveOptions{.iterations = 6});
  sirt_batch<float>(op, b, x, kBatch, opts);

  for (std::size_t c = 0; c < kBatch; ++c) {
    util::AlignedVector<float> x_ref(n, 0.0f);
    sirt<float>(serial, bs[c], x_ref, opts[c]);
    expect_bitwise(extract_column(x, kBatch, c), x_ref, "sirt(cscv)", c);
  }
}

TEST(CglsBatch, ColumnsBitwiseMatchSerial) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<float>(image, views);
  CsrOperator<float> op(csr);
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  constexpr std::size_t kBatch = 3;

  std::vector<util::AlignedVector<float>> bs;
  for (std::size_t c = 0; c < kBatch; ++c) {
    bs.push_back(sparse::random_vector<float>(m, 70 + static_cast<unsigned>(c), 0.0, 1.0));
  }
  const auto b = interleave_columns(bs);
  util::AlignedVector<float> x(n * kBatch, 0.0f);
  const std::vector<SolveOptions> opts = {SolveOptions{.iterations = 7},
                                          SolveOptions{.iterations = 3},
                                          SolveOptions{.iterations = 7}};
  const auto stats = cgls_batch<float>(op, b, x, kBatch, opts);

  for (std::size_t c = 0; c < kBatch; ++c) {
    util::AlignedVector<float> x_ref(n, 0.0f);
    const auto ref_stats = cgls<float>(op, bs[c], x_ref, opts[c]);
    expect_bitwise(extract_column(x, kBatch, c), x_ref, "cgls", c);
    expect_same_stats(stats[c], ref_stats, c);
  }
}

TEST(CglsBatch, ZeroColumnBreaksDownAloneWithoutStallingOthers) {
  // A zero sinogram hits CGLS's gamma == 0 breakdown immediately; that
  // column must finish with zero iterations (exactly like serial cgls)
  // while its batch-mates run to completion.
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<float>(image, views);
  CsrOperator<float> op(csr);
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  constexpr std::size_t kBatch = 2;

  std::vector<util::AlignedVector<float>> bs;
  bs.emplace_back(m, 0.0f);  // degenerate column
  bs.push_back(sparse::random_vector<float>(m, 81, 0.0, 1.0));
  const auto b = interleave_columns(bs);
  util::AlignedVector<float> x(n * kBatch, 0.0f);
  const std::vector<SolveOptions> opts(kBatch, SolveOptions{.iterations = 6});
  const auto stats = cgls_batch<float>(op, b, x, kBatch, opts);

  EXPECT_EQ(stats[0].iterations_run, 0);
  EXPECT_EQ(stats[1].iterations_run, 6);
  for (std::size_t c = 0; c < kBatch; ++c) {
    util::AlignedVector<float> x_ref(n, 0.0f);
    const auto ref_stats = cgls<float>(op, bs[c], x_ref, opts[c]);
    expect_bitwise(extract_column(x, kBatch, c), x_ref, "cgls(zero col)", c);
    expect_same_stats(stats[c], ref_stats, c);
  }
}

TEST(OsSartBatch, ColumnsBitwiseMatchSerialWithMixedIterations) {
  const int image = 16, views = 24;
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto a = core::CscvMatrix<float>::build(cached_ct_csc<float>(image, views), layout,
                                                {.s_vvec = 4, .s_imgb = 8, .s_vxg = 2},
                                                core::CscvMatrix<float>::Variant::kM);
  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  constexpr std::size_t kBatch = 3;
  const core::SpmvPlan<float> serial(a, {.threads = 1});
  const core::SpmvPlan<float> fused(a, {.num_rhs = kBatch, .threads = 1});

  std::vector<util::AlignedVector<float>> bs;
  for (std::size_t c = 0; c < kBatch; ++c) {
    bs.push_back(sparse::random_vector<float>(m, 90 + static_cast<unsigned>(c), 0.0, 1.0));
  }
  const auto b = interleave_columns(bs);
  util::AlignedVector<float> x(n * kBatch, 0.0f);
  // The subset count is one per solve (structural); iterations may differ.
  const std::vector<SolveOptions> opts = {SolveOptions{.iterations = 4},
                                          SolveOptions{.iterations = 1},
                                          SolveOptions{.iterations = 3}};
  const auto stats = os_sart_batch<float>(PlanOperator<float>(fused), b, x, kBatch, 4, opts);

  for (std::size_t c = 0; c < kBatch; ++c) {
    EXPECT_EQ(stats[c].iterations_run, opts[c].iterations);
    util::AlignedVector<float> x_ref(n, 0.0f);
    const auto ref_stats = os_sart<float>(PlanOperator<float>(serial), bs[c], x_ref, 4, opts[c]);
    expect_bitwise(extract_column(x, kBatch, c), x_ref, "os_sart", c);
    expect_same_stats(stats[c], ref_stats, c);
  }
}

/// SIRT written out on the full applies: the residual and its norm over
/// all rows, the row weighting, the adjoint, the step and the clamp — the
/// reference a one-stratum OS-SART must equal bit for bit.
RunStats sirt_written_out(const LinearOperator<float>& a, std::span<const float> b,
                          std::span<float> x, const SolveOptions& o) {
  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  const auto inverted = [](util::AlignedVector<float> v) {
    for (float& e : v) e = e > 0.0F ? 1.0F / e : 0.0F;
    return v;
  };
  const auto inv_row = inverted(a.row_sums());
  const auto inv_col = inverted(a.col_sums());
  util::AlignedVector<float> r(m, 0.0F);
  util::AlignedVector<float> back(n);
  RunStats stats;
  for (int it = 0; it < o.iterations; ++it) {
    if (it > 0) a.forward(x, r);  // from zero the first forward is +0
    colmath::residual_from(b.data(), r.data(), m);
    stats.residual_norms.push_back(colmath::norm2(r.data(), m));
    colmath::scale_by(r.data(), inv_row.data(), m);
    a.adjoint(r, back);
    colmath::sirt_step(x.data(), inv_col.data(), back.data(), static_cast<float>(o.relaxation),
                       n);
    if (o.enforce_nonneg) {
      colmath::clamp_floor(x.data(), static_cast<float>(o.nonneg_floor), n);
    }
    ++stats.iterations_run;
  }
  return stats;
}

/// A PlanOperator that fails the test on any subset apply.
class FullAppliesOnly final : public LinearOperator<float> {
 public:
  explicit FullAppliesOnly(const core::SpmvPlan<float>& plan) : inner_(plan) {}
  [[nodiscard]] sparse::index_t rows() const override { return inner_.rows(); }
  [[nodiscard]] sparse::index_t cols() const override { return inner_.cols(); }
  void forward(std::span<const float> x, std::span<float> y) const override {
    inner_.forward(x, y);
  }
  void adjoint(std::span<const float> y, std::span<float> x) const override {
    inner_.adjoint(y, x);
  }
  void forward_batch(std::span<const float> x, std::span<float> y, int k) const override {
    inner_.forward_batch(x, y, k);
  }
  void adjoint_batch(std::span<const float> y, std::span<float> x, int k) const override {
    inner_.adjoint_batch(y, x, k);
  }
  [[nodiscard]] util::AlignedVector<float> row_sums() const override {
    return inner_.row_sums();
  }
  [[nodiscard]] util::AlignedVector<float> col_sums() const override {
    return inner_.col_sums();
  }
  [[nodiscard]] int view_groups() const override { return inner_.view_groups(); }
  [[nodiscard]] std::size_t group_rows() const override { return inner_.group_rows(); }
  void forward_subset(const core::GroupSubset&, std::span<const float>, std::span<float>,
                      int) const override {
    ADD_FAILURE() << "one-stratum solve made a subset forward";
  }
  void adjoint_subset(const core::GroupSubset&, std::span<const float>, std::span<float>,
                      int) const override {
    ADD_FAILURE() << "one-stratum solve made a subset adjoint";
  }
  [[nodiscard]] util::AlignedVector<float> subset_col_sums(
      const core::GroupSubset&) const override {
    ADD_FAILURE() << "one-stratum solve asked for subset column sums";
    return {};
  }

 private:
  PlanOperator<float> inner_;
};

// SIRT is one-stratum OS-SART: a solve asked for one subset runs the
// operator's full applies (the folded K = 4 pass where the operator folds)
// and equals SIRT written out, bit for bit in x and in every norm — alone
// and per column of a batch, on folded and unfolded operators, Z and M,
// fp32 and bf16.
TEST(OsSartBatch, OneStratumEqualsSirtBitwise) {
  using Variant = core::CscvMatrix<float>::Variant;
  constexpr int kImage = 16;
  constexpr std::size_t kBatch = 3;
  for (const int views : {24, 18}) {  // 24 views fold, 18 do not
    for (const Variant variant : {Variant::kZ, Variant::kM}) {
      for (const core::ValueType vt : {core::ValueType::kF32, core::ValueType::kBf16}) {
        SCOPED_TRACE(std::to_string(views) + " views, " +
                     (variant == Variant::kZ ? "Z, " : "M, ") + core::value_type_name(vt));
        const core::OperatorLayout layout{kImage, ct::standard_num_bins(kImage), views};
        auto a = core::CscvMatrix<float>::build(cached_ct_csc<float>(kImage, views), layout,
                                                {.s_vvec = 4, .s_imgb = 8, .s_vxg = 2},
                                                variant);
        ASSERT_EQ(a.folded(), views % 4 == 0);
        if (vt != core::ValueType::kF32) a.convert_values(vt);
        const core::SpmvPlan<float> serial(a, {.threads = 1});
        const core::SpmvPlan<float> fused(a, {.num_rhs = kBatch, .threads = 1});
        const auto m = static_cast<std::size_t>(a.rows());
        const auto n = static_cast<std::size_t>(a.cols());

        std::vector<util::AlignedVector<float>> bs;
        for (std::size_t c = 0; c < kBatch; ++c) {
          bs.push_back(sparse::random_vector<float>(m, 110 + static_cast<unsigned>(c), 0.0, 1.0));
        }
        const std::vector<SolveOptions> opts = {
            SolveOptions{.iterations = 4},
            SolveOptions{.iterations = 2, .relaxation = 0.7, .nonneg_floor = 0.01},
            SolveOptions{.iterations = 3, .enforce_nonneg = false}};
        util::AlignedVector<float> x(n * kBatch, 0.0F);
        const auto stats = os_sart_batch<float>(FullAppliesOnly(fused), interleave_columns(bs),
                                                x, kBatch, 1, opts);
        for (std::size_t c = 0; c < kBatch; ++c) {
          util::AlignedVector<float> want(n, 0.0F);
          const RunStats want_stats =
              sirt_written_out(PlanOperator<float>(serial), bs[c], want, opts[c]);
          util::AlignedVector<float> got(n, 0.0F);
          const RunStats got_stats =
              os_sart<float>(FullAppliesOnly(serial), bs[c], got, 1, opts[c]);
          expect_bitwise(got, want, "one-stratum os_sart", c);
          expect_same_stats(got_stats, want_stats, c);
          expect_bitwise(extract_column(x, kBatch, c), want, "one-stratum os_sart_batch", c);
          expect_same_stats(stats[c], want_stats, c);
          util::AlignedVector<float> sirt_x(n, 0.0F);
          expect_same_stats(sirt<float>(PlanOperator<float>(serial), bs[c], sirt_x, opts[c]),
                            want_stats, c);
          expect_bitwise(sirt_x, want, "sirt", c);
        }
      }
    }
  }
}

TEST(SirtBatch, SingleRhsDegeneratesToSerial) {
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<float>(image, views);
  CsrOperator<float> op(csr);
  const auto m = static_cast<std::size_t>(csr.rows());
  const auto n = static_cast<std::size_t>(csr.cols());
  const auto b = sparse::random_vector<float>(m, 99, 0.0, 1.0);
  util::AlignedVector<float> x(n, 0.0f), x_ref(n, 0.0f);
  const std::vector<SolveOptions> opts(1, SolveOptions{.iterations = 5});
  const auto stats = sirt_batch<float>(op, b, x, 1, opts);
  const auto ref_stats = sirt<float>(op, b, x_ref, opts[0]);
  expect_bitwise(x, x_ref, "sirt(k=1)", 0);
  expect_same_stats(stats[0], ref_stats, 0);
}

}  // namespace
}  // namespace cscv::recon

// Batched solvers (sirt_batch / cgls_batch / os_sart_batch): column k of a
// fused multi-RHS solve must be *bitwise* identical to running the serial
// solver alone on that column — the contract that lets the service fuse
// queued jobs without changing any job's output. Comparisons here are
// memcmp, not tolerance.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "recon/os_sart.hpp"
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
  // matrix's single-RHS plan.
  const int image = 16, views = 12;
  const auto& csc = cached_ct_csc<float>(image, views);
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto cscv = core::CscvMatrix<float>::build(
      csc, layout, {.s_vvec = 4, .s_imgb = 4, .s_vxg = 1},
      core::CscvMatrix<float>::Variant::kM);
  constexpr std::size_t kBatch = 4;
  const core::SpmvPlan<float> fused(cscv, {.num_rhs = kBatch});
  const PlanOperator<float> op(fused);
  const PlanOperator<float> serial(cscv.plan());
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
  // num_subsets must agree across the batch (structural); iterations may not.
  const std::vector<OsSartOptions> opts = {
      OsSartOptions{.iterations = 4, .num_subsets = 4},
      OsSartOptions{.iterations = 1, .num_subsets = 4},
      OsSartOptions{.iterations = 3, .num_subsets = 4}};
  const auto stats = os_sart_batch<float>(fused, b, x, opts);

  for (std::size_t c = 0; c < kBatch; ++c) {
    EXPECT_EQ(stats[c].iterations_run, opts[c].iterations);
    util::AlignedVector<float> x_ref(n, 0.0f);
    const auto ref_stats = os_sart<float>(serial, bs[c], x_ref, opts[c]);
    expect_bitwise(extract_column(x, kBatch, c), x_ref, "os_sart", c);
    expect_same_stats(stats[c], ref_stats, c);
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

// The determinism contract of docs/SHARDING.md, checked in-process against
// LocalBackend:
//   * N=1 sharded is BITWISE (memcmp) the serial reference for SIRT,
//     OS-SART, and CGLS.
//   * N in {2, 4} is bitwise run-to-run deterministic (fixed shard-ordered
//     reduce); shards hold whole view groups, so N is capped by the groups.
// Everything runs single-threaded — the contract pins shard math to one
// thread.
#include "dist/sharded_operator.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include "dist/coordinator.hpp"
#include "pipeline/service.hpp"
#include "recon/os_sart.hpp"
#include "recon/solvers.hpp"
#include "util/parallel.hpp"

namespace cscv::dist {
namespace {

pipeline::ReconJob make_job(pipeline::Algorithm algorithm) {
  util::set_num_threads(1);
  pipeline::ReconJob job;
  job.geometry = ct::standard_geometry(32, 20);
  job.sinogram = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), job.geometry);
  job.algorithm = algorithm;
  job.solve.iterations = 5;
  job.os_sart_subsets = 4;
  return job;
}

util::AlignedVector<float> run_sharded(const pipeline::ReconJob& job, int num_shards,
                                       recon::RunStats* stats = nullptr) {
  auto specs = make_shard_specs(job, num_shards);
  LocalBackend backend(std::move(specs));
  ShardedRunResult r = run_sharded_job(backend, job);
  if (stats != nullptr) *stats = r.stats;
  return std::move(r.volume);
}

bool bitwise_equal(const util::AlignedVector<float>& a,
                   const util::AlignedVector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ShardedDeterminism, SirtSingleShardIsBitwiseSerial) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  // The serial reference: the exact path pipeline::ReconService takes for
  // kSirt — CSCV plan (threads pinned to 1) under PlanOperator.
  auto csc = ct::build_system_matrix_csc<float>(job.geometry);
  const auto layout = core::OperatorLayout::from_geometry(job.geometry);
  auto m = core::CscvMatrix<float>::build(csc, layout, job.cscv, job.variant);
  recon::PlanOperator<float> op(m.plan({.threads = 1}));
  util::AlignedVector<float> ref(static_cast<std::size_t>(layout.num_cols()), 0.0f);
  const recon::RunStats ref_stats = recon::sirt<float>(op, job.sinogram, ref, job.solve);

  recon::RunStats stats;
  const auto volume = run_sharded(job, 1, &stats);
  EXPECT_TRUE(bitwise_equal(volume, ref));
  EXPECT_EQ(stats.iterations_run, ref_stats.iterations_run);
  EXPECT_EQ(stats.residual_norms, ref_stats.residual_norms);
}

TEST(ShardedDeterminism, CglsSingleShardIsBitwiseSerial) {
  const auto job = make_job(pipeline::Algorithm::kCgls);
  auto csc = ct::build_system_matrix_csc<float>(job.geometry);
  const auto layout = core::OperatorLayout::from_geometry(job.geometry);
  auto m = core::CscvMatrix<float>::build(csc, layout, job.cscv, job.variant);
  recon::PlanOperator<float> op(m.plan({.threads = 1}));
  util::AlignedVector<float> ref(static_cast<std::size_t>(layout.num_cols()), 0.0f);
  (void)recon::cgls<float>(op, job.sinogram, ref, job.solve);

  const auto volume = run_sharded(job, 1);
  EXPECT_TRUE(bitwise_equal(volume, ref));
}

TEST(ShardedDeterminism, OsSartSingleShardIsBitwiseSerial) {
  const auto job = make_job(pipeline::Algorithm::kOsSart);
  // The serial reference: OS-SART over the serial CSCV plan (threads 1).
  auto csc = ct::build_system_matrix_csc<float>(job.geometry);
  const auto layout = core::OperatorLayout::from_geometry(job.geometry);
  auto m = core::CscvMatrix<float>::build(csc, layout, job.cscv, job.variant);
  util::AlignedVector<float> ref(static_cast<std::size_t>(layout.num_cols()), 0.0f);
  const recon::OsSartOptions opts{.iterations = job.solve.iterations,
                                  .num_subsets = job.os_sart_subsets,
                                  .relaxation = job.solve.relaxation,
                                  .enforce_nonneg = job.solve.enforce_nonneg};
  const recon::RunStats ref_stats =
      recon::os_sart<float>(m.plan({.threads = 1}), job.sinogram, ref, opts);

  recon::RunStats stats;
  const auto volume = run_sharded(job, 1, &stats);
  EXPECT_TRUE(bitwise_equal(volume, ref));
  EXPECT_EQ(stats.residual_norms, ref_stats.residual_norms);

  // At N>1 the estimate diverges from serial in low bits after the first
  // adjoint reduce (summation order), so residual norms only promise
  // run-to-run determinism — not bitwise-serial. Verify both halves.
  recon::RunStats stats4a;
  recon::RunStats stats4b;
  (void)run_sharded(job, 4, &stats4a);
  (void)run_sharded(job, 4, &stats4b);
  EXPECT_EQ(stats4a.residual_norms, stats4b.residual_norms);
  ASSERT_EQ(stats4a.residual_norms.size(), ref_stats.residual_norms.size());
  for (std::size_t i = 0; i < stats4a.residual_norms.size(); ++i) {
    EXPECT_NEAR(stats4a.residual_norms[i], ref_stats.residual_norms[i],
                1e-4f * ref_stats.residual_norms[i]);
  }
}

// One OS-SART job, four paths, one volume: the serial solve over a
// one-thread plan, its column of a fused batch, one shard, and the service
// (one worker, one OpenMP thread).
TEST(ShardedDeterminism, OsSartSerialBatchShardAndServedAgree) {
  auto job = make_job(pipeline::Algorithm::kOsSart);
  job.os_sart_subsets = 3;  // 20 views of 8: three view groups
  const auto layout = core::OperatorLayout::from_geometry(job.geometry);
  const auto n = static_cast<std::size_t>(layout.num_cols());
  const auto m_rows = static_cast<std::size_t>(layout.num_rows());
  const auto m = core::CscvMatrix<float>::build(
      ct::build_system_matrix_csc<float>(job.geometry), layout, job.cscv, job.variant);
  const recon::OsSartOptions opts{.iterations = job.solve.iterations,
                                  .num_subsets = job.os_sart_subsets,
                                  .relaxation = job.solve.relaxation,
                                  .enforce_nonneg = job.solve.enforce_nonneg};
  util::AlignedVector<float> serial(n, 0.0F);
  (void)recon::os_sart<float>(core::SpmvPlan<float>(m, {.threads = 1}), job.sinogram, serial,
                              opts);

  constexpr std::size_t kBatch = 3;
  util::AlignedVector<float> b(m_rows * kBatch);
  for (std::size_t i = 0; i < m_rows; ++i) {
    for (std::size_t c = 0; c < kBatch; ++c) b[i * kBatch + c] = job.sinogram[i] * (c + 1.0F) / 2;
  }
  util::AlignedVector<float> x(n * kBatch, 0.0F);
  (void)recon::os_sart_batch<float>(
      core::SpmvPlan<float>(m, {.num_rhs = kBatch, .threads = 1}), b, x,
      std::vector<recon::OsSartOptions>(kBatch, opts));
  util::AlignedVector<float> column(n);
  for (std::size_t j = 0; j < n; ++j) column[j] = x[j * kBatch + 1];
  EXPECT_TRUE(bitwise_equal(column, serial)) << "batch column";

  EXPECT_TRUE(bitwise_equal(run_sharded(job, 1), serial)) << "one shard";

  pipeline::ReconService service({.num_workers = 1, .omp_threads_per_worker = 1});
  const pipeline::ReconResult served = service.submit(job).result.get();
  ASSERT_EQ(served.status, pipeline::JobStatus::kOk) << served.error;
  EXPECT_TRUE(bitwise_equal(served.volume, serial)) << "served";
  EXPECT_EQ(served.os_sart_subsets, 3);
}

TEST(ShardedDeterminism, MultiShardRunsAreBitwiseRepeatable) {
  for (const auto algorithm : {pipeline::Algorithm::kSirt, pipeline::Algorithm::kCgls,
                               pipeline::Algorithm::kOsSart}) {
    const auto job = make_job(algorithm);
    for (const int n : {2, 4}) {
      const auto first = run_sharded(job, n);
      const auto second = run_sharded(job, n);
      EXPECT_TRUE(bitwise_equal(first, second))
          << pipeline::algorithm_name(algorithm) << " with " << n
          << " shards is not run-to-run deterministic";
    }
  }
}

TEST(ShardedDeterminism, SingletonShardsWithEmptyStrata) {
  // As many shards as views asked for: the cut yields one shard per view
  // group, so every shard contributes nothing to all strata but its own
  // (empty strata), which must degrade to zero-length partials, not errors.
  auto job = make_job(pipeline::Algorithm::kOsSart);
  const auto first = run_sharded(job, job.geometry.num_views);
  const auto second = run_sharded(job, job.geometry.num_views);
  EXPECT_TRUE(bitwise_equal(first, second));
  EXPECT_GT(*std::max_element(first.begin(), first.end()), 0.0f);
}

TEST(ShardSpecs, PartitionCoversAllViews) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  const int s_vvec = job.cscv.s_vvec;
  const int groups = (job.geometry.num_views + s_vvec - 1) / s_vvec;
  for (const int n : {1, 2, 4, 7, 100}) {
    const auto specs = make_shard_specs(job, n);
    EXPECT_NO_THROW(check_partition(specs));
    EXPECT_LE(static_cast<int>(specs.size()), std::min(n, groups));
    for (const auto& spec : specs) EXPECT_EQ(spec.view_begin % s_vvec, 0);
  }
  // A hand-made cut inside a view group is refused.
  auto specs = make_shard_specs(job, 2);
  ASSERT_EQ(specs.size(), 2U);
  specs[0].view_end -= 1;
  specs[1].view_begin -= 1;
  EXPECT_THROW(check_partition(specs), util::CheckError);
}

TEST(ShardSpill, SecondBuildRestoresFromSpill) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  // TempDir() is shared across runs — a stale spill would make the "cold"
  // build warm. Use a fresh directory.
  std::string tmpl = ::testing::TempDir() + "cscv-spill-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  auto specs = make_shard_specs(job, 2);
  LocalBackend cold(specs, dir);
  EXPECT_FALSE(cold.shard(0).restored_from_spill);
  LocalBackend warm(specs, dir);
  EXPECT_TRUE(warm.shard(0).restored_from_spill);
  EXPECT_TRUE(warm.shard(1).restored_from_spill);

  // Warm restore must not change results.
  ShardedRunResult a = run_sharded_job(cold, job);
  ShardedRunResult b = run_sharded_job(warm, job);
  EXPECT_TRUE(bitwise_equal(a.volume, b.volume));
}

}  // namespace
}  // namespace cscv::dist

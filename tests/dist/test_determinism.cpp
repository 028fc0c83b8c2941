// The determinism contract of docs/SHARDING.md, checked in-process against
// LocalBackend:
//   * N=1 sharded is BITWISE (memcmp) the serial reference for SIRT,
//     OS-SART, and CGLS, in x and in the residual norms.
//   * N in {2, 4} is bitwise run-to-run deterministic (fixed shard-ordered
//     reduce); shards hold whole view groups, so N is capped by the groups.
// Everything runs single-threaded — the contract pins shard math to one
// thread.
#include "dist/sharded_operator.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include "dist/coordinator.hpp"
#include "pipeline/service.hpp"
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
  const core::SpmvPlan<float> plan(m, {.threads = 1});
  recon::PlanOperator<float> op(plan);
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
  const core::SpmvPlan<float> plan(m, {.threads = 1});
  recon::PlanOperator<float> op(plan);
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
  const core::SpmvPlan<float> plan(m, {.threads = 1});
  util::AlignedVector<float> ref(static_cast<std::size_t>(layout.num_cols()), 0.0f);
  const recon::RunStats ref_stats =
      recon::os_sart<float>(recon::PlanOperator<float>(plan), job.sinogram, ref,
                            job.os_sart_subsets, job.solve);

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

/// One SART-family job, four paths, one volume: the serial solve over a
/// one-thread plan, its column of a fused batch, one shard, and the service
/// (one worker, one OpenMP thread).
void expect_four_paths_agree(const pipeline::ReconJob& job) {
  const auto layout = core::OperatorLayout::from_geometry(job.geometry);
  const auto n = static_cast<std::size_t>(layout.num_cols());
  const auto m_rows = static_cast<std::size_t>(layout.num_rows());
  const auto m = core::CscvMatrix<float>::build(
      ct::build_system_matrix_csc<float>(job.geometry), layout, job.cscv, job.variant);
  const int subsets = job.sart_subsets();
  util::AlignedVector<float> serial(n, 0.0F);
  const recon::RunStats serial_stats = recon::os_sart<float>(
      recon::PlanOperator<float>(core::SpmvPlan<float>(m, {.threads = 1})), job.sinogram,
      serial, subsets, job.solve);

  constexpr std::size_t kBatch = 3;
  util::AlignedVector<float> b(m_rows * kBatch);
  for (std::size_t i = 0; i < m_rows; ++i) {
    for (std::size_t c = 0; c < kBatch; ++c) b[i * kBatch + c] = job.sinogram[i] * (c + 1.0F) / 2;
  }
  util::AlignedVector<float> x(n * kBatch, 0.0F);
  const auto batch_stats = recon::os_sart_batch<float>(
      recon::PlanOperator<float>(core::SpmvPlan<float>(m, {.num_rhs = kBatch, .threads = 1})),
      b, x, kBatch, subsets, std::vector<recon::SolveOptions>(kBatch, job.solve));
  util::AlignedVector<float> column(n);
  for (std::size_t j = 0; j < n; ++j) column[j] = x[j * kBatch + 1];
  EXPECT_TRUE(bitwise_equal(column, serial)) << "batch column";
  EXPECT_EQ(batch_stats[1].residual_norms, serial_stats.residual_norms) << "batch column";

  recon::RunStats shard_stats;
  EXPECT_TRUE(bitwise_equal(run_sharded(job, 1, &shard_stats), serial)) << "one shard";
  EXPECT_EQ(shard_stats.residual_norms, serial_stats.residual_norms) << "one shard";

  pipeline::ReconService service({.num_workers = 1, .omp_threads_per_worker = 1});
  const pipeline::ReconResult served = service.submit(job).result.get();
  ASSERT_EQ(served.status, pipeline::JobStatus::kOk) << served.error;
  EXPECT_TRUE(bitwise_equal(served.volume, serial)) << "served";
  EXPECT_EQ(served.final_residual, serial_stats.residual_norms.back()) << "served";
}

TEST(ShardedDeterminism, OsSartSerialBatchShardAndServedAgree) {
  auto job = make_job(pipeline::Algorithm::kOsSart);
  job.os_sart_subsets = 3;  // 20 views of 8: three view groups
  expect_four_paths_agree(job);
}

TEST(ShardedDeterminism, SirtSerialBatchShardAndServedAgree) {
  expect_four_paths_agree(make_job(pipeline::Algorithm::kSirt));
}

/// Counts the round trips of every op through a LocalBackend.
class CountingBackend final : public ShardBackend {
 public:
  explicit CountingBackend(std::vector<ShardSpec> specs) : inner_(std::move(specs)) {}
  [[nodiscard]] const std::vector<ShardSpec>& specs() const override { return inner_.specs(); }
  void apply_all(ApplyOp op, int subset, const std::vector<std::span<const float>>& in,
                 std::vector<util::AlignedVector<float>>& out) override {
    ++(subset < 0 ? full : stratum)[static_cast<std::size_t>(op)];
    inner_.apply_all(op, subset, in, out);
  }
  std::array<int, 4> full{};     // per ApplyOp, subset -1
  std::array<int, 4> stratum{};  // per ApplyOp, one stratum

 private:
  LocalBackend inner_;
};

// A sharded OS-SART pass takes one stratum forward and one stratum adjoint
// per stratum (2n round trips), and the first pass from zero one forward
// fewer. Set-up adds one full forward (A 1) and one kColSums per stratum;
// no full residual forward remains.
TEST(ShardedDeterminism, OsSartPassTakesTwoRoundTripsPerStratum) {
  auto job = make_job(pipeline::Algorithm::kOsSart);
  job.solve.iterations = 3;
  CountingBackend backend(make_shard_specs(job, 2));
  const int n = shard_strata(backend.specs()[0]);
  ASSERT_EQ(n, 3);  // 20 views of 8: three view groups
  (void)run_sharded_job(backend, job);
  const auto at = [](const std::array<int, 4>& counts, ApplyOp op) {
    return counts[static_cast<std::size_t>(op)];
  };
  EXPECT_EQ(at(backend.stratum, ApplyOp::kForward), 3 * n - 1);
  EXPECT_EQ(at(backend.stratum, ApplyOp::kAdjoint), 3 * n);
  EXPECT_EQ(at(backend.stratum, ApplyOp::kColSums), n);
  EXPECT_EQ(at(backend.stratum, ApplyOp::kRowSums), 0);
  EXPECT_EQ(at(backend.full, ApplyOp::kForward), 1);
  EXPECT_EQ(at(backend.full, ApplyOp::kAdjoint), 0);
}

// OS-SART clamps at the job's nonneg_floor as SIRT does, on every path:
// locally, served, and on one shard.
TEST(NonnegFloor, OsSartClampsLocallyServedAndSharded) {
  for (const auto algorithm : {pipeline::Algorithm::kSirt, pipeline::Algorithm::kOsSart}) {
    SCOPED_TRACE(pipeline::algorithm_name(algorithm));
    auto job = make_job(algorithm);
    job.solve.iterations = 3;
    job.solve.nonneg_floor = 0.05;
    const float floor_v = static_cast<float>(job.solve.nonneg_floor);
    const auto min_of = [](const util::AlignedVector<float>& v) {
      return *std::min_element(v.begin(), v.end());
    };
    pipeline::SystemMatrixCache cache({.budget_bytes = std::size_t{1} << 30, .spill_dir = {}});
    const auto entry = cache.get_or_build(job.matrix_key()).entry;
    const pipeline::ReconResult local = pipeline::execute_job(job, *entry, nullptr);
    ASSERT_EQ(local.status, pipeline::JobStatus::kOk) << local.error;
    EXPECT_EQ(min_of(local.volume), floor_v) << "local";
    pipeline::ReconService service({.num_workers = 1, .omp_threads_per_worker = 1});
    const pipeline::ReconResult served = service.submit(job).result.get();
    ASSERT_EQ(served.status, pipeline::JobStatus::kOk) << served.error;
    EXPECT_EQ(min_of(served.volume), floor_v) << "served";
    EXPECT_EQ(min_of(run_sharded(job, 1)), floor_v) << "one shard";
  }
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

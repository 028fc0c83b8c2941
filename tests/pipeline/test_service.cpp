// ReconService — admission, deadlines, cancellation, shutdown, and the
// concurrent stress test with bitwise determinism against the serial path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ct/phantom.hpp"
#include "pipeline/service.hpp"
#include "util/parallel.hpp"

namespace cscv::pipeline {
namespace {

/// Analytic Shepp-Logan sinograms, cached per geometry (they are the slow
/// part of job construction).
const util::AlignedVector<float>& cached_sinogram(const ct::ParallelGeometry& g) {
  static std::map<std::pair<int, int>, util::AlignedVector<float>> cache;
  const auto key = std::make_pair(g.image_size, g.num_views);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, ct::analytic_sinogram<float>(ct::shepp_logan_modified(), g))
             .first;
  }
  return it->second;
}

ReconJob make_job(int image, int views, Algorithm algorithm, int iterations = 3) {
  ReconJob job;
  job.geometry = ct::standard_geometry(image, views);
  job.cscv = {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2};
  job.algorithm = algorithm;
  job.solve.iterations = iterations;
  job.sinogram = cached_sinogram(job.geometry);
  return job;
}

/// Serial reference: same execute_job code path, threads=1 plan, no queue.
/// ReconService workers with omp_threads_per_worker == 1 must reproduce
/// these volumes bitwise.
ReconResult reference_run(const ReconJob& job) {
  static SystemMatrixCache ref_cache;
  const auto acquired = ref_cache.get_or_build(job.matrix_key());
  std::unique_ptr<core::SpmvPlan<float>> plan;
  // OS-SART takes the null-plan path: a call-local plan at the one ambient
  // thread set below, which must give the worker's bits too.
  if (job.algorithm != Algorithm::kOsSart) {
    plan = std::make_unique<core::SpmvPlan<float>>(*acquired.entry->cscv, core::PlanOptions{.threads = 1});
  }
  const int saved = util::max_threads();
  util::set_num_threads(1);
  ReconResult r = execute_job(job, *acquired.entry, plan.get());
  util::set_num_threads(saved);
  return r;
}

void expect_bitwise_volumes(const ReconResult& got, const ReconResult& want) {
  ASSERT_EQ(got.status, JobStatus::kOk) << got.error;
  ASSERT_EQ(got.volume.size(), want.volume.size());
  EXPECT_EQ(0, std::memcmp(got.volume.data(), want.volume.data(),
                           got.volume.size() * sizeof(float)))
      << "service volume differs from the serial reference";
}

bool ready(const std::future<ReconResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

TEST(ReconService, BasicJobMatchesSerialReference) {
  ServiceOptions opts;
  opts.num_workers = 2;
  ReconService service(opts);
  auto submitted = service.submit(make_job(24, 12, Algorithm::kSirt));
  const ReconResult got = submitted.result.get();
  ASSERT_EQ(got.status, JobStatus::kOk) << got.error;
  EXPECT_EQ(got.job_id, submitted.id);
  EXPECT_GE(got.worker, 0);
  EXPECT_EQ(got.iterations_run, 3);
  EXPECT_GT(got.plan_stats.nnz, 0U);
  expect_bitwise_volumes(got, reference_run(make_job(24, 12, Algorithm::kSirt)));
  EXPECT_EQ(service.stats().completed, 1U);
}

TEST(ReconService, EveryAlgorithmMatchesSerialReference) {
  ServiceOptions opts;
  opts.num_workers = 2;
  ReconService service(opts);
  for (Algorithm a :
       {Algorithm::kFbp, Algorithm::kSirt, Algorithm::kCgls, Algorithm::kOsSart}) {
    auto submitted = service.submit(make_job(24, 12, a));
    expect_bitwise_volumes(submitted.result.get(), reference_run(make_job(24, 12, a)));
  }
  EXPECT_EQ(service.stats().completed, 4U);
}

// kReject: a full queue resolves the future immediately — the submitter
// never blocks and the job never enters the queue.
TEST(ReconService, RejectPolicyResolvesImmediatelyWhenFull) {
  ServiceOptions opts;
  opts.num_workers = 0;  // nothing drains the queue: occupancy is exact
  opts.queue_capacity = 2;
  opts.admission = AdmissionPolicy::kReject;
  ReconService service(opts);

  auto a = service.submit(make_job(16, 12, Algorithm::kSirt));
  auto b = service.submit(make_job(16, 12, Algorithm::kSirt));
  EXPECT_FALSE(ready(a.result));
  EXPECT_FALSE(ready(b.result));

  auto c = service.submit(make_job(16, 12, Algorithm::kSirt));
  ASSERT_TRUE(ready(c.result)) << "kReject must resolve without blocking";
  EXPECT_EQ(c.result.get().status, JobStatus::kRejected);
  EXPECT_EQ(service.stats().rejected, 1U);

  service.shutdown(DrainMode::kAbort);
  EXPECT_EQ(a.result.get().status, JobStatus::kCancelled);
  EXPECT_EQ(b.result.get().status, JobStatus::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 2U);
}

TEST(ReconService, SubmitAfterShutdownIsRejected) {
  ReconService service;
  service.shutdown();
  auto late = service.submit(make_job(16, 12, Algorithm::kSirt));
  ASSERT_TRUE(ready(late.result));
  EXPECT_EQ(late.result.get().status, JobStatus::kRejected);
}

// kBlock: submitters wait for space instead of being refused; every job
// completes even through a tiny queue.
TEST(ReconService, BlockPolicyCompletesEverythingThroughATinyQueue) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 2;
  opts.admission = AdmissionPolicy::kBlock;
  ReconService service(opts);

  std::vector<std::future<ReconResult>> results;
  for (int i = 0; i < 10; ++i) {
    const int image = i % 2 == 0 ? 16 : 24;
    results.push_back(service.submit(make_job(image, 12, Algorithm::kSirt)).result);
  }
  for (auto& f : results) {
    const ReconResult r = f.get();
    EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, 10U);
  EXPECT_EQ(s.completed, 10U);
  EXPECT_EQ(s.rejected, 0U);
}

// A job whose deadline is spent while it waits behind a long job resolves
// as kExpired — a status distinct from failure or rejection.
TEST(ReconService, DeadlineExpiredWhileQueuedIsDistinctStatus) {
  ServiceOptions opts;
  opts.num_workers = 1;
  ReconService service(opts);

  // A long job occupies the only worker...
  auto slow = service.submit(make_job(32, 24, Algorithm::kSirt, 40));
  // ...so the impatient job's 100us budget is gone by the time it is popped.
  ReconJob impatient = make_job(16, 12, Algorithm::kSirt);
  impatient.deadline_seconds = 1e-4;
  auto expired = service.submit(std::move(impatient));

  EXPECT_EQ(expired.result.get().status, JobStatus::kExpired);
  EXPECT_EQ(slow.result.get().status, JobStatus::kOk);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.expired, 1U);
  EXPECT_EQ(s.completed, 1U);
  EXPECT_EQ(s.failed, 0U);
}

TEST(ReconService, CancelQueuedJobBeforeItRuns) {
  ServiceOptions opts;
  opts.num_workers = 1;
  ReconService service(opts);

  auto slow = service.submit(make_job(32, 24, Algorithm::kSirt, 40));
  auto doomed = service.submit(make_job(16, 12, Algorithm::kSirt));
  EXPECT_TRUE(service.cancel(doomed.id));
  EXPECT_EQ(doomed.result.get().status, JobStatus::kCancelled);
  EXPECT_EQ(slow.result.get().status, JobStatus::kOk);
  // The finished job can no longer be cancelled.
  EXPECT_FALSE(service.cancel(slow.id));
  EXPECT_EQ(service.stats().cancelled, 1U);
}

TEST(ReconService, AbortShutdownCancelsQueuedJobs) {
  ServiceOptions opts;
  opts.num_workers = 0;
  opts.queue_capacity = 8;
  ReconService service(opts);
  std::vector<std::future<ReconResult>> results;
  for (int i = 0; i < 3; ++i) {
    results.push_back(service.submit(make_job(16, 12, Algorithm::kSirt)).result);
  }
  service.shutdown(DrainMode::kAbort);
  for (auto& f : results) EXPECT_EQ(f.get().status, JobStatus::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 3U);
}

// Graceful drain: shutdown(kDrain) lets the workers finish everything that
// was admitted — no job is lost or cancelled.
TEST(ReconService, DrainShutdownFinishesAdmittedJobs) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 8;
  ReconService service(opts);
  std::vector<std::future<ReconResult>> results;
  for (int i = 0; i < 5; ++i) {
    results.push_back(service.submit(make_job(16, 12, Algorithm::kSirt)).result);
  }
  service.shutdown(DrainMode::kDrain);
  for (auto& f : results) {
    const ReconResult r = f.get();
    EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
  }
  EXPECT_EQ(service.stats().completed, 5U);
  EXPECT_EQ(service.stats().cancelled, 0U);
}

// --- Job batching ---------------------------------------------------------

// Jobs sharing matrix key + algorithm fuse into one multi-RHS solve; each
// job's volume must stay bitwise identical to the unbatched serial path.
TEST(ReconServiceBatch, FusedJobsBitwiseMatchSerialReference) {
  for (Algorithm a : {Algorithm::kSirt, Algorithm::kCgls, Algorithm::kOsSart}) {
    ServiceOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 8;
    opts.max_batch = 4;
    opts.batch_window_seconds = 2.0;  // never elapses: the batch fills first
    ReconService service(opts);

    std::vector<std::future<ReconResult>> results;
    for (int i = 0; i < 4; ++i) {
      results.push_back(service.submit(make_job(24, 12, a)).result);
    }
    const ReconResult want = reference_run(make_job(24, 12, a));
    for (auto& f : results) {
      const ReconResult got = f.get();
      expect_bitwise_volumes(got, want);
    }
    service.shutdown();
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.completed, 4U);
    // The lone worker pops job 1 and holds the window open until its three
    // mates arrive, so at least one fused execution must have happened (all
    // four in one batch in the common case; never zero).
    EXPECT_GE(s.batches, 1U) << "algorithm " << static_cast<int>(a);
    EXPECT_GE(s.batched_jobs, 2U);
  }
}

// A non-fusable job (different algorithm) ends the gather and is carried as
// the lead of the next batch — never dropped, never reordered into a wrong
// batch, still bitwise correct.
TEST(ReconServiceBatch, NonFusableJobIsCarriedNotLost) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 8;
  opts.max_batch = 4;
  opts.batch_window_seconds = 0.3;  // short: the carried job's window idles out
  ReconService service(opts);

  std::vector<std::pair<Algorithm, std::future<ReconResult>>> results;
  const std::vector<Algorithm> sequence = {Algorithm::kSirt, Algorithm::kSirt,
                                           Algorithm::kCgls, Algorithm::kSirt,
                                           Algorithm::kCgls};
  for (Algorithm a : sequence) {
    results.emplace_back(a, service.submit(make_job(24, 12, a)).result);
  }
  for (auto& [a, f] : results) {
    expect_bitwise_volumes(f.get(), reference_run(make_job(24, 12, a)));
  }
  service.shutdown();
  EXPECT_EQ(service.stats().completed, 5U);
}

// OS-SART jobs disagreeing on subset count must not fuse (the subset split
// is structural) — they still all complete bitwise-correct.
TEST(ReconServiceBatch, MismatchedSubsetCountsDoNotFuse) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 8;
  opts.max_batch = 4;
  opts.batch_window_seconds = 0.2;
  ReconService service(opts);

  ReconJob a = make_job(24, 12, Algorithm::kOsSart);
  ReconJob b = make_job(24, 12, Algorithm::kOsSart);
  b.os_sart_subsets = a.os_sart_subsets / 2;
  ReconJob a_ref = a, b_ref = b;
  auto fa = service.submit(std::move(a)).result;
  auto fb = service.submit(std::move(b)).result;
  expect_bitwise_volumes(fa.get(), reference_run(a_ref));
  expect_bitwise_volumes(fb.get(), reference_run(b_ref));
  service.shutdown();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.completed, 2U);
  EXPECT_EQ(s.batched_jobs, 0U) << "structurally incompatible jobs must not fuse";
}

// OS-SART runs on the job's own operator: a bf16 job and a sparsified job
// each reproduce execute_job over their narrowed / sparsified entry bit for
// bit and differ from the fp32 volume; OS-SART jobs with two subset counts
// and a SIRT job on one geometry share a single cache build.
TEST(ReconService, OsSartRunsOnTheJobsOwnOperator) {
  ServiceOptions opts;
  opts.num_workers = 2;
  ReconService service(opts);
  const ReconJob fp32 = make_job(32, 32, Algorithm::kOsSart);
  ReconJob bf16 = fp32;
  bf16.value_type = core::ValueType::kBf16;
  ReconJob sparse = fp32;
  sparse.sparsify_eps = 0.05;
  const ReconResult want_fp32 = reference_run(fp32);
  for (const ReconJob& job : {bf16, sparse}) {
    const ReconResult got = service.submit(job).result.get();
    const ReconResult want = reference_run(job);
    expect_bitwise_volumes(got, want);
    ASSERT_EQ(got.volume.size(), want_fp32.volume.size());
    EXPECT_NE(0, std::memcmp(got.volume.data(), want_fp32.volume.data(),
                             got.volume.size() * sizeof(float)))
        << "a narrowed or sparsified OS-SART job ran the fp32 operator";
  }
  EXPECT_EQ(service.cache_stats().builds, 2U);

  ReconService fresh(opts);
  ReconJob two = fp32;
  two.os_sart_subsets = 2;
  for (const ReconJob& job : {fp32, two, make_job(32, 32, Algorithm::kSirt)}) {
    const ReconResult got = fresh.submit(job).result.get();
    expect_bitwise_volumes(got, reference_run(job));
  }
  EXPECT_EQ(fresh.cache_stats().builds, 1U) << "one operator per geometry";
}

// Deadline-aware de-batching: a job carrying a deadline must not idle out
// the batch window waiting for mates that may never come. With a window
// far longer than the deadline, the job only completes in time if the
// worker skips the wait.
TEST(ReconServiceBatch, DeadlineJobSkipsTheBatchWindow) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 8;
  opts.max_batch = 8;
  opts.batch_window_seconds = 5.0;  // >> deadline: waiting it out would expire the job
  ReconService service(opts);

  ReconJob job = make_job(16, 12, Algorithm::kSirt);
  job.deadline_seconds = 2.0;
  const auto t0 = std::chrono::steady_clock::now();
  auto submitted = service.submit(std::move(job));
  const ReconResult got = submitted.result.get();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(got.status, JobStatus::kOk) << got.error;
  EXPECT_LT(elapsed.count(), 2.0) << "worker sat out the batch window past the deadline";
  service.shutdown();
  EXPECT_EQ(service.stats().debatched, 1U);
  EXPECT_EQ(service.stats().expired, 0U);
}

// The acceptance stress: 8 workers, 72 jobs, 3 geometries, 4 algorithms.
// Every volume must be bitwise identical to the serial reference, and the
// shared cache must have built each distinct operator exactly once despite
// the stampede of cold workers.
TEST(ReconService, StressBitwiseDeterministicAndSingleBuildPerKey) {
  const std::vector<std::pair<int, int>> geometries = {{24, 12}, {32, 16}, {40, 12}};
  const std::vector<Algorithm> algorithms = {Algorithm::kFbp, Algorithm::kSirt,
                                             Algorithm::kCgls, Algorithm::kOsSart};
  constexpr int kJobs = 72;

  // Serial references, one per distinct (geometry, algorithm) spec; every
  // algorithm on a geometry shares that geometry's one cache key.
  std::map<std::pair<int, int>, ReconResult> references;
  for (std::size_t g = 0; g < geometries.size(); ++g) {
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      const auto [image, views] = geometries[g];
      references.emplace(
          std::make_pair(static_cast<int>(g), static_cast<int>(a)),
          reference_run(make_job(image, views, algorithms[a])));
    }
  }

  ServiceOptions opts;
  opts.num_workers = 8;
  opts.queue_capacity = 16;
  opts.admission = AdmissionPolicy::kBlock;
  opts.omp_threads_per_worker = 1;
  opts.plans_per_worker = 4;
  ReconService service(opts);

  std::vector<std::pair<std::pair<int, int>, std::future<ReconResult>>> inflight;
  inflight.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    const int g = j % static_cast<int>(geometries.size());
    const int a = j % static_cast<int>(algorithms.size());
    const auto [image, views] = geometries[static_cast<std::size_t>(g)];
    auto submitted =
        service.submit(make_job(image, views, algorithms[static_cast<std::size_t>(a)]));
    inflight.emplace_back(std::make_pair(g, a), std::move(submitted.result));
  }

  for (auto& [spec, future] : inflight) {
    const ReconResult got = future.get();
    expect_bitwise_volumes(got, references.at(spec));
  }

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.failed, 0U);

  const CacheStats c = service.cache_stats();
  EXPECT_EQ(c.builds, geometries.size())
      << "each geometry's one operator must be built exactly once";
  EXPECT_EQ(c.evictions, 0U);
  EXPECT_EQ(c.hits + c.misses + c.single_flight_waits,
            static_cast<std::uint64_t>(kJobs));
}

}  // namespace
}  // namespace cscv::pipeline

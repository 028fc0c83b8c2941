// ReconService — the concurrent reconstruction front-end.
//
// Wires the three pipeline pieces into a serving loop:
//
//   submit(job) ──► BoundedQueue ──► worker pool ──► future<ReconResult>
//                                        │
//                                        └──► SystemMatrixCache (shared,
//                                             single-flight, LRU)
//
// Concurrency model:
//   * Admission is bounded: kBlock applies backpressure to the submitter,
//     kReject resolves the returned future immediately with kRejected —
//     the job never enters the queue.
//   * Each worker is a plain std::thread that pins its own OpenMP thread
//     count (an OMP ICV is per-thread, so workers can't oversubscribe each
//     other) and owns a small LRU of SpmvPlans — a plan's scratch forbids
//     sharing one instance across threads, so plans are strictly
//     worker-local while the matrices under them are shared via the cache.
//     After the first job per (worker, operator), the warm loop performs
//     no allocation: queue pop, cache hit, plan reuse, solve.
//   * Determinism: with omp_threads_per_worker == 1 a job's volume is
//     bitwise identical to running execute_job() serially with a
//     threads=1 plan, regardless of worker count, queue order, or cache
//     state — summation order is fixed by the plan shape, which is part of
//     neither the queue nor the cache. The stress test asserts this.
//   * shutdown(kDrain) stops admission, lets workers finish everything
//     queued, then joins. shutdown(kAbort) additionally fails the
//     still-queued jobs as kCancelled. The destructor drains.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/plan.hpp"
#include "pipeline/job.hpp"
#include "pipeline/matrix_cache.hpp"
#include "pipeline/queue.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"

namespace cscv::pipeline {

/// What happens when submit() meets a full queue.
enum class AdmissionPolicy { kBlock, kReject };

/// How shutdown treats jobs still queued: finish them (kDrain) or resolve
/// them as kCancelled (kAbort).
enum class DrainMode { kDrain, kAbort };

struct ServiceOptions {
  /// Worker threads. 0 is a valid degenerate mode — jobs queue but nothing
  /// runs them — used by admission/cancellation tests that need
  /// deterministic queue occupancy.
  int num_workers = 2;
  std::size_t queue_capacity = 32;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// OpenMP threads *inside* each worker's solves. Keep at 1 unless the
  /// pool is smaller than the machine; workers * omp_threads_per_worker
  /// should not exceed the core count.
  int omp_threads_per_worker = 1;
  /// Plans each worker keeps warm (per distinct operator and batch
  /// width), LRU-evicted.
  int plans_per_worker = 4;
  /// Jobs a worker may fuse into one batched multi-RHS solve. 1 disables
  /// batching. Only queued jobs agreeing on system-matrix key and algorithm
  /// (and subset count for kOsSart) fuse; kFbp never fuses.
  int max_batch = 1;
  /// How long a worker holds its first job waiting for batch-mates before
  /// running with what it has (ignored when max_batch == 1). The window
  /// is deadline-aware: as soon as any gathered job carries a deadline,
  /// the worker stops waiting and only drains jobs already queued — an
  /// interactive job never idles for batch fill.
  double batch_window_seconds = 0.05;
  /// Deadline granted to interactive-class jobs that carry none of their
  /// own (QosClass::kInteractive, docs/SERVICE.md). 0 grants nothing.
  /// Batch jobs are never given an implicit deadline.
  double interactive_deadline_seconds = 0.0;
  SystemMatrixCache::Options cache{};
};

struct ServiceStats {
  std::uint64_t submitted = 0;  // every submit() call
  std::uint64_t completed = 0;  // resolved kOk
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;       // fused executions of >= 2 jobs
  std::uint64_t batched_jobs = 0;  // jobs that ran inside such executions
  std::uint64_t debatched = 0;     // batch windows skipped because a
                                   // gathered job carried a deadline
  std::uint64_t qos_interactive = 0;  // submits per QoS class
  std::uint64_t qos_batch = 0;

  [[nodiscard]] util::Json to_json() const;
  /// Inverse of to_json; CheckError on missing counters. Used by clients
  /// consuming /stats.
  static ServiceStats from_json(const util::Json& j);
};

/// Runs `jobs` — all sharing `entry`'s matrix key and one algorithm (a
/// kFbp job runs alone; OS-SART jobs also share a subset count) — against
/// the acquired operator entry as one solve with num_rhs == jobs.size(),
/// synchronously on the calling thread. `plan` must be a plan over
/// *entry.cscv built with num_rhs == jobs.size(), or null for a call-local
/// one at the ambient thread count. One job reads its sinogram in place and
/// solves straight into its result's volume; k jobs are interleaved into
/// one fused multi-RHS solve. Returns one result per job, in order, with
/// the solve half filled (status/volume/iterations/residual/solve_seconds/
/// plan_stats/batch position, and the stratum count of an OS-SART job); the
/// service half (ids, waits, cache flags) belongs to the caller. Each job's
/// volume is bitwise identical to execute_job() on that job alone — the
/// contract that lets ReconService fuse queued jobs transparently.
std::vector<ReconResult> execute_job_batch(std::span<const ReconJob> jobs,
                                           const SystemMatrixEntry& entry,
                                           const core::SpmvPlan<float>* plan);

/// execute_job_batch of one job (`plan` single-RHS or null). Exposed so
/// tests and benches can produce the serial reference volumes the service's
/// outputs are compared against — same code path, no queue.
ReconResult execute_job(const ReconJob& job, const SystemMatrixEntry& entry,
                        const core::SpmvPlan<float>* plan);

class ReconService {
 public:
  explicit ReconService(ServiceOptions options = {});
  ~ReconService();  // shutdown(kDrain)

  ReconService(const ReconService&) = delete;
  ReconService& operator=(const ReconService&) = delete;

  /// Handle returned by submit(): the service-assigned job id (usable with
  /// cancel()) plus the future carrying the eventual result.
  struct Submitted {
    std::uint64_t id = 0;
    std::future<ReconResult> result;
  };

  /// Admits a job. Always returns a valid future: admitted jobs resolve
  /// when a worker finishes them; refused jobs (queue full under kReject,
  /// or the service is shutting down) resolve immediately with kRejected.
  Submitted submit(ReconJob job);

  /// Best-effort cancellation of a job that is still queued. True when the
  /// job will resolve as kCancelled instead of running; false when it
  /// already started, finished, or was never admitted.
  bool cancel(std::uint64_t job_id);

  /// Idempotent. Stops admission, handles queued jobs per `mode`, joins
  /// the workers. Every admitted future is resolved before this returns.
  void shutdown(DrainMode mode = DrainMode::kDrain);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] SystemMatrixCache& cache() { return cache_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 private:
  struct Pending {
    ReconJob job;
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point submit_time{};
    std::promise<ReconResult> promise;
  };

  void worker_main(int worker_index);
  /// Resolves a pending job with a no-run status (rejected/expired/...).
  static void resolve_without_running(Pending& p, JobStatus status);
  /// Takes mu_ itself — never call with mu_ already held.
  void count_status(JobStatus status) CSCV_EXCLUDES(mu_);

  ServiceOptions options_;
  SystemMatrixCache cache_;
  BoundedQueue<Pending> queue_;
  std::atomic<std::uint64_t> next_id_{1};

  mutable util::Mutex mu_;
  ServiceStats stats_ CSCV_GUARDED_BY(mu_);
  std::unordered_set<std::uint64_t> queued_ids_ CSCV_GUARDED_BY(mu_);
  std::unordered_set<std::uint64_t> cancelled_ CSCV_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
  // Serializes shutdown() callers; held across the worker joins, which take
  // mu_ — the one nested lock order in the service (docs/CONCURRENCY.md).
  util::Mutex shutdown_mu_ CSCV_ACQUIRED_BEFORE(mu_);
  bool shut_down_ CSCV_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace cscv::pipeline

#include "pipeline/service.hpp"

#include <algorithm>
#include <exception>
#include <list>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "recon/fbp.hpp"
#include "recon/operators.hpp"
#include "recon/solvers.hpp"
#include "util/parallel.hpp"
#include "util/timing.hpp"

namespace cscv::pipeline {

util::Json ServiceStats::to_json() const {
  util::Json j = util::Json::object();
  j["submitted"] = util::Json(submitted);
  j["completed"] = util::Json(completed);
  j["rejected"] = util::Json(rejected);
  j["expired"] = util::Json(expired);
  j["cancelled"] = util::Json(cancelled);
  j["failed"] = util::Json(failed);
  j["batches"] = util::Json(batches);
  j["batched_jobs"] = util::Json(batched_jobs);
  j["debatched"] = util::Json(debatched);
  j["qos_interactive"] = util::Json(qos_interactive);
  j["qos_batch"] = util::Json(qos_batch);
  return j;
}

ServiceStats ServiceStats::from_json(const util::Json& j) {
  ServiceStats s;
  s.submitted = static_cast<std::uint64_t>(j.at("submitted").as_int());
  s.completed = static_cast<std::uint64_t>(j.at("completed").as_int());
  s.rejected = static_cast<std::uint64_t>(j.at("rejected").as_int());
  s.expired = static_cast<std::uint64_t>(j.at("expired").as_int());
  s.cancelled = static_cast<std::uint64_t>(j.at("cancelled").as_int());
  s.failed = static_cast<std::uint64_t>(j.at("failed").as_int());
  s.batches = static_cast<std::uint64_t>(j.at("batches").as_int());
  s.batched_jobs = static_cast<std::uint64_t>(j.at("batched_jobs").as_int());
  s.debatched = static_cast<std::uint64_t>(j.at("debatched").as_int());
  s.qos_interactive = static_cast<std::uint64_t>(j.at("qos_interactive").as_int());
  s.qos_batch = static_cast<std::uint64_t>(j.at("qos_batch").as_int());
  return s;
}

namespace {

/// `plan`, or a call-local plan over the entry at the ambient thread count
/// held in `local` when `plan` is null.
const core::SpmvPlan<float>& plan_or_local(const SystemMatrixEntry& entry,
                                           const core::SpmvPlan<float>* plan, int num_rhs,
                                           std::unique_ptr<core::SpmvPlan<float>>& local) {
  CSCV_CHECK_MSG(entry.cscv != nullptr, "the entry holds no CSCV matrix");
  if (plan == nullptr) {
    local = std::make_unique<core::SpmvPlan<float>>(*entry.cscv,
                                                    core::PlanOptions{.num_rhs = num_rhs});
    return *local;
  }
  CSCV_CHECK_MSG(plan->matrix() == entry.cscv.get() && plan->num_rhs() == num_rhs,
                 "jobs need a plan over the entry's CSCV matrix with num_rhs == "
                     << num_rhs);
  return *plan;
}

}  // namespace

ReconResult execute_job(const ReconJob& job, const SystemMatrixEntry& entry,
                        const core::SpmvPlan<float>* plan) {
  return std::move(execute_job_batch(std::span<const ReconJob>(&job, 1), entry, plan).front());
}

std::vector<ReconResult> execute_job_batch(std::span<const ReconJob> jobs,
                                           const SystemMatrixEntry& entry,
                                           const core::SpmvPlan<float>* plan) {
  CSCV_CHECK_MSG(!jobs.empty(), "execute_job_batch needs at least one job");
  const Algorithm algo = jobs[0].algorithm;
  CSCV_CHECK_MSG(algo != Algorithm::kFbp || jobs.size() == 1, "kFbp jobs are never batched");
  const auto rows = static_cast<std::size_t>(jobs[0].geometry.num_rows());
  const auto cols = static_cast<std::size_t>(jobs[0].geometry.num_cols());
  for (const ReconJob& j : jobs) {
    j.geometry.validate();
    CSCV_CHECK_MSG(j.algorithm == algo && j.sart_subsets() == jobs[0].sart_subsets(),
                   "batched jobs must share one algorithm and subset count");
    CSCV_CHECK(static_cast<std::size_t>(j.geometry.num_rows()) == rows);
    CSCV_CHECK(static_cast<std::size_t>(j.geometry.num_cols()) == cols);
    CSCV_CHECK_MSG(j.sinogram.size() == rows, "sinogram has " << j.sinogram.size()
                                                              << " elements, geometry wants "
                                                              << rows);
  }
  const std::size_t k = jobs.size();
  const int num_rhs = static_cast<int>(k);
  std::unique_ptr<core::SpmvPlan<float>> local;
  const core::SpmvPlan<float>& p = plan_or_local(entry, plan, num_rhs, local);

  // One job reads its sinogram in place and solves into its result's
  // volume; k jobs are interleaved into one multi-RHS B and X, solved in
  // lockstep over a single matrix traversal per apply.
  std::vector<ReconResult> out(k);
  util::AlignedVector<float> b_multi;
  util::AlignedVector<float> x_multi;
  if (k == 1) {
    out[0].volume.assign(cols, 0.0F);
  } else {
    b_multi.resize(rows * k);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t i = 0; i < rows; ++i) b_multi[i * k + c] = jobs[c].sinogram[i];
    }
    x_multi.assign(cols * k, 0.0F);
  }
  const std::span<const float> b = k == 1 ? std::span<const float>(jobs[0].sinogram) : b_multi;
  const std::span<float> x = k == 1 ? std::span<float>(out[0].volume) : x_multi;

  util::WallTimer timer;
  std::vector<recon::RunStats> stats(k);
  switch (algo) {
    case Algorithm::kFbp:
      out[0].volume = recon::fbp<float>(jobs[0].geometry, recon::PlanOperator<float>(p), b);
      stats[0].iterations_run = 1;
      break;
    case Algorithm::kSirt:
    case Algorithm::kOsSart:
    case Algorithm::kCgls: {
      const recon::PlanOperator<float> op(p);
      std::vector<recon::SolveOptions> solve(k);
      for (std::size_t c = 0; c < k; ++c) solve[c] = jobs[c].solve;
      stats = algo == Algorithm::kCgls
                  ? recon::cgls_batch<float>(op, b, x, num_rhs, solve)
                  : recon::os_sart_batch<float>(op, b, x, num_rhs, jobs[0].sart_subsets(),
                                                solve);
      break;
    }
  }
  const double solve_seconds = timer.seconds();

  for (std::size_t c = 0; c < k; ++c) {
    ReconResult& r = out[c];
    r.tag = jobs[c].tag;
    if (k > 1) {
      r.volume.resize(cols);
      for (std::size_t i = 0; i < cols; ++i) r.volume[i] = x_multi[i * k + c];
    }
    r.iterations_run = stats[c].iterations_run;
    if (!stats[c].residual_norms.empty()) r.final_residual = stats[c].residual_norms.back();
    if (algo == Algorithm::kOsSart) {
      r.os_sart_subsets = recon::os_sart_strata(entry.cscv->view_groups(),
                                                   jobs[c].os_sart_subsets);
    }
    r.solve_seconds = solve_seconds;  // shared: the fused solve ran once
    r.plan_stats = p.stats();
    r.batch_size = num_rhs;
    r.batch_index = static_cast<int>(c);
    r.status = JobStatus::kOk;
  }
  return out;
}

ReconService::ReconService(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache), queue_(options_.queue_capacity) {
  CSCV_CHECK_MSG(options_.num_workers >= 0, "num_workers must be >= 0");
  CSCV_CHECK_MSG(options_.omp_threads_per_worker >= 1,
                 "omp_threads_per_worker must be >= 1");
  CSCV_CHECK_MSG(options_.plans_per_worker >= 1, "plans_per_worker must be >= 1");
  CSCV_CHECK_MSG(options_.max_batch >= 1, "max_batch must be >= 1");
  CSCV_CHECK_MSG(options_.batch_window_seconds >= 0.0,
                 "batch_window_seconds must be >= 0");
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&ReconService::worker_main, this, i);
  }
}

ReconService::~ReconService() { shutdown(DrainMode::kDrain); }

void ReconService::resolve_without_running(Pending& p, JobStatus status) {
  ReconResult r;
  r.job_id = p.id;
  r.tag = p.job.tag;
  r.status = status;
  p.promise.set_value(std::move(r));
}

void ReconService::count_status(JobStatus status) {
  util::MutexLock lock(mu_);
  switch (status) {
    case JobStatus::kOk: ++stats_.completed; break;
    case JobStatus::kRejected: ++stats_.rejected; break;
    case JobStatus::kExpired: ++stats_.expired; break;
    case JobStatus::kCancelled: ++stats_.cancelled; break;
    case JobStatus::kFailed: ++stats_.failed; break;
  }
}

ReconService::Submitted ReconService::submit(ReconJob job) {
  Pending p;
  p.job = std::move(job);
  // QoS: an interactive job without its own deadline inherits the
  // service-wide interactive budget (0 = none configured).
  if (p.job.qos == QosClass::kInteractive && p.job.deadline_seconds <= 0.0 &&
      options_.interactive_deadline_seconds > 0.0) {
    p.job.deadline_seconds = options_.interactive_deadline_seconds;
  }
  p.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  p.submit_time = std::chrono::steady_clock::now();
  Submitted handle{p.id, p.promise.get_future()};
  {
    util::MutexLock lock(mu_);
    ++stats_.submitted;
    ++(p.job.qos == QosClass::kInteractive ? stats_.qos_interactive
                                           : stats_.qos_batch);
    // Registered before the push so cancel() can never observe a job that
    // is in the queue but unknown to it.
    queued_ids_.insert(p.id);
  }
  // Interactive jobs are admitted with kReject semantics no matter the
  // service-wide policy: a full queue answers immediately (bounded client
  // latency) instead of applying backpressure to the submitter.
  const bool reject_on_full = options_.admission == AdmissionPolicy::kReject ||
                              p.job.qos == QosClass::kInteractive;
  const PushResult admitted = reject_on_full ? queue_.try_push(p) : queue_.push(p);
  if (admitted != PushResult::kOk) {
    bool was_cancelled = false;
    {
      util::MutexLock lock(mu_);
      queued_ids_.erase(p.id);
      // A concurrent cancel() may have seen the id (registered above) and
      // returned true; that promises a kCancelled resolution, which wins
      // over kRejected even though try_push refused the job.
      was_cancelled = cancelled_.erase(p.id) > 0;
    }
    // The move in push() only happens on kOk, so `p` still owns the
    // promise and we can resolve the refusal ourselves.
    const JobStatus status =
        was_cancelled ? JobStatus::kCancelled : JobStatus::kRejected;
    count_status(status);
    resolve_without_running(p, status);
  }
  return handle;
}

bool ReconService::cancel(std::uint64_t job_id) {
  util::MutexLock lock(mu_);
  if (queued_ids_.count(job_id) == 0) return false;
  cancelled_.insert(job_id);
  return true;
}

ServiceStats ReconService::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

void ReconService::worker_main(int worker_index) {
  // An OpenMP ICV is per-thread: this caps only *this* worker's parallel
  // regions, so the pool as a whole uses workers * omp_threads_per_worker.
  util::set_num_threads(options_.omp_threads_per_worker);

  // Worker-local plan LRU, keyed on (matrix, num_rhs). Plans carry mutable
  // scratch, so they are never shared across workers; the entry shared_ptr
  // keeps the matrix under a plan alive even after the shared cache evicts
  // it. Eviction enforces the count cap; the plan just used always survives.
  struct WorkerPlan {
    std::shared_ptr<const SystemMatrixEntry> entry;
    int num_rhs = 1;
    std::unique_ptr<core::SpmvPlan<float>> plan;
  };
  std::list<WorkerPlan> plans;  // front = most recently used
  core::PlanOptions plan_opts;
  plan_opts.threads = options_.omp_threads_per_worker;

  const auto acquire_plan = [&](const std::shared_ptr<const SystemMatrixEntry>& entry,
                                int num_rhs) -> const core::SpmvPlan<float>* {
    auto it = plans.begin();
    while (it != plans.end() &&
           !(it->entry->cscv.get() == entry->cscv.get() && it->num_rhs == num_rhs)) {
      ++it;
    }
    if (it != plans.end()) {
      plans.splice(plans.begin(), plans, it);
    } else {
      core::PlanOptions opts = plan_opts;
      opts.num_rhs = num_rhs;
      WorkerPlan warm;
      warm.entry = entry;
      warm.num_rhs = num_rhs;
      warm.plan = std::make_unique<core::SpmvPlan<float>>(*entry->cscv, opts);
      plans.push_front(std::move(warm));
      while (plans.size() > 1 &&
             plans.size() > static_cast<std::size_t>(options_.plans_per_worker)) {
        plans.pop_back();
      }
    }
    return plans.front().plan.get();
  };

  // A popped job after its dequeue-time bookkeeping (id bookkeeping,
  // cancellation, queue wait, first deadline check).
  struct Member {
    Pending p;
    ReconResult meta;
  };
  const auto deadline_spent = [](const Pending& p,
                                 std::chrono::steady_clock::time_point now) {
    return p.job.deadline_seconds > 0.0 &&
           std::chrono::duration<double>(now - p.submit_time).count() >
               p.job.deadline_seconds;
  };
  // Counting before fulfilling a promise everywhere below: a caller woken
  // by get() must see the status already reflected in stats().
  const auto admit = [&](Pending&& p) -> std::optional<Member> {
    const auto dequeued = std::chrono::steady_clock::now();
    bool was_cancelled = false;
    {
      util::MutexLock lock(mu_);
      queued_ids_.erase(p.id);
      was_cancelled = cancelled_.erase(p.id) > 0;
    }
    if (was_cancelled) {
      count_status(JobStatus::kCancelled);
      resolve_without_running(p, JobStatus::kCancelled);
      return std::nullopt;
    }
    Member m;
    m.meta.job_id = p.id;
    m.meta.tag = p.job.tag;
    m.meta.worker = worker_index;
    m.meta.queue_wait_seconds =
        std::chrono::duration<double>(dequeued - p.submit_time).count();
    if (deadline_spent(p, dequeued)) {
      m.meta.status = JobStatus::kExpired;
      count_status(JobStatus::kExpired);
      p.promise.set_value(std::move(m.meta));
      return std::nullopt;
    }
    m.p = std::move(p);
    return m;
  };

  std::optional<Member> carry;  // first non-fusable job met while gathering
  for (;;) {
    std::vector<Member> batch;
    if (carry.has_value()) {
      batch.push_back(std::move(*carry));
      carry.reset();
    } else {
      Pending p;
      if (!queue_.pop(p)) break;  // carry is always consumed before pop
      auto m = admit(std::move(p));
      if (!m.has_value()) continue;
      batch.push_back(std::move(*m));
    }

    const Algorithm lead_algo = batch.front().p.job.algorithm;
    if (options_.max_batch > 1 && lead_algo != Algorithm::kFbp) {
      const MatrixKey lead_key = batch.front().p.job.matrix_key();
      const int lead_subsets = batch.front().p.job.sart_subsets();
      bool has_deadline = batch.front().p.job.deadline_seconds > 0.0;
      bool counted_debatch = false;
      const auto window_end =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options_.batch_window_seconds));
      while (static_cast<int>(batch.size()) < options_.max_batch) {
        // Deadline-aware de-batching: once any gathered job carries a
        // deadline, stop waiting for fill — only drain jobs already
        // queued (zero-timeout polls), so an interactive job never idles
        // behind the batching window.
        if (has_deadline && !counted_debatch) {
          util::MutexLock lock(mu_);
          ++stats_.debatched;
          counted_debatch = true;
        }
        auto wait = std::chrono::steady_clock::duration::zero();
        if (!has_deadline) {
          const auto now = std::chrono::steady_clock::now();
          if (now < window_end) wait = window_end - now;
        }
        Pending next;
        if (!queue_.try_pop_for(next, wait)) break;  // window spent or closed
        auto m = admit(std::move(next));
        if (!m.has_value()) continue;
        // One key serves every algorithm, so fusion also needs the same
        // algorithm and, for OS-SART, the same subset count.
        const ReconJob& j = m->p.job;
        if (j.matrix_key() != lead_key || j.algorithm != lead_algo ||
            j.sart_subsets() != lead_subsets) {
          carry = std::move(*m);  // leads its own batch next iteration
          break;
        }
        has_deadline = has_deadline || j.deadline_seconds > 0.0;
        batch.push_back(std::move(*m));
      }
    }

    try {
      const SystemMatrixCache::Acquired acquired =
          cache_.get_or_build(batch.front().p.job.matrix_key());
      for (Member& m : batch) {
        m.meta.cache_hit = acquired.hit;
        m.meta.acquire_seconds = acquired.seconds;
      }
      // A cold build can be the slow part; re-check every member's budget
      // before committing to the solve (which is never interrupted). An
      // expired member drops out and the batch narrows around it.
      const auto post_acquire = std::chrono::steady_clock::now();
      for (auto it = batch.begin(); it != batch.end();) {
        if (deadline_spent(it->p, post_acquire)) {
          it->meta.status = JobStatus::kExpired;
          count_status(JobStatus::kExpired);
          it->p.promise.set_value(std::move(it->meta));
          it = batch.erase(it);
        } else {
          ++it;
        }
      }
      if (batch.empty()) continue;

      const core::SpmvPlan<float>* plan =
          acquire_plan(acquired.entry, static_cast<int>(batch.size()));

      std::vector<ReconJob> jobs;
      jobs.reserve(batch.size());
      for (Member& m : batch) jobs.push_back(std::move(m.p.job));
      std::vector<ReconResult> results = execute_job_batch(jobs, *acquired.entry, plan);
      if (batch.size() > 1) {
        util::MutexLock lock(mu_);
        ++stats_.batches;
        stats_.batched_jobs += batch.size();
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ReconResult& r = results[i];
        r.job_id = batch[i].meta.job_id;
        r.worker = batch[i].meta.worker;
        r.cache_hit = batch[i].meta.cache_hit;
        r.queue_wait_seconds = batch[i].meta.queue_wait_seconds;
        r.acquire_seconds = batch[i].meta.acquire_seconds;
        count_status(r.status);
        batch[i].p.promise.set_value(std::move(r));
      }
    } catch (const std::exception& e) {
      // Nothing in the try block resolves a promise before the point that
      // can throw, so every member still owed a result gets kFailed.
      for (Member& m : batch) {
        m.meta.status = JobStatus::kFailed;
        m.meta.error = e.what();
        count_status(JobStatus::kFailed);
        m.p.promise.set_value(std::move(m.meta));
      }
    }
  }
}

void ReconService::shutdown(DrainMode mode) {
  util::MutexLock guard(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;

  queue_.close();  // producers refused; workers keep draining
  if (mode == DrainMode::kAbort) {
    for (Pending& p : queue_.drain()) {
      {
        util::MutexLock lock(mu_);
        queued_ids_.erase(p.id);
        cancelled_.erase(p.id);
      }
      count_status(JobStatus::kCancelled);
      resolve_without_running(p, JobStatus::kCancelled);
    }
  }
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // With num_workers == 0 (or an abort racing a pop) jobs can still be
  // queued here; every admitted future must resolve before we return.
  for (Pending& p : queue_.drain()) {
    {
      util::MutexLock lock(mu_);
      queued_ids_.erase(p.id);
      cancelled_.erase(p.id);
    }
    count_status(JobStatus::kCancelled);
    resolve_without_running(p, JobStatus::kCancelled);
  }
}

}  // namespace cscv::pipeline

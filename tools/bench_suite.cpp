// bench_suite — the canonical machine-readable benchmark run.
//
// Runs a deterministic workload set (the scaled Table II dataset family)
// through the CSR baseline and both CSCV variants, and writes one
// BenchReport JSON (schema: docs/BENCHMARKING.md) for bench_compare to
// gate against. This is the binary CI runs; the per-figure benches remain
// the human-readable view of the same protocol.
//
//   bench_suite --quick --out BENCH_ci.json     # CI smoke (small, f32)
//   bench_suite --scale=4 --tag=pr2             # heavier local run
//
// Determinism: datasets are generated from geometry formulas, inputs are
// seeded, and the engine set is fixed — two runs on one machine differ
// only by timing noise, which the JSON captures as p10/p90.
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "benchlib/compare.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/workloads.hpp"
#include "core/format.hpp"
#include "core/plan.hpp"
#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include "dist/coordinator.hpp"
#include "dist/sharded_operator.hpp"
#include "dist/worker.hpp"
#include "pipeline/service.hpp"
#include "recon/solvers.hpp"
#include "sparse/convert.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using namespace cscv;

struct SuiteFlags {
  int scale = 8;
  int iters = 12;
  int threads = 0;  // 0 = ambient omp max
  bool quick = false;
  bool f32 = true;
  bool f64 = true;
  std::string out;
  std::string tag = "local";
};

template <typename T>
void run_precision(const benchlib::Dataset& dataset, const SuiteFlags& flags,
                   benchlib::BenchReport& report, util::Table& table) {
  auto csc = ct::build_system_matrix_csc<T>(dataset.geometry);
  auto csr = sparse::csr_from_csc(csc);
  const auto layout = core::OperatorLayout::from_geometry(dataset.geometry);
  const auto cols = static_cast<std::size_t>(csc.cols());
  const auto rows = static_cast<std::size_t>(csc.rows());
  const int threads = flags.threads > 0 ? flags.threads : util::max_threads();

  const core::CscvParams params{.s_vvec = 8, .s_imgb = 16, .s_vxg = 4};
  std::vector<benchlib::Engine<T>> engines;
  engines.push_back({"CSR", [&csr](auto x, auto y) { csr.spmv(x, y); },
                     csr.matrix_bytes(), csr.nnz(), nullptr});
  for (const auto variant :
       {core::CscvMatrix<T>::Variant::kZ, core::CscvMatrix<T>::Variant::kM}) {
    engines.push_back(benchlib::cscv_engine<T>(
        variant == core::CscvMatrix<T>::Variant::kZ ? "CSCV-Z" : "CSCV-M",
        std::make_shared<const core::CscvMatrix<T>>(
            core::CscvMatrix<T>::build(csc, layout, params, variant))));
  }

  double csr_median = 0.0;  // same-run CSR reference for the speedup ratio
  for (const auto& engine : engines) {
    auto samples =
        benchlib::measure_spmv_samples(engine, cols, rows, threads, flags.iters);
    auto record = benchlib::make_spmv_record(dataset.name, engine, threads, flags.iters,
                                             cols, rows, samples);
    if (engine.name == "CSR") {
      csr_median = samples.median;
    } else if (csr_median > 0.0 && samples.median > 0.0) {
      // Machine-portable headline for the regression gate: how much faster
      // than the CSR baseline *of this same run* (higher is better). Load
      // and CPU-generation noise hit numerator and denominator together,
      // unlike absolute wall times.
      record.set("speedup_vs_csr", csr_median / samples.median);
    }
    // CSCV engines carry the telemetry of the plan their timed loop ran:
    // the structural metrics are machine-independent (ideal regression-gate
    // candidates), the timing-derived ones appear when built with
    // CSCV_TELEMETRY.
    if (engine.cscv) {
      const core::PlanStats st = engine.cscv->plan->stats();
      record.set("padding_fraction", st.padding_fraction);
      record.set("r_nnze", st.r_nnze);
      record.set("vxg_occupancy", st.vxg_occupancy);
      record.set("load_imbalance", st.load_imbalance);
      if (st.telemetry_enabled && st.applies > 0) {
        record.set("telemetry_gflops_best", st.gflops_best);
        record.set("telemetry_plan_build_seconds", st.plan_build_seconds);
      }
    }
    table.add(dataset.name, engine.name, record.precision, threads,
              util::fmt_fixed(samples.median * 1e3, 3),
              util::fmt_fixed(*record.find("gflops"), 2),
              util::fmt_fixed(*record.find("gbps"), 2));
    report.records.push_back(std::move(record));
  }
}

// Mixed-precision workload (docs/PRECISION.md): the large clinical CSCV-M
// operator at fp32/bf16/fp16 value storage, timed under the paper protocol
// in both directions (engine "CSCV-M-<dtype>" for y = A x,
// "CSCV-M-<dtype>-transpose" for x = A^T y). bytes_per_value is structural
// (gate candidate); max_rel_error is the worst per-entry deviation of one
// apply against the fp32 engine of this same run and direction, relative to
// the fp32 output's peak — structural too, since the reduced kernels run
// the fp32 accumulation chain on every tier. speedup_vs_fp32 is the timing
// headline: how much the halved value traffic buys on the dispatched tier.
void run_mixed_precision(const SuiteFlags& flags, benchlib::BenchReport& report,
                         util::Table& table) {
  const auto datasets = benchlib::standard_datasets(flags.scale);
  const benchlib::Dataset& dataset = datasets[2];  // the paper's large clinical matrix
  auto csc = ct::build_system_matrix_csc<float>(dataset.geometry);
  const auto layout = core::OperatorLayout::from_geometry(dataset.geometry);
  const auto cols = static_cast<std::size_t>(csc.cols());
  const auto rows = static_cast<std::size_t>(csc.rows());
  const int threads = flags.threads > 0 ? flags.threads : util::max_threads();
  const core::CscvParams params{.s_vvec = 8, .s_imgb = 16, .s_vxg = 4};

  struct Direction {
    const char* suffix;
    std::size_t in, out;
    bool transpose;
    double fp32_median = 0.0;
    util::AlignedVector<float> ref{};
  };
  Direction directions[] = {{"", cols, rows, false}, {"-transpose", rows, cols, true}};
  for (const core::ValueType vt :
       {core::ValueType::kF32, core::ValueType::kBf16, core::ValueType::kF16}) {
    auto m = std::make_shared<core::CscvMatrix<float>>(core::CscvMatrix<float>::build(
        csc, layout, params, core::CscvMatrix<float>::Variant::kM));
    if (vt != core::ValueType::kF32) m->convert_values(vt);
    for (Direction& d : directions) {
      const benchlib::Engine<float> engine = benchlib::cscv_engine<float>(
          std::string("CSCV-M-") + core::value_type_name(vt) + d.suffix, m, d.transpose);
      auto samples = benchlib::measure_spmv_samples(engine, d.in, d.out, threads, flags.iters);
      auto record = benchlib::make_spmv_record("mixed_precision", engine, threads,
                                               flags.iters, d.in, d.out, samples);
      record.set("bytes_per_value", static_cast<double>(m->value_bytes()));

      // Same seeded input and plan the timing loop used, so the error
      // metric audits the exact kernels being timed.
      const auto in = sparse::random_vector<float>(d.in, 12345, 0.0, 1.0);
      util::AlignedVector<float> out(d.out);
      engine.apply(in, out);
      if (vt == core::ValueType::kF32) {
        d.fp32_median = samples.median;
        d.ref = out;
        record.set("max_rel_error", 0.0);
      } else {
        double peak = 0.0;
        double max_abs = 0.0;
        for (std::size_t i = 0; i < d.out; ++i) {
          peak = std::max(peak, std::abs(static_cast<double>(d.ref[i])));
          max_abs = std::max(
              max_abs, std::abs(static_cast<double>(out[i]) - static_cast<double>(d.ref[i])));
        }
        record.set("max_rel_error", peak > 0.0 ? max_abs / peak : 0.0);
        if (d.fp32_median > 0.0 && samples.median > 0.0) {
          record.set("speedup_vs_fp32", d.fp32_median / samples.median);
        }
      }
      table.add("mixed_precision", engine.name, record.precision, threads,
                util::fmt_fixed(samples.median * 1e3, 3),
                util::fmt_fixed(*record.find("gflops"), 2),
                util::fmt_fixed(*record.find("gbps"), 2));
      report.records.push_back(std::move(record));
    }
  }
}

// Backprojection x = A^T y on the large clinical dataset: the CSR scatter
// transpose, the CSC row gather (CSC of A is CSR of A^T) and the two CSCV
// transpose kernels. speedup_vs_csc is the timing headline: the CSC time of
// this same run over the engine's (higher is better; CSC itself reads 1).
void run_transpose(const SuiteFlags& flags, benchlib::BenchReport& report,
                   util::Table& table) {
  const auto datasets = benchlib::standard_datasets(flags.scale);
  const benchlib::Dataset& dataset = datasets[2];
  const auto csc = ct::build_system_matrix_csc<float>(dataset.geometry);
  const auto csr = sparse::csr_from_csc(csc);
  const auto layout = core::OperatorLayout::from_geometry(dataset.geometry);
  const auto cols = static_cast<std::size_t>(csc.cols());
  const auto rows = static_cast<std::size_t>(csc.rows());
  const int threads = flags.threads > 0 ? flags.threads : util::max_threads();
  const core::CscvParams params{.s_vvec = 8, .s_imgb = 16, .s_vxg = 4};

  // Every engine maps y (rows) to x (cols), so the sampler's input and
  // output lengths are (rows, cols).
  std::vector<benchlib::Engine<float>> engines;
  engines.push_back({"CSR", [&csr](auto y, auto x) { csr.spmv_transpose(y, x); },
                     csr.matrix_bytes(), csr.nnz(), nullptr});
  engines.push_back({"CSC", [&csc](auto y, auto x) { csc.spmv_transpose(y, x); },
                     csc.matrix_bytes(), csc.nnz(), nullptr});
  for (const auto variant :
       {core::CscvMatrix<float>::Variant::kZ, core::CscvMatrix<float>::Variant::kM}) {
    engines.push_back(benchlib::cscv_engine<float>(
        variant == core::CscvMatrix<float>::Variant::kZ ? "CSCV-Z" : "CSCV-M",
        std::make_shared<const core::CscvMatrix<float>>(
            core::CscvMatrix<float>::build(csc, layout, params, variant)),
        /*transpose=*/true));
  }

  std::vector<benchlib::BenchRecord> records;
  std::vector<double> medians;
  double csc_median = 0.0;
  for (const auto& engine : engines) {
    const auto samples =
        benchlib::measure_spmv_samples(engine, rows, cols, threads, flags.iters);
    auto record = benchlib::make_spmv_record("transpose", engine, threads, flags.iters,
                                             rows, cols, samples);
    if (engine.name == "CSC") csc_median = samples.median;
    if (engine.cscv) {
      const core::PlanStats st = engine.cscv->plan->stats();
      if (st.telemetry_enabled && st.transpose_applies > 0) {
        record.set("telemetry_transpose_gflops_best", st.transpose_gflops_best);
      }
    }
    table.add("transpose", engine.name, record.precision, threads,
              util::fmt_fixed(samples.median * 1e3, 3),
              util::fmt_fixed(*record.find("gflops"), 2),
              util::fmt_fixed(*record.find("gbps"), 2));
    medians.push_back(samples.median);
    records.push_back(std::move(record));
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (csc_median > 0.0 && medians[i] > 0.0) {
      records[i].set("speedup_vs_csc", csc_median / medians[i]);
    }
    report.records.push_back(std::move(records[i]));
  }
}

// End-to-end serving throughput: a burst of reconstruction jobs through
// ReconService vs the same jobs run serially through execute_job. One
// warm-up job per distinct operator key (matrix_key(): one per geometry,
// whatever the algorithm) makes the cache hit rate of the burst
// deterministic (the structural gate metric); the wall-time-derived metrics
// are timing-class and informational.
void run_pipeline_throughput(const SuiteFlags& flags, benchlib::BenchReport& report) {
  using pipeline::Algorithm;
  const auto datasets = benchlib::standard_datasets(flags.scale);
  const std::size_t num_geoms = std::min<std::size_t>(3, datasets.size());
  const Algorithm algorithms[] = {Algorithm::kFbp, Algorithm::kSirt};
  const int workers = flags.threads > 0 ? flags.threads : util::max_threads();
  constexpr int kJobsPerKey = 3;

  // One template job per (geometry, algorithm) cache key.
  std::vector<pipeline::ReconJob> specs;
  for (std::size_t g = 0; g < num_geoms; ++g) {
    const benchlib::Dataset& d = datasets[g];
    const auto sinogram =
        ct::analytic_sinogram<float>(ct::shepp_logan_modified(), d.geometry);
    for (Algorithm a : algorithms) {
      pipeline::ReconJob job;
      job.geometry = d.geometry;
      job.cscv = {.s_vvec = 8, .s_imgb = 16, .s_vxg = 4};
      job.algorithm = a;
      job.solve.iterations = 4;
      job.tag = d.name;
      job.sinogram = sinogram;
      specs.push_back(std::move(job));
    }
  }
  const std::size_t num_specs = specs.size();
  const std::size_t burst_jobs = num_specs * kJobsPerKey;
  std::vector<const pipeline::ReconJob*> warmups;  // first job of each operator key
  std::set<std::string> keys;
  for (const pipeline::ReconJob& spec : specs) {
    if (keys.insert(spec.matrix_key().fingerprint()).second) warmups.push_back(&spec);
  }

  // Serial reference: identical job set and code path, one thread, no queue.
  double serial_seconds = 0.0;
  {
    pipeline::SystemMatrixCache ref_cache;
    std::vector<std::shared_ptr<const pipeline::SystemMatrixEntry>> entries;
    std::vector<std::unique_ptr<core::SpmvPlan<float>>> plans;
    for (const pipeline::ReconJob& spec : specs) {
      entries.push_back(ref_cache.get_or_build(spec.matrix_key()).entry);
      plans.push_back(std::make_unique<core::SpmvPlan<float>>(
          *entries.back()->cscv, core::PlanOptions{.threads = 1}));
    }
    const int saved = util::max_threads();
    util::set_num_threads(1);
    util::WallTimer timer;
    for (int r = 0; r < kJobsPerKey; ++r) {
      for (std::size_t k = 0; k < num_specs; ++k) {
        (void)pipeline::execute_job(specs[k], *entries[k], plans[k].get());
      }
    }
    serial_seconds = timer.seconds();
    util::set_num_threads(saved);
  }

  pipeline::ServiceOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = std::max<std::size_t>(8, burst_jobs);
  opts.admission = pipeline::AdmissionPolicy::kBlock;
  opts.omp_threads_per_worker = 1;
  opts.plans_per_worker = static_cast<int>(keys.size());
  pipeline::ReconService service(opts);

  std::uint64_t jobs_ok = 0;
  // Warm one job per key sequentially: exactly one cold build per key, so
  // every burst lookup below is a hit and hit_rate is burst/(burst+keys).
  for (const pipeline::ReconJob* spec : warmups) {
    if (service.submit(*spec).result.get().status == pipeline::JobStatus::kOk) ++jobs_ok;
  }

  util::WallTimer burst_timer;
  std::vector<std::future<pipeline::ReconResult>> inflight;
  inflight.reserve(burst_jobs);
  for (int r = 0; r < kJobsPerKey; ++r) {
    for (const pipeline::ReconJob& spec : specs) {
      inflight.push_back(service.submit(spec).result);
    }
  }
  std::vector<double> queue_waits;
  queue_waits.reserve(burst_jobs);
  for (auto& f : inflight) {
    const pipeline::ReconResult r = f.get();
    if (r.status == pipeline::JobStatus::kOk) ++jobs_ok;
    queue_waits.push_back(r.queue_wait_seconds);
  }
  const double service_seconds = burst_timer.seconds();
  service.shutdown();

  const pipeline::CacheStats cache = service.cache_stats();
  benchlib::BenchRecord record;
  record.workload = "pipeline";
  record.engine = "ReconService";
  record.precision = "f32";
  record.threads = workers;
  record.iterations = static_cast<int>(burst_jobs);
  record.set("slices_per_sec", static_cast<double>(burst_jobs) / service_seconds);
  record.set("serial_slices_per_sec", static_cast<double>(burst_jobs) / serial_seconds);
  record.set("speedup_vs_serial", serial_seconds / service_seconds);
  record.set("queue_wait_p90_seconds", util::percentile(queue_waits, 90.0));
  record.set("cache_hit_rate", cache.hit_rate());
  record.set("cache_builds", static_cast<double>(cache.builds));
  record.set("jobs_ok", static_cast<double>(jobs_ok));
  report.records.push_back(std::move(record));

  std::cout << "\npipeline: " << burst_jobs << " jobs, " << workers << " workers, "
            << util::fmt_fixed(static_cast<double>(burst_jobs) / service_seconds, 2)
            << " slices/s (serial "
            << util::fmt_fixed(static_cast<double>(burst_jobs) / serial_seconds, 2)
            << "), hit rate " << util::fmt_fixed(cache.hit_rate(), 3) << "\n";
}

// Batched-service throughput: the same burst of compatible jobs (one
// matrix key, one algorithm) through one worker with batching on
// (max_batch = 4) vs off. The burst queues up behind a warm-up job, so
// every batch gathers at full width without touching the window — making
// batch_fill_rate and batches deterministic (structural gate metrics)
// while the slices/sec and speedup are timing-class.
void run_pipeline_batched(const SuiteFlags& flags, benchlib::BenchReport& report) {
  using pipeline::Algorithm;
  const auto datasets = benchlib::standard_datasets(flags.scale);
  const benchlib::Dataset& d = datasets.front();
  constexpr int kBatch = 4;
  constexpr int kBurst = 16;  // 4 full batches

  pipeline::ReconJob spec;
  spec.geometry = d.geometry;
  spec.cscv = {.s_vvec = 8, .s_imgb = 16, .s_vxg = 4};
  spec.algorithm = Algorithm::kSirt;
  spec.solve.iterations = 6;
  spec.tag = d.name;
  spec.sinogram = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), d.geometry);

  std::uint64_t jobs_ok = 0;
  // One worker on both sides: the comparison isolates job fusion, not pool
  // width. The warm-up job runs to completion BEFORE the burst is submitted:
  // it primes the system-matrix cache without fusing into the burst (it
  // shares the burst's fingerprint), so the timed drain is exactly kBurst
  // jobs — kBurst/kBatch full batches, no partial batch idling out the
  // window at the tail.
  const auto run_burst = [&](int max_batch, pipeline::ServiceStats* stats_out) {
    pipeline::ServiceOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = kBurst + 8;
    opts.admission = pipeline::AdmissionPolicy::kBlock;
    opts.omp_threads_per_worker = 1;
    opts.max_batch = max_batch;
    opts.batch_window_seconds = 2.0;  // absorbs submission raciness only
    pipeline::ReconService service(opts);
    if (service.submit(spec).result.get().status == pipeline::JobStatus::kOk) ++jobs_ok;
    util::WallTimer timer;
    std::vector<std::future<pipeline::ReconResult>> inflight;
    inflight.reserve(kBurst);
    for (int j = 0; j < kBurst; ++j) inflight.push_back(service.submit(spec).result);
    for (auto& f : inflight) {
      if (f.get().status == pipeline::JobStatus::kOk) ++jobs_ok;
    }
    const double seconds = timer.seconds();
    if (stats_out != nullptr) *stats_out = service.stats();
    service.shutdown();
    return seconds;
  };

  const double unbatched_seconds = run_burst(1, nullptr);
  pipeline::ServiceStats batched_stats;
  const double batched_seconds = run_burst(kBatch, &batched_stats);

  benchlib::BenchRecord record;
  record.workload = "pipeline_batched";
  record.engine = "ReconService";
  record.precision = "f32";
  record.threads = 1;
  record.iterations = kBurst;
  record.set("slices_per_sec", static_cast<double>(kBurst) / batched_seconds);
  record.set("unbatched_slices_per_sec", static_cast<double>(kBurst) / unbatched_seconds);
  record.set("speedup_vs_unbatched", unbatched_seconds / batched_seconds);
  record.set("batch_fill_rate",
             static_cast<double>(batched_stats.batched_jobs) / kBurst);
  record.set("batches", static_cast<double>(batched_stats.batches));
  record.set("jobs_ok", static_cast<double>(jobs_ok));
  report.records.push_back(std::move(record));

  std::cout << "pipeline_batched: " << kBurst << " jobs, k=" << kBatch << ", "
            << util::fmt_fixed(static_cast<double>(kBurst) / batched_seconds, 2)
            << " slices/s batched vs "
            << util::fmt_fixed(static_cast<double>(kBurst) / unbatched_seconds, 2)
            << " unbatched (speedup "
            << util::fmt_fixed(unbatched_seconds / batched_seconds, 2) << "x, fill rate "
            << util::fmt_fixed(static_cast<double>(batched_stats.batched_jobs) / kBurst, 2)
            << ")\n";
}

// Apply counts of one warm SIRT, CGLS and OS-SART solve over a plan-backed
// operator (the service worker's path), read off the plan's telemetry
// counters. Warm means the plan has served a solve already, so its memoized
// normalizers are in place; SIRT and CGLS start from zero and skip that
// forward, so 4 iterations take SIRT 3 forwards and 4 adjoints and CGLS 4
// and 4 (its last iteration computes no next search direction, so no
// adjoint). OS-SART counts its stratum applies: per pass one subset forward
// and adjoint per stratum, less the first stratum's forward of the first
// pass from zero (4 strata: 15 and 16) — no weight transposes once warm.
// The counts change only when a solver's apply sequence does, so they gate
// exactly on any runner (structural, like nnz).
void run_warm_solves(const SuiteFlags& flags, benchlib::BenchReport& report) {
  const auto datasets = benchlib::standard_datasets(flags.scale);
  const benchlib::Dataset& d = datasets.front();
  const auto csc = ct::build_system_matrix_csc<float>(d.geometry);
  const auto m = core::CscvMatrix<float>::build(
      csc, core::OperatorLayout::from_geometry(d.geometry),
      {.s_vvec = 8, .s_imgb = 16, .s_vxg = 4}, core::CscvMatrix<float>::Variant::kM);
  core::SpmvPlan<float> plan(m, {.threads = 1});
  const recon::PlanOperator<float> op(plan);
  const auto b = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), d.geometry);
  const recon::SolveOptions solve{.iterations = 4};

  for (const char* algo : {"SIRT", "CGLS", "OS-SART"}) {
    const auto run = [&] {
      util::AlignedVector<float> x(static_cast<std::size_t>(m.cols()), 0.0F);
      if (std::strcmp(algo, "SIRT") == 0) {
        (void)recon::sirt<float>(op, b, x, solve);
      } else if (std::strcmp(algo, "CGLS") == 0) {
        (void)recon::cgls<float>(op, b, x, solve);
      } else {
        (void)recon::os_sart<float>(op, b, x, 4, solve);
      }
    };
    run();  // the plan memoizes A 1 and A^T 1 (per stratum for OS-SART) here
    plan.reset_telemetry();
    run();
    const core::PlanStats st = plan.stats();
    const bool subsets = std::strcmp(algo, "OS-SART") == 0;
    const std::uint64_t forwards = subsets ? st.subset_applies : st.applies;
    const std::uint64_t adjoints = subsets ? st.subset_transpose_applies : st.transpose_applies;

    benchlib::BenchRecord record;
    record.workload = "warm_solve";
    record.engine = algo;
    record.precision = "f32";
    record.threads = 1;
    record.iterations = solve.iterations;
    if (st.telemetry_enabled) {
      record.set("forward_applies", static_cast<double>(forwards));
      record.set("adjoint_applies", static_cast<double>(adjoints));
    }
    report.records.push_back(std::move(record));
    std::cout << "warm_solve " << algo << ": " << forwards << " forward, " << adjoints
              << (subsets ? " adjoint subset applies for " : " adjoint applies for ")
              << solve.iterations << " iterations"
              << (st.telemetry_enabled ? "" : " (telemetry off)") << "\n";
  }
}

// Workload: the sharded reconstruction path (docs/SHARDING.md) over real
// loopback sockets — in-process ShardWorkers standing in for the cscv_shardd
// processes. Structural gate metrics: jobs_ok, shards, and determinism_ok
// (1.0 iff every worker count is bitwise run-to-run repeatable AND matches
// the LocalBackend reference). reduce_hash32 is informational only — the
// volume's low bits ride libm ULP differences across machines, so CI prints
// it for cross-run comparison on one machine but does not gate it.
void run_sharded(const SuiteFlags& flags, benchlib::BenchReport& report) {
  const auto datasets = benchlib::standard_datasets(flags.scale);
  const benchlib::Dataset& d = datasets.front();

  pipeline::ReconJob job;
  job.geometry = d.geometry;
  job.algorithm = pipeline::Algorithm::kSirt;
  job.solve.iterations = flags.iters;
  job.tag = d.name;
  job.sinogram = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), d.geometry);

  std::uint64_t jobs_ok = 0;
  bool determinism_ok = true;
  double best_jobs_per_sec = 0.0;
  std::uint32_t reduce_hash32 = 0;
  int max_shards = 0;
  for (const int n : {1, 2, 4}) {
    struct Worker {
      dist::ShardWorker worker;
      std::thread thread;
      explicit Worker()
          : worker({.host = "127.0.0.1",
                    .port = 0,
                    .spill_dir = {},
                    .limits = {},
                    .poll_seconds = 0.1}),
            // Pin the serving thread to one OMP thread (per-thread ICV —
            // the ambient OMP_NUM_THREADS would otherwise apply): shard
            // determinism_ok is a remote-vs-local bitwise contract, and
            // kernel results are only bitwise at a fixed thread count.
            thread([this] {
              util::set_num_threads(1);
              worker.run();
            }) {}
      ~Worker() {
        worker.stop();
        thread.join();
      }
    };
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<dist::Endpoint> endpoints;
    for (int w = 0; w < n; ++w) {
      workers.push_back(std::make_unique<Worker>());
      endpoints.push_back({"127.0.0.1", workers.back()->worker.port()});
    }
    const auto specs = dist::make_shard_specs(job, n);
    max_shards = std::max(max_shards, static_cast<int>(specs.size()));
    try {
      dist::RemoteBackend remote(specs, endpoints);
      const dist::ShardedRunResult first = dist::run_sharded_job(remote, job);
      ++jobs_ok;
      util::WallTimer timer;
      const dist::ShardedRunResult second = dist::run_sharded_job(remote, job);
      const double seconds = timer.seconds();
      ++jobs_ok;
      remote.shutdown_workers();

      dist::LocalBackend local(specs);
      const dist::ShardedRunResult reference = dist::run_sharded_job(local, job);
      ++jobs_ok;
      const auto bitwise = [](const util::AlignedVector<float>& a,
                              const util::AlignedVector<float>& b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
      };
      determinism_ok = determinism_ok && bitwise(first.volume, second.volume) &&
                       bitwise(first.volume, reference.volume);
      best_jobs_per_sec = std::max(best_jobs_per_sec, 1.0 / seconds);
      if (n == 2) {  // FNV-1a over the volume bytes, informational
        std::uint32_t h = 2166136261u;
        const auto* bytes = reinterpret_cast<const unsigned char*>(first.volume.data());
        for (std::size_t i = 0; i < first.volume.size() * sizeof(float); ++i) {
          h = (h ^ bytes[i]) * 16777619u;
        }
        reduce_hash32 = h;
      }
    } catch (const dist::ShardError& e) {
      std::cerr << "sharded: " << n << " worker(s): " << e.what() << "\n";
      determinism_ok = false;
    }
  }

  benchlib::BenchRecord record;
  record.workload = "sharded";
  record.engine = "RemoteBackend";
  record.precision = "f32";
  record.threads = 1;
  record.iterations = flags.iters;
  record.set("jobs_ok", static_cast<double>(jobs_ok));
  record.set("shards", static_cast<double>(max_shards));
  record.set("determinism_ok", determinism_ok ? 1.0 : 0.0);
  record.set("reduce_hash32", static_cast<double>(reduce_hash32));
  record.set("slices_per_sec", best_jobs_per_sec);
  report.records.push_back(std::move(record));

  std::cout << "sharded: " << jobs_ok << " runs ok over {1,2,4} workers, "
            << max_shards << " shards max, determinism "
            << (determinism_ok ? "ok" : "BROKEN") << ", reduce hash "
            << reduce_hash32 << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  util::CliFlags cli(argc, argv);
  SuiteFlags flags;
  flags.quick = cli.get_bool("quick");
  if (flags.quick) {  // CI smoke defaults; explicit flags still override
    flags.scale = 16;
    flags.iters = 6;
    flags.f64 = false;
  }
  flags.scale = cli.get_int("scale", flags.scale);
  flags.iters = cli.get_int("iters", flags.iters);
  flags.threads = cli.get_int("threads", flags.threads);
  flags.tag = cli.get_string("tag", flags.tag);
  flags.out = cli.get_string("out", "BENCH_" + flags.tag + ".json");
  const std::string precision = cli.get_string("precision", "");
  if (precision == "f32") flags.f64 = false;
  if (precision == "f64") flags.f32 = false;
  cli.finish();

  benchlib::BenchReport report;
  report.tag = flags.tag;
  benchlib::fill_machine_info(report);
  report.set_machine("scale", std::to_string(flags.scale));
  report.set_machine("iterations", std::to_string(flags.iters));

  util::Table table({"workload", "engine", "precision", "threads", "median ms",
                     "GFLOP/s", "GB/s"});
  for (const auto& dataset : benchlib::standard_datasets(flags.scale)) {
    if (flags.f32) run_precision<float>(dataset, flags, report, table);
    if (flags.f64) run_precision<double>(dataset, flags, report, table);
  }
  run_mixed_precision(flags, report, table);
  run_transpose(flags, report, table);
  table.print(std::cout);
  run_pipeline_throughput(flags, report);
  run_pipeline_batched(flags, report);
  run_warm_solves(flags, report);
  run_sharded(flags, report);

  benchlib::write_report_file(flags.out, report);
  std::cout << "\nwrote " << report.records.size() << " records to " << flags.out << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_suite: " << e.what() << "\n";
  return 2;
}

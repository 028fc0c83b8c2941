// The sharded probe: one caller runs SIRT, CGLS and OS-SART jobs on a small
// geometry through dist::run_sharded_job, over RemoteBackends on loopback to
// in-process ShardWorkers, then times the dist layer's parts (apply_all per
// op, transport, the fixed-order reduce). Every traced run takes it, so the
// dist layer is reported although no benchmark workload runs it.
//
// dist is not a workload of its own: one caller waiting on three workers per
// apply made the run-to-run spread of its latency the widest of all on the
// shared 4-vCPU host (README).
//
// run_sharded_job requires the shards to be built for the job's algorithm,
// and a worker hosts one shard per shard id, so each algorithm has its own
// backend over its own 3 workers; one caller means at most 3 workers are
// busy at a time.
#include <algorithm>
#include <memory>
#include <thread>

#include "common.hpp"
#include "dist/coordinator.hpp"
#include "dist/sharded_operator.hpp"
#include "dist/worker.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace cscv;

namespace {

constexpr int kWorkers = 3;
constexpr int kSinograms = 2;
constexpr int kIterations = 4;
constexpr int kApplyReps = 15;

const char* op_span_name(dist::ApplyOp op) {
  switch (op) {
    case dist::ApplyOp::kForward: return "dist.apply_all.forward";
    case dist::ApplyOp::kAdjoint: return "dist.apply_all.adjoint";
    case dist::ApplyOp::kRowSums: return "dist.apply_all.row_sums";
    case dist::ApplyOp::kColSums: return "dist.apply_all.col_sums";
  }
  return "dist.apply_all";
}

/// ShardBackend decorator: a span and a duration for every apply_all.
class TimedBackend final : public dist::ShardBackend {
 public:
  explicit TimedBackend(dist::ShardBackend& inner) : inner_(&inner) {}
  [[nodiscard]] const std::vector<dist::ShardSpec>& specs() const override {
    return inner_->specs();
  }
  void apply_all(dist::ApplyOp op, int subset, const std::vector<std::span<const float>>& in,
                 std::vector<util::AlignedVector<float>>& out) override {
    ScopedSpan span(op_span_name(op));
    const auto t0 = Clock::now();
    inner_->apply_all(op, subset, in, out);
    seconds_[op].push_back(seconds_since(t0));
  }
  [[nodiscard]] double median_seconds(dist::ApplyOp op) { return median(seconds_[op]); }

 private:
  dist::ShardBackend* inner_;
  std::map<dist::ApplyOp, std::vector<double>> seconds_;
};

/// An in-process shard daemon: the serving thread pins its own OpenMP
/// thread count (a per-thread setting) before it serves.
class WorkerThread {
 public:
  WorkerThread()
      : worker_({.host = "127.0.0.1",
                 .port = 0,
                 .spill_dir = {},
                 .limits = {},
                 .poll_seconds = 0.1}),
        thread_([this] {
          util::set_num_threads(1);
          worker_.run();
        }) {}
  ~WorkerThread() {
    worker_.stop();
    thread_.join();
  }
  WorkerThread(const WorkerThread&) = delete;
  WorkerThread& operator=(const WorkerThread&) = delete;
  WorkerThread(WorkerThread&&) = delete;
  WorkerThread& operator=(WorkerThread&&) = delete;

  [[nodiscard]] dist::Endpoint endpoint() const { return {"127.0.0.1", worker_.port()}; }

 private:
  dist::ShardWorker worker_;
  std::thread thread_;
};

struct Cluster {
  std::vector<std::unique_ptr<WorkerThread>> workers;
  std::unique_ptr<dist::RemoteBackend> backend;
};

}  // namespace

RunResult run_sharded_probe(const Args& args) {
  using pipeline::Algorithm;
  RunResult result;
  util::set_num_threads(1);  // the caller runs the solver's vector updates
  const ct::ParallelGeometry g = square_geometry(64, 48);
  const Algorithm algos[] = {Algorithm::kSirt, Algorithm::kCgls, Algorithm::kOsSart};

  // pool[a * kSinograms + s]
  std::vector<pipeline::ReconJob> pool;
  for (Algorithm a : algos) {
    for (int s = 0; s < kSinograms; ++s) {
      pool.push_back(
          make_recon_job(g, a, kIterations, args.seed * 1000 + static_cast<std::uint64_t>(s)));
    }
  }
  std::vector<std::vector<dist::ShardSpec>> specs;
  for (std::size_t a = 0; a < std::size(algos); ++a) {
    specs.push_back(dist::make_shard_specs(pool[a * kSinograms], kWorkers));
  }

  // References: a LocalBackend over the same specs, outside setup_s.
  std::vector<std::unique_ptr<dist::LocalBackend>> locals;
  std::vector<util::AlignedVector<float>> refs;
  std::vector<double> rmses;
  for (std::size_t a = 0; a < std::size(algos); ++a) {
    locals.push_back(std::make_unique<dist::LocalBackend>(specs[a]));
    for (int s = 0; s < kSinograms; ++s) {
      const auto& job = pool[a * kSinograms + static_cast<std::size_t>(s)];
      refs.push_back(dist::run_sharded_job(*locals.back(), job).volume);
      rmses.push_back(phantom_rmse(g, refs.back()));
    }
  }

  std::vector<Cluster> clusters;
  const auto setup_start = Clock::now();
  double build_s = 0.0;
  for (std::size_t a = 0; a < std::size(algos); ++a) {
    Cluster c;
    std::vector<dist::Endpoint> endpoints;
    for (int w = 0; w < kWorkers; ++w) {
      c.workers.push_back(std::make_unique<WorkerThread>());
      endpoints.push_back(c.workers.back()->endpoint());
    }
    const auto tb = Clock::now();
    c.backend = std::make_unique<dist::RemoteBackend>(specs[a], endpoints);
    build_s += seconds_since(tb);
    (void)dist::run_sharded_job(*c.backend, pool[a * kSinograms]);  // warm-up
    clusters.push_back(std::move(c));
  }
  result.setup_s.push_back(seconds_since(setup_start));
  result.layers["dist.build_s"] = build_s;

  util::Rng order(args.seed);
  std::vector<std::size_t> cycle;
  const auto window_start = Clock::now();
  while (seconds_since(window_start) < args.seconds) {
    if (cycle.empty()) {  // seeded permutations of the pool: the same mix every run
      for (std::size_t j = 0; j < pool.size(); ++j) cycle.push_back(j);
      std::shuffle(cycle.begin(), cycle.end(), order.engine());
    }
    const std::size_t p = cycle.back();
    cycle.pop_back();
    const std::size_t a = p / kSinograms;
    Slice slice;
    slice.algo = pipeline::algorithm_name(algos[a]);
    slice.rmse = rmses[p];
    dist::ShardedRunResult run;
    const auto t0 = Clock::now();
    try {
      run = dist::run_sharded_job(*clusters[a].backend, pool[p]);
    } catch (const std::exception&) {
      slice.status = "failed";
    }
    slice.latency_s = seconds_since(t0);
    slice.solve_s = slice.latency_s;
    slice.iterations = run.stats.iterations_run;
    if (slice.status == "ok" && !bitwise_equal(run.volume, refs[p])) slice.status = "mismatch";
    result.slices.push_back(slice);
  }
  result.window_s = seconds_since(window_start);
  result.rss_peak_mb = peak_rss_mb();
  progress("sharded probe window done");

  // Apply time per op through the timing decorator on the remote backend;
  // the ShardedOperator adjoint's time outside apply_all is the fixed-order
  // reduce (read off the spans by run.py).
  util::AlignedVector<float> x(static_cast<std::size_t>(g.num_cols()), 1.0F);
  util::AlignedVector<float> y(static_cast<std::size_t>(g.num_rows()), 1.0F);
  TimedBackend tb(*clusters[0].backend);
  {
    const dist::ShardedOperator op(tb);
    const TracedOperator traced_op(op, "dist.forward", "dist.adjoint");
    Tracer::instance().set_on(true);
    for (int r = 0; r < kApplyReps; ++r) {
      traced_op.forward(x, y);
      traced_op.adjoint(y, x);
    }
    Tracer::instance().set_on(false);
  }
  // Transport: the remote apply_all minus the slowest shard's apply run
  // locally on the same specs — what the remote call would take if the wire
  // were free and the workers perfectly parallel.
  const dist::LocalBackend& local = *locals[0];
  const auto slowest_local = [&](dist::ApplyOp op) {
    std::vector<double> t;
    util::AlignedVector<float> out;
    for (int r = 0; r < kApplyReps; ++r) {
      double worst = 0.0;
      for (int i = 0; i < local.num_shards(); ++i) {
        const dist::Shard& sh = local.shard(i);
        const std::span<const float> in =
            op == dist::ApplyOp::kForward
                ? std::span<const float>(x)
                : std::span<const float>(y).subspan(
                      static_cast<std::size_t>(sh.spec.row_offset()),
                      static_cast<std::size_t>(sh.spec.local_rows()));
        const auto t0 = Clock::now();
        dist::apply_shard(sh, op, -1, in, out);
        worst = std::max(worst, seconds_since(t0));
      }
      t.push_back(worst);
    }
    return median(t);
  };
  const double remote_forward = tb.median_seconds(dist::ApplyOp::kForward);
  const double remote_adjoint = tb.median_seconds(dist::ApplyOp::kAdjoint);
  result.layers["dist.forward_apply_s"] = remote_forward;
  result.layers["dist.adjoint_apply_s"] = remote_adjoint;
  result.layers["dist.transport_s"] = (remote_forward - slowest_local(dist::ApplyOp::kForward)) +
                                      (remote_adjoint - slowest_local(dist::ApplyOp::kAdjoint));
  const auto shards = static_cast<double>(specs[0].size());
  result.layers["dist.wire_bytes_per_iter"] =
      4.0 * (2.0 * shards * static_cast<double>(g.num_cols()) +
             2.0 * static_cast<double>(g.num_rows()));
  double max_nnz = 0.0;
  double sum_nnz = 0.0;
  for (int i = 0; i < local.num_shards(); ++i) {
    const auto nnz = static_cast<double>(local.shard(i).nnz);
    max_nnz = std::max(max_nnz, nnz);
    sum_nnz += nnz;
  }
  result.layers["dist.shard_imbalance"] = max_nnz / (sum_nnz / shards);

  result.config["geometry"] = util::Json(geometry_name(g));
  result.config["callers"] = util::Json(1);
  result.config["workers_per_backend"] = util::Json(kWorkers);
  result.config["backends"] = util::Json(static_cast<int>(std::size(algos)));
  result.config["shards"] = util::Json(specs[0].size());
  result.config["threads_per_worker"] = util::Json(1);
  result.config["caller_threads"] = util::Json(1);
  result.config["iterations"] = util::Json(kIterations);
  result.config["reference"] = util::Json("dist::LocalBackend, same specs, bitwise");
  return result;
}

}  // namespace perfbench

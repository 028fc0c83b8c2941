// serve_mixed: the cscv_serve stack (HttpServer over ServiceFrontEnd)
// in-process with the daemon's defaults, driven by 4 closed-loop HTTP
// clients on keep-alive connections. Each client submits a job, polls its
// status at a fixed interval, fetches the volume, and only then sends its
// next job. Small slices of two geometries, the FBP / SIRT / CGLS / OS-SART
// mix with a seeded share of bf16 operators, on a warm cache: request
// handling and the OS-SART CSR side path are a visible share of each job.
#include <algorithm>
#include <memory>
#include <set>
#include <thread>

#include "common.hpp"
#include "ct/system_matrix.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/service_api.hpp"
#include "pipeline/service.hpp"
#include "recon/fbp.hpp"
#include "util/base64.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace cscv;

namespace {

constexpr int kClients = 4;
constexpr auto kPollInterval = std::chrono::milliseconds(2);

/// One distinct job the clients can send, with its wire body and the
/// in-process reference volume it must come back as.
struct PoolJob {
  pipeline::ReconJob job;
  std::string body;
  util::AlignedVector<float> reference;
  double rmse = 0.0;
};

struct Scenario {
  std::string name;
  net::FrontEndOptions frontend;
  std::vector<PoolJob> pool;
  /// Picks the pool index of a client's next job.
  std::function<std::size_t(int client, util::Rng& rng)> next;
  /// Pool indices the warm-up runs, dealt round-robin to the clients.
  std::vector<std::size_t> warmup;
  int setups = 2;
};

/// execute_job on a threads=1 plan, one OpenMP thread: what a service
/// worker with omp_threads_per_worker == 1 must return bit for bit.
void compute_references(std::vector<PoolJob>& pool) {
  const int saved = util::max_threads();
  util::set_num_threads(1);
  pipeline::SystemMatrixCache cache(
      {.budget_bytes = std::size_t{1} << 40, .spill_dir = {}});
  for (PoolJob& p : pool) {
    const auto entry = cache.get_or_build(p.job.matrix_key()).entry;
    std::unique_ptr<core::SpmvPlan<float>> plan;
    if (p.job.algorithm != pipeline::Algorithm::kOsSart) {
      plan = std::make_unique<core::SpmvPlan<float>>(*entry->cscv,
                                                     core::PlanOptions{.threads = 1});
    }
    const pipeline::ReconResult r = pipeline::execute_job(p.job, *entry, plan.get());
    CSCV_CHECK_MSG(r.status == pipeline::JobStatus::kOk, "reference job failed: " << r.error);
    p.reference = r.volume;
    p.rmse = phantom_rmse(p.job.geometry, p.reference);
  }
  util::set_num_threads(saved);
}

struct Stack {
  std::unique_ptr<net::ServiceFrontEnd> frontend;
  std::unique_ptr<net::HttpServer> server;

  ~Stack() {
    if (server) server->stop();
    if (frontend) frontend->service().shutdown();
  }
};

/// One closed-loop job: submit, poll, fetch. Fills the slice's latency and
/// layer fields, and its status against the pool reference.
Slice run_job(net::HttpClient& client, const PoolJob& p) {
  Slice s;
  s.algo = pipeline::algorithm_name(p.job.algorithm);
  s.rmse = p.rmse;
  s.request_bytes = p.body.size();
  const auto t0 = Clock::now();
  ScopedSpan job_span("slice", Tracer::instance().on() ? Tracer::instance().next_id() : 0);
  try {
    std::uint64_t id = 0;
    {
      ScopedSpan span("net.submit");
      const auto ts = Clock::now();
      const net::HttpResponse r =
          client.request("POST", "/v1/jobs", p.body, {{"Content-Type", "application/json"}});
      s.submit_s = seconds_since(ts);
      s.response_bytes += r.body.size();
      if (r.status != 202) {
        s.status = r.status == 503 || r.status == 429 ? "refused" : "failed";
        s.latency_s = seconds_since(t0);
        return s;
      }
      id = static_cast<std::uint64_t>(util::Json::parse(r.body).at("id").as_int());
    }
    const std::string status_url = "/v1/jobs/" + std::to_string(id);
    util::Json result;
    for (;;) {
      std::this_thread::sleep_for(kPollInterval);
      ScopedSpan span("net.poll");
      const net::HttpResponse r = client.get(status_url);
      ++s.polls;
      s.response_bytes += r.body.size();
      CSCV_CHECK_MSG(r.status == 200, "poll answered " << r.status);
      const util::Json j = util::Json::parse(r.body);
      if (j.at("state").as_string() == "done") {
        result = j.at("result");
        break;
      }
    }
    const std::string& status = result.at("status").as_string();
    s.queue_wait_s = result.at("queue_wait_seconds").as_double();
    s.acquire_s = result.at("acquire_seconds").as_double();
    s.solve_s = result.at("solve_seconds").as_double();
    s.iterations = static_cast<int>(result.at("iterations_run").as_int());
    if (status != "ok") {
      s.status = status == "expired" ? "expired" : status == "rejected" ? "refused" : "failed";
      s.latency_s = seconds_since(t0);
      return s;
    }
    net::HttpResponse volume;
    {
      ScopedSpan span("net.fetch");
      const auto tf = Clock::now();
      volume = client.get(status_url + "/volume");
      s.fetch_s = seconds_since(tf);
    }
    s.latency_s = seconds_since(t0);
    s.response_bytes += volume.body.size();
    const bool same =
        volume.status == 200 &&
        volume.body.size() == p.reference.size() * sizeof(float) &&
        std::memcmp(volume.body.data(), p.reference.data(), volume.body.size()) == 0;
    if (!same) s.status = "mismatch";
  } catch (const std::exception&) {
    s.status = "failed";
    s.latency_s = seconds_since(t0);
  }
  return s;
}

/// Runs `indices` through one client per list, concurrently.
std::vector<Slice> run_clients(std::uint16_t port, const Scenario& sc,
                               const std::vector<std::vector<std::size_t>>& indices) {
  std::vector<std::vector<Slice>> per_client(indices.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < indices.size(); ++c) {
    threads.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", port);
      for (std::size_t i : indices[c]) per_client[c].push_back(run_job(client, sc.pool[i]));
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Slice> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

util::Json get_stats(std::uint16_t port) {
  net::HttpClient client("127.0.0.1", port);
  return client.get_json("/stats");
}

void stats_delta(const util::Json& before, const util::Json& after,
                 std::map<std::string, double>& layers) {
  const auto cb = pipeline::CacheStats::from_json(before.at("cache"));
  const auto ca = pipeline::CacheStats::from_json(after.at("cache"));
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
  const double hits = d(ca.hits, cb.hits);
  const double lookups = hits + d(ca.misses, cb.misses) +
                         d(ca.single_flight_waits, cb.single_flight_waits);
  layers["pipeline.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  layers["pipeline.cache_builds"] = d(ca.builds, cb.builds);
  layers["pipeline.cache_restores"] = d(ca.restores, cb.restores);
  layers["pipeline.cache_spills"] = d(ca.spills, cb.spills);
  layers["pipeline.cache_evictions"] = d(ca.evictions, cb.evictions);
  layers["pipeline.single_flight_waits"] = d(ca.single_flight_waits, cb.single_flight_waits);
}

/// Per-layer measurements of serve_mixed, taken benchmark-side
/// after the window: cold builds of every operator the pool uses, the
/// largest operator's applies (1 thread, as the workers run), request
/// decoding, and one solve per CSCV algorithm through a traced operator.
void served_layers(const Scenario& sc, const Args& args, RunResult& result) {
  util::set_num_threads(1);
  // Cold builds of the pool's plan-backed operators: one CSC per geometry,
  // one CSCV (plus its bf16 conversion) per cache key.
  std::set<std::string> keys;
  std::map<std::string, std::vector<const pipeline::ReconJob*>> by_geometry;
  for (const PoolJob& p : sc.pool) {
    if (p.job.algorithm == pipeline::Algorithm::kOsSart) continue;
    if (keys.insert(p.job.matrix_key().fingerprint()).second) {
      by_geometry[geometry_name(p.job.geometry)].push_back(&p.job);
    }
  }
  double ct_build = 0.0;
  double cscv_build = 0.0;
  for (const auto& [name, jobs] : by_geometry) {
    auto t0 = Clock::now();
    const auto csc = ct::build_system_matrix_csc<float>(jobs.front()->geometry);
    ct_build += seconds_since(t0);
    for (const pipeline::ReconJob* job : jobs) {
      t0 = Clock::now();
      auto m = core::CscvMatrix<float>::build(
          csc, core::OperatorLayout::from_geometry(job->geometry), job->cscv, job->variant);
      if (job->value_type != core::ValueType::kF32) m.convert_values(job->value_type);
      cscv_build += seconds_since(t0);
    }
  }
  result.layers["ct.matrix_build_s"] = ct_build;
  result.layers["core.cscv_build_s"] = cscv_build;

  const ct::ParallelGeometry g =
      std::max_element(sc.pool.begin(), sc.pool.end(), [](const PoolJob& a, const PoolJob& b) {
        return a.job.geometry.num_rows() * a.job.geometry.num_cols() <
               b.job.geometry.num_rows() * b.job.geometry.num_cols();
      })->job.geometry;
  const auto m = measure_geometry_layers(g, 1, args.scratch, result.layers, result.probes);

  std::vector<std::string> bodies;
  for (const PoolJob& p : sc.pool) bodies.push_back(p.body);
  measure_request_decoding(bodies, result.layers);

  // Operator share of a solve: one pool job per plan-backed algorithm on
  // the largest geometry, replayed through a traced operator.
  const core::SpmvPlan<float> plan(m, {.threads = 1});
  const recon::PlanOperator<float> plan_op(plan);
  const TracedOperator op(plan_op);
  std::set<pipeline::Algorithm> replayed;
  std::uint64_t job_id = std::uint64_t{1} << 40;
  Tracer::instance().set_on(true);
  for (const PoolJob& p : sc.pool) {
    const pipeline::Algorithm algo = p.job.algorithm;
    if (algo == pipeline::Algorithm::kOsSart || !(p.job.geometry == g) ||
        !replayed.insert(algo).second) {
      continue;
    }
    util::AlignedVector<float> x(static_cast<std::size_t>(g.num_cols()), 0.0F);
    ScopedSpan solve("recon.solve", ++job_id);
    if (algo == pipeline::Algorithm::kFbp) {
      x = recon::fbp<float>(g, op, p.job.sinogram);
    } else if (algo == pipeline::Algorithm::kSirt) {
      (void)recon::sirt<float>(op, p.job.sinogram, x, p.job.solve);
    } else {
      (void)recon::cgls<float>(op, p.job.sinogram, x, p.job.solve);
    }
  }
  Tracer::instance().set_on(false);
}

RunResult run_served(const Scenario& sc, const Args& args) {
  RunResult result;
  std::unique_ptr<Stack> stack;
  // Warm-up: the first job of each operator alone, so cold builds never
  // overlap (the peak memory of overlapping builds depends on timing), then
  // the whole warm-up list dealt across the clients.
  std::vector<std::size_t> cold;
  std::set<std::string> seen;
  for (std::size_t i : sc.warmup) {
    if (seen.insert(sc.pool[i].job.matrix_key().fingerprint()).second) cold.push_back(i);
  }
  std::vector<std::vector<std::size_t>> warmup(kClients);
  for (std::size_t i = 0; i < sc.warmup.size(); ++i) {
    warmup[i % kClients].push_back(sc.warmup[i]);
  }
  for (int r = 0; r < sc.setups; ++r) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = std::make_unique<Stack>();
    stack->frontend = std::make_unique<net::ServiceFrontEnd>(sc.frontend);
    stack->server = std::make_unique<net::HttpServer>(
        stack->frontend->make_router(), net::ServerOptions{.num_threads = 4});
    for (const auto& lists : {std::vector<std::vector<std::size_t>>{cold}, warmup}) {
      for (const Slice& s : run_clients(stack->server->port(), sc, lists)) {
        CSCV_CHECK_MSG(s.status == "ok", sc.name << " warm-up job " << s.status);
      }
    }
    result.setup_s.push_back(seconds_since(t0));
    progress(sc.name + " set-up " + std::to_string(r + 1) + " of " +
             std::to_string(sc.setups));
  }

  const std::uint16_t port = stack->server->port();
  const util::Json stats_before = get_stats(port);
  std::vector<std::vector<Slice>> per_client(kClients);
  const auto window_start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(args.seed * 7919 + static_cast<std::uint64_t>(c));
      net::HttpClient client("127.0.0.1", port);
      while (seconds_since(window_start) < args.seconds) {
        const bool traced = args.trace && seconds_since(window_start) >= args.seconds / 2;
        if (traced) Tracer::instance().set_on(true);
        Slice s = run_job(client, sc.pool[sc.next(c, rng)]);
        s.traced = traced;
        per_client[static_cast<std::size_t>(c)].push_back(s);
      }
    });
  }
  for (auto& t : clients) t.join();
  result.window_s = seconds_since(window_start);
  Tracer::instance().set_on(false);
  result.rss_peak_mb = peak_rss_mb();
  progress(sc.name + " window done");
  stats_delta(stats_before, get_stats(port), result.layers);
  for (auto& v : per_client) result.slices.insert(result.slices.end(), v.begin(), v.end());
  stack.reset();

  if (args.trace) served_layers(sc, args, result);

  const auto& svc = sc.frontend.service;
  result.config["clients"] = util::Json(kClients);
  result.config["connections"] = util::Json(kClients);
  result.config["http_threads"] = util::Json(4);
  result.config["workers"] = util::Json(svc.num_workers);
  result.config["threads_per_worker"] = util::Json(svc.omp_threads_per_worker);
  result.config["max_batch"] = util::Json(svc.max_batch);
  result.config["cache_budget_bytes"] = util::Json(svc.cache.budget_bytes);
  result.config["poll_interval_s"] =
      util::Json(std::chrono::duration<double>(kPollInterval).count());
  result.config["pool_jobs"] = util::Json(sc.pool.size());
  result.config["reference"] = util::Json("pipeline::execute_job, bitwise");
  return result;
}

PoolJob make_job(const ct::ParallelGeometry& g, pipeline::Algorithm algo,
                 core::ValueType vt, int iterations, std::uint64_t noise_seed) {
  PoolJob p;
  p.job = make_recon_job(g, algo, iterations, noise_seed);
  p.job.value_type = vt;
  p.body = p.job.to_json().dump();
  return p;
}

/// The daemon's defaults (tools/cscv_serve.cpp): a worker per core, one
/// OpenMP thread each, no batching, a 512 MiB cache.
net::FrontEndOptions daemon_defaults() {
  net::FrontEndOptions fe;
  fe.service.num_workers = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  fe.service.queue_capacity = 32;
  fe.service.admission = pipeline::AdmissionPolicy::kBlock;
  fe.service.max_batch = 1;
  fe.service.omp_threads_per_worker = 1;
  fe.service.cache.budget_bytes = std::size_t{512} << 20;
  return fe;
}

}  // namespace

RunResult run_serve_mixed(const Args& args) {
  using pipeline::Algorithm;
  constexpr int kRealizations = 2;
  constexpr double kBf16Share = 0.25;
  Scenario sc;
  sc.name = "serve_mixed";
  sc.frontend = daemon_defaults();
  // Base jobs: geometry x algorithm x noise realization; each CSCV job also
  // exists with bf16 values. Index layout: base * 2 + (bf16 ? 1 : 0).
  std::vector<ct::ParallelGeometry> geometries = {square_geometry(64, 48)};
  if (!args.probe) geometries.push_back(square_geometry(128, 120));
  if (args.probe) sc.setups = 1;
  const Algorithm algos[] = {Algorithm::kFbp, Algorithm::kSirt, Algorithm::kCgls,
                             Algorithm::kOsSart};
  std::uint64_t noise = args.seed * 1000;
  for (const auto& g : geometries) {
    for (Algorithm a : algos) {
      const int iterations = a == Algorithm::kOsSart ? 2 : 5;
      for (int r = 0; r < kRealizations; ++r) {
        ++noise;
        PoolJob fp32 = make_job(g, a, core::ValueType::kF32, iterations, noise);
        // OS-SART runs on the CSR side path, which has no bf16 storage.
        PoolJob bf16 = a == Algorithm::kOsSart
                           ? fp32
                           : make_job(g, a, core::ValueType::kBf16, iterations, noise);
        sc.pool.push_back(std::move(fp32));
        sc.pool.push_back(std::move(bf16));
      }
    }
  }
  // Each client cycles through seeded permutations of the base jobs, so
  // every run sends the same mix; a seeded quarter of the CSCV jobs run
  // with bf16 values.
  const std::size_t bases = sc.pool.size() / 2;
  auto pending = std::make_shared<std::vector<std::vector<std::size_t>>>(kClients);
  sc.next = [bases, pending, kBf16Share](int client, util::Rng& rng) {
    auto& queue = (*pending)[static_cast<std::size_t>(client)];
    if (queue.empty()) {
      for (std::size_t b = 0; b < bases; ++b) queue.push_back(b);
      std::shuffle(queue.begin(), queue.end(), rng.engine());
    }
    const std::size_t base = queue.back();
    queue.pop_back();
    return base * 2 + (rng.flip(kBf16Share) ? 1 : 0);
  };
  for (std::size_t i = 0; i < sc.pool.size(); ++i) sc.warmup.push_back(i);
  compute_references(sc.pool);
  progress(sc.name + " references ready");
  RunResult r = run_served(sc, args);
  if (args.trace) probe_bypassed_layers(args, r, false, true);
  r.config["geometries"] = util::Json(args.probe ? "64^2/48v" : "64^2/48v, 128^2/120v");
  r.config["bf16_share"] = util::Json(kBf16Share);
  return r;
}

}  // namespace perfbench

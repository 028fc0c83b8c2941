#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "benchlib/workloads.hpp"
#include "core/dispatch.hpp"
#include "core/serialize.hpp"
#include "ct/noise.hpp"
#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include "sparse/convert.hpp"
#include "util/base64.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace cscv;

// ---- spans ---------------------------------------------------------------

namespace {
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_job = 0;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t job) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.on()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.next_id();
  span_.parent = t_parent;
  span_.job = job != 0 ? job : t_job;
  saved_parent_ = t_parent;
  saved_job_ = t_job;
  t_parent = span_.id;
  t_job = span_.job;
  span_.start_ns = Tracer::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = Tracer::now_ns();
  t_parent = saved_parent_;
  t_job = saved_job_;
  Tracer::instance().record(std::move(span_));
}

// ---- inputs --------------------------------------------------------------

ct::ParallelGeometry table2_geometry(int index, int divisor) {
  return benchlib::standard_datasets(divisor).at(static_cast<std::size_t>(index)).geometry;
}

ct::ParallelGeometry square_geometry(int image, int views, double start_angle_deg) {
  ct::ParallelGeometry g;
  g.image_size = image;
  g.num_bins = ct::standard_num_bins(image);
  g.num_views = views;
  g.start_angle_deg = start_angle_deg;
  g.delta_angle_deg = 180.0 / views;
  g.validate();
  return g;
}

std::string geometry_name(const ct::ParallelGeometry& g) {
  char buf[64];
  if (g.start_angle_deg != 0.0) {
    std::snprintf(buf, sizeof buf, "%d^2/%dv@%.1fdeg", g.image_size, g.num_views,
                  g.start_angle_deg);
  } else {
    std::snprintf(buf, sizeof buf, "%d^2/%dv", g.image_size, g.num_views);
  }
  return buf;
}

util::AlignedVector<float> noisy_sinogram(const ct::ParallelGeometry& g,
                                          std::uint64_t seed) {
  util::AlignedVector<float> sino =
      ct::analytic_sinogram<float>(ct::shepp_logan_modified(), g);
  // Line integrals are in pixel lengths; scale the peak to an attenuation of
  // 3 for the transmission model, add noise at 1e5 photons, scale back.
  float peak = 0.0F;
  for (float v : sino) peak = std::max(peak, v);
  const float k = peak > 0.0F ? 3.0F / peak : 1.0F;
  for (float& v : sino) v *= k;
  util::Rng rng(seed);
  ct::add_transmission_poisson_noise<float>(sino, 1e5, rng);
  for (float& v : sino) v /= k;
  return sino;
}

double phantom_rmse(const ct::ParallelGeometry& g, std::span<const float> volume) {
  const auto truth = ct::rasterize<float>(ct::shepp_logan_modified(), g.image_size);
  if (truth.size() != volume.size() || volume.empty()) return -1.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < volume.size(); ++i) {
    const double d = static_cast<double>(volume[i]) - static_cast<double>(truth[i]);
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(volume.size()));
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

double relative_l2(std::span<const float> a, std::span<const float> ref) {
  if (a.size() != ref.size()) return INFINITY;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(ref[i]);
    num += d * d;
    den += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

core::CscvParams bench_params() { return {.s_vvec = 8, .s_imgb = 16, .s_vxg = 4}; }

pipeline::ReconJob make_recon_job(const ct::ParallelGeometry& g, pipeline::Algorithm algo,
                                  int iterations, std::uint64_t noise_seed) {
  pipeline::ReconJob job;
  job.geometry = g;
  job.cscv = bench_params();
  job.algorithm = algo;
  job.solve.iterations = iterations;
  job.sinogram = noisy_sinogram(g, noise_seed);
  return job;
}

void progress(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "perfbench: %8.2f s  %s\n", seconds_since(start), what.c_str());
}

// ---- machine record and memory ------------------------------------------

std::size_t l3_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return l3 > 0 ? static_cast<std::size_t>(l3) : std::size_t{32} << 20;
}

util::Json machine_record() {
  util::Json m = util::Json::object();
  m["nproc"] = util::Json(static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN)));
  m["l3_bytes"] = util::Json(l3_bytes());
  m["isa_tier"] = util::Json(simd::isa_tier_name(core::dispatch::select_tier().tier));
  for (const char* name : {"OMP_NUM_THREADS", "OMP_WAIT_POLICY", "MALLOC_MMAP_THRESHOLD_"}) {
    const char* value = std::getenv(name);
    m[name] = util::Json(value != nullptr ? value : "(unset)");
  }
  return m;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- measurement helpers -------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

BandwidthProbe::BandwidthProbe() {
  const std::size_t bytes = std::max<std::size_t>(4 * l3_bytes(), std::size_t{1} << 30);
  buf_.resize(bytes / sizeof(float));
  // First touch in the same static partition the passes read with.
  const auto n = static_cast<std::ptrdiff_t>(buf_.size());
  float* p = buf_.data();
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < n; ++i) p[i] = 1.0F;
}

double BandwidthProbe::pass(int threads) {
  constexpr std::ptrdiff_t kLanes = 64;  // four 512-bit accumulators
  const auto n = static_cast<std::ptrdiff_t>(buf_.size()) / kLanes * kLanes;
  const float* p = buf_.data();
  float total = 0.0F;
  const auto t0 = Clock::now();
#pragma omp parallel num_threads(threads) reduction(+ : total)
  {
    alignas(64) float acc[kLanes] = {};
#pragma omp for schedule(static)
    for (std::ptrdiff_t i = 0; i < n; i += kLanes) {
#pragma omp simd aligned(acc : 64)
      for (std::ptrdiff_t k = 0; k < kLanes; ++k) acc[k] += p[i + k];
    }
    for (float a : acc) total += a;
  }
  const double s = seconds_since(t0);
  sink_ = sink_ + total;
  return static_cast<double>(n) * sizeof(float) / s;
}

void probe_bypassed_layers(const Args& args, RunResult& result, bool served, bool sharded) {
  Args probe = args;
  probe.seconds = 1.0;
  probe.trace = false;
  probe.probe = true;
  if (served) {
    result.bypassed["serve_mixed"] = std::make_shared<RunResult>(run_serve_mixed(probe));
  }
  if (sharded) {
    result.bypassed["sharded"] = std::make_shared<RunResult>(run_sharded_probe(probe));
  }
}

core::CscvMatrix<float> measure_geometry_layers(const ct::ParallelGeometry& g, int threads,
                                                const std::string& scratch,
                                                std::map<std::string, double>& layers,
                                                std::vector<double>& probes) {
  auto t0 = Clock::now();
  const auto csc = ct::build_system_matrix_csc<float>(g);
  layers.emplace("ct.matrix_build_s", seconds_since(t0));
  t0 = Clock::now();
  auto m = core::CscvMatrix<float>::build(csc, core::OperatorLayout::from_geometry(g),
                                          bench_params(), core::CscvMatrix<float>::Variant::kM);
  layers.emplace("core.cscv_build_s", seconds_since(t0));
  const auto csr = sparse::csr_from_csc(csc);
  measure_operator_layers(m, csr, {.threads = threads, .reps = 7, .scratch = scratch},
                          layers, probes);
  return m;
}

void measure_request_decoding(const std::vector<std::string>& bodies,
                              std::map<std::string, double>& layers) {
  std::vector<double> parse_s;
  std::vector<double> decode_s;
  for (const std::string& body : bodies) {
    parse_s.push_back(median_time(3, [&] { (void)util::Json::parse(body); }));
    const util::Json spec = util::Json::parse(body);
    const std::string& b64 = spec.at("sinogram_b64").as_string();
    decode_s.push_back(median_time(3, [&] { (void)util::base64_decode(b64); }));
  }
  layers["util.json_parse_s"] = median(parse_s);
  layers["util.base64_decode_s"] = median(decode_s);
}

void measure_operator_layers(const core::CscvMatrix<float>& m,
                             const sparse::CsrMatrix<float>& csr,
                             const OperatorLayerOptions& opts,
                             std::map<std::string, double>& layers,
                             std::vector<double>& probes) {
  const int saved_threads = util::max_threads();
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const auto rows = static_cast<std::size_t>(m.rows());
  const auto cols = static_cast<std::size_t>(m.cols());
  util::AlignedVector<float> x(cols, 1.0F);
  util::AlignedVector<float> y(rows, 1.0F);

  util::set_num_threads(opts.threads);
  layers["core.plan_build_s"] = median_time(3, [&] {
    const core::SpmvPlan<float> p(m, {.threads = opts.threads});
  });
  const core::SpmvPlan<float> plan(m, {.threads = opts.threads});
  plan.execute(x, y);
  plan.execute_transpose(y, x);

  // Probes interleaved with the applies: this host's read bandwidth moves
  // within seconds, so R_EM divides by probes taken in the same stretch.
  BandwidthProbe probe;
  std::vector<double> fwd;
  std::vector<double> adj;
  for (int r = 0; r < opts.reps; ++r) {
    probes.push_back(probe.pass(opts.threads));
    auto t0 = Clock::now();
    plan.execute(x, y);
    fwd.push_back(seconds_since(t0));
    t0 = Clock::now();
    plan.execute_transpose(y, x);
    adj.push_back(seconds_since(t0));
  }
  probes.push_back(probe.pass(opts.threads));
  layers["bw.probe_bytes"] = static_cast<double>(probe.bytes());
  const double forward_s = median(fwd);
  const double adjoint_s = median(adj);
  const double peak = median(probes);
  const core::PlanStats st = plan.stats();
  const auto bytes = static_cast<double>(st.matrix_bytes + st.vector_bytes_per_apply);
  layers["core.forward_s"] = forward_s;
  layers["core.adjoint_s"] = adjoint_s;
  layers["core.forward_gbps"] = bytes / forward_s / 1e9;
  layers["core.adjoint_gbps"] = bytes / adjoint_s / 1e9;
  layers["core.r_em_forward"] = bytes / forward_s / peak;
  layers["core.r_em_adjoint"] = bytes / adjoint_s / peak;
  layers["core.peak_gbps"] = peak / 1e9;
  layers["core.padding_fraction"] = st.padding_fraction;
  layers["core.load_imbalance"] = st.load_imbalance;

  // Thread scaling against the plain single-thread plan of the same matrix.
  const auto forward_at = [&](int threads) {
    util::set_num_threads(threads);
    const core::SpmvPlan<float> p(m, {.threads = threads});
    return median_time(std::max(2, opts.reps / 2), [&] { p.execute(x, y); });
  };
  const double forward_1 = opts.threads == 1 ? forward_s : forward_at(1);
  const double forward_n = opts.threads == nproc ? forward_s : forward_at(nproc);
  layers["core.thread_scaling"] = forward_1 / forward_n;

  {
    std::filesystem::create_directories(opts.scratch);
    const std::string path = opts.scratch + "/layer_probe.cscv";
    auto t0 = Clock::now();
    core::save_cscv_file(path, m);
    layers["core.spill_save_s"] = seconds_since(t0);
    t0 = Clock::now();
    const auto loaded = core::load_cscv_file<float>(path);
    layers["core.spill_load_s"] = seconds_since(t0);
    std::filesystem::remove(path);
  }

  util::set_num_threads(1);
  util::AlignedVector<float> scratch;
  const double csr_forward = median_time(opts.reps, [&] { csr.spmv(x, y); });
  const double csr_adjoint = median_time(opts.reps, [&] { csr.spmv_transpose(y, x, scratch); });
  layers["sparse.csr_forward_s"] = csr_forward;
  layers["sparse.csr_adjoint_s"] = csr_adjoint;
  layers["core.speedup_vs_csr"] = csr_forward / forward_1;
  util::set_num_threads(saved_threads);
}

}  // namespace perfbench

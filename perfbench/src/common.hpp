// Shared pieces of the perfbench program: run arguments, the span recorder,
// seeded inputs, the machine record, the same-run bandwidth probe, and the
// per-layer measurements every workload takes of its own operator.
//
// Everything here measures the library from outside, through its public
// headers; nothing in src/ knows the benchmark exists.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "ct/geometry.hpp"
#include "pipeline/job.hpp"
#include "recon/operators.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "util/aligned_vector.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;      // result JSON path
  std::string scratch;  // directory for spill and probe files (inside the checkout)
  /// Run the workload's small configuration for one short window: the
  /// probe a traced run of another workload takes of the layers it bypasses.
  bool probe = false;
};

/// One slice attempted in the timed window. Status "ok" or the reason it
/// counts as failed: "refused", "expired", "failed", "mismatch".
struct Slice {
  std::string algo;
  std::string status = "ok";
  double latency_s = 0.0;
  double rmse = 0.0;
  bool traced = false;  // ran in the traced half of a --trace 1 window
  // Layer fields; only the served workloads fill the pipeline/net ones.
  double solve_s = 0.0;
  int iterations = 0;
  double queue_wait_s = 0.0;
  double acquire_s = 0.0;
  double submit_s = 0.0;
  double fetch_s = 0.0;
  int polls = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
};

// ---- spans ---------------------------------------------------------------

/// In-memory span recorder. Off by default; a --trace 1 run turns it on for
/// the traced half of its window. Spans nest through a thread-local parent
/// stack; spans of one slice share its job id.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t job = 0;
  };

  static Tracer& instance();
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] static std::int64_t now_ns();

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer. Free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t job = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

 private:
  Tracer::Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_job_ = 0;
  bool active_ = false;
};

/// Operator decorator that records core.forward / core.adjoint spans around
/// every apply (and forwards everything else), so a solve's self time and
/// its share inside operator calls can be read off the trace.
class TracedOperator final : public cscv::recon::LinearOperator<float> {
 public:
  explicit TracedOperator(const cscv::recon::LinearOperator<float>& inner,
                          const char* forward_name = "core.forward",
                          const char* adjoint_name = "core.adjoint")
      : inner_(&inner), forward_name_(forward_name), adjoint_name_(adjoint_name) {}
  [[nodiscard]] cscv::sparse::index_t rows() const override { return inner_->rows(); }
  [[nodiscard]] cscv::sparse::index_t cols() const override { return inner_->cols(); }
  void forward(std::span<const float> x, std::span<float> y) const override {
    ScopedSpan s(forward_name_);
    inner_->forward(x, y);
  }
  void adjoint(std::span<const float> y, std::span<float> x) const override {
    ScopedSpan s(adjoint_name_);
    inner_->adjoint(y, x);
  }
  [[nodiscard]] cscv::util::AlignedVector<float> row_sums() const override {
    ScopedSpan s(forward_name_);
    return inner_->row_sums();
  }
  [[nodiscard]] cscv::util::AlignedVector<float> col_sums() const override {
    ScopedSpan s(adjoint_name_);
    return inner_->col_sums();
  }

 private:
  const cscv::recon::LinearOperator<float>* inner_;
  const char* forward_name_;
  const char* adjoint_name_;
};

// ---- inputs --------------------------------------------------------------

/// Geometry of the Table II family (benchlib::standard_datasets) by index
/// and divisor, or a plain square geometry over 180 degrees.
[[nodiscard]] cscv::ct::ParallelGeometry table2_geometry(int index, int divisor);
[[nodiscard]] cscv::ct::ParallelGeometry square_geometry(int image, int views,
                                                         double start_angle_deg = 0.0);
[[nodiscard]] std::string geometry_name(const cscv::ct::ParallelGeometry& g);

/// Analytic Shepp-Logan sinogram of `g` with seeded transmission Poisson
/// noise; stays in the system matrix's pixel-length units.
[[nodiscard]] cscv::util::AlignedVector<float> noisy_sinogram(
    const cscv::ct::ParallelGeometry& g, std::uint64_t seed);
/// RMSE of `volume` against the rasterized Shepp-Logan phantom of `g`.
[[nodiscard]] double phantom_rmse(const cscv::ct::ParallelGeometry& g,
                                  std::span<const float> volume);

[[nodiscard]] bool bitwise_equal(std::span<const float> a, std::span<const float> b);
[[nodiscard]] double relative_l2(std::span<const float> a, std::span<const float> ref);

/// The CSCV tuning every workload uses (the bench_suite parameters).
[[nodiscard]] cscv::core::CscvParams bench_params();

/// A job on `g` with the bench parameters and a noisy_sinogram(g, noise_seed).
[[nodiscard]] cscv::pipeline::ReconJob make_recon_job(const cscv::ct::ParallelGeometry& g,
                                                      cscv::pipeline::Algorithm algo,
                                                      int iterations, std::uint64_t noise_seed);

/// One line on stderr with the seconds since the program started, so the
/// tail of a run's stderr shows which phase it reached and how long each took.
void progress(const std::string& what);

// ---- machine record and memory ------------------------------------------

[[nodiscard]] cscv::util::Json machine_record();
[[nodiscard]] std::size_t l3_bytes();
[[nodiscard]] double peak_rss_mb();

// ---- measurement helpers -------------------------------------------------

[[nodiscard]] double median(std::vector<double> xs);

/// Same-run bandwidth probe: a vectorized full read of a buffer of at least
/// four times the L3, at `threads` OpenMP threads. Each call is one pass.
class BandwidthProbe {
 public:
  BandwidthProbe();
  [[nodiscard]] std::size_t bytes() const { return buf_.size() * sizeof(float); }
  /// One full read at `threads` threads; returns bytes/s.
  double pass(int threads);

 private:
  cscv::util::AlignedVector<float> buf_;
  volatile float sink_ = 0.0F;
};

/// Per-layer measurements of one CSCV operator and its CSR twin: applies
/// after warm-up at the workload's thread count, 1-thread scaling, plan
/// shape, spill save/load, and the 1-thread CSR baseline. Appends
/// name -> value pairs to `layers` and the probe values to `probes`.
struct OperatorLayerOptions {
  int threads = 1;
  int reps = 5;
  std::string scratch;  // where the spill round trip writes its file
};
void measure_operator_layers(const cscv::core::CscvMatrix<float>& m,
                             const cscv::sparse::CsrMatrix<float>& csr,
                             const OperatorLayerOptions& opts,
                             std::map<std::string, double>& layers,
                             std::vector<double>& probes);

/// Builds g's CSC, CSCV-M and CSR and runs measure_operator_layers on them
/// (spill included); also records ct.matrix_build_s and core.cscv_build_s of
/// this one geometry unless `layers` already has them. Returns the CSCV-M.
cscv::core::CscvMatrix<float> measure_geometry_layers(const cscv::ct::ParallelGeometry& g,
                                                      int threads, const std::string& scratch,
                                                      std::map<std::string, double>& layers,
                                                      std::vector<double>& probes);

/// util.json_parse_s / util.base64_decode_s: Json::parse and base64_decode
/// over the given job request bodies, median per body.
void measure_request_decoding(const std::vector<std::string>& bodies,
                              std::map<std::string, double>& layers);

/// Times one apply of `f`, `reps` times after one warm-up call; median.
template <typename F>
double median_time(int reps, F&& f) {
  f();
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

// ---- result -------------------------------------------------------------

/// Everything one workload run reports; main.cpp serializes it.
struct RunResult {
  std::vector<double> setup_s;  // one per setup repetition
  double window_s = 0.0;        // timed window, first start to last finish
  std::vector<Slice> slices;
  double rss_peak_mb = 0.0;     // process peak at the end of the window
  std::map<std::string, double> layers;
  std::vector<double> probes;   // bandwidth probe values, bytes/s
  cscv::util::Json config = cscv::util::Json::object();
  /// Probe runs of the layers this workload bypasses (traced runs only),
  /// by the name of the workload whose small configuration ran.
  std::map<std::string, std::shared_ptr<RunResult>> bypassed;
};

/// Adds one-second probe runs of serve_mixed in its small configuration
/// and/or the sharded probe, so a traced run reports layers its own path
/// bypasses.
void probe_bypassed_layers(const Args& args, RunResult& result, bool served, bool sharded);

RunResult run_solve_large(const Args& args);
RunResult run_serve_mixed(const Args& args);
/// The dist layer on 64^2/48 views over loopback shard workers (sharded.cpp).
RunResult run_sharded_probe(const Args& args);

}  // namespace perfbench

// google-benchmark harness over every SpMV engine on a small CT matrix.
//
// The paper-protocol tables (min time over N iterations) live in the
// per-figure binaries; this binary provides the standard google-benchmark
// view of the same kernels — statistical timing, --benchmark_filter,
// --benchmark_format=json for tooling. Counters: GFLOPS (useful flops) and
// bytes (matrix + vector traffic per iteration).
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>

#include "bench_common.hpp"
#include "core/plan.hpp"

namespace {

using namespace cscv;

template <typename T>
struct Context {
  benchlib::MatrixPair<T> matrices;
  std::vector<benchlib::Engine<T>> engines;
  std::shared_ptr<const core::CscvMatrix<T>> cscv_z;  // the CSCV-Z engine's matrix
  util::AlignedVector<T> x;
  util::AlignedVector<T> y;
};

template <typename T>
Context<T>& context() {
  static Context<T> ctx = [] {
    Context<T> c;
    // Small fixed dataset so google-benchmark's auto-iteration stays quick.
    auto dataset = benchlib::standard_datasets(8)[0];
    c.matrices = benchlib::build_matrices<T>(dataset);
    c.engines = benchlib::build_engines<T>(c.matrices.csr, c.matrices.csc,
                                           c.matrices.layout);
    for (const auto& e : c.engines) {
      if (e.prepare) e.prepare();  // CSCV plans at the ambient thread count
      if (e.name == "CSCV-Z") c.cscv_z = e.cscv->matrix;
    }
    c.x = sparse::random_vector<T>(static_cast<std::size_t>(c.matrices.csc.cols()), 1,
                                   0.0, 1.0);
    c.y.resize(static_cast<std::size_t>(c.matrices.csc.rows()));
    return c;
  }();
  return ctx;
}

template <typename T>
void bench_engine(benchmark::State& state, std::size_t engine_index) {
  auto& ctx = context<T>();
  const auto& engine = ctx.engines[engine_index];
  for (auto _ : state) {
    engine.apply(ctx.x, ctx.y);
    benchmark::DoNotOptimize(ctx.y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(engine.nnz), benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
  state.counters["bytes"] = benchmark::Counter(
      static_cast<double>(engine.matrix_bytes +
                          benchlib::vector_bytes<T>(ctx.x.size(), ctx.y.size())),
      benchmark::Counter::kIsIterationInvariantRate, benchmark::Counter::kIs1024);
}

// Cold vs warm execution context on the CSCV-Z matrix: `cold` pays plan
// construction (dispatch resolution, weighted partitioning, scratch and
// private-y reduction-pool allocation) on every apply; `warm` reuses one
// prebuilt plan, the steady-state of iterative reconstruction. warm must
// beat cold — that gap is exactly what the plan layer hoists out of the
// hot loop. The private-y scheme is the interesting one: its cold path
// allocates (and first-touches) a threads x m pool per call.
constexpr core::PlanOptions kPlanBenchOptions{.scheme = core::ThreadScheme::kPrivateY};

template <typename T>
void bench_plan_cold(benchmark::State& state) {
  auto& ctx = context<T>();
  const core::CscvMatrix<T>& m = *ctx.cscv_z;
  for (auto _ : state) {
    core::SpmvPlan<T> plan(m, kPlanBenchOptions);
    plan.execute(ctx.x, ctx.y);
    benchmark::DoNotOptimize(ctx.y.data());
  }
}

template <typename T>
void bench_plan_warm(benchmark::State& state) {
  auto& ctx = context<T>();
  const core::SpmvPlan<T> plan(*ctx.cscv_z, kPlanBenchOptions);
  for (auto _ : state) {
    plan.execute(ctx.x, ctx.y);
    benchmark::DoNotOptimize(ctx.y.data());
  }
}

void register_all() {
  benchmark::RegisterBenchmark("plan_single/CSCV-Z/cold", bench_plan_cold<float>);
  benchmark::RegisterBenchmark("plan_single/CSCV-Z/warm", bench_plan_warm<float>);
  benchmark::RegisterBenchmark("plan_double/CSCV-Z/cold", bench_plan_cold<double>);
  benchmark::RegisterBenchmark("plan_double/CSCV-Z/warm", bench_plan_warm<double>);
  for (std::size_t i = 0; i < context<float>().engines.size(); ++i) {
    benchmark::RegisterBenchmark(
        ("spmv_single/" + context<float>().engines[i].name).c_str(),
        [i](benchmark::State& s) { bench_engine<float>(s, i); });
  }
  for (std::size_t i = 0; i < context<double>().engines.size(); ++i) {
    benchmark::RegisterBenchmark(
        ("spmv_double/" + context<double>().engines[i].name).c_str(),
        [i](benchmark::State& s) { bench_engine<double>(s, i); });
  }
}

}  // namespace

namespace {

// BenchReport emission (--json=<path>): the structured-record view of the
// same engine set, so gbench runs feed the bench_compare gate alongside
// bench_suite. Uses the paper's min-time protocol via
// measure_spmv_samples, independent of google-benchmark's own timing.
template <typename T>
void append_records(cscv::benchlib::BenchReport& report, int iterations) {
  using namespace cscv;
  auto& ctx = context<T>();
  const auto cols = static_cast<std::size_t>(ctx.matrices.csc.cols());
  const auto rows = static_cast<std::size_t>(ctx.matrices.csc.rows());
  const int threads = util::max_threads();
  for (const auto& engine : ctx.engines) {
    auto samples = benchlib::measure_spmv_samples(engine, cols, rows, threads, iterations);
    report.records.push_back(benchlib::make_spmv_record("gbench-64x64", engine, threads,
                                                        iterations, cols, rows, samples));
  }
}

void write_json_report(const std::string& path) {
  using namespace cscv;
  constexpr int kIterations = 12;
  benchlib::BenchReport report;
  report.tag = "gbench";
  benchlib::fill_machine_info(report);
  append_records<float>(report, kIterations);
  append_records<double>(report, kIterations);
  benchlib::write_report_file(path, report);
  std::cout << "wrote " << report.records.size() << " records to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json=<path> before google-benchmark sees (and rejects) it.
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_json_report(json_path);
  return 0;
}

// solve_large: the paper's setting. One caller reconstructs slices of one
// clinical Table II geometry whose CSCV-M operator is several times the L3,
// alternating SIRT and CGLS, over a plan-backed operator at 4 OpenMP
// threads — the call sequence pipeline::execute_job makes, with net,
// pipeline and dist bypassed.
#include <memory>

#include "common.hpp"
#include "ct/system_matrix.hpp"
#include "pipeline/job.hpp"
#include "recon/solvers.hpp"
#include "sparse/convert.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace cscv;

namespace {

constexpr int kThreads = 4;
constexpr int kIterations = 3;  // per slice, SIRT and CGLS alike
constexpr int kSinograms = 2;   // seeded noise realizations, one per algorithm
constexpr int kSetups = 2;
// CSCV-M vs CSR solves differ only by float summation order.
constexpr double kTolerance = 1e-3;

struct Operator {
  std::unique_ptr<sparse::CscMatrix<float>> csc;
  std::unique_ptr<core::CscvMatrix<float>> cscv;
  std::unique_ptr<core::SpmvPlan<float>> plan;
};

Operator set_up(const ct::ParallelGeometry& g, std::map<std::string, std::vector<double>>& parts) {
  Operator op;
  auto t0 = Clock::now();
  op.csc = std::make_unique<sparse::CscMatrix<float>>(ct::build_system_matrix_csc<float>(g));
  parts["ct.matrix_build_s"].push_back(seconds_since(t0));
  t0 = Clock::now();
  op.cscv = std::make_unique<core::CscvMatrix<float>>(core::CscvMatrix<float>::build(
      *op.csc, core::OperatorLayout::from_geometry(g), bench_params(),
      core::CscvMatrix<float>::Variant::kM));
  parts["core.cscv_build_s"].push_back(seconds_since(t0));
  op.plan = std::make_unique<core::SpmvPlan<float>>(*op.cscv,
                                                    core::PlanOptions{.threads = kThreads});
  // First touch of the plan scratch and one streaming pass in each direction.
  util::AlignedVector<float> x(static_cast<std::size_t>(g.num_cols()), 0.0F);
  util::AlignedVector<float> y(static_cast<std::size_t>(g.num_rows()), 0.0F);
  op.plan->execute(x, y);
  op.plan->execute_transpose(y, x);
  return op;
}

}  // namespace

RunResult run_solve_large(const Args& args) {
  RunResult result;
  util::set_num_threads(kThreads);
  // Table II's 768^2 clinical dataset at divisor 2: 384^2 pixels, 480 views.
  const ct::ParallelGeometry g = table2_geometry(1, 2);

  std::vector<util::AlignedVector<float>> sinograms;
  for (int s = 0; s < kSinograms; ++s) {
    sinograms.push_back(noisy_sinogram(g, args.seed * 1000 + static_cast<std::uint64_t>(s)));
  }

  progress("inputs ready");
  std::map<std::string, std::vector<double>> parts;
  Operator op;
  for (int r = 0; r < kSetups; ++r) {
    op = Operator{};  // release the previous repetition before building again
    const auto t0 = Clock::now();
    op = set_up(g, parts);
    result.setup_s.push_back(seconds_since(t0));
    progress("set-up " + std::to_string(r + 1) + " of " + std::to_string(kSetups));
  }
  for (const auto& [name, values] : parts) result.layers[name] = median(values);

  struct Output {
    int sinogram;
    std::string algo;
    util::AlignedVector<float> volume;
  };
  std::vector<Output> outputs;
  const recon::PlanOperator<float> plan_op(*op.plan);
  const TracedOperator traced_op(plan_op);
  recon::SolveOptions solve;
  solve.iterations = kIterations;
  const auto cols = static_cast<std::size_t>(g.num_cols());

  const auto window_start = Clock::now();
  for (std::uint64_t i = 0; seconds_since(window_start) < args.seconds; ++i) {
    const bool traced = args.trace && seconds_since(window_start) >= args.seconds / 2;
    Tracer::instance().set_on(traced);
    const bool sirt = i % 2 == 0;
    const int s = static_cast<int>(i % kSinograms);
    Output out{s, sirt ? "sirt" : "cgls", util::AlignedVector<float>(cols, 0.0F)};
    const recon::LinearOperator<float>& a =
        traced ? static_cast<const recon::LinearOperator<float>&>(traced_op) : plan_op;
    Slice slice;
    slice.algo = out.algo;
    slice.traced = traced;
    const auto t0 = Clock::now();
    {
      ScopedSpan job_span("slice", i + 1);
      ScopedSpan solve_span("recon.solve");
      const recon::RunStats st =
          sirt ? recon::sirt<float>(a, sinograms[static_cast<std::size_t>(s)], out.volume,
                                    solve)
               : recon::cgls<float>(a, sinograms[static_cast<std::size_t>(s)], out.volume,
                                    solve);
      slice.iterations = st.iterations_run;
    }
    slice.latency_s = seconds_since(t0);
    slice.solve_s = slice.latency_s;
    result.slices.push_back(slice);
    outputs.push_back(std::move(out));
  }
  result.window_s = seconds_since(window_start);
  Tracer::instance().set_on(false);
  result.rss_peak_mb = peak_rss_mb();
  progress("window: " + std::to_string(result.slices.size()) + " slices");

  // Reference: the same solves over recon::CsrOperator (outside the window
  // and setup_s). Only the CSR is kept from here on.
  const auto csr = std::make_unique<sparse::CsrMatrix<float>>(sparse::csr_from_csc(*op.csc));
  op.csc.reset();
  if (args.trace) {
    measure_operator_layers(*op.cscv, *csr,
                            {.threads = kThreads, .reps = 5, .scratch = args.scratch},
                            result.layers, result.probes);
    std::vector<std::string> bodies;
    for (const auto& sino : sinograms) {
      pipeline::ReconJob job;
      job.geometry = g;
      job.sinogram = sino;
      bodies.push_back(job.to_json().dump());
    }
    measure_request_decoding(bodies, result.layers);
    probe_bypassed_layers(args, result, true, true);
  }
  util::set_num_threads(kThreads);
  const recon::CsrOperator<float> csr_op(*csr);
  std::map<std::pair<int, std::string>, util::AlignedVector<float>> refs;
  double worst = 0.0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const Output& out = outputs[i];
    auto it = refs.find({out.sinogram, out.algo});
    if (it == refs.end()) {
      util::AlignedVector<float> x(cols, 0.0F);
      const auto& b = sinograms[static_cast<std::size_t>(out.sinogram)];
      if (out.algo == "sirt") {
        (void)recon::sirt<float>(csr_op, b, x, solve);
      } else {
        (void)recon::cgls<float>(csr_op, b, x, solve);
      }
      it = refs.emplace(std::make_pair(out.sinogram, out.algo), std::move(x)).first;
    }
    const double err = relative_l2(out.volume, it->second);
    worst = std::max(worst, err);
    if (!(err <= kTolerance)) result.slices[i].status = "mismatch";
    result.slices[i].rmse = phantom_rmse(g, out.volume);
  }

  progress("references checked");

  result.config["geometry"] = util::Json(geometry_name(g));
  result.config["threads"] = util::Json(kThreads);
  result.config["callers"] = util::Json(1);
  result.config["iterations"] = util::Json(kIterations);
  result.config["operator_bytes"] = util::Json(op.cscv->matrix_bytes());
  result.config["operator_nnz"] = util::Json(static_cast<double>(op.cscv->nnz()));
  result.config["l3_bytes"] = util::Json(l3_bytes());
  result.config["reference"] = util::Json("recon::CsrOperator, relative L2");
  result.config["tolerance"] = util::Json(kTolerance);
  result.config["worst_relative_error"] = util::Json(worst);
  return result;
}

}  // namespace perfbench

// Ablation A3 — footprint model of the system-matrix builder: the rect
// (distance-driven) approximation vs the exact trapezoid strip integral.
// Both produce integral-operator structure; CSCV's padding and performance
// should be nearly identical, demonstrating the format depends on P1-P3,
// not on the quadrature.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Ablation: footprint model (rect vs trapezoid), dataset " +
                         dataset.name + " (single precision)");

  util::Table t({"footprint", "nnz", "nnz/col/view", "R_nnzE (CSCV-Z)", "GFLOP/s CSCV-Z",
                 "GFLOP/s CSCV-M"});
  for (auto model : {ct::FootprintModel::kRect, ct::FootprintModel::kTrapezoid}) {
    auto m = benchlib::build_matrices<float>(dataset, model);
    const auto cols = static_cast<std::size_t>(m.csc.cols());
    const auto rows = static_cast<std::size_t>(m.csc.rows());
    core::CscvParams p{.s_vvec = 8, .s_imgb = 32, .s_vxg = 4};
    const auto cz = std::make_shared<const core::CscvMatrix<float>>(
        core::CscvMatrix<float>::build(m.csc, m.layout, p, core::CscvMatrix<float>::Variant::kZ));
    const auto ez = benchlib::cscv_engine<float>("", cz);
    const auto em = benchlib::cscv_engine<float>(
        "", std::make_shared<const core::CscvMatrix<float>>(core::CscvMatrix<float>::build(
                m.csc, m.layout, p, core::CscvMatrix<float>::Variant::kM)));
    auto mz = benchlib::measure_spmv(ez, cols, rows, util::max_threads(), flags.iters);
    auto mm = benchlib::measure_spmv(em, cols, rows, util::max_threads(), flags.iters);
    const double per_col_view =
        static_cast<double>(m.csc.nnz()) /
        (static_cast<double>(m.csc.cols()) * dataset.geometry.num_views);
    t.add(model == ct::FootprintModel::kRect ? "rect (distance-driven)" : "trapezoid (exact)",
          static_cast<long long>(m.csc.nnz()), util::fmt_fixed(per_col_view, 2),
          util::fmt_fixed(cz->r_nnze(), 3), util::fmt_fixed(mz.gflops, 2),
          util::fmt_fixed(mm.gflops, 2));
  }
  benchlib::print_table(t, flags.csv);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

// Ablation A1 — VxG processing order inside a block (Fig. 6's sort steps):
// natural build order vs sort-by-offset vs sort-by-count, for both CSCV
// variants. The by-offset order walks y~ monotonically (best locality).
#include <map>

#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Ablation: VxG ordering policy, dataset " + dataset.name +
                         " (single precision)");
  auto m = benchlib::build_matrices<float>(dataset);
  const auto cols = static_cast<std::size_t>(m.csc.cols());
  const auto rows = static_cast<std::size_t>(m.csc.rows());
  const int threads = util::max_threads();

  util::Table t({"variant", "order", "GFLOP/s (1 thr)", "GFLOP/s (max thr)", "R_nnzE"});
  for (auto variant : {core::CscvMatrix<float>::Variant::kZ,
                       core::CscvMatrix<float>::Variant::kM}) {
    for (auto order : {core::VxgOrder::kNatural, core::VxgOrder::kByOffset,
                       core::VxgOrder::kByCount}) {
      core::CscvParams p{.s_vvec = 8, .s_imgb = 32, .s_vxg = 4};
      p.order = order;
      const auto cm = std::make_shared<const core::CscvMatrix<float>>(
          core::CscvMatrix<float>::build(m.csc, m.layout, p, variant));
      const auto engine = benchlib::cscv_engine<float>("", cm);
      auto one = benchlib::measure_spmv(engine, cols, rows, 1, flags.iters);
      auto many = benchlib::measure_spmv(engine, cols, rows, threads, flags.iters);
      t.add(variant == core::CscvMatrix<float>::Variant::kZ ? "CSCV-Z" : "CSCV-M",
            core::vxg_order_name(order), util::fmt_fixed(one.gflops, 2),
            util::fmt_fixed(many.gflops, 2), util::fmt_fixed(cm->r_nnze(), 3));
    }
  }
  benchlib::print_table(t, flags.csv);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

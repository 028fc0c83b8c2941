// Fig. 9 — best performance (GFLOP/s) and S_VxG choice of the CSCV
// implementations for each (S_VVec, S_ImgB) pair, single and multi thread.
//
// Reproduces the paper's grid: for every (S_VVec, S_ImgB), sweep S_VxG and
// report the best GFLOP/s with the chosen S_VxG in parentheses — once for
// one thread and once for all hardware threads, for CSCV-Z and CSCV-M.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  auto vxgs = cli.get_int_list("vxgs", {1, 2, 4, 8});
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Fig. 9: best GFLOP/s and S_VxG per (S_VVec, S_ImgB), dataset " +
                         dataset.name + " (single precision)");
  auto m = benchlib::build_matrices<float>(dataset);
  const auto cols = static_cast<std::size_t>(m.csc.cols());
  const auto rows = static_cast<std::size_t>(m.csc.rows());
  const int max_threads = util::max_threads();

  util::Table t({"variant", "threads", "S_VVec", "S_ImgB", "best GFLOP/s", "best S_VxG",
                 "R_nnzE at best"});
  for (auto variant : {core::CscvMatrix<float>::Variant::kZ,
                       core::CscvMatrix<float>::Variant::kM}) {
    const char* vname = variant == core::CscvMatrix<float>::Variant::kZ ? "CSCV-Z" : "CSCV-M";
    for (int threads : {1, max_threads}) {
      for (int s_vvec : {4, 8, 16}) {
        for (int s_imgb : {8, 16, 32, 64}) {
          double best_gflops = -1.0;
          int best_vxg = 0;
          double best_rnnze = 0.0;
          for (int s_vxg : vxgs) {
            core::CscvParams p{.s_vvec = s_vvec, .s_imgb = s_imgb, .s_vxg = s_vxg};
            const auto cm = std::make_shared<const core::CscvMatrix<float>>(
                core::CscvMatrix<float>::build(m.csc, m.layout, p, variant));
            const auto engine = benchlib::cscv_engine<float>(vname, cm);
            auto meas = benchlib::measure_spmv(engine, cols, rows, threads, flags.iters);
            if (meas.gflops > best_gflops) {
              best_gflops = meas.gflops;
              best_vxg = s_vxg;
              best_rnnze = cm->r_nnze();
            }
          }
          t.add(vname, threads, s_vvec, s_imgb, util::fmt_fixed(best_gflops, 2), best_vxg,
                util::fmt_fixed(best_rnnze, 3));
        }
      }
      if (max_threads == 1) break;  // avoid duplicate 1-thread sweep
    }
  }
  benchlib::print_table(t, flags.csv);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

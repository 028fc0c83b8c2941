// Table III — the parameter combinations used in the parallel tests and
// their R_nnzE.
//
// The paper's selection principle: best single-thread performance for
// CSCV-Z, best multi-thread performance for CSCV-M. This binary applies
// that principle over a coarse sweep and prints the chosen combinations,
// alongside the paper's own SKL/Zen2 choices for comparison.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Table III: selected parameter combinations, dataset " +
                         dataset.name);

  util::Table t({"implementation", "precision", "S_ImgB", "S_VVec", "S_VxG", "R_nnzE",
                 "GFLOP/s", "selection rule"});

  auto select = [&]<typename T>(const char* precision) {
    auto m = benchlib::build_matrices<T>(dataset);
    const auto cols = static_cast<std::size_t>(m.csc.cols());
    const auto rows = static_cast<std::size_t>(m.csc.rows());
    const int max_threads = util::max_threads();
    for (auto variant :
         {core::CscvMatrix<T>::Variant::kZ, core::CscvMatrix<T>::Variant::kM}) {
      const bool is_z = variant == core::CscvMatrix<T>::Variant::kZ;
      const int threads = is_z ? 1 : max_threads;
      double best_gflops = -1.0;
      core::CscvParams best_p;
      double best_r = 0.0;
      for (int s_vvec : {4, 8, 16}) {
        for (int s_imgb : {16, 32, 64}) {
          for (int s_vxg : {1, 2, 4}) {
            core::CscvParams p{.s_vvec = s_vvec, .s_imgb = s_imgb, .s_vxg = s_vxg};
            const auto cm = std::make_shared<const core::CscvMatrix<T>>(
                core::CscvMatrix<T>::build(m.csc, m.layout, p, variant));
            const auto engine = benchlib::cscv_engine<T>("", cm);
            auto meas = benchlib::measure_spmv(engine, cols, rows, threads, flags.iters);
            if (meas.gflops > best_gflops) {
              best_gflops = meas.gflops;
              best_p = p;
              best_r = cm->r_nnze();
            }
          }
        }
      }
      t.add(is_z ? "CSCV-Z" : "CSCV-M", precision, best_p.s_imgb, best_p.s_vvec,
            best_p.s_vxg, util::fmt_fixed(best_r, 3), util::fmt_fixed(best_gflops, 2),
            is_z ? "best 1-thread" : "best multi-thread");
    }
  };
  select.operator()<float>("single");
  select.operator()<double>("double");
  benchlib::print_table(t, flags.csv);

  std::cout << "\n# paper's choices (Table III) for reference:\n";
  util::Table p({"platform", "impl", "precision", "S_ImgB", "S_VVec", "S_VxG", "R_nnzE"});
  p.add("SKL", "CSCV-Z", "single", 16, 16, 2, 0.417);
  p.add("SKL", "CSCV-M", "single", 32, 8, 4, 0.365);
  p.add("SKL", "CSCV-Z/M", "double", 16, 16, 2, 0.417);
  p.add("Zen2", "CSCV-Z", "single", 64, 8, 4, 0.448);
  p.add("Zen2", "CSCV-M", "single", 64, 4, 1, 0.257);
  p.add("Zen2", "CSCV-Z", "double", 32, 8, 2, 0.345);
  p.add("Zen2", "CSCV-M", "double", 16, 8, 1, 0.303);
  benchlib::print_table(p, flags.csv);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

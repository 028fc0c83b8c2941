// Parameter tuning for CSCV on a user-supplied geometry — the workflow of
// Section V-D condensed into a tool.
//
//   ./format_tuning [--image=96] [--views=96] [--threads=N] [--iters=10]
//
// Sweeps (S_VVec, S_ImgB, S_VxG), reports R_nnzE, memory, and measured
// GFLOP/s for both variants, then recommends a combination per the paper's
// rule: CSCV-Z by single-thread speed (latency-bound regime), CSCV-M by
// multi-thread speed (bandwidth-bound regime).
#include <iostream>

#include "benchlib/bandwidth.hpp"
#include "benchlib/runner.hpp"
#include "core/format.hpp"
#include "ct/system_matrix.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  const int image = cli.get_int("image", 96);
  const int views = cli.get_int("views", 96);
  const int threads = cli.get_int("threads", util::max_threads());
  const int iters = cli.get_int("iters", 10);
  cli.finish();

  const auto geometry = ct::standard_geometry(image, views);
  const auto csc = ct::build_system_matrix_csc<float>(geometry);
  const auto layout = core::OperatorLayout::from_geometry(geometry);
  const auto cols = static_cast<std::size_t>(csc.cols());
  const auto rows = static_cast<std::size_t>(csc.rows());
  std::cout << "tuning CSCV on " << image << "x" << image << " / " << views << " views ("
            << csc.nnz() << " nnz), threads = " << threads << "\n\n";

  struct Best {
    double gflops = -1.0;
    core::CscvParams params;
  };
  Best best_z, best_m;

  util::Table t({"S_VVec", "S_ImgB", "S_VxG", "R_nnzE", "Z GFLOP/s (1thr)",
                 "M GFLOP/s (" + std::to_string(threads) + "thr)"});
  for (int s_vvec : {4, 8, 16}) {
    for (int s_imgb : {16, 32, 64}) {
      for (int s_vxg : {1, 2, 4}) {
        const core::CscvParams p{.s_vvec = s_vvec, .s_imgb = s_imgb, .s_vxg = s_vxg};
        const auto z = std::make_shared<const core::CscvMatrix<float>>(
            core::CscvMatrix<float>::build(csc, layout, p, core::CscvMatrix<float>::Variant::kZ));
        const auto ez = benchlib::cscv_engine<float>("", z);
        const auto em = benchlib::cscv_engine<float>(
            "", std::make_shared<const core::CscvMatrix<float>>(core::CscvMatrix<float>::build(
                    csc, layout, p, core::CscvMatrix<float>::Variant::kM)));
        const auto mz = benchlib::measure_spmv(ez, cols, rows, 1, iters);
        const auto mm = benchlib::measure_spmv(em, cols, rows, threads, iters);
        if (mz.gflops > best_z.gflops) best_z = {mz.gflops, p};
        if (mm.gflops > best_m.gflops) best_m = {mm.gflops, p};
        t.add(s_vvec, s_imgb, s_vxg, util::fmt_fixed(z->r_nnze(), 3),
              util::fmt_fixed(mz.gflops, 2), util::fmt_fixed(mm.gflops, 2));
      }
    }
  }
  t.print(std::cout);

  std::cout << "\nrecommendation (paper's Table III rule):\n"
            << "  CSCV-Z (latency-bound / few threads): S_VVec=" << best_z.params.s_vvec
            << " S_ImgB=" << best_z.params.s_imgb << " S_VxG=" << best_z.params.s_vxg
            << "  (" << util::fmt_fixed(best_z.gflops, 2) << " GFLOP/s @1 thread)\n"
            << "  CSCV-M (bandwidth-bound / many threads): S_VVec=" << best_m.params.s_vvec
            << " S_ImgB=" << best_m.params.s_imgb << " S_VxG=" << best_m.params.s_vxg
            << "  (" << util::fmt_fixed(best_m.gflops, 2) << " GFLOP/s @" << threads
            << " threads)\n";
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

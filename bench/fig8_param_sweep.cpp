// Fig. 8 — distribution of R_nnzE and memory requirements of CSCV-Z and
// CSCV-M over (S_VVec, S_ImgB, S_VxG) combinations.
//
// Expected trends (paper): R_nnzE rises with every parameter; CSCV-M's
// memory requirement is far below CSCV-Z's and nearly independent of S_VxG
// and S_ImgB; moving S_VVec 4 -> 8 shrinks CSCV-M (mask bytes halve per
// value).
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Fig. 8: R_nnzE and memory requirements over parameters, dataset " +
                         dataset.name + " (single precision)");
  auto m = benchlib::build_matrices<float>(dataset);
  const std::size_t vec_bytes = benchlib::vector_bytes<float>(
      static_cast<std::size_t>(m.csc.cols()), static_cast<std::size_t>(m.csc.rows()));

  util::Table t({"S_VVec", "S_ImgB", "S_VxG", "R_nnzE", "M_Rit Z", "M_Rit M", "VxGs"});
  for (int s_vvec : {4, 8, 16}) {
    for (int s_imgb : {8, 16, 32, 64}) {
      for (int s_vxg : {1, 2, 4, 8, 16}) {
        core::CscvParams p{.s_vvec = s_vvec, .s_imgb = s_imgb, .s_vxg = s_vxg};
        auto z = core::CscvMatrix<float>::build(m.csc, m.layout, p,
                                                core::CscvMatrix<float>::Variant::kZ);
        auto mm = core::CscvMatrix<float>::build(m.csc, m.layout, p,
                                                 core::CscvMatrix<float>::Variant::kM);
        t.add(s_vvec, s_imgb, s_vxg, util::fmt_fixed(z.r_nnze(), 3),
              util::fmt_bytes(benchlib::memory_requirement(z.matrix_bytes(), vec_bytes)),
              util::fmt_bytes(benchlib::memory_requirement(mm.matrix_bytes(), vec_bytes)),
              static_cast<long long>(z.num_vxgs()));
      }
    }
  }
  benchlib::print_table(t, flags.csv);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

// Ablation A4 — reference-trajectory strategy: block center (the paper's
// choice), block corner (worst case per Fig. 5), the per-view min
// envelope, and the constant-reference BTB layout of Wang et al. [14]
// (view-major vectors, no trajectory following) — Fig. 4's comparison as a
// measured SpMV, not just a lattice count.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Ablation: reference-pixel strategy, dataset " + dataset.name +
                         " (single precision)");
  auto m = benchlib::build_matrices<float>(dataset);
  const auto cols = static_cast<std::size_t>(m.csc.cols());
  const auto rows = static_cast<std::size_t>(m.csc.rows());

  util::Table t({"strategy", "R_nnzE", "padded values", "GFLOP/s CSCV-Z (max thr)"});
  for (auto ref : {core::ReferenceStrategy::kBlockCenter, core::ReferenceStrategy::kBlockCorner,
                   core::ReferenceStrategy::kMinEnvelope,
                   core::ReferenceStrategy::kConstantBtb}) {
    core::CscvParams p{.s_vvec = 8, .s_imgb = 32, .s_vxg = 2};
    p.reference = ref;
    const auto cz = std::make_shared<const core::CscvMatrix<float>>(
        core::CscvMatrix<float>::build(m.csc, m.layout, p, core::CscvMatrix<float>::Variant::kZ));
    const auto engine = benchlib::cscv_engine<float>("", cz);
    auto meas = benchlib::measure_spmv(engine, cols, rows, util::max_threads(), flags.iters);
    t.add(core::reference_name(ref), util::fmt_fixed(cz->r_nnze(), 3),
          static_cast<long long>(cz->padded_values()), util::fmt_fixed(meas.gflops, 2));
  }
  benchlib::print_table(t, flags.csv);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

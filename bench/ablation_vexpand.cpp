// Ablation A2 — hardware vexpand (AVX-512) vs soft-vexpand in the
// padding-removal kernels (CSCV-M and SPC5).
//
// This is the paper's SKL-vs-Zen2 single-thread inversion reproduced on one
// machine: forcing the software path models a CPU without AVX-512, where
// CSCV-M's instruction overhead makes it lose to CSCV-Z single-threaded.
#include "bench_common.hpp"
#include "core/dispatch.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Ablation: hardware vexpand vs soft-vexpand, dataset " +
                         dataset.name + " (single precision, 1 thread)");
  // The CSCV-M kernels come from the runtime-dispatched tier (which may carry
  // AVX-512 even in a generic build of this TU); SPC5's expansion is compiled
  // into this binary with the ambient flags, so it has its own caveat.
  const simd::IsaTier tier = core::dispatch::select_tier().tier;
  if (!core::dispatch::resolve_expand_path(simd::ExpandPath::kAuto, false, 8, tier)) {
    std::cout << "NOTE: dispatched tier '" << simd::isa_tier_name(tier)
              << "' has no hardware vexpand; CSCV-M hardware rows replicate the"
                 " soft path.\n";
  }
  if (!(simd::cpu_isa().avx512f && simd::kCompiledAvx512f)) {
    std::cout << "NOTE: no compiled-in AVX-512; SPC5 hardware rows replicate the"
                 " soft path.\n";
  }
  auto m = benchlib::build_matrices<float>(dataset);
  const auto cols = static_cast<std::size_t>(m.csc.cols());
  const auto rows = static_cast<std::size_t>(m.csc.rows());

  util::Table t({"kernel", "expand path", "GFLOP/s", "vs hardware"});

  core::CscvParams p{.s_vvec = 8, .s_imgb = 32, .s_vxg = 4};
  const auto cm = std::make_shared<const core::CscvMatrix<float>>(
      core::CscvMatrix<float>::build(m.csc, m.layout, p, core::CscvMatrix<float>::Variant::kM));
  double hw_gflops = 0.0;
  for (auto path : {simd::ExpandPath::kHardware, simd::ExpandPath::kSoftware}) {
    const auto engine = benchlib::cscv_engine<float>("", cm, false, {.path = path});
    auto meas = benchlib::measure_spmv(engine, cols, rows, 1, flags.iters);
    const bool is_hw = path == simd::ExpandPath::kHardware;
    if (is_hw) hw_gflops = meas.gflops;
    t.add("CSCV-M", is_hw ? "vexpand (AVX-512)" : "soft-vexpand",
          util::fmt_fixed(meas.gflops, 2),
          util::fmt_fixed(hw_gflops > 0 ? meas.gflops / hw_gflops : 1.0, 2));
  }

  auto spc5 = sparse::Spc5Matrix<float>::from_csr(m.csr, 2, 4);
  double spc5_hw = 0.0;
  for (auto path : {simd::ExpandPath::kHardware, simd::ExpandPath::kSoftware}) {
    benchlib::Engine<float> engine{
        "", [&spc5, path](auto x, auto y) { spc5.spmv(x, y, path); },
        spc5.matrix_bytes(), spc5.nnz(), nullptr};
    auto meas = benchlib::measure_spmv(engine, cols, rows, 1, flags.iters);
    const bool is_hw = path == simd::ExpandPath::kHardware;
    if (is_hw) spc5_hw = meas.gflops;
    t.add("SPC5", is_hw ? "vexpand (AVX-512)" : "soft-vexpand",
          util::fmt_fixed(meas.gflops, 2),
          util::fmt_fixed(spc5_hw > 0 ? meas.gflops / spc5_hw : 1.0, 2));
  }

  // Context row: CSCV-Z has no expansion at all (the paper's single-thread
  // winner on the soft-vexpand platform).
  const auto ez = benchlib::cscv_engine<float>(
      "", std::make_shared<const core::CscvMatrix<float>>(core::CscvMatrix<float>::build(
              m.csc, m.layout, p, core::CscvMatrix<float>::Variant::kZ)));
  auto meas = benchlib::measure_spmv(ez, cols, rows, 1, flags.iters);
  t.add("CSCV-Z", "(none)", util::fmt_fixed(meas.gflops, 2), "-");

  benchlib::print_table(t, flags.csv);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

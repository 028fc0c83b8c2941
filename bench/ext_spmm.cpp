// Extension bench — multi-RHS SpMM (Y = A X), the multi-slice CT case:
// one system matrix forward-projects K slices per pass. Per-slice cost
// should drop with K while the matrix streams once, until K overflows the
// cache with vector data.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  auto ks = cli.get_int_list("k", {1, 2, 4, 8});
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Extension: multi-RHS SpMM per-slice throughput, dataset " +
                         dataset.name + " (single precision)");
  auto m = benchlib::build_matrices<float>(dataset);
  const auto cols = static_cast<std::size_t>(m.csc.cols());
  const auto rows = static_cast<std::size_t>(m.csc.rows());
  core::CscvParams p{.s_vvec = 8, .s_imgb = 16, .s_vxg = 4};

  util::Table t({"variant", "K (slices)", "time/pass", "time/slice", "GFLOP/s aggregate"});
  for (auto variant : {core::CscvMatrix<float>::Variant::kZ,
                       core::CscvMatrix<float>::Variant::kM}) {
    auto cm = core::CscvMatrix<float>::build(m.csc, m.layout, p, variant);
    const char* vname =
        variant == core::CscvMatrix<float>::Variant::kZ ? "CSCV-Z" : "CSCV-M";
    for (int k : ks) {
      auto x = sparse::random_vector<float>(cols * static_cast<std::size_t>(k), 1, 0.0, 1.0);
      util::AlignedVector<float> y(rows * static_cast<std::size_t>(k));
      const core::SpmvPlan<float> plan(cm, {.num_rhs = k});
      const double seconds = util::min_time_seconds(flags.iters, [&] { plan.execute(x, y); });
      t.add(vname, k, util::fmt_fixed(seconds * 1e3, 2) + " ms",
            util::fmt_fixed(seconds / k * 1e3, 2) + " ms",
            util::fmt_fixed(
                util::spmv_gflops(static_cast<std::uint64_t>(cm.nnz()) * k, seconds), 2));
    }
  }
  benchlib::print_table(t, flags.csv);
  std::cout << "(K = 1 delegates to the single-RHS kernels; larger K amortizes matrix "
               "traffic per slice)\n";
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

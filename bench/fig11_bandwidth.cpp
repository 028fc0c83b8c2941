// Fig. 11 — memory requirements, best performance and memory-bandwidth
// usage ratio of the SpMV implementations on the mid-size dataset.
//
// The paper's two observations this bench lets you check:
//   1. similar memory requirement -> the bandwidth usage ratio decides
//      (CSCV-M vs SPC5);
//   2. similar usage ratio -> the memory requirement decides (CSCV-M vs
//      CSCV-Z, where Z hits ~98% of peak yet loses on total traffic).
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  if (cli.get_int("scale", 0) == 0) flags.scale = 4;  // larger default: this figure is about memory traffic
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Fig. 11: memory requirement / best GFLOP/s / bandwidth usage, dataset " +
                         dataset.name);
  const double peak = benchlib::measure_peak_bandwidth();
  std::cout << "measured peak read bandwidth M_PBw = "
            << util::fmt_bytes(static_cast<std::size_t>(peak)) << "/s\n";

  auto run = [&]<typename T>(const char* precision) {
    auto m = benchlib::build_matrices<T>(dataset);
    auto engines = benchlib::build_engines<T>(m.csr, m.csc, m.layout);
    const auto cols = static_cast<std::size_t>(m.csc.cols());
    const auto rows = static_cast<std::size_t>(m.csc.rows());
    const std::size_t vec_bytes = benchlib::vector_bytes<T>(cols, rows);
    const int threads = util::max_threads();

    util::Table table({"implementation", "M_Rit", "best GFLOP/s", "R_EM (bw usage)"});
    for (const auto& engine : engines) {
      auto meas = benchlib::measure_spmv(engine, cols, rows, threads, flags.iters);
      const std::size_t m_rit = benchlib::memory_requirement(engine.matrix_bytes, vec_bytes);
      const double r_em = benchlib::bandwidth_usage_ratio(m_rit, meas.seconds, peak);
      table.add(engine.name, util::fmt_bytes(m_rit), util::fmt_fixed(meas.gflops, 2),
                util::fmt_fixed(r_em, 3));
    }
    std::cout << "\n## precision: " << precision << " (threads = " << threads << ")\n";
    benchlib::print_table(table, flags.csv);
  };
  run.operator()<float>("single");
  run.operator()<double>("double");
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

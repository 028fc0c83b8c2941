// Table IV — best performance (GFLOP/s) of each implementation across all
// four datasets, avg and max, per precision.
//
// Shape targets from the paper: CSCV-M first, CSCV-Z or SPC5 second, the
// CSR/CSC/Merge family well behind; single precision roughly doubles
// double precision for the CSCV variants.
#include <map>

#include "bench_common.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  if (cli.get_int("scale", 0) == 0) flags.scale = 4;  // larger default: this figure is about memory traffic
  cli.finish();

  benchlib::print_header("Table IV: best GFLOP/s per implementation over all datasets");
  const auto datasets = benchlib::standard_datasets(flags.scale);
  const int threads = util::max_threads();

  auto run = [&]<typename T>(const char* precision) {
    // engine name -> per-dataset best GFLOP/s
    std::map<std::string, std::vector<double>> results;
    std::vector<std::string> order;
    for (const auto& dataset : datasets) {
      auto m = benchlib::build_matrices<T>(dataset);
      auto engines = benchlib::build_engines<T>(m.csr, m.csc, m.layout);
      const auto cols = static_cast<std::size_t>(m.csc.cols());
      const auto rows = static_cast<std::size_t>(m.csc.rows());
      for (const auto& engine : engines) {
        auto meas = benchlib::measure_spmv(engine, cols, rows, threads, flags.iters);
        if (results.find(engine.name) == results.end()) order.push_back(engine.name);
        results[engine.name].push_back(meas.gflops);
      }
    }

    std::vector<std::string> header{"implementation", "avg. perf.", "max. perf."};
    for (const auto& d : datasets) header.push_back(d.name);
    util::Table table(header);
    for (const auto& name : order) {
      const auto& xs = results[name];
      auto s = util::summarize(std::span<const double>(xs));
      std::vector<std::string> row{name, util::fmt_fixed(s.mean, 2),
                                   util::fmt_fixed(s.max, 2)};
      for (double g : xs) row.push_back(util::fmt_fixed(g, 2));
      table.add_row(std::move(row));
    }
    std::cout << "\n## precision: " << precision << " (threads = " << threads << ")\n";
    benchlib::print_table(table, flags.csv);
  };
  run.operator()<float>("single");
  run.operator()<double>("double");

  std::cout << "\n# paper (Table IV, Zen2, single): CSCV-M 92.44 avg / 96.93 max,"
               " CSCV-Z 73.36 / 79.47, MKL-CSR 43.75 / 54.57, MKL-CSC 41.56 / 44.63,"
               " Merge 30.84 / 39.49\n";
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

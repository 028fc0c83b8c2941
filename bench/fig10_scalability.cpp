// Fig. 10 — scalability of the SpMV implementations in GFLOP/s over thread
// counts, both precisions.
//
// NOTE (environment substitution, see DESIGN.md): the paper sweeps 1..64
// threads on dual-socket machines; this container exposes a single
// hardware core, so thread counts beyond 1 show oversubscription rather
// than scaling. The harness still sweeps 1 .. 2x hardware threads so the
// figure regenerates faithfully on real multi-core machines.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  auto dataset = benchlib::tuning_dataset(flags.scale);
  benchlib::print_header("Fig. 10: scalability in GFLOP/s, dataset " + dataset.name);
  const auto threads = benchlib::scalability_thread_counts();

  benchlib::BenchReport report;
  auto run = [&]<typename T>(const char* precision) {
    auto m = benchlib::build_matrices<T>(dataset);
    auto engines = benchlib::build_engines<T>(m.csr, m.csc, m.layout);
    const auto cols = static_cast<std::size_t>(m.csc.cols());
    const auto rows = static_cast<std::size_t>(m.csc.rows());

    std::vector<std::string> header{"implementation"};
    for (int t : threads) header.push_back(std::to_string(t) + " thr");
    util::Table table(header);
    for (const auto& engine : engines) {
      std::vector<std::string> row{engine.name};
      for (int t : threads) {
        auto samples = benchlib::measure_spmv_samples(engine, cols, rows, t, flags.iters);
        // Table keeps the paper protocol (GFLOP/s over min time); the JSON
        // record carries the whole distribution.
        row.push_back(util::fmt_fixed(
            util::spmv_gflops(static_cast<std::uint64_t>(engine.nnz), samples.min), 2));
        report.records.push_back(benchlib::make_spmv_record(dataset.name, engine, t,
                                                            flags.iters, cols, rows,
                                                            samples));
      }
      table.add_row(std::move(row));
    }
    std::cout << "\n## precision: " << precision << "\n";
    benchlib::print_table(table, flags.csv);
  };
  run.operator()<float>("single");
  run.operator()<double>("double");
  benchlib::maybe_write_report(flags, std::move(report), "fig10");
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

// Table II — information of the matrix datasets.
//
// Prints the scaled dataset family actually used by the benches alongside
// the paper's original parameters, so the structural invariants (bins ~
// sqrt(2) x image, nnz/column/view ~ 2.6, limited-angle last dataset) can
// be checked at both scales.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  benchlib::print_header("Table II: information of the matrix datasets (scale 1/" +
                         std::to_string(flags.scale) + ")");

  util::Table t({"img size", "num bin", "num view", "delta angle", "nnz", "x size",
                 "y size", "nnz/col/view", "use"});
  benchlib::BenchReport report;
  for (const auto& dataset : benchlib::standard_datasets(flags.scale)) {
    auto m = benchlib::build_matrices<float>(dataset);
    const auto& g = dataset.geometry;
    const double per_col_view = static_cast<double>(m.csc.nnz()) /
                                (static_cast<double>(m.csc.cols()) * g.num_views);
    t.add(dataset.name, g.num_bins, g.num_views,
          util::fmt_fixed(g.delta_angle_deg, 4) + " deg", m.csc.nnz(), m.csc.cols(),
          m.csc.rows(), util::fmt_fixed(per_col_view, 2),
          dataset.clinical ? "clinical" : "micro/limited-angle");
    // Structural record: machine-independent, so any drift against a
    // baseline is a generator change, not noise.
    benchlib::BenchRecord r;
    r.workload = dataset.name;
    r.engine = "dataset";
    r.precision = "f32";
    r.set("nnz", static_cast<double>(m.csc.nnz()));
    r.set("cols", static_cast<double>(m.csc.cols()));
    r.set("rows", static_cast<double>(m.csc.rows()));
    r.set("num_bins", g.num_bins);
    r.set("num_views", g.num_views);
    r.set("nnz_per_col_view", per_col_view);
    report.records.push_back(std::move(r));
  }
  benchlib::print_table(t, flags.csv);
  benchlib::maybe_write_report(flags, std::move(report), "table2");

  std::cout << "\n# paper originals (Table II), regenerable with --scale=1:\n";
  util::Table p({"img size", "num bin", "num view", "delta angle", "nnz"});
  p.add("512x512", 730, 240, "0.75 deg", "166148730");
  p.add("768x768", 1096, 480, "0.375 deg", "747032208");
  p.add("1024x1024", 1460, 480, "0.375 deg", "1328114108");
  p.add("2048x2048", 2920, 160, "0.1875 deg", "1750179564");
  benchlib::print_table(p, flags.csv);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

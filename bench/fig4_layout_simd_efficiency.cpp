// Fig. 4 — SIMD-efficiency comparison under different layouts of vector y.
//
// On the Table I example block, count how many slots of each S_VVec-wide
// vector hold nonzeros of the column being processed, for the bin-major,
// view-major (BTB) and IOBLR-major layouts. The paper reports ranges
// 3, 2~6 and 7~8 respectively for S_VVec = 8.
#include <algorithm>

#include "bench_common.hpp"
#include "core/analysis.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  cli.finish();

  benchlib::print_header("Fig. 4: SIMD efficiency per y layout (Table I example block)");

  auto example = benchlib::table1_example();
  auto a = ct::build_system_matrix_csc<double>(example.geometry);

  util::Table t({"layout", "min", "max", "mean", "vector ops", "paper range"});
  struct Row {
    const char* name;
    core::YLayout layout;
    const char* paper;
  };
  const Row rows[] = {Row{"bin-major", core::YLayout::kBinMajor, "3"},
                      Row{"view-major (BTB)", core::YLayout::kViewMajor, "2~6"},
                      Row{"IOBLR-major (CSCV)", core::YLayout::kIoblr, "7~8"}};
  benchlib::BenchReport report;
  for (const Row& row : rows) {
    auto eff = core::simd_efficiency(a, example.layout, example.spec, row.layout);
    t.add(row.name, eff.min, eff.max, util::fmt_fixed(eff.mean, 2),
          static_cast<long long>(eff.vectors), row.paper);
    benchlib::BenchRecord r;
    r.workload = "table1-example";
    r.engine = row.name;
    r.precision = "f64";
    r.set("simd_efficiency_min", eff.min);
    r.set("simd_efficiency_max", eff.max);
    r.set("simd_efficiency_mean", eff.mean);
    r.set("vector_ops", static_cast<double>(eff.vectors));
    report.records.push_back(std::move(r));
  }
  benchlib::print_table(t, flags.csv);

  // The Table I block starts at 32 degrees, near the extremum of the block's
  // projection sinusoid, where trajectories are momentarily flat and
  // view-major looks as good as IOBLR. Aggregating over EVERY view group of
  // the half turn shows the layouts' true separation: view-major decays
  // wherever trajectories have slope, IOBLR does not.
  std::cout << "\n# aggregated over all view groups (0..180 deg):\n";
  util::Table agg({"layout", "min", "max", "mean", "vector ops"});
  for (const Row& row : rows) {
    core::SimdEfficiency total;
    double weighted_mean = 0.0;
    for (int v0 = 0; v0 + example.spec.s_vvec <= example.geometry.num_views;
         v0 += example.spec.s_vvec) {
      auto spec = example.spec;
      spec.v0 = v0;
      auto eff = core::simd_efficiency(a, example.layout, spec, row.layout);
      if (eff.vectors == 0) continue;
      if (total.vectors == 0) {
        total.min = eff.min;
        total.max = eff.max;
      } else {
        total.min = std::min(total.min, eff.min);
        total.max = std::max(total.max, eff.max);
      }
      weighted_mean += eff.mean * static_cast<double>(eff.vectors);
      total.vectors += eff.vectors;
    }
    agg.add(row.name, total.min, total.max,
            util::fmt_fixed(weighted_mean / static_cast<double>(total.vectors), 2),
            static_cast<long long>(total.vectors));
    benchlib::BenchRecord r;
    r.workload = "all-view-groups";
    r.engine = row.name;
    r.precision = "f64";
    r.set("simd_efficiency_min", total.min);
    r.set("simd_efficiency_max", total.max);
    r.set("simd_efficiency_mean", weighted_mean / static_cast<double>(total.vectors));
    r.set("vector_ops", static_cast<double>(total.vectors));
    report.records.push_back(std::move(r));
  }
  benchlib::print_table(agg, flags.csv);
  benchlib::maybe_write_report(flags, std::move(report), "fig4");
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

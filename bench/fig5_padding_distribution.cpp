// Fig. 5 — distribution of zero-padding, CSCVE count and bin offsets over
// candidate reference pixels of the Table I example block.
//
// Prints one row per candidate reference pixel (the 5x5 block), matching
// the paper's heat maps, plus the block-center choice the CSCV builder
// uses. Lower padding = better reference; the center pixel should be at or
// near the minimum.
#include <algorithm>

#include "bench_common.hpp"
#include "core/analysis.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  auto flags = benchlib::parse_bench_flags(cli);
  const bool show_layout = cli.get_bool("layout");
  cli.finish();

  benchlib::print_header("Fig. 5: padding / CSCVE count / bin offsets per reference pixel");

  auto example = benchlib::table1_example();
  auto a = ct::build_system_matrix_csc<double>(example.geometry);
  auto stats = core::all_reference_pixel_stats(a, example.layout, example.spec);

  util::Table t({"ref pixel", "padding zeros", "CSCVEs", "offset min", "offset max",
                 "offset span"});
  for (const auto& s : stats) {
    // Built with += (not one operator+ chain): gcc 12's -Wrestrict misfires
    // on the inlined chained concatenation, and CI builds with -Werror.
    std::string pixel = "(";
    pixel += std::to_string(s.ref_px);
    pixel += ",";
    pixel += std::to_string(s.ref_py);
    pixel += ")";
    t.add(pixel,
          static_cast<long long>(s.padding_zeros), static_cast<long long>(s.cscve_count),
          s.offset_min, s.offset_max, s.offset_max - s.offset_min + 1);
  }
  benchlib::print_table(t, flags.csv);

  const auto best = std::min_element(stats.begin(), stats.end(),
                                     [](const auto& x, const auto& y) {
                                       return x.padding_zeros < y.padding_zeros;
                                     });
  const int cx = example.spec.px0 + (example.spec.px1 - example.spec.px0) / 2;
  const int cy = example.spec.py0 + (example.spec.py1 - example.spec.py0) / 2;
  const auto center = core::reference_pixel_stats(a, example.layout, example.spec, cx, cy);
  std::cout << "\nbest reference: (" << best->ref_px << "," << best->ref_py << ") with "
            << best->padding_zeros << " padding zeros\n";
  std::cout << "block-center reference (" << cx << "," << cy << "): "
            << center.padding_zeros << " padding zeros, " << center.cscve_count
            << " CSCVEs\n";

  if (show_layout) {
    // Fig. 3 companion: the center-reference layout in one line per metric.
    std::cout << "\n# Fig. 3 layout summary (center reference): offsets span "
              << center.offset_min << ".." << center.offset_max
              << " parallel curves; each CSCVE stores " << example.spec.s_vvec
              << " lanes; " << center.cscve_count << " CSCVEs total\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

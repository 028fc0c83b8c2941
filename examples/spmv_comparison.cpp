// Head-to-head SpMV comparison on a CT matrix (or any Matrix Market file
// with integral-operator row/column semantics) — a miniature of the
// paper's Figure 11 for end users.
//
//   ./spmv_comparison [--image=128] [--views=60] [--iters=12] [--threads=N]
//   ./spmv_comparison --mtx=matrix.mtx --image=N --bins=B --views=V
#include <iostream>

#include "benchlib/bandwidth.hpp"
#include "benchlib/engines.hpp"
#include "benchlib/runner.hpp"
#include "ct/system_matrix.hpp"
#include "sparse/mmio.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  const int image = cli.get_int("image", 128);
  const int views = cli.get_int("views", 60);
  const int bins = cli.get_int("bins", ct::standard_num_bins(image));
  const int iters = cli.get_int("iters", 12);
  const int threads = cli.get_int("threads", util::max_threads());
  const std::string mtx = cli.get_string("mtx", "");
  cli.finish();

  sparse::CscMatrix<float> csc;
  core::OperatorLayout layout{image, bins, views};
  if (!mtx.empty()) {
    // External matrix: the user asserts its rows are (view, bin) pairs and
    // its columns an image x image pixel grid.
    auto coo = sparse::read_matrix_market_file<float>(mtx);
    csc = sparse::CscMatrix<float>::from_coo(coo);
    std::cout << "loaded " << mtx << ": " << csc.rows() << " x " << csc.cols() << ", "
              << csc.nnz() << " nnz\n";
  } else {
    const auto geometry = ct::standard_geometry(image, views);
    layout = core::OperatorLayout::from_geometry(geometry);
    csc = ct::build_system_matrix_csc<float>(geometry);
    std::cout << "built CT matrix " << image << "x" << image << " / " << views
              << " views: " << csc.nnz() << " nnz\n";
  }
  auto csr = sparse::CsrMatrix<float>::from_coo(csc.to_coo());

  auto engines = benchlib::build_engines<float>(csr, csc, layout);
  const auto cols = static_cast<std::size_t>(csc.cols());
  const auto rows = static_cast<std::size_t>(csc.rows());
  const std::size_t vec_bytes = benchlib::vector_bytes<float>(cols, rows);
  const double peak = benchlib::measure_peak_bandwidth(128, 3);

  util::Table t({"engine", "GFLOP/s", "speedup vs CSR", "M_Rit", "bandwidth usage"});
  double csr_gflops = 0.0;
  for (const auto& engine : engines) {
    const auto meas = benchlib::measure_spmv(engine, cols, rows, threads, iters);
    if (engine.name == "CSR") csr_gflops = meas.gflops;
    const std::size_t m_rit = benchlib::memory_requirement(engine.matrix_bytes, vec_bytes);
    t.add(engine.name, util::fmt_fixed(meas.gflops, 2),
          csr_gflops > 0 ? util::fmt_fixed(meas.gflops / csr_gflops, 2) + "x" : "-",
          util::fmt_bytes(m_rit),
          util::fmt_fixed(benchlib::bandwidth_usage_ratio(m_rit, meas.seconds, peak), 3));
  }
  t.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

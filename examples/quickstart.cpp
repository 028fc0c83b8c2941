// Quickstart: build a CT system matrix, convert it to CSCV, run SpMV, and
// check the result against the CSR reference.
//
//   ./quickstart [--image=128] [--views=60]
//
// This is the ~40-line tour of the public API:
//   1. describe the scanner            (ct::ParallelGeometry)
//   2. build the system matrix         (ct::build_system_matrix_csc)
//   3. convert to CSCV                 (core::CscvMatrix::build)
//   4. project an image                (core::SpmvPlan + SpmvPlan::execute)
#include <iostream>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  const int image = cli.get_int("image", 128);
  const int views = cli.get_int("views", 60);
  cli.finish();

  // 1. A parallel-beam scanner: `image` x `image` pixels, detector wide
  //    enough to cover the diagonal, `views` angles over 180 degrees.
  const auto geometry = ct::standard_geometry(image, views);
  std::cout << "geometry: " << image << "x" << image << " image, " << geometry.num_bins
            << " bins, " << views << " views\n";

  // 2. The system matrix (CSC layout comes straight out of the builder).
  const auto csc = ct::build_system_matrix_csc<float>(geometry);
  std::cout << "system matrix: " << csc.rows() << " x " << csc.cols() << ", "
            << csc.nnz() << " nonzeros\n";

  // 3. CSCV conversion. S_VVec: CSCVE lanes; S_ImgB: pixel tile side;
  //    S_VxG: CSCVEs fused per index entry.
  const core::CscvParams params{.s_vvec = 8, .s_imgb = 32, .s_vxg = 4};
  const auto layout = core::OperatorLayout::from_geometry(geometry);
  const auto cscv = core::CscvMatrix<float>::build(csc, layout, params,
                                                   core::CscvMatrix<float>::Variant::kM);
  std::cout << "CSCV-M: " << cscv.num_vxgs() << " VxGs, zero-padding rate R_nnzE = "
            << cscv.r_nnze() << "\n";

  // 4. Forward projection of the Shepp-Logan phantom. An SpmvPlan is the
  //    one way to apply the matrix: it builds the execution context (kernel
  //    dispatch, thread partition, scratch) once, and every `execute` after
  //    that is the pure warm apply. Hold it for as long as you iterate.
  const auto phantom = ct::rasterize<float>(ct::shepp_logan_modified(), image);
  util::AlignedVector<float> sinogram(static_cast<std::size_t>(csc.rows()));
  const core::SpmvPlan<float> plan(cscv);
  const double seconds =
      util::min_time_seconds(10, [&] { plan.execute(phantom, sinogram); });
  std::cout << "CSCV SpMV: " << util::spmv_gflops(static_cast<std::uint64_t>(cscv.nnz()),
                                                  seconds)
            << " GFLOP/s (min of 10 runs)\n";

  // Sanity: same result as the plain CSR kernel.
  const auto csr = sparse::CsrMatrix<float>::from_coo(csc.to_coo());
  util::AlignedVector<float> reference(sinogram.size());
  csr.spmv(phantom, reference);
  std::cout << "relative L2 error vs CSR reference: "
            << util::rel_l2_error<float>(sinogram, reference) << "\n";
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}

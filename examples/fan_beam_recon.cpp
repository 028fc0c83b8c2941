// Fan-beam CT reconstruction with CSCV — the paper's "different CT imaging
// geometries" generalization, end to end.
//
//   ./fan_beam_recon [--image=96] [--views=180] [--iters=60]
//
// Builds a flat-detector fan-beam system matrix, converts it to CSCV
// through the very same OperatorLayout used for parallel beam, projects the
// Shepp-Logan phantom, reconstructs with OS-SART, and reports the padding
// rate + RMSE. No CSCV code changes for the new geometry — only the matrix
// builder differs.
#include <iostream>

#include "core/format.hpp"
#include "ct/fan_beam.hpp"
#include "ct/phantom.hpp"
#include "recon/solvers.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  const int image = cli.get_int("image", 96);
  const int views = cli.get_int("views", 180);
  const int iters = cli.get_int("iters", 60);
  cli.finish();

  const auto geometry = ct::standard_fan_geometry(image, views);
  std::cout << "fan-beam: source distance " << geometry.source_distance << " px, "
            << geometry.num_bins << " bins, " << views << " views over 360 deg\n";

  util::WallTimer timer;
  const auto csc = ct::build_fan_system_matrix_csc<double>(geometry);
  std::cout << "system matrix: " << csc.nnz() << " nnz, built in " << timer.seconds()
            << " s\n";

  // Same OperatorLayout, same CSCV builder — geometry-independence in action.
  const core::OperatorLayout layout{geometry.image_size, geometry.num_bins,
                                    geometry.num_views};
  const auto cscv = core::CscvMatrix<double>::build(
      csc, layout, {.s_vvec = 8, .s_imgb = 16, .s_vxg = 4},
      core::CscvMatrix<double>::Variant::kM);
  std::cout << "CSCV-M on fan geometry: R_nnzE = " << cscv.r_nnze() << ", "
            << cscv.num_vxgs() << " VxGs\n";

  const auto phantom = ct::shepp_logan_modified();
  const auto truth = ct::rasterize<double>(phantom, image);
  util::AlignedVector<double> sinogram(static_cast<std::size_t>(csc.rows()));
  const core::SpmvPlan<double> plan(cscv);
  plan.execute(truth, sinogram);

  util::AlignedVector<double> x(static_cast<std::size_t>(csc.cols()), 0.0);
  timer.reset();
  auto stats = recon::os_sart<double>(recon::PlanOperator<double>(plan), sinogram, x,
                                      12, {.iterations = iters, .relaxation = 0.7});
  std::cout << "OS-SART (" << iters << " passes, 12 subsets): residual "
            << stats.residual_norms.front() << " -> " << stats.residual_norms.back()
            << " in " << timer.seconds() << " s\n";
  std::cout << "image RMSE vs phantom: " << util::rmse<double>(x, truth) << "\n";
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}
